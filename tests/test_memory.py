"""Route 2 and `c-table` hold one partition at a time, not all p(n) of them,
and the layered count holds ints, not nested tuples, at its caps, and
nothing once it returns.

Peaks, and what a call leaves behind, are measured with `tracemalloc`, so
they count Python allocations only and do not depend on the interpreter's
resident floor.
"""

import gc
import io
import sys
import tracemalloc

import pytest

from kummerchi import cli, kummer, layered

MB = 1 << 20  # MiB


class _Sink(io.TextIOBase):
    """A text stream that discards what it is given."""

    def write(self, text):
        return len(text)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Before the rows were streamed these peaks were 14.8 MiB (json), 3.1 MiB
# (csv) and 6.1 MiB (text) on Python 3.11.  With JSON and CSV streamed and
# text keeping every cell string of the p(35) = 14,883 rows for its column
# widths, 0.06, 0.17 and 3.7 MiB; with text reading the rows twice and
# keeping none, 0.07, 0.19 and 0.18 MiB.
@pytest.mark.parametrize("fmt, limit_mb", [("json", 1), ("csv", 1), ("text", 1)])
def test_c_table_streams_its_rows(monkeypatch, fmt, limit_mb):
    monkeypatch.setattr(sys, "stdout", _Sink())
    codes = []
    peak = traced_peak(lambda: codes.append(
        cli.main(["c-table", "--max-n", "35", "--format", fmt])))
    assert codes == [cli.EXIT_OK]
    assert peak < limit_mb * MB, f"{peak / MB:.2f} MiB"


def test_ns_from_c_holds_no_list_of_partitions():
    # a list of the 37,338 partitions of 40 took 6.8 MiB
    values = []
    peak = traced_peak(lambda: values.append(kummer.ns_from_c(40, 2)))
    assert values == [kummer.sigma(1, 40)]
    assert peak < 1 * MB, f"{peak / MB:.2f} MiB"


def test_layered_count_at_the_d30_cap_holds_little():
    # with nested tuples for ideals, the memo and slice caches of (30, 5) peaked
    # at 76 MiB; as ints over the cells of the staircase, 0.4 MiB
    values = []
    peak = traced_peak(lambda: values.append(layered.count_pd_table(30, 5)))
    assert values == [[1, 1, 31, 496, 5921, 60791]]
    assert peak < 4 * MB, f"{peak / MB:.2f} MiB"


def test_layered_count_keeps_nothing_after_it_returns():
    # the memo and the cell table live for one call; kept in module globals until
    # a count in another d, they held 459 KiB after this table
    tracemalloc.start()
    try:
        assert layered.count_pd_table(3, 18)[18] == 805124
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16 * 1024, f"{held / 1024:.1f} KiB"
