"""The refusal contract as one property over the CLI's argument space.

Every request ends in an answer or in a refusal before any exponential
work starts.  The innermost kernels are patched to raise `Tripped`, so a
request that starts counting trips whatever path it took.  A small
oracle, built from the cap tables alone, names the first cap a request
exceeds: a refused request must exit 2 with that cap's message and trip
nothing, and an admitted one must trip.
"""

import io
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kummerchi import cli, dd_partitions, kummer, partitions
from kummerchi.cli import EXIT_CAP
from kummerchi.dd_partitions import (_HIGHER_DIM_CAP, _LAYERED_CAPS, _PRODUCT_CAP,
                                     DEFAULT_ENUM_CAPS, EnumerationCapError)


class Tripped(Exception):
    """A kernel was called: the request got as far as counting."""


_KERNELS = ((partitions, "_strata"), (dd_partitions, "product_expansion"), (dd_partitions, "_cells"),
            (dd_partitions, "_chain_count"), (dd_partitions, "_lex_walk"))


def _trip(*args, **kwargs):
    raise Tripped


def _run(argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code, or None if a kernel was called; stdout; stderr) of `kummerchi argv`."""
    out, err = io.StringIO(), io.StringIO()
    with ExitStack() as stack:
        for module, name in _KERNELS:
            stack.enter_context(mock.patch.object(module, name, _trip))
        stack.enter_context(redirect_stdout(out))
        stack.enter_context(redirect_stderr(err))
        try:
            code = cli.main(argv)
        except Tripped:
            code = None
    return code, out.getvalue(), err.getvalue()


def _expected_refusal(command: str, k, max_n: int, enum_cap: int | None) -> str | None:
    """The error line of the first cap the request exceeds, or None if none is exceeded.

    `k` is --dim for `pd`, --genus for `table` and the list of genera for
    `verify`.  The caps come in the order the commands meet them; a table
    of P_d for the Kummer routes is DFS-checked at every n for d >= 3 only.
    d above the last key of `_LAYERED_CAPS` gets a cap of 1, as P_d(0) =
    P_d(1) = 1 in every d.
    """
    def enumerating(d):
        cap = enum_cap or DEFAULT_ENUM_CAPS.get(d, _HIGHER_DIM_CAP)
        return "enumerating", d, cap, "; raise the limit with --enum-cap"

    def counting(d):
        if d <= 2:
            return "counting", d, _PRODUCT_CAP, " set by the running time of the product expansion"
        cap = _LAYERED_CAPS.get(min((key for key in _LAYERED_CAPS if key >= d), default=0), 1)
        return "counting", d, cap, " set by the running time of the layered count"

    def kummer_table(d):
        return [enumerating(d), counting(d)] if d >= 3 else [counting(d)] if d else []

    if command == "pd":
        caps = [enumerating(k)] * (k >= 4) + [counting(k)]
    elif command == "table":
        caps = [enumerating(1)] * (k != 3) + kummer_table(k - 1)
    elif command == "c-table":
        caps = [enumerating(1), counting(2)]
    else:
        caps = [enumerating(1), counting(2)] + [c for g in k for c in kummer_table(g - 1)]
    for verb, d, cap, tail in caps:
        if max_n > cap:
            return (f"error: {verb} {d}-dimensional partitions of {max_n} "
                    f"exceeds the cap of {cap}{tail}")
    return None


# most of the argument space lies past every cap, so the caps and the
# dimensions that have their own caps are drawn as often as the rest
_SMALL_CAPS = [*DEFAULT_ENUM_CAPS.values(), _HIGHER_DIM_CAP, *_LAYERED_CAPS.values()]
_NEAR_CAPS = sorted({cap + step for cap in _SMALL_CAPS for step in (0, 1)})
_DIM = st.integers(1, 40) | st.integers(1, 5)


def _request(command, max_n, k=None, enum_cap=None, fmt="text"):
    """(argv, command, k, max_n, enum_cap) of one request; `k` as `_expected_refusal` takes it."""
    argv = [command, "--max-n", str(max_n), "--format", fmt]
    if k is not None:
        flag = "--dim" if command == "pd" else "--genus"
        argv += [flag, ",".join(map(str, k)) if command == "verify" else str(k)]
    if enum_cap is not None:
        argv += ["--enum-cap", str(enum_cap)]
    return argv, command, k, max_n, enum_cap


@st.composite
def requests(draw):
    """A valid request, as `_request` gives it."""
    command = draw(st.sampled_from(["table", "c-table", "pd", "verify"]))
    lowest = 0 if command == "pd" else 1
    max_n = draw(st.integers(lowest, 7000) | st.integers(lowest, 60) | st.sampled_from(_NEAR_CAPS)
                 | st.sampled_from([_PRODUCT_CAP, _PRODUCT_CAP + 1]))
    if command == "verify":
        k = draw(st.lists(_DIM, min_size=1, max_size=3))
    else:
        k = None if command == "c-table" else draw(_DIM)
    enum_cap = draw(st.none() | st.integers(1, 600))
    return _request(command, max_n, k, enum_cap, draw(st.sampled_from(cli._FORMATS)))


@settings(database=None, deadline=None, max_examples=800)
@given(requests())
# verify refuses a table of any genus before its first check
@example(_request("verify", 40, [5]))
@example(_request("verify", 40, [1, 2, 3, 42]))
@example(_request("verify", 40, [1, 2, 3, 4], enum_cap=40))
@example(_request("verify", 7000, [2], enum_cap=7000))  # P_2's cap before P_1's
# the layered count past its fixed caps, which --enum-cap does not lift
@example(_request("pd", 30, 3))
@example(_request("pd", 30, 3, enum_cap=30))
@example(_request("pd", 10, 12))
# a layered table past the enumeration cap of its DFS check
@example(_request("pd", 11, 4))
@example(_request("table", 13, 4))
# the product expansions past theirs
@example(_request("table", _PRODUCT_CAP + 1, 3))
@example(_request("pd", _PRODUCT_CAP + 1, 1))
@example(_request("pd", _PRODUCT_CAP + 1, 2, enum_cap=_PRODUCT_CAP + 1))
def test_every_request_refuses_before_it_counts_or_is_admitted(case):
    argv, command, k, max_n, enum_cap = case
    expected = _expected_refusal(command, k, max_n, enum_cap)
    code, out, err = _run(argv)
    if expected is None:
        assert code is None, (argv, code, err)
    else:
        assert (code, out, err) == (EXIT_CAP, "", expected + "\n"), argv


def _tripwires(monkeypatch):
    for module, name in _KERNELS:
        monkeypatch.setattr(module, name, _trip)


def test_a_non_integer_dimension_is_refused_before_counting(monkeypatch):
    # a truthy non-integer d must not take the MacMahon product as if it were 2
    _tripwires(monkeypatch)
    for call in (lambda: dd_partitions.partition_count_table(1.5, 5),
                 lambda: dd_partitions.partition_count_table(0.5, 5),
                 lambda: dd_partitions.partition_count_rows(1.5, 5),
                 lambda: kummer.ns_from_c(4, 1.5),
                 lambda: kummer.run_all_verifiers(5, [1.5])):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()


def test_a_genus_below_1_is_refused_before_counting(monkeypatch):
    # every genus is checked before the P_2 table and the single-step walk, which come
    # first among run_all_verifiers's counts, and the error names g, not d = g - 1
    _tripwires(monkeypatch)
    for call in (lambda: kummer.run_all_verifiers(40, [0]),
                 lambda: kummer.run_all_verifiers(40, [1, 2, -1]),
                 lambda: kummer.kummer_rows(3, g=0),
                 lambda: kummer.verify_chi_series(0, 5),
                 lambda: kummer.verify_first_order(0, 5)):
        with pytest.raises(ValueError, match="^g must be >= 1$"):
            call()


def test_a_max_n_below_1_or_not_an_integer_is_refused_before_counting(monkeypatch):
    # no verifier answers with reports of no checks, and each refuses in kummer_rows's words;
    # a non-integer max_n is refused before a kernel multiplies a list by it
    _tripwires(monkeypatch)
    for call in (lambda: kummer.verify_single_step(-5),
                 lambda: kummer.verify_sigma2_convolution(-2),
                 lambda: kummer.verify_chi_series(1, 0),
                 lambda: kummer.verify_first_order(2, 0),
                 lambda: kummer.run_all_verifiers(0, [1, 2]),
                 lambda: kummer.kummer_rows(0)):
        with pytest.raises(ValueError, match="^max_n must be >= 1$"):
            call()
    for call in (lambda: kummer.verify_single_step(2.5),
                 lambda: kummer.verify_sigma2_convolution(2.5),
                 lambda: kummer.verify_chi_series(2, 2.5),
                 lambda: kummer.run_all_verifiers(2.5, [1]),
                 lambda: kummer.ns_from_c(2.5, 3),
                 lambda: dd_partitions.partition_count_table(2, 3.5),
                 lambda: dd_partitions.partition_count_rows(3, 3.5)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()


def test_verify_single_step_refuses_past_the_walks_cap(monkeypatch):
    # as every other verifier that walks the partitions does, and enum_cap lifts it
    _tripwires(monkeypatch)
    with pytest.raises(EnumerationCapError, match="1-dimensional partitions of 41 exceeds"):
        kummer.verify_single_step(41)
    with pytest.raises(Tripped):
        kummer.verify_single_step(41, enum_cap=41)


def test_a_non_integer_or_negative_n_is_refused_at_the_call(monkeypatch):
    # before a kernel multiplies a list by it, and a generator raises at the call
    _tripwires(monkeypatch)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        dd_partitions.enumerate_pd(2, -1)
    for call in (lambda: dd_partitions.count_pd_alt_table(1, 2.5),
                 lambda: dd_partitions.count_pd_table(2, 2.5),
                 lambda: dd_partitions.enumerate_pd(2, 2.5),
                 lambda: partitions.iter_partitions(2.5),
                 lambda: dd_partitions.DdPartition(1.5, [])):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()


def test_an_enum_cap_below_1_or_not_an_integer_is_refused(monkeypatch):
    # one place turns enum_cap into the cap on n, so no caller reads -3 as "check nothing"
    _tripwires(monkeypatch)
    for enum_cap, error in ((-3, ValueError), (0, ValueError), (2.5, TypeError), ("5", TypeError)):
        for call in (lambda: dd_partitions.partition_count_rows(2, 5, enum_cap=enum_cap),
                     lambda: dd_partitions.count_pd_alt_table(2, 3, enum_cap=enum_cap),
                     lambda: dd_partitions.check_enumeration_cap(1, 3, enum_cap),
                     lambda: dd_partitions.partition_count_table(3, 5, enum_cap=enum_cap),
                     lambda: kummer.kummer_rows(5, 2, enum_cap),
                     lambda: kummer.run_all_verifiers(5, [1], enum_cap)):
            with pytest.raises(error):
                call()
    assert dd_partitions._cap(2, None) == 16
    assert dd_partitions._cap(2, 1) == 1


def _outcome(call):
    """The message of the cap `call` refuses past, or `Tripped` if it starts counting."""
    try:
        call()
    except EnumerationCapError as err:
        return str(err)
    except Tripped:
        return Tripped
    raise AssertionError("neither refused nor counted")


def test_library_entry_points_refuse_as_verify_does(monkeypatch):
    # each checks the walk's cap before its table's, as run_all_verifiers does, so both
    # name the same cap or both start counting; kummer_rows walks nothing at g = 3
    _tripwires(monkeypatch)
    disagree = []
    for g, max_n, enum_cap in product([1, 2, 3, 4, 5, 6, 7, 31],
                                      [1, 2, 5, 6, 10, 11, 12, 13, 16, 40, 41], [None, 13, 41]):
        expected = _outcome(lambda: kummer.run_all_verifiers(max_n, [g], enum_cap))
        calls = {"verify_chi_series": lambda: kummer.verify_chi_series(g, max_n, enum_cap),
                 "verify_first_order": lambda: kummer.verify_first_order(g, max_n, enum_cap),
                 "ns_from_c": lambda: kummer.ns_from_c(max_n, g, enum_cap=enum_cap)}
        if g != 3:
            calls["kummer_rows"] = lambda: kummer.kummer_rows(max_n, g, enum_cap)
        disagree += [(name, g, max_n, enum_cap, outcome) for name, call in calls.items()
                     if (outcome := _outcome(call)) != expected]
    assert disagree == []
