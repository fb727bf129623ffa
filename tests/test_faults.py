"""The fault catalogue: a kernel off by one must show as a failed report, not as silence.

Each fault is a monkeypatch of one kernel, one coefficient one too high.
The tests name the exact reports of `run_all_verifiers(12, [1, 2, 3, 4])`
that fail under it, so a fault that passes unseen, or a report that stops
catching it, fails here; `verify` through `cli.main` must then exit 1 and
print FAIL for the same reports.  A fault that a table's own cross-check
catches raises `ArithmeticError` naming both counts, and every command
ends it in an `error:` line and exit 1, never a traceback.
"""

import pytest

from kummerchi import dd_partitions, kummer, layered, partitions, verify
from kummerchi.cli import EXIT_IDENTITY_FAILURE, main
from kummerchi.verify import run_all_verifiers

GENUS = [1, 2, 3, 4]
MAX_N = 12
PER_GENUS = {f"{name}(g={g})" for name in ("chi-series", "first-order") for g in GENUS}


def _one_too_high(module, name, hit):
    """A fault: `module.name` with 1 added to its result where `hit(*args)`, or to its
    list's entry `hit(*args)` where that is an index."""
    real = getattr(module, name)

    def faulty(*args):
        value = real(*args)
        where = hit(*args)
        if isinstance(value, list):
            if where is not None and where < len(value):
                value[where] += 1
            return value
        return value + bool(where)
    return faulty


def _c_fault(monkeypatch):
    monkeypatch.setattr(partitions, "_c_closed", _one_too_high(
        partitions, "_c_closed", lambda n, parts, dfact: (n, parts) == (7, 3)))


def _log_fault(monkeypatch):
    monkeypatch.setattr(verify, "_log_numerators", _one_too_high(
        verify, "_log_numerators", lambda p: 11))


def _sigma_fault(monkeypatch):
    faulty = _one_too_high(kummer, "sigma", lambda k, n: n == 10)
    monkeypatch.setattr(kummer, "sigma", faulty)
    monkeypatch.setattr(verify, "sigma", faulty)


def _product_fault(monkeypatch):
    # P_1 and P_2 are both wrong at 11
    monkeypatch.setattr(dd_partitions, "product_expansion", _one_too_high(
        dd_partitions, "product_expansion", lambda exponent, order: 11))


def _layered_fault(monkeypatch):
    monkeypatch.setattr(layered, "count_pd_table", _one_too_high(
        layered, "count_pd_table", lambda d, max_n: 11 if d == 3 else None))


CAUGHT = {
    "c-closed": (_c_fault, {"single-step"} | PER_GENUS),
    "log-numerators": (_log_fault, PER_GENUS),
    "sigma": (_sigma_fault, {"sigma2-convolution", "chi-series(g=3)"}),
    "product-expansion": (_product_fault, {"sigma2-convolution", "chi-series(g=3)"}),
}


def _failing(reports):
    return {r.name for r in reports if not r.passed}


def test_no_report_fails_without_a_fault():
    assert _failing(run_all_verifiers(MAX_N, GENUS)) == set()


@pytest.mark.parametrize("fault", sorted(CAUGHT))
def test_each_fault_fails_exactly_its_reports(fault, monkeypatch, capsys):
    patch, expected = CAUGHT[fault]
    patch(monkeypatch)
    assert _failing(run_all_verifiers(MAX_N, GENUS)) == expected
    code = main(["verify", "--genus", ",".join(map(str, GENUS)), "--max-n", str(MAX_N)])
    out, err = capsys.readouterr()
    assert (code, err) == (EXIT_IDENTITY_FAILURE, "")
    assert {line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")} == expected


def test_a_product_fault_is_unseen_at_genus_1_and_2(monkeypatch):
    # the known blind spot: routes 2 and 3 read the same wrong P_0 or P_1 table and agree,
    # and no closed form checks g = 1 or 2; only sigma_2 and the g = 3 closed form see P_2
    _product_fault(monkeypatch)
    reports = {r.name: r for r in run_all_verifiers(MAX_N, GENUS)}
    assert all(reports[f"{name}(g={g})"].passed
               for name in ("chi-series", "first-order") for g in (1, 2))


_LAYERED_ERROR = "P_3(11): layered gives 6501, DFS gives 6500"


def test_a_layered_fault_raises_with_both_counts(monkeypatch):
    _layered_fault(monkeypatch)
    with pytest.raises(ArithmeticError) as caught:
        run_all_verifiers(MAX_N, GENUS)
    assert type(caught.value) is ArithmeticError and str(caught.value) == _LAYERED_ERROR


@pytest.mark.parametrize("argv", [
    ["verify", "--genus", "1,2,3,4", "--max-n", "12"],
    ["pd", "--dim", "3", "--max-n", "12"],
    ["table", "--genus", "4", "--max-n", "12"],
])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_layered_fault_is_an_error_line_and_exit_1(argv, fmt, monkeypatch, capsys):
    # these commands compute before they write, so stdout stays empty
    _layered_fault(monkeypatch)
    code = main([*argv, "--format", fmt])
    assert (code, *capsys.readouterr()) == (EXIT_IDENTITY_FAILURE, "", f"error: {_LAYERED_ERROR}\n")


def test_a_streaming_command_ends_a_failed_check_with_an_error_line(monkeypatch, capsys):
    # `c-table` writes rows as the walk makes them, so its stdout may hold some
    def not_an_integer(n, parts, dfact):
        raise ArithmeticError(f"c({n}, {parts} parts, {dfact}) is not an integer")

    monkeypatch.setattr(partitions, "_c_closed", not_an_integer)
    code = main(["c-table", "--max-n", "5"])
    assert (code, capsys.readouterr().err) == (
        EXIT_IDENTITY_FAILURE, "error: c(5, 1 parts, 1) is not an integer\n")


@pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
def test_a_subclass_of_arithmetic_error_is_a_bug_and_propagates(error, monkeypatch):
    def broken(*args):
        raise error("broken kernel")

    monkeypatch.setattr(partitions, "_c_closed", broken)
    with pytest.raises(error, match="broken kernel"):
        main(["table", "--genus", "2", "--max-n", "3"])
