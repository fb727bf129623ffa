"""The identity harness: the checks that the routes of `kummer` agree.

The verify_* functions check, coefficient by coefficient in integers,
that the closed form, the stratification and the logarithm (its b_n =
n * s_n, from `series._log_numerators`) agree, each in a report of the
checks run and a record of each one that fails; a rational is compared
cross-multiplied and recorded as `kummer._ratio` writes it.  A failed
check is data, not an exception; a cap raises `EnumerationCapError`,
never conflated with a failed identity.  Every verifier refuses before
it counts, in the order of the `verify` command, through
`kummer._tables`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import partitions
from .kummer import _ns_table, _ratio, _tables, chi_kummer_closed, sigma
from .series import _log_numerators

__all__ = [
    "Check",
    "Report",
    "verify_sigma2_convolution",
    "verify_single_step",
    "verify_chi_series",
    "verify_first_order",
    "run_all_verifiers",
]


class Check(NamedTuple):
    """One failed identity instance, with both sides kept for the record."""

    identity: str
    n: int
    ok: bool
    lhs: str
    rhs: str
    g: int | None = None
    detail: str = ""


class Report(NamedTuple):
    """What one verifier checked: how many instances, and in `failed` each one that failed."""

    name: str
    count: int
    failed: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return not self.failed


def _report(identity: str, g: int | None, count: int, failed: list[tuple]) -> Report:
    """`count` checks of `identity`, named with the genus if given, and a `Check` per failure,
    each an (n, lhs, rhs) or (n, lhs, rhs, detail) tuple, both sides kept as strings."""
    name = identity if g is None else f"{identity}(g={g})"
    return Report(name, count, tuple(Check(identity, n, False, str(lhs), str(rhs), g, *detail)
                                     for n, lhs, rhs, *detail in failed))


def verify_sigma2_convolution(max_n: int) -> Report:
    """n * P_2(n) = sum_{k=1..n} sigma_2(k) * P_2(n-k), P_2 from the product expansion."""
    return _sigma2_report(_tables(max_n, [3], walk=False)[3])


def _sigma2_report(p2: list[int]) -> Report:
    """The sigma_2 convolution over the P_2 table given, for n = 1..len(p2) - 1."""
    max_n, failed = len(p2) - 1, []
    for n in range(1, max_n + 1):
        lhs = n * p2[n]
        rhs = sum(sigma(2, k) * p2[n - k] for k in range(1, n + 1))
        if lhs != rhs:
            failed.append((n, lhs, rhs))
    return _report("sigma2-convolution", None, max_n, failed)


def verify_single_step(max_n: int, enum_cap: int | None = None) -> Report:
    """Exhaustive check of the one-part-removal relation on c, n = 1..max_n.

    For every alpha of n with at least two parts and every part size i
    present in alpha:

        c(alpha-hat-i) * n * (parts(alpha) - 1) = -alpha_i * (n - i) * c(alpha)

    plus the same relation with the g = 3 geometric factors (n-i)^6/n^6
    left uncancelled (compared in integers), plus the closure: summing over
    the distinct sizes i recovers c(alpha) = -sum_i c(alpha-hat-i), the
    defining recursion, whose base case, single-part alpha, is skipped.  One
    walk gives each alpha's (n, parts, D = prod alpha_i!); c(alpha) is the
    closed form there and c(alpha-hat-i) the same closed form at
    (n - i, parts - 1, D / alpha_i).  Failures come by n, each n's in walk order.
    max_n is subject to the d = 1 cap.
    """
    _tables(max_n, [], enum_cap)  # max_n and the walk's cap; no table is counted
    c_closed = partitions._c_closed
    count, failed = 0, []
    pow5, pow6 = ([k**e for k in range(max_n + 1)] for e in (5, 6))

    def label():  # alpha's `Partition.label`, for the record of a failed check
        return " ".join(f"{i}^{m}" for i, m in reversed(path))

    for n, p, d, _, path in partitions._strata(max_n, [1] * (max_n + 1)):
        if p < 2:
            continue
        ca = c_closed(n, p, d)
        count += 2 * len(path) + 1  # two checks per distinct size i, and the closure
        removed_total = 0
        n6p, n5ca = pow6[n] * (p - 1), pow5[n] * ca
        for i, m in reversed(path):
            chat = c_closed(n - i, p - 1, d // m)
            removed_total += chat
            lhs = chat * n * (p - 1)
            rhs = -m * (n - i) * ca
            if lhs != rhs:
                failed.append((n, lhs, rhs, f"alpha={label()} i={i}"))
            # (n-i)^5 chat = -m (n-i)^6 / (n^6 (p-1)) * n^5 ca, times n^6 (p-1) > 0
            if pow5[n - i] * chat * n6p != (fibres := -m * pow6[n - i] * n5ca):
                failed.append((n, pow5[n - i] * chat, _ratio(fibres, n6p),
                               f"alpha={label()} i={i} g3-fibres"))
        if removed_total != -ca:
            failed.append((n, removed_total, -ca, f"alpha={label()} closure"))
    failed.sort(key=lambda failure: failure[0])  # stable: each n keeps the walk's order
    return _report("single-step", None, count, failed)


def _genus_reports(g: int, table: list[int]) -> tuple[Report, Report]:
    """chi-series(g) and first-order(g) over the P_{g-1} table given: one log solve and one walk."""
    max_n = len(table) - 1
    b = _log_numerators(table)
    strat = [n ** (2 * g - 1) * ns for n, ns in enumerate(_ns_table(max_n, table)) if n]
    series, first = [], []
    for n, chi in enumerate(strat, start=1):
        val = n ** (2 * g - 1) * b[n]  # n^(2g) * s_n, an integer as b_n is
        if val != chi:
            series.append((n, val, chi, "stratified"))
        if val <= 0:
            series.append((n, val, "a positive integer", "integrality"))
        if g == 3 and val != (closed := chi_kummer_closed(n)):
            series.append((n, val, closed, "closed-form"))
        # exp(eps*s) = 1 + eps*s in Q[eps]/(eps^2), s the log of the table: both sides are
        # 1 + eps*0 at n = 0 and 0 + eps*(...) above, so chi / n^(2g) = b_n / n decides
        if chi * n != b[n] * n ** (2 * g):
            first.append((n, f"0 + eps*{_ratio(chi, n ** (2 * g))}",
                          f"0 + eps*{_ratio(b[n], n)}"))
    return (_report("chi-series", g, (3 if g == 3 else 2) * max_n, series),
            _report("first-order", g, max_n + 1, first))


def verify_chi_series(g: int, max_n: int, enum_cap: int | None = None) -> Report:
    """n^(2g) * s_n = stratified chi(K^n), a positive integer, for n <= max_n.

    s_n are the logarithmic coefficients of the P_{g-1} series.  At
    g = 3 the closed formula n^5 * sigma_2(n) is checked as well.  One
    table, logarithm and stratified chi serve this and `verify_first_order`.
    """
    return _genus_reports(g, _tables(max_n, [g], enum_cap)[g])[0]


def verify_first_order(g: int, max_n: int, enum_cap: int | None = None) -> Report:
    """First-order expansion check, coefficient by coefficient in Q[eps]/(eps^2):

        1 + eps * sum_{n>=1} chi(K^n)/n^(2g) q^n
            = exp(eps * log sum_{n>=0} P_{g-1}(n) q^n).

    As eps^2 = 0, exp(eps * b) = 1 + eps * b, so the right-hand side is
    read directly off the logarithm: the eps^0 parts are 1 at n = 0 and 0
    above on both sides, and the eps part compares chi(K^n)/n^(2g) with s_n.
    From the same table, logarithm and stratified chi as `verify_chi_series`,
    it restates that verifier's "stratified" check rather than giving an
    independent right-hand side.
    """
    return _genus_reports(g, _tables(max_n, [g], enum_cap)[g])[1]


def run_all_verifiers(
    max_n: int, genus: Iterable[int], enum_cap: int | None = None
) -> list[Report]:
    """All identity checks up to max_n, the g-dependent ones once per requested g."""
    genus = list(dict.fromkeys(genus))  # each g once, in the order first given
    tables = _tables(max_n, [3, *genus], enum_cap)  # P_2 serves sigma_2 and g = 3
    reports = [_sigma2_report(tables[3]), verify_single_step(max_n, enum_cap)]
    for g in genus:
        reports.extend(_genus_reports(g, tables[g]))
    return reports
