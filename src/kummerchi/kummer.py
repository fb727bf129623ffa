"""Euler characteristics of generalized Kummer schemes and the identity harness.

For an Abelian variety A of dimension g, the generalized Kummer scheme
K^n A sits inside the Hilbert scheme of n points as the fibre of the
summation map over 0; K^1 A is a point, and 1^5 * sigma_2(1) = 1.  Its
Euler characteristic is computed here along three independent routes:

* closed form, g = 3 only:  chi(K^n) = n^5 * sigma_2(n);
* stratification by the partition type alpha of the supporting cycle,
  any g:  chi(K^n) = n^(2g-1) * sum over alpha of n of
  c(alpha) * prod_i P_{g-1}(i)^(alpha_i),
  with c the signed weights from `partitions` and P_{g-1} the counts of
  (g-1)-dimensional partitions (the punctual Hilbert scheme counts of
  A^g at a point);
* the logarithm, any g:  chi(K^n) = n^(2g) * s_n, with s_n the
  logarithmic coefficients of sum_n P_{g-1}(n) q^n.

Both routes read one P_{g-1} table from `dd_partitions`, which owns its
route, its DFS check and every cap on it.  The verify_* functions check
that the routes agree, coefficient by coefficient with exact arithmetic,
each in a report of the checks run and a record of each one that fails.
A failed check is data, not an exception; a cap raises `EnumerationCapError`,
never conflated with a failed identity.  Every entry point refuses before it
counts, through `_tables`: max_n < 1, each g < 1, the d = 1 cap of the
partition walk, then the caps of every table before the first is counted.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import index
from typing import Iterable, NamedTuple, Sequence

from . import dd_partitions, partitions
from .dd_partitions import check_enumeration_cap, partition_count_table  # noqa: F401 (re-export)
from .series import log_coefficients

__all__ = [
    "sigma",
    "chi_kummer_closed",
    "chi_kummer_stratified",
    "dt_invariant",
    "ns_from_c",
    "KummerRow",
    "kummer_rows",
    "Check",
    "Report",
    "verify_sigma2_convolution",
    "verify_single_step",
    "verify_chi_series",
    "verify_first_order",
    "run_all_verifiers",
]


def sigma(k: int, n: int) -> int:
    """Sum of the k-th powers of the divisors of n >= 1, k >= 0, by trial division."""
    k = index(k)  # TypeError on non-integers, so the sum stays an int
    if k < 0:
        raise ValueError("sigma takes a nonnegative power k")
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    total = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            total += d**k
            q = n // d
            if q != d:
                total += q**k
    return total


def chi_kummer_closed(n: int) -> int:
    """chi(K^n) of an Abelian threefold: n^5 * sigma_2(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n**5 * sigma(2, n)


def _genus(g: int) -> int:
    if index(g) < 1:  # TypeError on non-integers: no table of P_{g-1} has their dimension
        raise ValueError("g must be >= 1")
    return g


def _tables(max_n: int, genus: Iterable[int], enum_cap: int | None = None,
            walk: bool = True) -> dict[int, list[int]]:
    """{g - 1: [P_{g-1}(0), ..., P_{g-1}(max_n)]} for each g, each counted once, after
    refusing max_n, each g, the walk's d = 1 cap if `walk`, then every table's caps."""
    if index(max_n) < 1:  # TypeError on non-integers, ValueError where no n would be checked
        raise ValueError("max_n must be >= 1")
    dims = dict.fromkeys(_genus(g) - 1 for g in genus)
    if walk:
        check_enumeration_cap(1, max_n, enum_cap)
    plans = {d: dd_partitions._pd_plan(d, max_n, None, enum_cap) for d in dims}
    return {d: plan() for d, plan in plans.items()}


def _ns_table(max_n: int, table: Sequence[int]) -> list[int]:
    """[0, 1 * s_1, ..., max_n * s_max_n]: each n's sum of c * prod table[i]^alpha_i, one walk."""
    ns = [0] * (max_n + 1)
    c_closed = partitions._c_closed
    for n, l, d, w, _ in partitions._strata(max_n, table):
        ns[n] += c_closed(n, l, d) * w
    return ns


def ns_from_c(
    n: int, g: int, table: Sequence[int] | None = None, enum_cap: int | None = None
) -> int:
    """n * s_n out of the signed weights: sum over alpha of n of c(alpha) * prod P_{g-1}.

    Equals sigma_2(n) at g = 3, sigma_1(n) at g = 2 and 1 at g = 1.
    `table` may carry a precomputed `partition_count_table(g - 1, >= n)`; a
    shorter one raises `ValueError` before the walk, which holds one path, not p(n)
    partitions (`_ns_table`).  n is subject to the d = 1 cap.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _genus(g)
    tables = _tables(n, [g] if table is None else [], enum_cap)  # a table given: the cap alone
    if table is None:
        table = tables[g - 1]
    elif len(table) <= n:
        raise ValueError(f"table has no entry for part size {n}")
    else:  # TypeError on non-integer entries, before the walk: no floats
        table = list(map(index, table[: n + 1]))
    return _ns_table(n, table)[n]


def chi_kummer_stratified(
    n: int, g: int, table: Sequence[int] | None = None, enum_cap: int | None = None
) -> int:
    """chi(K^n) for Abelian g-folds via the partition stratification."""
    return n ** (2 * g - 1) * ns_from_c(n, g, table=table, enum_cap=enum_cap)


def dt_invariant(n: int) -> Fraction:
    """The degree-n DT invariant of the threefold: (-1)^(n+1) * sigma_2(n) / n.

    Computed both as written and as (-1)^(n+1) * chi(K^n) / n^6; the two
    must agree exactly or something inside this package is broken.
    """
    sign = 1 if n % 2 else -1
    via_chi = Fraction(sign * chi_kummer_closed(n), n**6)
    direct = Fraction(sign * sigma(2, n), n)
    if via_chi != direct:
        raise ArithmeticError(f"DT mismatch at n={n}: {via_chi} vs {direct}")
    return direct


class KummerRow(NamedTuple):
    """One table row: everything the CLI prints for a single n."""

    n: int
    sigma2: int
    chi: int
    dt: Fraction
    s: Fraction


def kummer_rows(max_n: int, g: int = 3, enum_cap: int | None = None) -> list[KummerRow]:
    """Rows for n = 1..max_n at a fixed g.

    chi uses the closed formula at g = 3 and the stratified sum, one walk for
    every n (`_ns_table`), for any other g; dt generalizes the threefold DT
    invariant as (-1)^(n+1) * chi / n^(2g), which is (-1)^(n+1) * s_n.
    """
    table = _tables(max_n, [g], enum_cap, walk=g != 3)[g - 1]
    s = log_coefficients(table)
    ns = _ns_table(max_n, table) if g != 3 else None
    rows = []
    for n in range(1, max_n + 1):
        chi = chi_kummer_closed(n) if g == 3 else n ** (2 * g - 1) * ns[n]
        sign = 1 if n % 2 else -1
        rows.append(
            KummerRow(
                n=n,
                sigma2=sigma(2, n),
                chi=chi,
                dt=sign * Fraction(chi, n ** (2 * g)),
                s=s[n - 1],
            )
        )
    return rows


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
    """What one verifier checked: how many instances, and each one that failed."""

    name: str
    count: int
    failed: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return not self.failed

    def failures(self) -> list[Check]:
        return list(self.failed)


class _Tally:
    """One verifier's checks: `count`, which it adds to in bulk, and a `Check` per `fail`."""

    def __init__(self, identity: str, g: int | None = None):
        self.identity, self.g, self.count, self.failed = identity, g, 0, []

    def fail(self, n: int, lhs, rhs, detail: str = "") -> None:
        """Keep one failed check, both sides as strings."""
        self.failed.append(Check(self.identity, n, False, str(lhs), str(rhs), self.g, detail))

    def report(self) -> Report:
        """The report, named by the identity and, if set, the genus."""
        name = self.identity if self.g is None else f"{self.identity}(g={self.g})"
        return Report(name, self.count, tuple(self.failed))


def verify_sigma2_convolution(max_n: int) -> Report:
    """n * P_2(n) = sum_{k=1..n} sigma_2(k) * P_2(n-k), P_2 from the product expansion."""
    return _sigma2_report(_tables(max_n, [3], walk=False)[2])


def _sigma2_report(p2: list[int]) -> Report:
    """The sigma_2 convolution over the P_2 table given, for n = 1..len(p2) - 1."""
    tally = _Tally("sigma2-convolution")
    tally.count = max_n = len(p2) - 1
    for n in range(1, max_n + 1):
        lhs = n * p2[n]
        rhs = sum(sigma(2, k) * p2[n - k] for k in range(1, n + 1))
        if lhs != rhs:
            tally.fail(n, lhs, rhs)
    return tally.report()


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
    tally = _Tally("single-step")

    def label():  # alpha's `Partition.label`, for the record of a failed check
        return " ".join(f"{i}^{m}" for i, m in reversed(path))

    for n, p, d, _, path in partitions._strata(max_n, [1] * (max_n + 1)):
        ca = c_closed(n, p, d)
        if p < 2:
            continue
        tally.count += 2 * len(path) + 1  # two checks per distinct size i, and the closure
        removed_total = 0
        for i, m in reversed(path):
            chat = c_closed(n - i, p - 1, d // m)
            removed_total += chat
            lhs = chat * n * (p - 1)
            rhs = -m * (n - i) * ca
            if lhs != rhs:
                tally.fail(n, lhs, rhs, f"alpha={label()} i={i}")
            # (n-i)^5 chat = -m (n-i)^6 / (n^6 (p-1)) * n^5 ca, times n^6 (p-1) > 0
            if (n - i) ** 5 * chat * n**6 * (p - 1) != -m * (n - i) ** 6 * n**5 * ca:
                tally.fail(n, Fraction((n - i) ** 5 * chat),
                           Fraction(-m * (n - i) ** 6, n**6 * (p - 1)) * (n**5 * ca),
                           f"alpha={label()} i={i} g3-fibres")
        if removed_total != -ca:
            tally.fail(n, removed_total, -ca, f"alpha={label()} closure")
    tally.failed.sort(key=lambda check: check.n)  # stable: each n keeps the walk's order
    return tally.report()


def _genus_reports(g: int, table: list[int]) -> tuple[Report, Report]:
    """chi-series(g) and first-order(g) over the P_{g-1} table given: one log solve and one walk."""
    max_n = len(table) - 1
    s = log_coefficients(table)
    strat = [n ** (2 * g - 1) * ns for n, ns in enumerate(_ns_table(max_n, table)) if n]
    series = _Tally("chi-series", g)
    series.count = (3 if g == 3 else 2) * max_n
    for n, s_n, chi in zip(range(1, max_n + 1), s, strat):
        val = n ** (2 * g) * s_n
        if val != chi:
            series.fail(n, val, chi, "stratified")
        if val.denominator != 1 or val <= 0:
            series.fail(n, val, "a positive integer", "integrality")
        if g == 3 and val != (closed := chi_kummer_closed(n)):
            series.fail(n, val, closed, "closed-form")
    # exp(eps*b) = 1 + eps*b in Q[eps]/(eps^2), with b = [0, *s] the log of the table:
    # the eps^0 parts are int(n == 0) on both sides, so the eps parts decide
    lhs_eps = [0] + [Fraction(chi, n ** (2 * g)) for n, chi in enumerate(strat, start=1)]
    first = _Tally("first-order", g)
    first.count = max_n + 1
    for n, left, right in zip(range(max_n + 1), lhs_eps, [0, *s]):
        if left != right:
            first.fail(n, "%s + eps*%s" % (int(n == 0), left), "%s + eps*%s" % (int(n == 0), right))
    return series.report(), first.report()


def verify_chi_series(g: int, max_n: int, enum_cap: int | None = None) -> Report:
    """n^(2g) * s_n = stratified chi(K^n), a positive integer, for n <= max_n.

    s_n are the logarithmic coefficients of the P_{g-1} series.  At
    g = 3 the closed formula n^5 * sigma_2(n) is checked as well.  One
    table, logarithm and stratified chi serve this and `verify_first_order`.
    """
    return _genus_reports(g, _tables(max_n, [g], enum_cap)[g - 1])[0]


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
    return _genus_reports(g, _tables(max_n, [g], enum_cap)[g - 1])[1]


def run_all_verifiers(
    max_n: int, genus: Iterable[int], enum_cap: int | None = None
) -> list[Report]:
    """All identity checks up to max_n, the g-dependent ones once per requested g."""
    genus = list(genus)
    tables = _tables(max_n, [3, *genus], enum_cap)  # P_2 serves sigma_2 and g = 3
    reports = [_sigma2_report(tables[2]), verify_single_step(max_n, enum_cap)]
    for g in genus:
        reports.extend(_genus_reports(g, tables[g - 1]))
    return reports
