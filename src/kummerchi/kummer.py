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

The verify_* functions check that the routes agree, coefficient by
coefficient with exact arithmetic.  Each returns a report, shared by
the CLI and the tests, that keeps the number of checks run and only
the failed ones.  A failed check is data, not an exception; caps on
brute-force enumeration do raise (`EnumerationCapError`), so resource
refusal is never conflated with a failed identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable, Sequence

from .dd_partitions import (EnumerationCapError, check_enumeration_cap, count_pd_alt_table,
                            count_pd_table, enumeration_cap)
from .partitions import (
    c_value,
    enumerate_partitions,
    num_parts,
    remove_part,
    weighted_product,
)
from .series import TruncatedSeries, log_coefficients, product_expansion

__all__ = [
    "sigma",
    "chi_kummer_closed",
    "chi_kummer_stratified",
    "dt_invariant",
    "ns_from_c",
    "partition_count_table",
    "partition_count_rows",
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
    """Sum of the k-th powers of the divisors of n >= 1, by trial division."""
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


# Cap on max_n for the product expansions (d = 1, 2) that no enum_cap lifts:
# the largest multiple of 500 whose `table --max-n N` took under about a
# minute of CPU, the next one taking over a minute (2-vCPU host, Python 3.11;
# 40 s at 5000, 53 s at 6000, 67 s at 6500, 87 s at 7000).
_PRODUCT_CAP = 6000


def _pd_values(d: int, max_n: int) -> list[int]:
    """[P_d(0), ..., P_d(max_n)] by the route for d, unchecked.

    Ones for d = 0, the Euler and MacMahon product expansions for d = 1
    and d = 2, the layered `count_pd_table` for d >= 3.  The products
    refuse max_n above `_PRODUCT_CAP` before expanding.
    """
    if d == 0:
        return [1] * (max_n + 1)
    if d <= 2:
        if max_n > _PRODUCT_CAP:
            raise EnumerationCapError(d, max_n, _PRODUCT_CAP,
                                      "the running time of the product expansion")
        return product_expansion((lambda k: 1) if d == 1 else (lambda k: k), max_n)
    return count_pd_table(d, max_n)


def _cross_check(d: int, values: Sequence[int], cap: int) -> None:
    """Compare every entry with n <= cap against one DFS table, `count_pd_alt_table`."""
    route = "product" if d <= 2 else "layered"
    top = min(cap, len(values) - 1)
    alts = count_pd_alt_table(d, top, enum_cap=cap) if top >= 0 else []
    for n, (value, alt) in enumerate(zip(values, alts)):
        if alt != value:
            raise ArithmeticError(f"P_{d}({n}): {route} gives {value}, DFS gives {alt}")


def partition_count_table(d: int, max_n: int, enum_cap: int | None = None) -> list[int]:
    """[P_d(0), ..., P_d(max_n)] for d >= 0; P_0(n) = 1 for all n.

    d = 1 and d = 2 come from the Euler and MacMahon product expansions;
    d >= 3 is counted by the layered recursion and cross-checked against
    the DFS counter, so it is subject to the enumeration cap.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if d <= 2:
        return _pd_values(d, max_n)
    check_enumeration_cap(d, max_n, enum_cap)
    values = _pd_values(d, max_n)
    _cross_check(d, values, max_n)
    return values


def partition_count_rows(
    d: int, max_n: int, enum_cap: int | None = None
) -> list[tuple[int, int, bool]]:
    """(n, P_d(n), cross-checked) for n = 0..max_n, d >= 1: the rows `pd` prints.

    The values come from the same routes as `partition_count_table`;
    every entry with n at most the cap is cross-checked by the DFS.  For
    d <= 3 the entries above the cap are left unchecked; d >= 4 has no
    product formula and no cross-check past the cap, so it is refused.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    cap = enum_cap if enum_cap is not None else enumeration_cap(d)
    if d >= 4:
        check_enumeration_cap(d, max_n, cap)
    values = _pd_values(d, max_n)
    _cross_check(d, values, cap)
    return [(n, value, n <= cap) for n, value in enumerate(values)]


def ns_from_c(
    n: int, g: int, table: Sequence[int] | None = None, enum_cap: int | None = None
) -> int:
    """n * s_n out of the signed weights: sum over alpha of n of c(alpha) * prod P_{g-1}.

    Equals sigma_2(n) at g = 3, sigma_1(n) at g = 2 and 1 at g = 1.
    `table` may carry a precomputed `partition_count_table(g - 1, >= n)`.
    The partitions of n are enumerated, so n is subject to the d = 1 cap.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if g < 1:
        raise ValueError("g must be >= 1")
    check_enumeration_cap(1, n, enum_cap)
    if table is None:
        table = partition_count_table(g - 1, n, enum_cap=enum_cap)
    return sum(c_value(a) * weighted_product(a, table) for a in enumerate_partitions(n))


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


@dataclass(frozen=True)
class KummerRow:
    """One table row: everything the CLI prints for a single n."""

    n: int
    sigma2: int
    chi: int
    dt: Fraction
    s: Fraction


def kummer_rows(max_n: int, g: int = 3, enum_cap: int | None = None) -> list[KummerRow]:
    """Rows for n = 1..max_n at a fixed g.

    chi uses the closed formula at g = 3 and the stratified sum for any
    other g; dt generalizes the threefold DT invariant as
    (-1)^(n+1) * chi / n^(2g), which is (-1)^(n+1) * s_n.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if g != 3:
        check_enumeration_cap(1, max_n, enum_cap)
    table = partition_count_table(g - 1, max_n, enum_cap=enum_cap)
    s = log_coefficients(table)
    rows = []
    for n in range(1, max_n + 1):
        if g == 3:
            chi = chi_kummer_closed(n)
        else:
            chi = chi_kummer_stratified(n, g, table=table, enum_cap=enum_cap)
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


@dataclass(frozen=True)
class Check:
    """One failed identity instance, with both sides kept for the record."""

    identity: str
    n: int
    ok: bool
    lhs: str
    rhs: str
    g: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class Report:
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
    """Counts the checks of one verifier and keeps a `Check` for each failure."""

    def __init__(self, identity: str, g: int | None = None):
        self.identity, self.g, self.count, self.failed = identity, g, 0, []

    def __call__(self, ok: bool, n: int, record: Callable[[], tuple]) -> None:
        """Count one check; if it failed, keep it, with `record()` giving (lhs, rhs, detail)."""
        self.count += 1
        if not ok:
            lhs, rhs, detail = record()
            self.failed.append(Check(self.identity, n, False, str(lhs), str(rhs), self.g, detail))

    def report(self) -> Report:
        """The report, named by the identity and, if set, the genus."""
        name = self.identity if self.g is None else f"{self.identity}(g={self.g})"
        return Report(name, self.count, tuple(self.failed))


def verify_sigma2_convolution(max_n: int) -> Report:
    """n * P_2(n) = sum_{k=1..n} sigma_2(k) * P_2(n-k), P_2 from the product expansion."""
    p2 = partition_count_table(2, max_n)
    tally = _Tally("sigma2-convolution")
    for n in range(1, max_n + 1):
        lhs = n * p2[n]
        rhs = sum(sigma(2, k) * p2[n - k] for k in range(1, n + 1))
        tally(lhs == rhs, n, lambda: (lhs, rhs, ""))
    return tally.report()


def verify_single_step(max_n: int) -> Report:
    """Exhaustive check of the one-part-removal relation on c, n = 1..max_n.

    For every alpha of n with at least two parts and every part size i
    present in alpha:

        c(alpha-hat-i) * n * (parts(alpha) - 1) = -alpha_i * (n - i) * c(alpha)

    plus the same relation with the g = 3 geometric factors (n-i)^6/n^6
    left uncancelled (compared in integers), plus the closure: summing over
    the distinct sizes i recovers c(alpha) = -sum_i c(alpha-hat-i), which
    is the defining recursion.  Single-part alpha are the recursion's base
    case and are skipped.  `c_value` uses the closed form: this closure
    checks the recursion.
    """
    tally = _Tally("single-step")
    for n in range(1, max_n + 1):
        for alpha in enumerate_partitions(n):
            p = num_parts(alpha)
            if p < 2:
                continue
            ca = c_value(alpha)
            removed_total = 0
            for i, m in enumerate(alpha.mult, start=1):
                if not m:
                    continue
                chat = c_value(remove_part(alpha, i))
                removed_total += chat
                lhs = chat * n * (p - 1)
                rhs = -m * (n - i) * ca
                tally(lhs == rhs, n, lambda: (lhs, rhs, f"alpha={alpha.label()} i={i}"))
                # (n-i)^5 chat = -m (n-i)^6 / (n^6 (p-1)) * n^5 ca, times n^6 (p-1) > 0
                fibres = (n - i) ** 5 * chat * n**6 * (p - 1) == -m * (n - i) ** 6 * n**5 * ca
                tally(fibres, n, lambda: (
                    Fraction((n - i) ** 5 * chat),
                    Fraction(-m * (n - i) ** 6, n**6 * (p - 1)) * (n**5 * ca),
                    f"alpha={alpha.label()} i={i} g3-fibres"))
            tally(removed_total == -ca, n,
                  lambda: (removed_total, -ca, f"alpha={alpha.label()} closure"))
    return tally.report()


def _genus_reports(g: int, max_n: int, enum_cap: int | None = None) -> tuple[Report, Report]:
    """chi-series(g) and first-order(g): the log solve and the stratified sum, each run once."""
    table = partition_count_table(g - 1, max_n, enum_cap=enum_cap)
    s = log_coefficients(table)
    strat = [chi_kummer_stratified(n, g, table=table, enum_cap=enum_cap)
             for n in range(1, max_n + 1)]
    series = _Tally("chi-series", g)
    for n, s_n, chi in zip(range(1, max_n + 1), s, strat):
        val = n ** (2 * g) * s_n
        series(val == chi, n, lambda: (val, chi, "stratified"))
        series(val.denominator == 1 and val > 0, n,
               lambda: (val, "a positive integer", "integrality"))
        if g == 3:
            closed = chi_kummer_closed(n)
            series(val == closed, n, lambda: (val, closed, "closed-form"))
    # exp(a + eps*b) = exp(a) * (1 + eps*b), here with a = 0 and b = log of the table
    real = TruncatedSeries.zero(max_n).exp()
    eps = real * TruncatedSeries([0, *s])
    lhs_eps = [0] + [Fraction(chi, n ** (2 * g)) for n, chi in enumerate(strat, start=1)]
    first = _Tally("first-order", g)
    for n in range(max_n + 1):
        left, right = (int(n == 0), lhs_eps[n]), (real[n], eps[n])
        first(left == right, n, lambda: ("%s + eps*%s" % left, "%s + eps*%s" % right, ""))
    return series.report(), first.report()


def verify_chi_series(g: int, max_n: int, enum_cap: int | None = None) -> Report:
    """n^(2g) * s_n = stratified chi(K^n), a positive integer, for n <= max_n.

    s_n are the logarithmic coefficients of the P_{g-1} series.  At
    g = 3 the closed formula n^5 * sigma_2(n) is checked as well.  One
    table, logarithm and stratified chi serve this and `verify_first_order`.
    """
    return _genus_reports(g, max_n, enum_cap)[0]


def verify_first_order(g: int, max_n: int, enum_cap: int | None = None) -> Report:
    """First-order expansion check, coefficient by coefficient in Q[eps]/(eps^2):

        1 + eps * sum_{n>=1} chi(K^n)/n^(2g) q^n
            = exp(eps * log sum_{n>=0} P_{g-1}(n) q^n).

    From the same table, logarithm and stratified chi as `verify_chi_series`.
    With the eps^0 part zero, the eps part compares s_n with
    chi(K^n)/n^(2g) for the same s, so it restates the "stratified" check
    of `verify_chi_series` rather than giving an independent right-hand side.
    """
    return _genus_reports(g, max_n, enum_cap)[1]


def run_all_verifiers(
    max_n: int, genus: Iterable[int], enum_cap: int | None = None
) -> list[Report]:
    """All identity checks up to max_n, the g-dependent ones once per requested g."""
    # verify_single_step enumerates partitions and takes no cap of its own
    check_enumeration_cap(1, max_n, enum_cap)
    reports = [verify_sigma2_convolution(max_n), verify_single_step(max_n)]
    for g in genus:
        reports.extend(_genus_reports(g, max_n, enum_cap))
    return reports
