"""Euler characteristics of generalized Kummer schemes, along three routes.

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

Routes 2 and 3 read one P_{g-1} table from `dd_partitions`, which owns its
route, its DFS check and every cap on it; `verify` checks that the routes
agree.  `_tables` alone turns a genus into a dimension: it returns each
table keyed by g.  The arithmetic is in integers: `_ratio` writes a
rational p / q as `str(Fraction(p, q))` would, and `dt_invariant`, route 1
divided out once, is the only `Fraction` built here.  Route 2 is one walk
of `partitions._strata`: `_ns_table` for every n up to a bound (`table`),
`_strata_at` for the partitions of one n (`ns_from_c`, `c-table`), the
only ones the walk yields it.  Every entry point refuses before it counts,
through `_tables`: max_n < 1, each g < 1, the d = 1 cap of the partition
walk, then the caps of every table before the first is counted.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from . import dd_partitions
from .dd_partitions import _at_least, check_enumeration_cap
from .series import _log_numerators

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "sigma",
    "chi_kummer_closed",
    "chi_kummer_stratified",
    "dt_invariant",
    "ns_from_c",
]


def sigma(k: int, n: int) -> int:
    """Sum of the k-th powers of the divisors of n >= 1, k >= 0, by trial division."""
    k = _at_least(k, 0, "sigma takes a nonnegative power k")  # an int, so the sum stays one
    _at_least(n, 1, "sigma is defined for n >= 1")
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
    _at_least(n, 1, "n must be >= 1")
    return n**5 * sigma(2, n)


def _tables(max_n: int, genus: Iterable[int], enum_cap: int | None = None,
            walk: bool = True) -> dict[int, list[int]]:
    """{g: [P_{g-1}(0), ..., P_{g-1}(max_n)]} for each g, the table that genus g's routes
    read, each counted once, after refusing max_n, each g, the walk's d = 1 cap if `walk`,
    then every table's caps.  No caller indexes a table by its dimension g - 1."""
    _at_least(max_n, 1, "max_n must be >= 1")  # below 1 no n would be checked
    genus = dict.fromkeys(_at_least(g, 1, "g must be >= 1") for g in genus)
    if walk:
        check_enumeration_cap(1, max_n, enum_cap)
    plans = {g: dd_partitions._pd_plan(g - 1, max_n, None, enum_cap) for g in genus}
    return {g: plan() for g, plan in plans.items()}


def _ns_table(max_n: int, table: Sequence[int]) -> list[int]:
    """[0, 1 * s_1, ..., max_n * s_max_n]: each n's sum of c * prod table[i]^alpha_i, one walk."""
    from . import partitions  # here, not at start-up: `table` at g = 3 walks no partition

    ns = [0] * (max_n + 1)
    c_closed = partitions._c_closed
    for n, l, d, w, _ in partitions._strata(max_n, table):
        ns[n] += c_closed(n, l, d) * w
    return ns


def _strata_at(n: int, table: Sequence[int]) -> Iterator[tuple[list, int, int]]:
    """(path, c, c * W) for each alpha of n, W = prod table[i]^alpha_i, from a walk of
    `partitions._strata` that yields the p(n) partitions of n and no other; `path` is the
    walk's, changed in place, so the walk holds one partition."""
    from . import partitions

    c_closed = partitions._c_closed
    for _, l, d, w, path in partitions._strata(n, table, least=n):
        c = c_closed(n, l, d)
        yield path, c, c * w


def ns_from_c(n: int, g: int, enum_cap: int | None = None) -> int:
    """n * s_n out of the signed weights: sum over alpha of n of c(alpha) * prod P_{g-1}.

    Equals sigma_2(n) at g = 3, sigma_1(n) at g = 2 and 1 at g = 1.  The walk
    holds one path, not p(n) partitions; n is subject to the d = 1 cap.
    """
    _at_least(n, 1, "n must be >= 1")
    return sum(cw for _, _, cw in _strata_at(n, _tables(n, [g], enum_cap)[g]))


def chi_kummer_stratified(n: int, g: int, enum_cap: int | None = None) -> int:
    """chi(K^n) for Abelian g-folds via the partition stratification, from `ns_from_c`."""
    ns = ns_from_c(n, g, enum_cap)  # refuses n and g before n ** (2g - 1)
    return n ** (2 * g - 1) * ns


def dt_invariant(n: int) -> Fraction:
    """The degree-n DT invariant of the threefold: (-1)^(n+1) * chi(K^n) / n^6.

    From `chi_kummer_closed`, so it equals (-1)^(n+1) * sigma_2(n) / n, which
    acceptance criterion 7 checks against the divisor sum itself.
    """
    from fractions import Fraction  # here, not at start-up: `c-table` makes no rational

    chi = chi_kummer_closed(n)  # refuses n before n % 2
    return Fraction(chi if n % 2 else -chi, n**6)


def _ratio(p: int, q: int) -> str:
    """p / q, q >= 1, as `str(Fraction(p, q))` writes it: in lowest terms, the sign on
    the numerator, and "p" alone when the denominator is 1."""
    d = gcd(p, q)
    return f"{p // d}/{q // d}" if q != d else str(p // d)


def _rows(max_n: int, g: int, enum_cap: int | None) -> list[tuple]:
    """The `table` rows (n, sigma_2(n), chi, dt, s) for n = 1..max_n at a fixed g, in
    integers, each rational written by `_ratio`.

    chi uses the closed formula at g = 3 and the stratified sum, one walk for
    every n (`_ns_table`), for any other g; dt generalizes the threefold DT
    invariant as (-1)^(n+1) * chi / n^(2g), which is (-1)^(n+1) * s_n.
    """
    table = _tables(max_n, [g], enum_cap, walk=g != 3)[g]
    b = _log_numerators(table)
    ns = _ns_table(max_n, table) if g != 3 else None
    rows = []
    for n in range(1, max_n + 1):
        chi = chi_kummer_closed(n) if g == 3 else n ** (2 * g - 1) * ns[n]
        rows.append((n, sigma(2, n), chi, _ratio(chi if n % 2 else -chi, n ** (2 * g)),
                     _ratio(b[n], n)))
    return rows
