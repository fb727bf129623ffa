"""Truncated formal power series: the two integer kernels.

`product_expansion` and `log_coefficients` compute over `int`, as every
series the Kummer routes build has integer coefficients; only the
logarithm's coefficients s_n = b_n / n are true rationals, returned as
`fractions.Fraction`s, never floats.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import add, index
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["product_expansion", "log_coefficients"]


def _geometric_power_coeffs(e: int, j_max: int) -> list[int]:
    # coefficients of (1 - y)^(-e) up to y^j_max, exact, any integer e
    if e >= 0:
        return [comb(e + j - 1, j) if j else 1 for j in range(j_max + 1)]
    m = -e
    return [(-1) ** j * comb(m, j) if j <= m else 0 for j in range(j_max + 1)]


def product_expansion(exponent: Callable[[int], int], order: int) -> list[int]:
    """The coefficients of q^0 .. q^order of prod_{k>=1} (1 - q^k)^(-e_k).

    `exponent(k)` gives the integer e_k for 1 <= k <= order; an order or
    a value that is not an integer raises `TypeError`.  Factors with
    k > order cannot touch the truncation and are skipped.  e_k = 1 for all k yields the
    ordinary-partition series, e_k = k the plane-partition (MacMahon) series.

    A factor with e_k > 0, e_k * k <= order and k^2 <= order is e_k passes of
    1 / (1 - q^k), each a prefix sum along every residue class mod k, in
    place.  Any other factor's term c * q^(jk) adds c times the old
    coefficients, shifted by jk, as one slice-wide `map`.
    """
    if index(order) < 0:  # TypeError on non-integers, before a list is multiplied by one
        raise ValueError("order must be nonnegative")
    coeffs = [1] + [0] * order
    for k in range(1, order + 1):
        e = index(exponent(k))
        if e == 0:
            continue
        # e passes make about e * order additions where the slices below make about
        # order^2 / (2k) multiply-adds: fewer while e * k <= order.  Each pass also
        # makes k strided slices, which hold at least k coefficients each while
        # k^2 <= order, so the cost per slice stays small beside its additions.
        if e > 0 and e * k <= order and k * k <= order:
            for _ in range(e):
                for r in range(k):
                    coeffs[r::k] = accumulate(coeffs[r::k])
            continue
        factor = _geometric_power_coeffs(e, order // k)
        new = coeffs[:]
        for j in range(1, order // k + 1):
            c = factor[j]
            if c:
                shift = j * k
                new[shift:] = map(add, new[shift:], map(c.__mul__, coeffs[: order + 1 - shift]))
        coeffs = new
    return coeffs


def log_coefficients(counts: Sequence) -> list[Fraction]:
    """The exact rationals s_1..s_N with n*counts[n] = sum_{k=1..n} k*s_k*counts[n-k].

    `counts` lists the coefficients counts[0..N] of a series with
    counts[0] = 1; the s_n are the coefficients of its logarithm.  The
    triangular solve runs on b_n = n*s_n, an integer when the counts are,
    and makes a `Fraction` only of each returned s_n = b_n / n.  A count that
    is neither an `int` nor a `Fraction` raises `TypeError`: no floats.
    """
    from fractions import Fraction  # here, not at start-up: `pd` never takes a logarithm

    p = list(counts)
    if not all(isinstance(c, (int, Fraction)) for c in p):
        raise TypeError("counts must be ints or Fractions")
    if not p or p[0] != 1:
        raise ValueError("counts[0] must be 1")
    b = [0] * len(p)
    for n in range(1, len(p)):
        acc = n * p[n]
        for k in range(1, n):
            acc -= b[k] * p[n - k]
        b[n] = acc
    return [Fraction(b[n], n) for n in range(1, len(p))]
