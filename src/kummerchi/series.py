"""Truncated formal power series: integer kernels, exact rational series.

The kernels `product_expansion` and `log_coefficients` compute over
`int`, as every series the Kummer routes build has integer coefficients.
A `TruncatedSeries` of order N holds the coefficients of q^0 .. q^N of a
series with true rationals as `fractions.Fraction`s, never floats.
Binary operations insist that both operands carry the same order;
series of different orders are never silently combined.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import index
from typing import Callable, Iterable, Sequence

__all__ = [
    "OrderMismatchError",
    "TruncatedSeries",
    "product_expansion",
    "log_coefficients",
]


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class TruncatedSeries:
    """Immutable dense series sum_{n=0..N} c_n q^n with exact rational c_n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series stores at least its constant coefficient")
        self.coeffs: tuple[Fraction, ...] = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * order)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def _same_order(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected a TruncatedSeries, got {type(other).__name__}")
        if len(self.coeffs) != len(other.coeffs):
            raise OrderMismatchError(
                f"orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_order(other)
        return TruncatedSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._same_order(other)
        n_max = self.order
        out = [Fraction(0)] * (n_max + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n_max + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    def q_ddq(self) -> "TruncatedSeries":
        """The derivation q d/dq: c_n goes to n*c_n."""
        return TruncatedSeries(n * c for n, c in enumerate(self.coeffs))

    def exp(self) -> "TruncatedSeries":
        """Series exponential, by n*e_n = sum_{k=1..n} k*f_k*e_{n-k}.

        Needs a vanishing constant term so the result stays polynomial
        in the coefficients.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        n_max = self.order
        e = [Fraction(1)] + [Fraction(0)] * n_max
        for n in range(1, n_max + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                fk = self.coeffs[k]
                if fk:
                    acc += k * fk * e[n - k]
            e[n] = acc / n
        return TruncatedSeries(e)

    def log(self) -> "TruncatedSeries":
        """Series logarithm by `log_coefficients`; needs constant term 1."""
        return TruncatedSeries([0, *log_coefficients(self.coeffs)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncatedSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self.coeffs]})"


def _geometric_power_coeffs(e: int, j_max: int) -> list[int]:
    # coefficients of (1 - y)^(-e) up to y^j_max, exact, any integer e
    if e >= 0:
        return [comb(e + j - 1, j) if j else 1 for j in range(j_max + 1)]
    m = -e
    return [(-1) ** j * comb(m, j) if j <= m else 0 for j in range(j_max + 1)]


def product_expansion(exponent: Callable[[int], int], order: int) -> list[int]:
    """The coefficients of q^0 .. q^order of prod_{k>=1} (1 - q^k)^(-e_k).

    `exponent(k)` gives the integer e_k for 1 <= k <= order; a value that
    is not an integer raises `TypeError`.  Factors with k > order cannot
    touch the truncation and are skipped.  e_k = 1 for all k yields the
    ordinary-partition series, e_k = k the plane-partition (MacMahon) series.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [1] + [0] * order
    for k in range(1, order + 1):
        e = index(exponent(k))
        if e == 0:
            continue
        factor = _geometric_power_coeffs(e, order // k)
        new = [0] * (order + 1)
        for i in range(order + 1):
            acc = 0
            for j in range(i // k + 1):
                c = factor[j]
                if c:
                    acc += c * coeffs[i - j * k]
            new[i] = acc
        coeffs = new
    return coeffs


def log_coefficients(counts: Sequence) -> list[Fraction]:
    """The exact rationals s_1..s_N with n*counts[n] = sum_{k=1..n} k*s_k*counts[n-k].

    `counts` lists the coefficients counts[0..N] of a series with
    counts[0] = 1; the s_n are the coefficients of its logarithm.  The
    triangular solve runs on b_n = n*s_n, an integer when the counts are,
    and makes a `Fraction` only of each returned s_n = b_n / n.
    """
    p = [c if isinstance(c, int) else Fraction(c) for c in counts]
    if not p or p[0] != 1:
        raise ValueError("counts[0] must be 1")
    b = [0] * len(p)
    for n in range(1, len(p)):
        acc = n * p[n]
        for k in range(1, n):
            acc -= b[k] * p[n - k]
        b[n] = acc
    return [Fraction(b[n], n) for n in range(1, len(p))]

