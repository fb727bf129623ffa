"""Integer partitions as multiplicity vectors, and the signed weights c(alpha).

A partition of n >= 0 is stored by its multiplicity vector: entry i - 1
counts the parts of size i, and trailing zeros are trimmed so equal
partitions always carry identical vectors.  The empty vector is the one
partition of 0.

The signed weight of a partition alpha of n >= 1 with l parts is
c(alpha) = n (-1)^(l-1) (l-1)! / prod_i alpha_i!, the coefficient of
prod_i P_i^(alpha_i) in n [q^n] log(1 + sum_{i>=1} P_i q^i).  It solves
the signed recursion c((n)) = n, c(alpha) = -sum_i c(alpha with one part
of size i removed), with i over the *distinct* part sizes of alpha.

`iter_partitions` walks the partitions of n one at a time, so a sum over
them holds one partition, not p(n); `enumerate_partitions` is its list.
Nothing in this module keeps state between calls.
"""

from __future__ import annotations

from itertools import islice
from math import factorial, prod
from operator import index, mul
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Partition",
    "iter_partitions",
    "enumerate_partitions",
    "remove_part",
    "num_parts",
    "c_value",
    "weighted_product",
]


class Partition:
    """A partition in canonical multiplicity-vector form.

    ``mult[i - 1]`` is the number of parts equal to i; the stored tuple
    never ends in a zero, so equality and hashing can go straight
    through it.  Instances are value objects and must not be mutated.
    """

    __slots__ = ("mult", "weight")

    def __init__(self, mult: Iterable[int]):
        vec = list(map(index, mult))  # TypeError on non-integers, no truncation
        while vec and vec[-1] == 0:
            vec.pop()
        if vec and min(vec) < 0:
            raise ValueError("multiplicities must be nonnegative")
        self.mult: tuple[int, ...] = tuple(vec)
        self.weight: int = sum(map(mul, vec, range(1, len(vec) + 1)))

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        """Build a partition from an iterable of positive part sizes."""
        parts = list(map(index, parts))
        if parts and min(parts) <= 0:
            raise ValueError("parts must be positive integers")
        vec = [0] * (max(parts) if parts else 0)
        for p in parts:
            vec[p - 1] += 1
        return cls(vec)

    def parts(self) -> tuple[int, ...]:
        """The parts as a weakly decreasing tuple, e.g. (2, 1, 1)."""
        out: list[int] = []
        for i in range(len(self.mult), 0, -1):
            out.extend([i] * self.mult[i - 1])
        return tuple(out)

    def label(self) -> str:
        """Multiplicity notation such as ``1^2 3^1``; ``()`` when empty."""
        if not self.mult:
            return "()"
        return " ".join(f"{i}^{m}" for i, m in enumerate(self.mult, start=1) if m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.mult == other.mult

    def __hash__(self) -> int:
        return hash(self.mult)

    def __repr__(self) -> str:
        return f"Partition({self.mult!r})"


def _trusted(mult: tuple[int, ...], weight: int) -> Partition:
    """A `Partition` of a vector already trimmed, nonnegative and of this weight, unchecked."""
    alpha = Partition.__new__(Partition)
    alpha.mult, alpha.weight = mult, weight
    return alpha


def iter_partitions(n: int) -> Iterator[Partition]:
    """Every partition of n exactly once, by decreasing lexicographic part list.

    The first is the single part (n), the last is all ones, and every
    call walks the same order.  Each step pools one part of the smallest
    size k > 1 with the ones and refills greedily with parts < k.  A
    negative n raises at the call, not at the first ``next``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _walk(n)


def _walk(n: int) -> Iterator[Partition]:
    vec = [0] * (n - 1) + [1] if n else []  # vec[i - 1] counts the parts of size i
    yield _trusted(tuple(vec), n)
    top = k = n  # the largest part size; the smallest above 1, or 1 if none
    while k > 1:
        vec[k - 1] -= 1
        q, r = divmod(vec[0] + k, k - 1)
        vec[0] = 0
        vec[k - 2] = q
        if r:
            vec[r - 1] += 1
        if not vec[top - 1]:
            top = k - 1
        k = r if r > 1 else k - 1
        if k == 1:
            for i in range(2, top + 1):
                if vec[i - 1]:
                    k = i
                    break
        yield _trusted(tuple(vec[:top]), n)


def enumerate_partitions(n: int) -> list[Partition]:
    """The partitions of n as a list, in the order of `iter_partitions`."""
    return list(iter_partitions(n))


def remove_part(alpha: Partition, i: int) -> Partition:
    """The partition with one part of size i removed; weight drops by i."""
    if i < 1 or i > len(alpha.mult) or alpha.mult[i - 1] == 0:
        raise ValueError(f"no part of size {i} in {alpha.label()}")
    vec = list(alpha.mult)
    vec[i - 1] -= 1
    while vec and not vec[-1]:
        vec.pop()
    return _trusted(tuple(vec), alpha.weight - i)


def num_parts(alpha: Partition) -> int:
    """Total number of parts, counted with multiplicity."""
    return sum(alpha.mult)


def c_value(alpha: Partition) -> int:
    """The signed weight c(alpha), an exact integer.

    Evaluated by the module's closed form, a multinomial expansion that
    shares no code with the triangular solve in `series.log_coefficients`,
    so the stratified and log-series routes stay independent; the recursion
    is checked by `kummer.verify_single_step`.  A remainder raises `ArithmeticError`.

    Rejects the empty partition: c is only defined for weight >= 1.
    """
    n = alpha.weight
    if n == 0:
        raise ValueError("c is undefined for the empty partition")
    parts = sum(alpha.mult)
    value, rem = divmod(n * factorial(parts - 1), prod(map(factorial, alpha.mult)))
    if rem:
        raise ArithmeticError(f"c({alpha.label()}) is not an integer")
    return value if parts % 2 else -value


def weighted_product(alpha: Partition, table: Sequence[int]) -> int:
    """Product over the part sizes i of ``table[i] ** alpha_i``.

    ``table`` is indexed by part size, so it must reach index i for every
    size present in alpha.  The empty partition gives 1.
    """
    if alpha.mult and len(alpha.mult) >= len(table):
        raise ValueError(f"table has no entry for part size {len(alpha.mult)}")
    return prod(map(pow, islice(table, 1, None), alpha.mult))
