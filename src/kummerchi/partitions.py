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

`_strata` walks the partitions of every n up to a bound depth first, each
node's parts, prod alpha_i! and weight stepped from its parent's, yields
those of n from a given least n on, and holds one path; it computes no c,
which a caller takes from `_c_closed` where it needs it.
`iter_partitions` yields the walk's partitions of one n and
`enumerate_partitions` lists them.  Nothing in this module keeps state
between calls.
"""

from __future__ import annotations

from itertools import accumulate
from math import factorial, prod
from operator import index, mul
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Partition",
    "iter_partitions",
    "enumerate_partitions",
    "c_value",
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
    call walks the same order: that of `_strata`, whose partitions of n
    these are.  A negative n raises at the call, not at the first ``next``.
    """
    if index(n) < 0:  # TypeError on non-integers
        raise ValueError("n must be nonnegative")
    return _walk(n)


def _walk(n: int) -> Iterator[Partition]:
    if not n:
        yield _trusted((), 0)
    for _, _, _, _, path in _strata(n, [1] * (n + 1), least=n):
        vec = [0] * path[0][0]  # vec[i - 1] counts the parts of size i
        for i, m in path:
            vec[i - 1] = m
        yield _trusted(tuple(vec), n)


def enumerate_partitions(n: int) -> list[Partition]:
    """The partitions of n as a list, in the order of `iter_partitions`."""
    return list(iter_partitions(n))


def _c_closed(n: int, parts: int, dfact: int) -> int:
    """c of a partition of n >= 1 into `parts` parts with prod_i alpha_i! = `dfact`."""
    value, rem = divmod(n * factorial(parts - 1), dfact)
    if rem:
        raise ArithmeticError(f"c({n}, {parts} parts, {dfact}) is not an integer")
    return value if parts % 2 else -value


def c_value(alpha: Partition) -> int:
    """The signed weight c(alpha), an exact integer; the empty partition has none.

    By the closed form, which shares no code with `series.log_coefficients`;
    `kummer.verify_single_step` checks it against the recursion.
    """
    if alpha.weight == 0:
        raise ValueError("c is undefined for the empty partition")
    return _c_closed(alpha.weight, sum(alpha.mult), prod(map(factorial, alpha.mult)))


def _strata(max_n: int, table: Sequence[int], least: int = 1) -> Iterator[tuple]:
    """(n, l, D, W, path) for each partition alpha of n = least..max_n, and no other.

    Depth first, by decreasing largest part and each size's multiplicity from
    high to low.  `path` is one list, changed in place, of alpha's (size,
    multiplicity) pairs, largest size first; l counts its parts, D = prod_i
    alpha_i! and W = prod_i table[i]^(alpha_i).  The walk passes through the
    partitions of n < least without a part 1, the parents of those it yields,
    without yielding them: at least = max_n it yields the p(max_n) partitions
    of max_n alone.  It computes no c: a caller that needs c(alpha) calls
    `_c_closed(n, l, D)` for each partition it is given.
    """
    fact = list(accumulate(range(1, max_n + 1), mul, initial=1))
    power = [[1]] + [list(accumulate([table[i]] * (max_n // i), mul, initial=1))
                     for i in range(1, max_n + 1)]  # power[i][m] = table[i]^m
    ones = power[1] if max_n else []
    path: list[tuple[int, int]] = []
    # pending: a parent's depth, n, l, D, W, then a child's (i, m), or (1, room) for all of size 1
    stack = [(0, 0, 0, 1, 1, 1, max_n)]
    stack += [(0, 0, 0, 1, 1, i, m) for i in range(2, max_n + 1) for m in range(1, max_n // i + 1)]
    pop, push = stack.pop, stack.append
    while stack:
        depth, n0, l0, d0, w0, i, m = pop()
        if i == 1:
            path[depth:] = [None]
            for k in range(m, max(least - n0, 1) - 1, -1):
                path[-1] = (1, k)
                yield n0 + k, l0 + k, d0 * fact[k], w0 * ones[k], path
            continue
        path[depth:] = [(i, m)]
        n, l, d, w = n0 + i * m, l0 + m, d0 * fact[m], w0 * power[i][m]
        if n >= least:
            yield n, l, d, w, path
        room = max_n - n
        if room:  # pushed in reverse order of visit: size 1 first, then ascending
            push((depth + 1, n, l, d, w, 1, room))
            for j in range(2, i if i <= room else room + 1):
                for k in range(1, room // j + 1):
                    push((depth + 1, n, l, d, w, j, k))
