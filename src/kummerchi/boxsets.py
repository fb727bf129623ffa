"""P_d by box sets: one canonical DFS that counts and enumerates d-dimensional partitions.

A d-dimensional partition f corresponds to the set of n "boxes" in
N^(d+1) given by (x_1, ..., x_d, h) with h < f(x_1, ..., x_d); weak
monotonicity of f is exactly downward closure of the box set (every
coordinatewise predecessor of a box is a box).  The DFS counters and the
enumerator walk these sets directly, growing them one box at a time in
strictly increasing lexicographic order.  Lexicographic order extends
the coordinatewise order, so every prefix of the sorted box list is
itself downward closed and every ideal is generated exactly once.  One
walk to N counts every size up to N, and it visits only the ideals of at
most N - 2 boxes: each hands over its addable boxes and, for each, the
boxes that adding it frees, so its children and grandchildren are
counted, or built, without being visited.  The walk codes a box as one
int, its coordinates the base-N digits, so that int order is lex order
and a predecessor is a subtraction; `enumerate_pd` decodes the boxes to
tuples.  Every entry point is subject to the enumeration cap.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator

from .dd_partitions import _at_least, _validate_dn, check_enumeration_cap

__all__ = ["DdPartition", "count_pd_alt", "count_pd_alt_table", "enumerate_pd"]


class DdPartition:
    """A d-dimensional partition of n as its set of n boxes in N^(d+1).

    Box (x_1, ..., x_d, h) is present exactly when the height function
    satisfies f(x_1, ..., x_d) > h.  The constructor checks downward
    closure, so every instance is a genuine partition.
    """

    __slots__ = ("dim", "boxes")

    def __init__(self, dim: int, boxes: Iterable[tuple[int, ...]]):
        _at_least(dim, 1, "dimension must be a positive integer")
        cells = frozenset(tuple(map(index, b)) for b in boxes)  # TypeError on non-integers
        k = dim + 1
        for cell in cells:
            if len(cell) != k or any(x < 0 for x in cell):
                raise ValueError(f"{cell!r} is not a lattice point of N^{k}")
            for j in range(k):
                if cell[j] > 0:
                    pred = cell[:j] + (cell[j] - 1,) + cell[j + 1 :]
                    if pred not in cells:
                        raise ValueError(
                            f"box set is not downward closed: {cell!r} present, {pred!r} missing"
                        )
        self.dim = dim
        self.boxes = cells

    @property
    def weight(self) -> int:
        return len(self.boxes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DdPartition)
            and self.dim == other.dim
            and self.boxes == other.boxes
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.boxes))

    def __repr__(self) -> str:
        return f"DdPartition(dim={self.dim}, boxes={sorted(self.boxes)!r})"


def _trusted_pd(dim: int, boxes: frozenset) -> DdPartition:
    """A `DdPartition` of box tuples already of arity dim + 1 and downward closed, unchecked."""
    obj = DdPartition.__new__(DdPartition)
    obj.dim, obj.boxes = dim, boxes
    return obj


def _strides(d: int, base: int) -> list[int]:
    """Place values of the d + 1 coordinates of a box coded as one int, most significant first."""
    return [base**i for i in range(d, -1, -1)]


def _lex_walk(d: int, n: int) -> Iterator[tuple[set[int], list[int], list[list[int]]]]:
    """The canonical lex-order DFS over box sets, n >= 2: yields (boxes, addable, freed).

    Every ideal of at most n - 2 boxes is visited once, in lex order, as
    `boxes`.  Each cell of `addable`, in increasing order, completes it to
    a distinct child with one box more, and `freed[j]` lists the cells, all
    above `addable[j]`, that adding `addable[j]` makes addable: that
    child's own addable cells are `addable[j + 1:] + freed[j]`.  So the
    ideals of n - 1 and n boxes are counted or built from their
    grandparent, never visited.  The set and the lists are shared (the
    set changes once the walk resumes): read them only.  A box is one int
    whose base-n digits are its coordinates (`_strides`): an ideal of at
    most n boxes has every coordinate below n, so no digit carries and int
    order is lex order.
    """
    strides = _strides(d, n)
    boxes: set[int] = set()
    has_all = boxes.issuperset
    # cell -> (the successors it frees alone, [(successor, its other predecessors)]),
    # leaving out successors with a predecessor above the cell, never in the ideal
    succs: dict[int, tuple[list[int], list[tuple[int, list[int]]]]] = {}

    def successors(cell: int) -> tuple[list[int], list[tuple[int, list[int]]]]:
        alone, shared = [], []
        for step in strides:
            succ = cell + step
            others = [succ - s for s in strides if s != step and succ // s % n]
            if not others:
                alone.append(succ)
            elif max(others) < cell:
                shared.append((succ, others))
        succs[cell] = alone, shared
        return alone, shared

    addable, freed = [0], [successors(0)[0]]
    yield boxes, addable, freed
    if n == 2:
        return
    # the open ideal's addable cells, what each frees, its next child and its newest
    # box; the stack holds its ancestors
    stack: list[tuple[list[int], list[list[int]], int, int | None]] = []
    idx, made = 0, None
    while stack or idx < len(addable):
        if idx == len(addable):
            boxes.discard(made)
            addable, freed, idx, made = stack.pop()
            continue
        cell = addable[idx]
        nxt = addable[idx + 1 :] + freed[idx]
        nxt.sort()
        idx += 1
        boxes.add(cell)
        frees = []
        for c in nxt:  # loops, not comprehensions: a comprehension's frame costs more here
            alone, shared = succs.get(c) or successors(c)
            if shared:
                alone = alone[:]
                for succ, others in shared:
                    if has_all(others):
                        alone.append(succ)
            frees.append(alone)
        yield boxes, nxt, frees
        if len(boxes) + 2 < n:
            stack.append((addable, freed, idx, made))
            addable, freed, idx, made = nxt, frees, 0, cell
        else:
            boxes.remove(cell)


def count_pd_alt_table(d: int, max_n: int, enum_cap: int | None = None) -> list[int]:
    """[P_d(0), ..., P_d(max_n)] by one box-set DFS, subject to the enumeration cap.

    Structurally independent of `layered.count_pd`: no layer recursion, no memo,
    just the canonical lex-order walk.  Each ideal it visits adds its
    grandchildren to the count two sizes up: child j has the addable cells
    after `addable[j]` and those `freed[j]` lists.
    """
    _validate_dn(d, max_n)
    check_enumeration_cap(d, max_n, enum_cap)
    counts = [1] + [0] * max_n
    if max_n:
        counts[1] = 1  # the origin alone
    if max_n > 1:
        for boxes, addable, freed in _lex_walk(d, max_n):
            a = len(addable)
            counts[len(boxes) + 2] += a * (a - 1) // 2 + sum(map(len, freed))
    return counts


def count_pd_alt(d: int, n: int, enum_cap: int | None = None) -> int:
    """P_d(n) again: the last entry of `count_pd_alt_table(d, n)`."""
    return count_pd_alt_table(d, n, enum_cap)[n]


def enumerate_pd(d: int, n: int, enum_cap: int | None = None) -> Iterator[DdPartition]:
    """Yield every d-dimensional partition of n exactly once.

    Same canonical lex-order walk as `count_pd_alt`, materializing each
    grandchild of an ideal of n - 2 boxes as a `DdPartition`, unchecked as
    the walk builds only ideals.  Deterministic order; subject to the cap, which,
    as the arguments, is checked at the call, not at the first ``next``.
    """
    _validate_dn(d, n)
    check_enumeration_cap(d, n, enum_cap)
    return _enumerate_pd(d, n)


def _enumerate_pd(d: int, n: int) -> Iterator[DdPartition]:
    if n < 2:
        yield _trusted_pd(d, frozenset({(0,) * (d + 1)} if n else ()))
        return
    strides = _strides(d, n)
    coords: dict[int, tuple[int, ...]] = {}  # cell code -> box, decoded once per walk

    def box(c: int) -> tuple[int, ...]:
        return coords.get(c) or coords.setdefault(c, tuple(c // s % n for s in strides))

    for boxes, addable, freed in _lex_walk(d, n):
        if len(boxes) == n - 2:
            stem = frozenset(map(box, boxes))
            for j, cell in enumerate(addable):
                child = stem.union((box(cell),))
                for last in sorted(addable[j + 1 :] + freed[j]):
                    yield _trusted_pd(d, child.union((box(last),)))
