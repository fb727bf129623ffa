"""Counting and enumeration of d-dimensional partitions.

A d-dimensional partition of n is a function f: N^d -> N, weakly
decreasing along every coordinate axis, with total sum n.  P_d(n)
counts them; P_d(0) = 1 by convention (the empty partition).  Ordinary
partitions are d = 1, plane partitions d = 2, solid partitions d = 3.

Two encodings are used, one per algorithm:

* box sets -- f corresponds to the set of n "boxes" in N^(d+1) given by
  (x_1, ..., x_d, h) with h < f(x_1, ..., x_d); weak monotonicity of f
  is exactly downward closure of the box set (every coordinatewise
  predecessor of a box is a box).  The enumerator and `count_pd_alt`
  walk these sets directly, growing them one box at a time in strictly
  increasing lexicographic order.  Lexicographic order extends the
  coordinatewise order, so every prefix of the sorted box list is
  itself downward closed and every ideal is generated exactly once.

* nested tuples ("rep") -- a downward-closed subset of N^1 is encoded
  by its size, an int; one of N^k for k >= 2 by the tuple of its slices
  {y : (j, y) in I} for j = 0, 1, ..., trailing empty slices trimmed.
  The slices are again downward closed and weakly decrease under
  containment, so a d-dimensional partition of n is the rep of its box
  set, nesting d + 1 levels deep.  `count_pd` counts reps layer by
  layer: choose the first slice J inside the current bound, then count
  the tail bounded by J, memoizing on (bound, remaining weight) with
  bounds clipped to canonical form.  The reps are its memo keys.

Brute-force work is refused beyond a configurable cap on n (see
`DEFAULT_ENUM_CAPS`) by raising `EnumerationCapError` instead of
starting a search that cannot finish at a desk.  The layered recursion
behind `count_pd` carries no such cap; it recurses about once per unit
of n and refuses n above half the interpreter's recursion limit.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator

__all__ = [
    "DEFAULT_ENUM_CAPS",
    "DdPartition",
    "EnumerationCapError",
    "check_enumeration_cap",
    "count_pd",
    "count_pd_alt",
    "enumerate_pd",
    "enumeration_cap",
]

# Default upper bounds on n for the enumeration-backed routines.  The
# object counts at the caps (p(40) = 37338, P_2(16) = 18334,
# P_3(12) = 13426, P_4(10) = 13220) keep a full walk comfortably fast.
DEFAULT_ENUM_CAPS: dict[int, int] = {1: 40, 2: 16, 3: 12}
_HIGHER_DIM_CAP = 10


class EnumerationCapError(RuntimeError):
    """Raised instead of starting an enumeration that exceeds the cap."""

    def __init__(self, d: int, n: int, cap: int):
        super().__init__(
            f"enumerating {d}-dimensional partitions of {n} exceeds the cap of {cap}"
        )
        self.d = d
        self.n = n
        self.cap = cap


def enumeration_cap(d: int) -> int:
    """The default cap on n for brute-force work in dimension d."""
    return DEFAULT_ENUM_CAPS.get(d, _HIGHER_DIM_CAP)


def check_enumeration_cap(d: int, n: int, enum_cap: int | None = None) -> None:
    """Raise `EnumerationCapError` if n exceeds the (possibly overridden) cap."""
    cap = enum_cap if enum_cap is not None else enumeration_cap(d)
    if n > cap:
        raise EnumerationCapError(d, n, cap)


def _validate_dn(d: int, n: int) -> None:
    if d < 1:
        raise ValueError("dimension d must be a positive integer")
    if n < 0:
        raise ValueError("n must be nonnegative")


class DdPartition:
    """A d-dimensional partition of n as its set of n boxes in N^(d+1).

    Box (x_1, ..., x_d, h) is present exactly when the height function
    satisfies f(x_1, ..., x_d) > h.  The constructor checks downward
    closure, so every instance is a genuine partition.
    """

    __slots__ = ("dim", "boxes")

    def __init__(self, dim: int, boxes: Iterable[tuple[int, ...]]):
        if dim < 1:
            raise ValueError("dimension must be a positive integer")
        cells = frozenset(tuple(b) for b in boxes)
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


# --- layered counting recursion ------------------------------------------

def _is_empty(d: int, rep) -> bool:
    return rep == 0 if d == 1 else len(rep) == 0


def _intersect(d: int, a, b):
    # slices of the intersection are pairwise intersections; they stay
    # weakly decreasing, so the first empty one ends the tuple
    if d == 1:
        return a if a < b else b
    out = []
    for x, y in zip(a, b):
        s = _intersect(d - 1, x, y)
        if _is_empty(d - 1, s):
            break
        out.append(s)
    return tuple(out)


def _clip(d: int, rep, m: int):
    # intersection with the full ideal of side m: ideals of size <= m
    # never reach past it, so clipping canonicalizes memo keys
    if d == 1:
        return rep if rep < m else m
    return tuple(_clip(d - 1, sl, m) for sl in rep[:m]) if m else ()


def _iter_subideals(d: int, bound, cap: int) -> Iterator[tuple[object, int]]:
    """Yield (rep, size) for every nonempty ideal inside `bound` of size <= cap."""
    if d == 1:
        for s in range(1, min(bound, cap) + 1):
            yield s, s
        return

    def extend(prefix: tuple, size: int, prev) -> Iterator[tuple[object, int]]:
        t = len(prefix)
        if t < len(bound) and size < cap:
            ceiling = bound[t] if prev is None else _intersect(d - 1, prev, bound[t])
            for rep, s in _iter_subideals(d - 1, ceiling, cap - size):
                yield from extend(prefix + (rep,), size + s, rep)
        if prefix:
            yield prefix, size

    yield from extend((), 0, None)


_CHAIN_MEMO: dict[tuple, int] = {}


def _chain_count(d: int, bound, m: int) -> int:
    """Number of weakly decreasing slice tuples inside `bound` of total size m."""
    bound = _clip(d, bound, m)
    key = (d, bound, m)
    cached = _CHAIN_MEMO.get(key)
    if cached is not None:
        return cached
    if m == 0:
        total = 1
    else:
        total = 0
        for rep, size in _iter_subideals(d, bound, m):
            total += _chain_count(d, rep, m - size)
    _CHAIN_MEMO[key] = total
    return total


def _full_bound(d: int, n: int):
    if d == 1:
        return n
    return tuple(_full_bound(d - 1, n) for _ in range(n))


def count_pd(d: int, n: int) -> int:
    """Exact P_d(n) by the layered recursion; d >= 4 works but slows.

    No enumeration cap applies.  The recursion is about n + d frames
    deep, so n above half of `sys.getrecursionlimit()` raises
    `EnumerationCapError` before any counting; `partition_count_table`
    serves d <= 2 at any n from the product formulas.
    """
    _validate_dn(d, n)
    depth_cap = sys.getrecursionlimit() // 2
    if n > depth_cap:
        err = EnumerationCapError(d, n, depth_cap)
        err.args = (f"{err} set by the recursion limit; partition_count_table "
                    "serves d <= 2 at any n",)
        raise err
    return _chain_count(d, _full_bound(d, n), n)


# --- canonical-order DFS over box sets ------------------------------------

def _newly_addable(
    boxes: set[tuple[int, ...]], cell: tuple[int, ...], k: int
) -> list[tuple[int, ...]]:
    """Successors of `cell` all of whose predecessors are now present."""
    out = []
    for j in range(k):
        succ = cell[:j] + (cell[j] + 1,) + cell[j + 1 :]
        for i in range(k):
            if i == j or succ[i] == 0:
                continue
            if succ[:i] + (succ[i] - 1,) + succ[i + 1 :] not in boxes:
                break
        else:
            out.append(succ)
    return out


def _lex_walk(d: int, n: int) -> Iterator[tuple[set[tuple[int, ...]], list[tuple[int, ...]]]]:
    """The canonical lex-order DFS over box sets, n >= 1: yields (boxes, addable).

    `boxes` holds n - 1 boxes (shared: it changes once the walk resumes);
    each cell of `addable` completes it to a distinct partition of n.
    """
    k = d + 1
    boxes: set[tuple[int, ...]] = set()

    def grow(addable: list[tuple[int, ...]], remaining: int):
        if remaining == 1:
            yield boxes, addable
            return
        for idx, cell in enumerate(addable):
            boxes.add(cell)
            nxt = sorted(addable[idx + 1 :] + _newly_addable(boxes, cell, k))
            yield from grow(nxt, remaining - 1)
            boxes.remove(cell)

    return grow([(0,) * k], n)


def count_pd_alt(d: int, n: int, enum_cap: int | None = None) -> int:
    """P_d(n) again, by depth-first search over box sets.

    Structurally independent of `count_pd`: no layer recursion, no memo,
    just the canonical lex-order walk.  Subject to the enumeration cap.
    """
    _validate_dn(d, n)
    check_enumeration_cap(d, n, enum_cap)
    if n == 0:
        return 1
    return sum(len(addable) for _, addable in _lex_walk(d, n))


def enumerate_pd(d: int, n: int, enum_cap: int | None = None) -> Iterator[DdPartition]:
    """Yield every d-dimensional partition of n exactly once.

    Same canonical lex-order walk as `count_pd_alt`, materializing each
    leaf as a validated `DdPartition`.  Deterministic order; subject to
    the enumeration cap.
    """
    _validate_dn(d, n)
    check_enumeration_cap(d, n, enum_cap)
    if n == 0:
        yield DdPartition(d, frozenset())
        return
    for boxes, addable in _lex_walk(d, n):
        for cell in addable:
            yield DdPartition(d, boxes | {cell})
