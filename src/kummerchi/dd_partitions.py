"""Counting and enumeration of d-dimensional partitions.

A d-dimensional partition of n is a function f: N^d -> N, weakly
decreasing along every coordinate axis, with total sum n.  P_d(n)
counts them; P_d(0) = 1 by convention (the empty partition).  Ordinary
partitions are d = 1, plane partitions d = 2, solid partitions d = 3.

Two encodings are used, one per algorithm:

* box sets -- f corresponds to the set of n "boxes" in N^(d+1) given by
  (x_1, ..., x_d, h) with h < f(x_1, ..., x_d); weak monotonicity of f
  is exactly downward closure of the box set (every coordinatewise
  predecessor of a box is a box).  The DFS counters and the enumerator
  walk these sets directly, growing them one box at a time in strictly
  increasing lexicographic order.  Lexicographic order extends the
  coordinatewise order, so every prefix of the sorted box list is
  itself downward closed and every ideal is generated exactly once.
  One walk to N counts every size up to N: each ideal it visits adds
  its addable boxes to the count one size up.  The walk codes a box as
  one int, its coordinates the base-N digits, so that int order is lex
  order and a predecessor is a subtraction; `enumerate_pd` decodes the
  boxes to tuples.

* nested tuples ("rep") -- a downward-closed subset of N^1 is encoded
  by its size, an int; one of N^k for k >= 2 by the tuple of its slices
  {y : (j, y) in I} for j = 0, 1, ..., trailing empty slices trimmed.
  The slices are again downward closed and weakly decrease under
  containment, so a d-dimensional partition of n is the rep of its box
  set, nesting d + 1 levels deep.  `count_pd_table` counts reps layer
  by layer, every size at once: choose the first slice J inside the
  current bound and add the counts of the tails bounded by J, shifted
  by |J|, memoizing each bound's counts by size on the bound alone,
  clipped to canonical form.  For d >= 3 a bound and its transpose
  (the first two coordinates swapped) bound equally many chains, so
  whichever is counted first serves the other's memo miss.  The first
  slices are streamed, the lower-level slice lists cached; memo and
  cache hold one dimension, and another d empties them.

Brute-force work is refused beyond a configurable cap on n (see
`DEFAULT_ENUM_CAPS`) by raising `EnumerationCapError` instead of
starting a search that cannot finish at a desk.  The layered count has
no such cap, but `check_layered_cap` refuses it, before counting, past
half the recursion limit (it recurses once per unit of n) and for d >= 2
past a fixed cap set by its running time (`_LAYERED_CAPS`).
"""

from __future__ import annotations

import sys
from operator import add
from typing import Iterable, Iterator

__all__ = [
    "DEFAULT_ENUM_CAPS",
    "DdPartition",
    "EnumerationCapError",
    "check_enumeration_cap",
    "check_layered_cap",
    "count_pd",
    "count_pd_alt",
    "count_pd_alt_table",
    "count_pd_table",
    "enumerate_pd",
    "enumeration_cap",
]

# Default upper bounds on n for the enumeration-backed routines.  The
# object counts at the caps (p(40) = 37338, P_2(16) = 18334,
# P_3(12) = 13426, P_4(10) = 13220) keep a full walk comfortably fast.
DEFAULT_ENUM_CAPS: dict[int, int] = {1: 40, 2: 16, 3: 12}
_HIGHER_DIM_CAP = 10
# Caps on n for the layered count that no enum_cap lifts, by d: each was the
# largest max_n whose count_pd_table, then one count per n, took under a
# minute of CPU, one more n taking over a minute (2-vCPU host, Python 3.11;
# d = 2: 57 s at 40, 77 s at 41; d = 3: 46 s at 23, 83 s at 24); the one-pass
# table takes less.  Time grows with d at fixed n, so a d between two keys
# takes the cap of the next key up and d above the last key is refused at
# every n >= 1.  Only the recursion limit caps d = 1 (time ~ n^3, 1.2 s at 500).
_LAYERED_CAPS: dict[int, int] = {2: 40, 3: 23, 4: 18, 5: 15, 6: 13, 7: 12, 8: 11, 9: 10, 10: 10,
                                 12: 9, 14: 8, 16: 7, 20: 7, 24: 6, 30: 5}


class EnumerationCapError(RuntimeError):
    """Raised instead of starting an enumeration, or a count, that exceeds the cap.

    `fixed_by` names what sets a fixed cap, one that no enum_cap lifts; such
    a cap guards a count that enumerates nothing, so its message says "counting".
    """

    def __init__(self, d: int, n: int, cap: int, fixed_by: str | None = None):
        super().__init__(
            f"{'counting' if fixed_by else 'enumerating'} {d}-dimensional partitions of {n} "
            f"exceeds the cap of {cap}"
            + (f" set by {fixed_by}" if fixed_by else "")
        )
        self.d = d
        self.n = n
        self.cap = cap
        self.fixed_by = fixed_by


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


def _trusted_pd(dim: int, boxes: frozenset) -> DdPartition:
    """A `DdPartition` of box tuples already of arity dim + 1 and downward closed, unchecked."""
    obj = DdPartition.__new__(DdPartition)
    obj.dim, obj.boxes = dim, boxes
    return obj


# --- layered counting recursion ------------------------------------------

def _intersect(d: int, a, b):
    # slices of the intersection are pairwise intersections; every slice
    # of a nonempty ideal holds the origin, so none of them is empty
    if d == 1:
        return a if a < b else b
    return tuple([_intersect(d - 1, x, y) for x, y in zip(a, b)])


def _clip(d: int, rep, m: int):
    # intersection with the full ideal of side m: ideals of size <= m
    # never reach past it, so clipping canonicalizes memo keys
    if d == 1:
        return rep if rep < m else m
    return tuple([_clip(d - 1, sl, m) for sl in rep[:m]])


def _fits(rep, m: int) -> bool:
    # slices shrink, so a rep's extents are those of its first slices
    while isinstance(rep, tuple) and rep:
        if len(rep) > m:
            return False
        rep = rep[0]
    return rep == () or rep <= m


def _staircase(d: int, n: int):
    # an ideal holding x holds the prod(x_i + 1) cells y <= x, so every ideal
    # of <= n cells lies in the staircase {x : prod(x_i + 1) <= n}, whose
    # slice j is the staircase of n // (j + 1) one dimension down
    if d == 1:
        return n
    return tuple(_staircase(d - 1, n // (j + 1)) for j in range(n))


# The layered count's memo, bound -> [c_0, ..., c_m] chain counts by size,
# its cache of lower-level subideal lists, (ceiling, cap) -> [(rep, size), ...],
# and one shared copy of each listed pair, for dimension `_memo_dim` only.
_CHAIN_MEMO: dict[object, list[int]] = {}
_SLICES: dict[tuple, list] = {}
_PAIRS: dict[tuple, tuple] = {}
_memo_dim = 0


def _lower(level: int, ceiling, cap: int) -> list:
    """The cached list of `_subideals(level, ceiling, cap)`."""
    if not _fits(ceiling, cap):  # clipping canonicalizes: many ceilings share a list
        ceiling = _clip(level, ceiling, cap)
    found = _SLICES.get((ceiling, cap))
    if found is None:
        found = [_PAIRS.setdefault(p, p) for p in _subideals(level, ceiling, cap)]
        _SLICES[ceiling, cap] = found
    return found


def _subideals(level: int, bound, cap: int) -> Iterator[tuple[object, int]]:
    """Yield (rep, size) for every nonempty ideal inside `bound` of size <= cap."""
    if level == 1:
        yield from ((s, s) for s in range(1, min(bound, cap) + 1))
        return
    # stack[t]: the choices of slice t (inside slice t - 1 and bound[t])
    prefix = ()
    stack = [(iter(_lower(level - 1, bound[0], cap)), 0)] if bound and cap else []
    while stack:
        choices, before = stack[-1]
        for rep, s in choices:
            t = len(stack)
            prefix = prefix[: t - 1] + (rep,)
            size = before + s
            yield prefix, size
            if t < len(bound) and size < cap:
                ceiling = _intersect(level - 1, rep, bound[t])
                stack.append((iter(_lower(level - 1, ceiling, cap - size)), size))
                break
        else:
            stack.pop()


def _transpose(bound: tuple) -> tuple:
    # swap the first two coordinates: slice i of the result holds slice i of
    # each slice of `bound` that has one, and those slices form a prefix
    rows = len(bound[0]) if bound else 0
    return tuple(tuple(sl[i] for sl in bound if len(sl) > i) for i in range(rows))


def _chain_count(d: int, bound, m: int) -> list[int]:
    """[c_0, ..., c_m], c_k the weakly decreasing slice tuples inside `bound` of size k.

    Memoized on the bound clipped to m alone: c_k does not depend on m, so a
    longer stored list serves by its prefix and a shorter one is recounted
    and replaced; stored lists are never mutated.  For d >= 3 a bound and
    its transpose bound equally many chains, so a miss takes the transpose's
    list when it is long enough and stores nothing: tables visit both.
    """
    if not _fits(bound, m):
        bound = _clip(d, bound, m)
    counts = _CHAIN_MEMO.get(bound)
    if counts is None or len(counts) <= m:
        if d >= 3:
            counts = _CHAIN_MEMO.get(_transpose(bound))
            if counts is not None and len(counts) > m:
                return counts
        counts = [1] + [0] * m
        for rep, size in _subideals(d, bound, m):  # the top level is streamed
            counts[size:] = map(add, counts[size:], _chain_count(d, rep, m - size))
        _CHAIN_MEMO[bound] = counts
    return counts


def check_layered_cap(d: int, n: int) -> None:
    """Raise the `EnumerationCapError` that `count_pd(d, n)` would, without counting."""
    _validate_dn(d, n)
    if d > 1:  # below the depth cap at the default recursion limit, so named first
        cap = next((cap for k, cap in _LAYERED_CAPS.items() if k >= d), 0)
        if n > cap:
            raise EnumerationCapError(d, n, cap, "the running time of the layered count")
    depth_cap = sys.getrecursionlimit() // 2
    if n > depth_cap:
        raise EnumerationCapError(d, n, depth_cap, "the recursion limit; "
                                  "partition_count_table serves d <= 2 at larger n")


def count_pd(d: int, n: int) -> int:
    """Exact P_d(n): the last entry of `count_pd_table(d, n)`."""
    return count_pd_table(d, n)[n]


def count_pd_table(d: int, max_n: int) -> list[int]:
    """[P_d(0), ..., P_d(max_n)]: the chains inside `_staircase(d, max_n)`, counted by size.

    No enumeration cap applies.  The recursion is about max_n + d frames
    deep, so `check_layered_cap` refuses, before any counting, max_n above
    half of `sys.getrecursionlimit()` and above `_LAYERED_CAPS` for d >= 2;
    `partition_count_table` serves d <= 2 at larger n.  Tables in one d
    share `_CHAIN_MEMO`; the caller gets a copy.
    """
    global _memo_dim
    check_layered_cap(d, max_n)
    if d != _memo_dim:
        for cache in (_CHAIN_MEMO, _SLICES, _PAIRS):
            cache.clear()
        _memo_dim = d
    return _chain_count(d, _staircase(d, max_n), max_n)[: max_n + 1]


# --- canonical-order DFS over box sets ------------------------------------

def _strides(d: int, base: int) -> list[int]:
    """Place values of the d + 1 coordinates of a box coded as one int, most significant first."""
    return [base**i for i in range(d, -1, -1)]


def _lex_walk(d: int, n: int) -> Iterator[tuple[set[int], list[int]]]:
    """The canonical lex-order DFS over box sets, n >= 1: yields (boxes, addable).

    Every ideal with fewer than n boxes is visited once, in lex order, as
    `boxes` (shared: it changes once the walk resumes); each cell of
    `addable`, in increasing order, completes it to a distinct ideal with
    one box more.  A box is one int whose base-n digits are its
    coordinates (`_strides`): an ideal of at most n boxes has every
    coordinate below n, so no digit carries and int order is lex order.
    """
    base = max(n, 2)
    strides = _strides(d, base)
    preds: dict[int, list[int]] = {}  # cell -> its predecessors, one per nonzero digit

    def addable_after(cell: int) -> list[int]:
        """Successors of the newest box `cell` all of whose predecessors are now boxes."""
        out = []
        for step in strides:
            succ = cell + step
            need = preds.get(succ)
            if need is None:
                need = preds[succ] = [succ - s for s in strides if succ // s % base]
            if boxes.issuperset(need):
                out.append(succ)
        return out

    boxes: set[int] = set()
    root = [0]
    yield boxes, root
    # per open ideal: its addable cells, the children left, the cell that made it
    stack = [(root, enumerate(root), None)] if n > 1 else []
    while stack:
        addable, children, _ = stack[-1]
        for idx, cell in children:
            boxes.add(cell)
            nxt = sorted(addable[idx + 1 :] + addable_after(cell))
            yield boxes, nxt
            if len(boxes) + 1 < n:
                stack.append((nxt, enumerate(nxt), cell))
                break
            boxes.remove(cell)
        else:
            boxes.discard(stack.pop()[2])


def count_pd_alt_table(d: int, max_n: int, enum_cap: int | None = None) -> list[int]:
    """[P_d(0), ..., P_d(max_n)] by one box-set DFS, subject to the enumeration cap.

    Structurally independent of `count_pd`: no layer recursion, no memo,
    just the canonical lex-order walk, which counts every size it passes.
    """
    _validate_dn(d, max_n)
    check_enumeration_cap(d, max_n, enum_cap)
    counts = [1] + [0] * max_n
    if max_n:
        for boxes, addable in _lex_walk(d, max_n):
            counts[len(boxes) + 1] += len(addable)
    return counts


def count_pd_alt(d: int, n: int, enum_cap: int | None = None) -> int:
    """P_d(n) again: the last entry of `count_pd_alt_table(d, n)`."""
    return count_pd_alt_table(d, n, enum_cap)[n]


def enumerate_pd(d: int, n: int, enum_cap: int | None = None) -> Iterator[DdPartition]:
    """Yield every d-dimensional partition of n exactly once.

    Same canonical lex-order walk as `count_pd_alt`, materializing each
    completion of an ideal of n - 1 boxes as a `DdPartition`, unchecked as
    the walk builds only ideals.  Deterministic order; subject to the cap.
    """
    _validate_dn(d, n)
    check_enumeration_cap(d, n, enum_cap)
    if n == 0:
        yield _trusted_pd(d, frozenset())
        return
    base = max(n, 2)
    strides = _strides(d, base)
    coords: dict[int, tuple[int, ...]] = {}  # cell code -> box, decoded once per walk

    def box(c: int) -> tuple[int, ...]:
        return coords.get(c) or coords.setdefault(c, tuple(c // s % base for s in strides))

    for boxes, addable in _lex_walk(d, n):
        if len(boxes) == n - 1:
            stem = frozenset(map(box, boxes))
            for cell in addable:
                yield _trusted_pd(d, stem.union((box(cell),)))
