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

* bitmasks -- an ideal of N^d with at most n cells lies in the staircase
  {x : prod(x_i + 1) <= n}, as x brings the prod(x_i + 1) cells below it.
  Ordered by (prod(x_i + 1), x), which extends the coordinatewise order,
  the cells list every staircase as a prefix; an ideal is the int whose
  bit i stands for cell i, and its clip to the ideals of at most r cells
  is one `&`.  The slices of a d-dimensional partition along one axis
  are nonempty ideals of N^d, weakly decreasing, of total size n.
  `count_pd_table` counts such chains layer by layer, every size at once:
  it walks the first slices J inside the current bound, groups them by
  |J| and clip, and adds each group's counts of the tails inside the
  clip, memoized by bound; the memo and the cell table live for one call.

This module owns every P_d table, and one function, `_pd_plan`, refuses and
counts each: it picks the route once, ones (d = 0), Euler's and MacMahon's
products (d = 1, 2) or the layered count, and refuses before any counting
with an `EnumerationCapError`: DFS work past a configurable cap on n
(`DEFAULT_ENUM_CAPS`), the products past `_PRODUCT_CAP`, and the layered count
past half the recursion limit and, for d >= 2, `_LAYERED_CAPS`.  Through it
`partition_count_table` serves the Kummer routes, `partition_count_rows` `pd`.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from functools import partial
from operator import add, index
from typing import Callable, Iterable, Iterator

from .series import product_expansion

__all__ = [
    "DEFAULT_ENUM_CAPS",
    "DdPartition",
    "EnumerationCapError",
    "check_enumeration_cap",
    "count_pd",
    "count_pd_alt",
    "count_pd_alt_table",
    "count_pd_table",
    "enumerate_pd",
    "enumeration_cap",
    "partition_count_rows",
    "partition_count_table",
]

# Default upper bounds on n for the enumeration-backed routines.  The
# object counts at the caps (p(40) = 37338, P_2(16) = 18334,
# P_3(12) = 13426, P_4(10) = 13220) keep a full walk comfortably fast.
DEFAULT_ENUM_CAPS: dict[int, int] = {1: 40, 2: 16, 3: 12}
_HIGHER_DIM_CAP = 10
# Caps on n for the layered count that no enum_cap lifts, by d: each was the
# largest max_n whose count_pd_table, then one count per n, took under a
# minute of CPU, one more n taking over a minute (2-vCPU host, Python 3.11;
# d = 2: 57 s at 40, 77 s at 41; d = 3: 46 s at 23, 83 s at 24).  On bitmask
# ideals the table takes 5.3 s at d = 2, 3.3 s at d = 3, 3.6 s at d = 4 and under
# 2.5 s at every other cap.  Time grows with d at fixed n, so a d between two keys
# takes the cap of the next key up, and d above the last key takes a cap of 1, as
# P_d(0) = P_d(1) = 1 costs nothing to count in any d.  Only the recursion limit
# caps d = 1 (time ~ n^3, 1.5 s at 480).
_LAYERED_CAPS: dict[int, int] = {2: 40, 3: 23, 4: 18, 5: 15, 6: 13, 7: 12, 8: 11, 9: 10, 10: 10,
                                 12: 9, 14: 8, 16: 7, 20: 7, 24: 6, 30: 5}
# Cap on max_n for the product expansions (d = 1, 2) that no enum_cap lifts:
# the largest multiple of 500 whose `table --max-n N` took under about a
# minute of CPU, the next one taking over a minute (2-vCPU host, Python 3.11;
# 40 s at 5000, 53 s at 6000, 67 s at 6500, 87 s at 7000).  The kernel that adds
# a slice at a time takes 31 s of CPU for `table --max-n 6000`, where the
# per-coefficient loop before it took 60 s on the same host; the cap waits for a
# calibration by work budget rather than being re-set by hand.
_PRODUCT_CAP = 6000


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


def _cap(d: int, enum_cap: int | None) -> int:
    """The cap on n in dimension d: `enum_cap` if given, which must be an integer >= 1."""
    if enum_cap is not None and index(enum_cap) < 1:  # TypeError on non-integers
        raise ValueError("enum_cap must be a positive integer")
    return enumeration_cap(d) if enum_cap is None else enum_cap


def check_enumeration_cap(d: int, n: int, enum_cap: int | None = None) -> None:
    """Raise `EnumerationCapError` if n exceeds the (possibly overridden) cap."""
    cap = _cap(d, enum_cap)
    if n > cap:
        raise EnumerationCapError(d, n, cap)


def _validate_dn(d: int, n: int) -> None:
    if index(d) < 1:  # TypeError on non-integers, before a kernel multiplies a list by them
        raise ValueError("dimension d must be a positive integer")
    if index(n) < 0:
        raise ValueError("n must be nonnegative")


class DdPartition:
    """A d-dimensional partition of n as its set of n boxes in N^(d+1).

    Box (x_1, ..., x_d, h) is present exactly when the height function
    satisfies f(x_1, ..., x_d) > h.  The constructor checks downward
    closure, so every instance is a genuine partition.
    """

    __slots__ = ("dim", "boxes")

    def __init__(self, dim: int, boxes: Iterable[tuple[int, ...]]):
        if index(dim) < 1:  # TypeError on non-integers
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

def _cells(d: int, n: int) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """(stair, succs) over the cells x of N^d of weight prod(x_i + 1) <= n.

    Bit i stands for cell i in (weight, x) order.  `stair[r]` has the bits of
    the cells of weight <= r, and `succs[i]` lists the successors of cell i,
    each with the bits of its predecessors, in increasing order.
    """
    cells = [(1, ())]
    for _ in range(d):
        cells = [(w * (a + 1), x + (a,)) for w, x in cells for a in range(n // w)]
    cells.sort()
    index = {x: i for i, (_, x) in enumerate(cells)}
    preds = [sum(1 << index[x[:k] + (x[k] - 1,) + x[k + 1 :]] for k in range(d) if x[k])
             for _, x in cells]
    ups = ((index.get(x[:k] + (x[k] + 1,) + x[k + 1 :]) for k in range(d)) for _, x in cells)
    succs = [sorted((j, preds[j]) for j in js if j is not None) for js in ups]
    return [(1 << bisect_left(cells, (r + 1,))) - 1 for r in range(n + 1)], succs


def _chain_count(bound: int, m: int, memo: dict[int, list[int]], stair: list[int],
                 succs: list[list[tuple[int, int]]]) -> list[int]:
    """[c_0, ..., c_m], c_k the chains J_0 >= J_1 >= ... of nonempty ideals in `bound` of size k.

    The ideals after J_0 hold at most m - |J_0| cells, so J_0 counts as its
    clip to those; each group of first slices with one size and clip adds
    the clip's list once, times the group's size.  `memo` maps the bound
    clipped to m to its list: c_k does not depend on m, so a longer stored
    list serves by its prefix and a shorter one is recounted and replaced;
    stored lists are never mutated.
    """
    bound &= stair[m]
    counts = memo.get(bound)
    if counts is None or len(counts) <= m:
        counts = [1] + [0] * m
        for size, groups in enumerate(_first_slices(bound, m, stair, succs)):
            rest = m - size
            for clip, many in groups.items():
                child = memo.get(clip)  # a clip is its own memo key, so a hit needs no call
                if child is None or len(child) <= rest:
                    child = _chain_count(clip, rest, memo, stair, succs)
                counts[size:] = map(add, counts[size:], child if many == 1 else
                                    [many * c for c in child[: rest + 1]])
        memo[bound] = counts
    return counts


def _first_slices(bound: int, m: int, stair: list[int],
                  succs: list[list[tuple[int, int]]]) -> list[dict[int, int]]:
    """Per size k, {clip: how many} of the nonempty ideals J in `bound` of k <= m cells.

    Each ideal is made once, its cells added in increasing order; those of m
    cells all clip to nothing, so they are counted, not visited.
    """
    if not (m and bound & 1):
        return []
    if m == 1:
        return [{}, {0: 1}]  # the origin alone
    groups: list[dict[int, int]] = [{} for _ in range(min(m, bound.bit_count()) + 1)]
    leaves = 0  # the ideals of m cells
    # an open ideal, its addable cells above its newest, the next one to add and
    # its children's size; the stack holds the ancestors with children left
    stack = []
    addable, i, ideal, size = [0], 0, 0, 1
    while stack or i < len(addable):
        if i == len(addable):
            addable, i, ideal, size = stack.pop()
            continue
        cell = addable[i]
        i += 1
        child = ideal | 1 << cell
        group = groups[size]
        clip = child & stair[m - size]
        group[clip] = group.get(clip, 0) + 1
        nxt = addable[i:]
        for s, need in succs[cell]:
            if need & child == need and bound >> s & 1:
                nxt.append(s)
        if size + 1 == m:
            leaves += len(nxt)
        elif nxt:
            nxt.sort()
            if i < len(addable):
                stack.append((addable, i, ideal, size))
            addable, i, ideal = nxt, 0, child
            size += 1
    if leaves:
        groups[m][0] = leaves
    return groups


def _check_layered_cap(d: int, n: int) -> None:
    """Raise the `EnumerationCapError` that `count_pd(d, n)` would, without counting."""
    _validate_dn(d, n)
    if d > 1:  # below the depth cap at the default recursion limit, so named first
        cap = next((cap for k, cap in _LAYERED_CAPS.items() if k >= d), 1)
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
    """[P_d(0), ..., P_d(max_n)]: the chains in the staircase of max_n, counted by size.

    No enumeration cap applies, and no state outlives the call: the cell
    table and the memo are built for it and dropped with it.  The count
    recurses, at most max_n frames deep: `_check_layered_cap` refuses,
    before any counting, max_n above `_LAYERED_CAPS` for d >= 2 (a table
    takes at most 5.3 s of CPU) and above half of `sys.getrecursionlimit()`,
    which only d = 1 reaches.  `partition_count_table` takes d <= 2 from the
    products, so tables of d <= 2 here serve library callers and acceptance
    criterion 5, where the layered count is the third plane-partition count.
    """
    _check_layered_cap(d, max_n)
    stair, succs = _cells(d, max_n)
    return _chain_count(stair[max_n], max_n, {}, stair, succs)


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
    yield boxes, [0]
    # the open ideal's addable cells, next child and newest box; the stack holds its ancestors
    stack: list[tuple[list[int], int, int | None]] = []
    addable, idx, made = [0] if n > 1 else [], 0, None
    while stack or idx < len(addable):
        if idx == len(addable):
            boxes.discard(made)
            addable, idx, made = stack.pop()
            continue
        cell = addable[idx]
        idx += 1
        boxes.add(cell)
        nxt = addable[idx:] + addable_after(cell)
        nxt.sort()
        yield boxes, nxt
        if len(boxes) + 1 < n:
            stack.append((addable, idx, made))
            addable, idx, made = nxt, 0, cell
        else:
            boxes.remove(cell)


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
    the walk builds only ideals.  Deterministic order; subject to the cap, which,
    as the arguments, is checked at the call, not at the first ``next``.
    """
    _validate_dn(d, n)
    check_enumeration_cap(d, n, enum_cap)
    return _enumerate_pd(d, n)


def _enumerate_pd(d: int, n: int) -> Iterator[DdPartition]:
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


# --- P_d tables: the route, its DFS check and every refusal ---------------

def _pd_plan(d: int, max_n: int, top: int | None, enum_cap: int | None) -> Callable[[], list[int]]:
    """Refuse [P_d(0), ..., P_d(max_n)] before any counting, or give the call that counts it.

    In order: check d and max_n, refuse past the enumeration cap of the DFS
    check up to `top` (-1: none; None: the Kummer routes' policy, every n of a
    layered table and none of a product), then past the cap of d's route.
    The call runs the route's kernel, then the DFS check, whose error names the route.
    """
    if (d := index(d)) < 0:  # TypeError on non-integers, which would take another d's route
        raise ValueError("d must be nonnegative")
    if index(max_n) < 0:
        raise ValueError("max_n must be nonnegative")
    if top is None:
        top = max_n if d >= 3 else -1
    check_enumeration_cap(d, top, enum_cap)
    if d >= 3:
        _check_layered_cap(d, max_n)
        route, count = "layered", partial(count_pd_table, d, max_n)
    elif d:
        if max_n > _PRODUCT_CAP:
            raise EnumerationCapError(d, max_n, _PRODUCT_CAP,
                                      "the running time of the product expansion")
        # Euler's product, e_k = 1, and MacMahon's, e_k = k
        route, count = "product", partial(product_expansion, lambda k: k ** (d - 1), max_n)
    else:
        route, count = "ones", lambda: [1] * (max_n + 1)

    def table() -> list[int]:
        values = count()
        for n, alt in enumerate(count_pd_alt_table(d, top, enum_cap) if top >= 0 else []):
            if alt != values[n]:
                raise ArithmeticError(f"P_{d}({n}): {route} gives {values[n]}, DFS gives {alt}")
        return values
    return table


def partition_count_table(d: int, max_n: int, enum_cap: int | None = None) -> list[int]:
    """[P_d(0), ..., P_d(max_n)] for d >= 0, the table the Kummer routes read; P_0(n) = 1."""
    return _pd_plan(d, max_n, None, enum_cap)()


def partition_count_rows(d: int, max_n: int,
                         enum_cap: int | None = None) -> list[tuple[int, int, bool]]:
    """(n, P_d(n), cross-checked) for n = 0..max_n, d >= 1: the rows `pd` prints.

    Same routes as `partition_count_table`; `top`, the largest n the DFS
    checks, is max_n clipped to the cap for d <= 3, the rows above it
    unchecked, and max_n for d >= 4, which has no product formula.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    top = max_n if d >= 4 else min(max_n, _cap(d, enum_cap))
    return [(n, value, n <= top) for n, value in enumerate(_pd_plan(d, max_n, top, enum_cap)())]
