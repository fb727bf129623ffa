"""P_d by layers: the slices of a d-dimensional partition along one axis, counted as chains.

An ideal of N^d with at most n cells lies in the staircase
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
"""

from __future__ import annotations

from bisect import bisect_left
from operator import add

from .dd_partitions import _check_layered_cap

__all__ = ["count_pd", "count_pd_table"]


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


def count_pd(d: int, n: int) -> int:
    """Exact P_d(n): the last entry of `count_pd_table(d, n)`."""
    return count_pd_table(d, n)[n]


def count_pd_table(d: int, max_n: int) -> list[int]:
    """[P_d(0), ..., P_d(max_n)]: the chains in the staircase of max_n, counted by size.

    No enumeration cap applies, and no state outlives the call: the cell
    table and the memo are built for it and dropped with it.  The count
    recurses, at most max_n frames deep: `_check_layered_cap` refuses,
    before any counting, max_n above `_LAYERED_CAPS` for d >= 2 and above
    half of `sys.getrecursionlimit()`, which only d = 1 reaches.
    `partition_count_table` takes d <= 2 from the products, so tables of
    d <= 2 here serve library callers and acceptance criterion 5, where the
    layered count is the third plane-partition count.
    """
    _check_layered_cap(d, max_n)
    stair, succs = _cells(d, max_n)
    return _chain_count(stair[max_n], max_n, {}, stair, succs)
