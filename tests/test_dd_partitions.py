import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerchi import dd_partitions
from kummerchi.dd_partitions import (
    DEFAULT_ENUM_CAPS,
    DdPartition,
    EnumerationCapError,
    check_enumeration_cap,
    count_pd,
    count_pd_alt,
    count_pd_alt_table,
    count_pd_table,
    enumerate_pd,
    enumeration_cap,
)
from kummerchi.kummer import partition_count_table
from kummerchi.series import product_expansion


# Independent oracle, a third algorithm: assign the height function cell by
# cell over the grid [0, n)^d in lex order, bounded by its predecessors.
def count_heights_oracle(d, n):
    if n == 0:
        return 1
    cells = list(itertools.product(range(n), repeat=d))
    values = {}

    def rec(idx, remaining):
        if idx == len(cells):
            return 1 if remaining == 0 else 0
        cell = cells[idx]
        bound = remaining
        for j in range(d):
            if cell[j] > 0:
                pred = cell[:j] + (cell[j] - 1,) + cell[j + 1 :]
                bound = min(bound, values[pred])
        total = 0
        for v in range(bound + 1):
            values[cell] = v
            total += rec(idx + 1, remaining - v)
        del values[cell]
        return total

    return rec(0, n)


# Anchors established by three mutually independent routes (the oracle above,
# the product expansions, and hand checks for tiny n).
P1_KNOWN = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
P2_KNOWN = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479]
P3_KNOWN = [1, 1, 4, 10, 26, 59, 140, 307, 684, 1464, 3122]


def test_count_pd_known_values():
    assert [count_pd(1, n) for n in range(len(P1_KNOWN))] == P1_KNOWN
    assert [count_pd(2, n) for n in range(len(P2_KNOWN))] == P2_KNOWN
    assert [count_pd(3, n) for n in range(len(P3_KNOWN))] == P3_KNOWN


def test_count_pd_examples():
    assert count_pd(1, 5) == 7
    assert count_pd(2, 3) == 6
    assert count_pd(2, 0) == 1
    assert count_pd(3, 3) == 10
    assert count_pd(3, 0) == 1


def test_count_pd_validates_arguments():
    with pytest.raises(ValueError):
        count_pd(0, 3)
    with pytest.raises(ValueError):
        count_pd(2, -1)


def test_count_pd_against_height_oracle():
    for n in range(9):
        assert count_pd(1, n) == count_heights_oracle(1, n)
    for n in range(8):
        assert count_pd(2, n) == count_heights_oracle(2, n)
    for n in range(7):
        assert count_pd(3, n) == count_heights_oracle(3, n)


def test_count_pd_alt_agrees():
    for n in range(11):
        assert count_pd_alt(1, n) == count_pd(1, n)
    for n in range(11):
        assert count_pd_alt(2, n) == count_pd(2, n)
    for n in range(9):
        assert count_pd_alt(3, n) == count_pd(3, n)
    assert count_pd_alt(1, 10) == 42


def test_count_pd_against_product_expansions():
    euler = product_expansion(lambda k: 1, 12)
    macmahon = product_expansion(lambda k: k, 12)
    for n in range(13):
        assert count_pd(1, n) == euler[n]
        assert count_pd(2, n) == macmahon[n]


def test_dimension_monotonicity():
    # every d-dimensional partition extends to a (d+1)-dimensional one
    for n in range(9):
        assert count_pd(1, n) <= count_pd(2, n) <= count_pd(3, n)
    for n in range(6):
        assert count_pd(3, n) <= count_pd(4, n)


def test_layered_table_matches_known_values():
    assert count_pd_table(1, len(P1_KNOWN) - 1) == P1_KNOWN
    assert count_pd_table(2, len(P2_KNOWN) - 1) == P2_KNOWN
    assert count_pd_table(3, len(P3_KNOWN) - 1) == P3_KNOWN
    assert count_pd_table(4, 5) == [1, 1, 5, 15, 45, 120]
    assert count_pd_table(3, 0) == [1]


def test_dfs_table_matches_one_walk_per_n():
    # one walk to the top counts every smaller size as a walk to it would
    for d, top in ((1, 25), (2, 16), (3, 12), (4, 10)):
        table = count_pd_alt_table(d, top, enum_cap=top)
        assert table == [count_pd_alt(d, n, enum_cap=top) for n in range(top + 1)]
    assert count_pd_alt_table(3, 12)[: len(P3_KNOWN)] == P3_KNOWN
    assert count_pd_alt_table(2, 0) == [1]


def test_dfs_table_against_height_oracle_and_layered_count():
    for d, top in ((1, 8), (2, 7), (3, 6), (4, 4), (5, 3)):
        table = count_pd_alt_table(d, top)
        assert table == [count_heights_oracle(d, n) for n in range(top + 1)]
        assert table == count_pd_table(d, top)  # one pass
        assert table == [count_pd(d, n) for n in range(top + 1)]


def test_dfs_table_at_the_largest_dimension():
    # P_d(3) = k + C(k, 2) with k = d + 1: a column of three boxes in one of k
    # directions, or an L in two of them; box codes reach 3^30 here
    assert count_pd_alt_table(30, 3) == [1, 1, 31, 496]


def test_table_forms_refuse_and_validate():
    with pytest.raises(EnumerationCapError):
        count_pd_alt_table(3, 13)
    with pytest.raises(ValueError):
        count_pd_table(0, 3)
    with pytest.raises(ValueError):
        count_pd_alt_table(2, -1)


def _staircase_cells(d, n):
    # the cells of N^d of weight prod(x_i + 1) <= n, in the bit order the module
    # documents: by (prod(x_i + 1), x)
    def weight(x):
        return math.prod(a + 1 for a in x)

    return sorted((x for x in itertools.product(range(n), repeat=d) if weight(x) <= n),
                  key=lambda x: (weight(x), x))


def _permuted(bound, sigma, cells):
    # the bitmask of the cells of `bound` with their coordinates permuted by sigma
    index = {cell: i for i, cell in enumerate(cells)}
    out = 0
    for i, cell in enumerate(cells):
        if bound >> i & 1:
            out |= 1 << index[tuple(cell[j] for j in sigma)]
    return out


def test_layered_count_is_symmetric_in_the_coordinates():
    # permuting the coordinates maps the chains inside a bound onto those
    # inside the permuted bound; a swap and a cycle generate every permutation
    for d, n, known in ((3, 10, P3_KNOWN[10]), (4, 8, count_pd_alt(4, 8))):
        stair, succs = dd_partitions._cells(d, n)
        cells = _staircase_cells(d, n)
        assert stair[n] == (1 << len(cells)) - 1
        stored = {}
        assert dd_partitions._chain_count(stair[n], n, stored, stair, succs)[n] == known
        assert len(stored) > 1
        swap, cycle = (1, 0, *range(2, d)), (*range(1, d), 0)
        images = {bound: [_permuted(bound, sigma, cells) for sigma in (swap, cycle)]
                  for bound in stored}
        assert sum(image != bound for bound in stored for image in images[bound]) > len(stored)
        for bound, counts in stored.items():
            top = len(counts) - 1
            for image in images[bound]:
                assert dd_partitions._chain_count(image, top, {}, stair, succs) == counts


class _RecordingMemo(dict):
    """A memo that keeps every list stored in it, with a copy taken when it was stored."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, bound, counts):
        self.stored.append((counts, list(counts)))
        super().__setitem__(bound, counts)


def test_one_pass_table_under_both_memo_rules():
    stair, succs = dd_partitions._cells(3, 10)

    def chain_count(bound, m, memo):
        return dd_partitions._chain_count(bound, m, memo, stair, succs)

    # the chains in the staircase of 7 of size <= 7 are all solid partitions of those sizes
    fresh = chain_count(stair[7], 10, {})
    assert fresh[:8] == P3_KNOWN[:8] and fresh[8:] < P3_KNOWN[8:]
    # a longer stored list serves by its prefix: the same list, nothing recounted
    memo = {}
    longer = chain_count(stair[7], 10, memo)
    assert longer == fresh
    held = dict(memo)
    assert chain_count(stair[7], 7, memo) is longer
    assert memo == held and all(memo[bound] is counts for bound, counts in held.items())
    # a shorter stored list is recounted to the longer need and its entry replaced
    memo = {}
    shorter = chain_count(stair[6], 6, memo)
    assert memo[stair[6]] is shorter and len(shorter) == 7
    recounted = chain_count(stair[6], 10, memo)
    assert memo[stair[6]] is recounted
    assert recounted == chain_count(stair[6], 10, {}) and recounted[:7] == shorter
    # stored lists are never mutated, the replaced ones and the top list included
    memo = _RecordingMemo()
    chain_count(stair[6], 6, memo)
    chain_count(stair[7], 7, memo)
    assert chain_count(stair[10], 10, memo) == P3_KNOWN == count_pd_alt_table(3, 10)
    assert len(memo.stored) > len(memo)
    assert all(counts == copy for counts, copy in memo.stored)


# per d, the largest n drawn below
_AGREE_TOPS = {1: 18, 2: 12, 3: 10, 4: 8, 5: 7, 6: 6}


@functools.cache
def _dfs_table(d):
    return count_pd_alt_table(d, _AGREE_TOPS[d], enum_cap=_AGREE_TOPS[d])


@st.composite
def _table_calls(draw):
    """(d, [n, ...]): several tables in one d."""
    d = draw(st.sampled_from(sorted(_AGREE_TOPS)))
    return d, draw(st.lists(st.integers(0, _AGREE_TOPS[d]), min_size=1, max_size=5))


@settings(database=None, deadline=None, max_examples=60)
@given(_table_calls())
def test_layered_tables_agree_with_the_dfs(calls):
    d, tops = calls
    for top in tops:
        assert count_pd_table(d, top) == _dfs_table(d)[: top + 1], (d, tops)


def test_layered_memo_size_at_14():
    # one list per clipped bound: 455 entries, where a memo keyed on
    # (bound, remaining weight) held 2,220
    stair, succs = dd_partitions._cells(3, 14)
    memo = {}
    table = dd_partitions._chain_count(stair[14], 14, memo, stair, succs)
    assert table[12:] == [13426, 27248, 54804]
    assert len(memo) <= 600


def test_layered_count_refuses_past_its_fixed_caps(monkeypatch):
    # count_pd_table(3, 30) ran for hours, (2, 60) for minutes, and (12, 10)
    # built a cube bound of ~10^9 tuples; enum_cap lifts none of these caps
    caps = dd_partitions._LAYERED_CAPS
    top = max(caps)
    assert count_pd(top + 1, 0) == count_pd(top + 1, 1) == 1

    def no_counting(*args):
        raise AssertionError("built a bound or counted before refusing")

    monkeypatch.setattr(dd_partitions, "_cells", no_counting)
    monkeypatch.setattr(dd_partitions, "_chain_count", no_counting)
    cases = [(d, cap + 1, cap) for d, cap in caps.items()]
    # a d between two keys takes the cap of the next key up; past the last, a cap of 1
    cases += [(3, 30, caps[3]), (2, 60, caps[2]), (11, 10, caps[12]), (top + 1, 2, 1)]
    # past the depth cap too: the fixed cap is the one named (it used to be the depth cap)
    cases += [(3, 600, caps[3]), (2, 600, caps[2])]
    for d, n, cap in cases:
        for call in (count_pd, count_pd_table):
            with pytest.raises(EnumerationCapError, match="^counting .* running time") as info:
                call(d, n)
            assert (info.value.d, info.value.n, info.value.cap) == (d, n, cap)


def test_count_pd_d4_small():
    # hand check: f(0)=2, or f(0)=1 plus one neighbor in any of 4 directions
    assert count_pd(4, 2) == 5
    assert [count_pd(4, n) for n in range(6)] == [1, 1, 5, 15, 45, 120]


def test_enumerate_pd_counts_match():
    for d, top in ((1, 9), (2, 8), (3, 7)):
        for n in range(top + 1):
            assert sum(1 for _ in enumerate_pd(d, n)) == count_pd(d, n)


def test_enumerate_pd_yields_distinct_valid_objects():
    for d, n in ((2, 5), (3, 4)):
        seen = set()
        for obj in enumerate_pd(d, n):
            assert DdPartition(d, obj.boxes) == obj  # the public constructor checks closure
            assert obj.dim == d
            assert obj.weight == n
            assert obj not in seen
            seen.add(obj)


def test_enumerate_pd_hand_cases():
    assert list(enumerate_pd(2, 0)) == [DdPartition(2, frozenset())]
    assert list(enumerate_pd(2, 1)) == [DdPartition(2, {(0, 0, 0)})]
    two = {frozenset(p.boxes) for p in enumerate_pd(2, 2)}
    assert two == {
        frozenset({(0, 0, 0), (0, 0, 1)}),
        frozenset({(0, 0, 0), (0, 1, 0)}),
        frozenset({(0, 0, 0), (1, 0, 0)}),
    }
    assert sum(1 for _ in enumerate_pd(1, 2)) == 2


def test_enumeration_is_deterministic():
    first = [p.boxes for p in enumerate_pd(2, 5)]
    second = [p.boxes for p in enumerate_pd(2, 5)]
    assert first == second


def test_enumeration_order_is_lex_order_of_sorted_boxes():
    # the walk adds boxes in increasing lex order, so the partitions come out
    # in lex order of their sorted box lists, boxes as tuples of d + 1 ints
    for d, n in ((1, 6), (2, 5), (3, 4), (4, 3)):
        walked = [sorted(p.boxes) for p in enumerate_pd(d, n)]
        assert walked == sorted(walked)
        assert all(type(box) is tuple and len(box) == d + 1 for boxes in walked for box in boxes)


def test_ddpartition_validates_downward_closure():
    with pytest.raises(ValueError):
        DdPartition(2, {(0, 0, 1)})
    with pytest.raises(ValueError):
        DdPartition(2, {(0, 0, 0), (2, 0, 0)})
    with pytest.raises(ValueError):
        DdPartition(1, {(0, 0, 0)})  # wrong arity
    with pytest.raises(ValueError):
        DdPartition(2, {(0, -1, 0)})


def test_caps_raise_distinct_error():
    assert enumeration_cap(2) == DEFAULT_ENUM_CAPS[2] == 16
    assert enumeration_cap(3) == 12
    assert enumeration_cap(7) == 10
    with pytest.raises(EnumerationCapError, match="^enumerating 3-dim") as info:
        count_pd_alt(3, 13)
    assert (info.value.d, info.value.n, info.value.cap) == (3, 13, 12)
    with pytest.raises(EnumerationCapError):
        list(enumerate_pd(2, 17))
    with pytest.raises(EnumerationCapError):
        check_enumeration_cap(4, 11)


def test_cap_override():
    check_enumeration_cap(2, 17, enum_cap=18)
    assert count_pd_alt(2, 17, enum_cap=17) == count_pd(2, 17)


def test_cap_does_not_gate_count_pd():
    # 20 is past the d=2 enumeration cap; the layered recursion still runs
    assert count_pd(2, 20) == product_expansion(lambda k: k, 20)[20]


def test_count_pd_refuses_past_recursion_depth(monkeypatch):
    # count_pd(1, 1200) used to die with RecursionError deep in the count
    def no_counting(*args):
        raise AssertionError("built a bound or counted before refusing")

    with monkeypatch.context() as patch:
        patch.setattr(dd_partitions, "_cells", no_counting)
        patch.setattr(dd_partitions, "_chain_count", no_counting)
        with pytest.raises(EnumerationCapError, match="^counting .* partition_count_table") as info:
            count_pd(1, 1200)
    assert (info.value.d, info.value.n) == (1, 1200)
    assert count_pd(1, 200) == partition_count_table(1, 200)[200]
