import random
from functools import lru_cache
from math import comb, factorial, prod

import pytest

from kummerchi import partitions
from kummerchi.dd_partitions import count_pd
from kummerchi.partitions import (
    Partition,
    _c_closed,
    _strata,
    c_value,
    enumerate_partitions,
    iter_partitions,
)
from kummerchi.series import product_expansion


# Independent oracle: build partitions as weakly *increasing* part lists,
# a different traversal from the package's descending generator.
def ascending_part_lists(n, least=1):
    if n == 0:
        yield ()
        return
    for first in range(least, n + 1):
        for rest in ascending_part_lists(n - first, first):
            yield (first, *rest)


# Second oracle: the classic bounded-part counting table.
def partition_count_oracle(n):
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[k][0] = 1
    for k in range(1, n + 1):
        for m in range(1, n + 1):
            table[k][m] = table[k - 1][m] + (table[k][m - k] if m >= k else 0)
    return table[n][n]


def parts_of(mult):
    """The weakly decreasing part list of a multiplicity tuple, e.g. (2, 0, 1) -> (3, 1, 1)."""
    return tuple(i for i in range(len(mult), 0, -1) for _ in range(mult[i - 1]))


def without_part(mult, i):
    """The multiplicity tuple with one part of size i removed, trailing zeros trimmed."""
    hat = list(mult)
    hat[i - 1] -= 1
    while hat and hat[-1] == 0:
        hat.pop()
    return tuple(hat)


# Third oracle: the defining signed recursion for c, on multiplicity tuples.
@lru_cache(maxsize=None)
def c_by_recursion(mult):
    weight = sum(i * m for i, m in enumerate(mult, start=1))
    if sum(mult) == 1:
        return weight
    return -sum(c_by_recursion(without_part(mult, i)) for i, m in enumerate(mult, start=1) if m)


def walk_nodes(max_n, table, least=1):
    """`_strata(max_n, table, least)` as (n, mult, l, D, c, W), with the path read into a tuple
    and c = `_c_closed(n, l, D)`, which the walk leaves to its callers."""
    for n, l, d, w, path in _strata(max_n, table, least):
        mult = [0] * path[0][0]
        for i, m in path:
            mult[i - 1] = m
        yield n, tuple(mult), l, d, _c_closed(n, l, d), w


def test_canonical_form_trims_trailing_zeros():
    assert Partition((1, 1, 0, 0)).mult == (1, 1)
    assert Partition(()).mult == ()
    assert Partition((1, 1, 0)) == Partition((1, 1))
    assert hash(Partition((1, 1, 0))) == hash(Partition((1, 1)))


def test_weight_and_parts():
    alpha = Partition((2, 0, 1))  # the parts 3, 1, 1
    assert alpha.weight == 5 == sum(parts_of(alpha.mult))
    assert alpha.label() == "1^2 3^1"
    assert Partition(()).label() == "()"
    assert Partition((2, 1)).weight == 4  # the parts 2, 1, 1


def test_negative_multiplicity_rejected():
    with pytest.raises(ValueError):
        Partition((1, -1))
    with pytest.raises(ValueError):
        Partition((-1, 0, 1))


def test_non_integer_multiplicities_and_parts_rejected():
    # these used to be truncated silently: Partition([1.5]).mult == (1,)
    for bad in ([1.5], [True, 2.9], [1, "2"]):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Partition(bad)
    assert Partition([True, 2]).mult == (1, 2)  # bool is an int
    assert Partition([False, True]) == Partition((0, 1))


def test_enumerate_small_cases():
    assert [p.mult for p in enumerate_partitions(0)] == [()]
    assert {p.mult for p in enumerate_partitions(3)} == {(0, 0, 1), (1, 1), (3,)}
    assert len(enumerate_partitions(4)) == 5
    for walk in (enumerate_partitions, iter_partitions):
        with pytest.raises(ValueError):
            walk(-1)  # at the call, before any next()


def test_enumerate_order_is_decreasing_lex():
    for n in range(9):
        lists = [parts_of(p.mult) for p in enumerate_partitions(n)]
        assert lists == sorted(lists, reverse=True)
        assert len(set(lists)) == len(lists)


def test_enumerate_order_matches_oracle_up_to_30():
    for n in range(31):
        ours = enumerate_partitions(n)
        oracle = sorted((tuple(reversed(p)) for p in ascending_part_lists(n)), reverse=True)
        assert [parts_of(p.mult) for p in ours] == oracle
        assert all(p.weight == n and p.mult == Partition(p.mult + (0,)).mult for p in ours)


def test_enumerate_matches_independent_oracles():
    for n in range(11):
        ours = {parts_of(p.mult) for p in enumerate_partitions(n)}
        oracle = {tuple(sorted(p, reverse=True)) for p in ascending_part_lists(n)}
        assert ours == oracle
        assert len(enumerate_partitions(n)) == partition_count_oracle(n)


def test_enumerate_count_agrees_with_dd_module():
    for n in range(13):
        assert len(enumerate_partitions(n)) == count_pd(1, n)


def test_partition_series_matches_oracle_at_table_order():
    # the product kernel at CLI size: `table` expands series up to order 199
    euler = product_expansion(lambda k: 1, 200)
    assert euler == [partition_count_oracle(n) for n in range(201)]


def test_enumerate_is_deterministic():
    assert enumerate_partitions(9) == enumerate_partitions(9)


def test_remove_part_weight_drops_by_i():
    # the single-step check takes c(alpha - e_i) as the closed form at (n - i, l - 1, D / alpha_i):
    # those are the weight, part count and prod of factorials of the tuple without a part i
    for n, mult, l, d, c, _ in walk_nodes(10, [1] * 11):
        for i, m in enumerate(mult, start=1):
            if m and l > 1:
                hat = without_part(mult, i)
                assert (n - i, l - 1, d // m) == (
                    sum(k * a for k, a in enumerate(hat, start=1)), sum(hat),
                    prod(map(factorial, hat)))
                assert _c_closed(n - i, l - 1, d // m) == c_by_recursion(hat)


def test_walk_and_removals_build_canonical_partitions():
    # both walks skip Partition's validation: each must give the canonical vector of its
    # weight, and `_strata`'s path its sizes in decreasing order with positive multiplicities
    for n in range(26):
        for alpha in iter_partitions(n):
            canon = Partition(alpha.mult)
            assert (alpha.mult, alpha.weight) == (canon.mult, canon.weight) == (canon.mult, n)
    for n, l, _, _, path in _strata(25, [1] * 26):
        sizes = [i for i, _ in path]
        assert sizes == sorted(set(sizes), reverse=True) and all(m > 0 for _, m in path)
        assert (n, l) == (sum(i * m for i, m in path), sum(m for _, m in path))
    # the removals of the single-step check are checked in test_remove_part_weight_drops_by_i


def test_c_value_base_cases():
    for n in range(1, 13):
        single = Partition([0] * (n - 1) + [1])
        assert c_value(single) == n


def test_c_value_examples():
    assert c_value(Partition((0, 1))) == 2  # 2^1
    assert c_value(Partition((2,))) == -1  # 1^2
    assert c_value(Partition((1, 1))) == -3  # 1^1 2^1
    assert c_value(Partition((3,))) == 1  # 1^3


def test_c_value_rejects_empty():
    with pytest.raises(ValueError):
        c_value(Partition(()))


def test_c_value_call_order_does_not_matter():
    everything = [a for n in range(1, 10) for a in enumerate_partitions(n)]
    shuffled = everything[:]
    random.Random(7).shuffle(shuffled)
    first = {a.mult: c_value(a) for a in shuffled}
    second = {a.mult: c_value(a) for a in everything}
    assert first == second


def test_c_value_matches_recursion_oracle_up_to_22():
    for n in range(1, 23):
        for alpha in enumerate_partitions(n):
            assert c_value(alpha) == c_by_recursion(alpha.mult), alpha


def test_c_value_at_large_weight():
    # n = 60 is past the enumeration cap; c_value itself has no cap
    assert c_value(Partition((0,) * 59 + (1,))) == 60  # 60^1
    assert c_value(Partition((60,))) == -1  # 1^60: (-1)^59 * 60 * 59! / 60!
    assert c_value(Partition((0,) * 29 + (2,))) == -30  # 30^2
    assert c_value(Partition((1,) + (0,) * 57 + (1,))) == -60  # 1^1 59^1
    assert c_value(Partition((0,) * 19 + (3,))) == 20  # 20^3
    assert c_value(Partition((58, 1))) == 60  # 1^58 2^1: 60 * 58! / 58!
    # 1^30 2^15: 60 * 44! / (30! 15!) = 60 * C(44, 14) / 15
    assert c_value(Partition((30, 15))) == 4 * comb(44, 14)
    assert c_value(Partition((30, 15))) == c_by_recursion((30, 15))


def test_c_value_satisfies_its_recursion():
    for n in range(2, 12):
        for alpha in enumerate_partitions(n):
            if sum(alpha.mult) == 1:
                continue
            total = sum(
                c_value(Partition(without_part(alpha.mult, i)))
                for i, m in enumerate(alpha.mult, start=1)
                if m
            )
            assert c_value(alpha) == -total


def test_single_step_relation_small():
    # c(alpha-hat-i) * n * (parts - 1) = -alpha_i * (n - i) * c(alpha)
    for n in range(2, 9):
        for alpha in enumerate_partitions(n):
            p = sum(alpha.mult)
            if p < 2:
                continue
            for i, m in enumerate(alpha.mult, start=1):
                if m:
                    lhs = c_value(Partition(without_part(alpha.mult, i))) * n * (p - 1)
                    assert lhs == -m * (n - i) * c_value(alpha)


def test_weighted_product():
    # the walk's W is prod_i table[i]^(alpha_i)
    p2 = [1, 1, 3, 6]
    weights = {mult: w for _, mult, _, _, _, w in walk_nodes(3, p2)}
    assert weights == {(1,): 1, (0, 1): 3, (2,): 1, (0, 0, 1): 6, (1, 1): 3, (3,): 1}
    table = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    for n, mult, _, _, _, w in walk_nodes(12, table):
        assert w == prod(table[i] ** m for i, m in enumerate(mult, start=1))


def test_walk_matches_the_oracles_up_to_22():
    # one walk to 22: at each weight, the partitions of the ascending oracle in the order of
    # iter_partitions, with c of the signed recursion and the part count and prod of factorials
    by_weight = {}
    for n, mult, l, d, c, _ in walk_nodes(22, [1] * 23):
        by_weight.setdefault(n, []).append(mult)
        assert (l, d, c) == (sum(mult), prod(map(factorial, mult)), c_by_recursion(mult))
    assert sorted(by_weight) == list(range(1, 23))
    for n, mults in by_weight.items():
        oracle = sorted((tuple(reversed(p)) for p in ascending_part_lists(n)), reverse=True)
        assert [parts_of(m) for m in mults] == oracle
        assert mults == [a.mult for a in iter_partitions(n)]


def test_walk_sums_over_all_weights_equal_the_sums_per_weight():
    table = product_expansion(lambda k: k, 18)
    totals = [0] * 19
    for n, l, d, w, _ in _strata(18, table):
        totals[n] += _c_closed(n, l, d) * w
    for n in range(1, 19):
        alone = sum(c * w for m, _, _, _, c, w in walk_nodes(n, table) if m == n)
        weighted = sum(c_value(a) * prod(table[i] ** m for i, m in enumerate(a.mult, start=1))
                       for a in iter_partitions(n))
        assert totals[n] == alone == weighted


def test_listing_partitions_computes_no_c(monkeypatch):
    def tripped(*args):
        raise AssertionError("computed c")

    monkeypatch.setattr(partitions, "_c_closed", tripped)
    assert len(enumerate_partitions(12)) == 77
    assert sum(1 for _ in iter_partitions(20)) == 627


def test_walk_visits_each_partition_of_each_weight_once():
    # the walk's work unit, a node per partition: sum_{n <= N} p(n) nodes, 28,628 at N = 30
    assert sum(1 for _ in _strata(30, [1] * 31)) == 28_628
    for top in (0, 1, 2, 7, 15):
        assert sum(1 for _ in _strata(top, [1] * (top + 1))) == sum(
            partition_count_oracle(n) for n in range(1, top + 1))
    # from `least` = N on: the p(N) partitions of N and their parents, the p(N - 1) - 1
    # partitions of 1..N-1 without a part 1
    assert sum(1 for _ in _strata(31, [1] * 32, least=31)) == 6_842 + 5_604 - 1
    for top in (1, 2, 7, 15):
        nodes = [(n, mult) for n, mult, *_ in walk_nodes(top, [1] * (top + 1), least=top)]
        assert [m for n, m in nodes if n == top] == [a.mult for a in iter_partitions(top)]
        assert all(n == top or (n < top and not mult[0]) for n, mult in nodes)
        assert len(nodes) == partition_count_oracle(top) + partition_count_oracle(top - 1) - 1
