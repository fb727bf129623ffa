import random
from functools import lru_cache
from math import comb

import pytest

from kummerchi.dd_partitions import count_pd
from kummerchi.partitions import (
    Partition,
    c_value,
    enumerate_partitions,
    iter_partitions,
    num_parts,
    remove_part,
    weighted_product,
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


# Third oracle: the defining signed recursion for c, on multiplicity tuples.
@lru_cache(maxsize=None)
def c_by_recursion(mult):
    weight = sum(i * m for i, m in enumerate(mult, start=1))
    if sum(mult) == 1:
        return weight
    total = 0
    for i, m in enumerate(mult, start=1):
        if m:
            hat = list(mult)
            hat[i - 1] -= 1
            while hat and hat[-1] == 0:
                hat.pop()
            total += c_by_recursion(tuple(hat))
    return -total


def test_canonical_form_trims_trailing_zeros():
    assert Partition((1, 1, 0, 0)).mult == (1, 1)
    assert Partition(()).mult == ()
    assert Partition((1, 1, 0)) == Partition((1, 1))
    assert hash(Partition((1, 1, 0))) == hash(Partition((1, 1)))


def test_weight_and_parts():
    alpha = Partition((2, 0, 1))
    assert alpha.weight == 5
    assert alpha.parts() == (3, 1, 1)
    assert alpha.label() == "1^2 3^1"
    assert Partition(()).label() == "()"
    assert Partition.from_parts([2, 1, 1]) == Partition((2, 1))


def test_negative_multiplicity_rejected():
    with pytest.raises(ValueError):
        Partition((1, -1))
    with pytest.raises(ValueError):
        Partition.from_parts([0])


def test_non_integer_multiplicities_and_parts_rejected():
    # these used to be truncated silently: Partition([1.5]).mult == (1,)
    for bad in ([1.5], [True, 2.9], [1, "2"]):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Partition(bad)
    for bad in ([2.5], [1, 1.0]):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            Partition.from_parts(bad)
    assert Partition([True, 2]).mult == (1, 2)  # bool is an int
    assert Partition.from_parts([True, 2]) == Partition((1, 1))


def test_enumerate_small_cases():
    assert [p.mult for p in enumerate_partitions(0)] == [()]
    assert {p.mult for p in enumerate_partitions(3)} == {(0, 0, 1), (1, 1), (3,)}
    assert len(enumerate_partitions(4)) == 5
    for walk in (enumerate_partitions, iter_partitions):
        with pytest.raises(ValueError):
            walk(-1)  # at the call, before any next()


def test_enumerate_order_is_decreasing_lex():
    for n in range(9):
        lists = [p.parts() for p in enumerate_partitions(n)]
        assert lists == sorted(lists, reverse=True)
        assert len(set(lists)) == len(lists)


def test_enumerate_order_matches_oracle_up_to_30():
    for n in range(31):
        ours = enumerate_partitions(n)
        oracle = sorted((tuple(reversed(p)) for p in ascending_part_lists(n)), reverse=True)
        assert [p.parts() for p in ours] == oracle
        assert all(p.weight == n and p == Partition.from_parts(p.parts()) for p in ours)


def test_enumerate_matches_independent_oracles():
    for n in range(11):
        ours = {p.parts() for p in enumerate_partitions(n)}
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


def test_remove_part():
    alpha = Partition((1, 1))  # 1^1 2^1
    assert remove_part(alpha, 2) == Partition((1,))
    assert remove_part(alpha, 1) == Partition((0, 1))
    with pytest.raises(ValueError):
        remove_part(alpha, 3)
    with pytest.raises(ValueError):
        remove_part(Partition((0, 1)), 1)


def test_remove_part_weight_drops_by_i():
    for n in range(1, 11):
        for alpha in enumerate_partitions(n):
            for i, m in enumerate(alpha.mult, start=1):
                if m:
                    assert remove_part(alpha, i).weight == n - i


def test_walk_and_removals_build_canonical_partitions():
    # the walk and remove_part skip Partition's validation: each result must
    # carry the vector and weight of the validated partition, and that weight
    def check(alpha, weight):
        canon = Partition(alpha.mult)
        assert (alpha.mult, alpha.weight) == (canon.mult, canon.weight) == (canon.mult, weight)

    for n in range(26):
        for alpha in iter_partitions(n):
            check(alpha, n)
            for i, m in enumerate(alpha.mult, start=1):
                if m:
                    check(remove_part(alpha, i), n - i)


def test_num_parts():
    assert num_parts(Partition(())) == 0
    assert num_parts(Partition((3,))) == 3
    assert num_parts(Partition((1, 0, 2))) == 3


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
    assert c_value(Partition.from_parts([60])) == 60
    assert c_value(Partition((60,))) == -1  # 1^60: (-1)^59 * 60 * 59! / 60!
    assert c_value(Partition.from_parts([30, 30])) == -30
    assert c_value(Partition.from_parts([59, 1])) == -60
    assert c_value(Partition.from_parts([20, 20, 20])) == 20
    assert c_value(Partition((58, 1))) == 60  # 1^58 2^1: 60 * 58! / 58!
    # 1^30 2^15: 60 * 44! / (30! 15!) = 60 * C(44, 14) / 15
    assert c_value(Partition((30, 15))) == 4 * comb(44, 14)
    assert c_value(Partition((30, 15))) == c_by_recursion((30, 15))


def test_c_value_satisfies_its_recursion():
    for n in range(2, 12):
        for alpha in enumerate_partitions(n):
            if num_parts(alpha) == 1:
                continue
            total = sum(
                c_value(remove_part(alpha, i))
                for i, m in enumerate(alpha.mult, start=1)
                if m
            )
            assert c_value(alpha) == -total


def test_single_step_relation_small():
    # c(alpha-hat-i) * n * (parts - 1) = -alpha_i * (n - i) * c(alpha)
    for n in range(2, 9):
        for alpha in enumerate_partitions(n):
            p = num_parts(alpha)
            if p < 2:
                continue
            for i, m in enumerate(alpha.mult, start=1):
                if m:
                    lhs = c_value(remove_part(alpha, i)) * n * (p - 1)
                    assert lhs == -m * (n - i) * c_value(alpha)


def test_weighted_product():
    p2 = [1, 1, 3, 6]
    assert weighted_product(Partition((1, 1)), p2) == 3  # P2(1) * P2(2)
    assert weighted_product(Partition((3,)), p2) == 1
    assert weighted_product(Partition((0, 0, 1)), p2) == 6
    assert weighted_product(Partition(()), p2) == 1


def test_weighted_product_missing_entry():
    with pytest.raises(ValueError):
        weighted_product(Partition((0, 0, 1)), [1, 1, 3])
