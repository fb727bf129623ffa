import random
from fractions import Fraction

import pytest

from kummerchi.partitions import enumerate_partitions
from kummerchi.series import (
    OrderMismatchError,
    TruncatedSeries,
    log_coefficients,
    product_expansion,
)


def divisor_power_sum(k, n):
    # local oracle, deliberately naive
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def random_series(rng, order, constant=None):
    coeffs = [
        Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(order + 1)
    ]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return TruncatedSeries(coeffs)


def test_construction_and_access():
    f = TruncatedSeries([1, "1/2", Fraction(3, 4)])
    assert f.order == 2
    assert f[1] == Fraction(1, 2)
    assert f.coeffs == (Fraction(1), Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_zero_one_and_equality():
    assert TruncatedSeries.zero(3) == TruncatedSeries([0, 0, 0, 0])
    assert TruncatedSeries.one(2) == TruncatedSeries([1, 0, 0])
    assert TruncatedSeries([1, 2]) != TruncatedSeries([1, 2, 0])
    assert hash(TruncatedSeries([1, 2])) == hash(TruncatedSeries([1, 2]))


def test_ring_operations():
    f = TruncatedSeries([1, 1, 0])  # 1 + q
    g = TruncatedSeries([1, -1, 0])  # 1 - q
    assert f * g == TruncatedSeries([1, 0, -1])
    assert f + g == TruncatedSeries([2, 0, 0])
    geo = TruncatedSeries([1] * 6)
    assert geo * TruncatedSeries([1, -1, 0, 0, 0, 0]) == TruncatedSeries.one(5)


def test_order_mismatch_is_an_error():
    f = TruncatedSeries([1, 2])
    g = TruncatedSeries([1, 2, 3])
    for op in (lambda: f + g, lambda: f * g):
        with pytest.raises(OrderMismatchError):
            op()


def test_q_ddq():
    f = TruncatedSeries([5, 1, 0, 2])
    assert f.q_ddq() == TruncatedSeries([0, 1, 0, 6])
    assert TruncatedSeries.zero(4).q_ddq() == TruncatedSeries.zero(4)


def test_q_ddq_leibniz_random():
    rng = random.Random(101)
    for _ in range(60):
        order = rng.randint(1, 12)
        f = random_series(rng, order)
        g = random_series(rng, order)
        assert (f * g).q_ddq() == f.q_ddq() * g + f * g.q_ddq()


def test_exp_examples():
    assert TruncatedSeries.zero(4).exp() == TruncatedSeries.one(4)
    q = TruncatedSeries([0, 1, 0, 0])
    assert q.exp() == TruncatedSeries([1, 1, Fraction(1, 2), Fraction(1, 6)])
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1]).exp()


def test_exp_reproduces_plane_partition_series():
    # exp(sum sigma_2(n)/n q^n) is the MacMahon series
    n_max = 6
    f = TruncatedSeries(
        [0] + [Fraction(divisor_power_sum(2, n), n) for n in range(1, n_max + 1)]
    )
    assert f.exp() == TruncatedSeries([1, 1, 3, 6, 13, 24, 48])


def test_log_examples():
    assert TruncatedSeries.one(4).log() == TruncatedSeries.zero(4)
    geo = TruncatedSeries([1] * 5)
    assert geo.log() == TruncatedSeries(
        [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    )
    with pytest.raises(ValueError):
        TruncatedSeries([0, 1]).log()
    with pytest.raises(ValueError):
        TruncatedSeries([2, 1]).log()


def test_log_of_partition_series_gives_sigma1_over_n():
    n_max = 8
    p = TruncatedSeries([len(enumerate_partitions(n)) for n in range(n_max + 1)])
    expected = [Fraction(divisor_power_sum(1, n), n) for n in range(1, n_max + 1)]
    assert list(p.log().coeffs[1:]) == expected


def test_exp_log_round_trip_random():
    rng = random.Random(2024)
    for _ in range(60):
        order = rng.randint(1, 10)
        u = random_series(rng, order, constant=0)
        assert u.exp().log() == u
        f = random_series(rng, order, constant=1)
        assert f.log().exp() == f


def test_exp_chain_rule_random():
    # q d/dq exp(u) = exp(u) * q d/dq u
    rng = random.Random(55)
    for _ in range(40):
        u = random_series(rng, rng.randint(1, 10), constant=0)
        e = u.exp()
        assert e.q_ddq() == e * u.q_ddq()


def test_product_expansion_classics():
    assert product_expansion(lambda k: 1, 5) == [1, 1, 2, 3, 5, 7]
    assert product_expansion(lambda k: k, 5) == [1, 1, 3, 6, 13, 24]
    assert product_expansion(lambda k: 0, 4) == [1, 0, 0, 0, 0]
    assert product_expansion(lambda k: -1 if k == 1 else 0, 3) == [1, -1, 0, 0]
    assert all(type(c) is int for c in product_expansion(lambda k: k, 5))
    with pytest.raises(ValueError):
        product_expansion(lambda k: 1, -1)
    # an exponent that is not an integer is refused, not truncated
    for e in (1.5, 0.9, Fraction(1)):
        with pytest.raises(TypeError):
            product_expansion(lambda k: e, 5)
    # the MacMahon series at the order `table` reaches, by the sigma_2 convolution
    p2 = product_expansion(lambda k: k, 200)
    sigma2 = [0] + [divisor_power_sum(2, k) for k in range(1, 201)]
    for n in range(1, 201):
        assert n * p2[n] == sum(sigma2[k] * p2[n - k] for k in range(1, n + 1))


def test_product_expansion_matches_exp_of_dilogarithm_form():
    # log prod (1-q^k)^(-e_k) = sum_k e_k sum_j q^(kj)/j, checked at random e
    rng = random.Random(9)
    for _ in range(20):
        order = rng.randint(1, 12)
        e = {k: rng.randint(-3, 3) for k in range(1, order + 1)}
        via_product = product_expansion(lambda k: e[k], order)
        u = [Fraction(0)] * (order + 1)
        for k in range(1, order + 1):
            for j in range(1, order // k + 1):
                u[k * j] += Fraction(e[k], j)
        assert TruncatedSeries(u).exp() == TruncatedSeries(via_product)


def test_log_coefficients_examples():
    assert log_coefficients([1, 1, 3, 6, 13]) == [
        Fraction(1),
        Fraction(5, 2),
        Fraction(10, 3),
        Fraction(21, 4),
    ]
    assert log_coefficients([1]) == []
    assert log_coefficients([1, 1, 1, 1]) == list(
        TruncatedSeries([1, 1, 1, 1]).log().coeffs[1:]
    )
    with pytest.raises(ValueError):
        log_coefficients([2, 1])
    with pytest.raises(ValueError):
        log_coefficients([])
    p2 = product_expansion(lambda k: k, 200)
    assert log_coefficients(p2) == log_coefficients([Fraction(c) for c in p2])


def test_log_coefficients_then_exp_reproduces_counts():
    rng = random.Random(31)
    for _ in range(40):
        order = rng.randint(1, 12)
        counts = [1] + [rng.randint(1, 50) for _ in range(order)]
        s = log_coefficients(counts)
        rebuilt = TruncatedSeries([0] + s).exp()
        assert list(rebuilt.coeffs) == [Fraction(c) for c in counts]

