import random
from decimal import Decimal
from fractions import Fraction
from operator import mul

import pytest

from kummerchi.partitions import enumerate_partitions
from kummerchi.series import log_coefficients, product_expansion
from series_oracle import exp_coefficients


def divisor_power_sum(k, n):
    # local oracle, deliberately naive
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def random_series(rng, order, constant=None):
    coeffs = [
        Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(order + 1)
    ]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return coeffs


def test_exp_examples():
    assert exp_coefficients([0] * 5) == [1, 0, 0, 0, 0]
    assert exp_coefficients([0, 1, 0, 0]) == [1, 1, Fraction(1, 2), Fraction(1, 6)]
    with pytest.raises(ValueError):
        exp_coefficients([1, 1])


def test_exp_reproduces_plane_partition_series():
    # exp(sum sigma_2(n)/n q^n) is the MacMahon series
    n_max = 6
    f = [0] + [Fraction(divisor_power_sum(2, n), n) for n in range(1, n_max + 1)]
    assert exp_coefficients(f) == [1, 1, 3, 6, 13, 24, 48]


def test_log_examples():
    assert log_coefficients([1, 0, 0, 0, 0]) == [0, 0, 0, 0]
    assert log_coefficients([1] * 5) == [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    with pytest.raises(ValueError):
        log_coefficients([0, 1])
    with pytest.raises(ValueError):
        log_coefficients([2, 1])


def test_log_of_partition_series_gives_sigma1_over_n():
    n_max = 8
    p = [len(enumerate_partitions(n)) for n in range(n_max + 1)]
    expected = [Fraction(divisor_power_sum(1, n), n) for n in range(1, n_max + 1)]
    assert log_coefficients(p) == expected


def test_exp_log_round_trip_random():
    rng = random.Random(2024)
    for _ in range(60):
        order = rng.randint(1, 10)
        u = random_series(rng, order, constant=0)
        assert log_coefficients(exp_coefficients(u)) == u[1:]
        f = random_series(rng, order, constant=1)
        assert exp_coefficients([0, *log_coefficients(f)]) == f


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


def test_product_expansion_matches_euler_pentagonal_recurrence_at_500():
    # p(n) = sum_{k>=1} (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)): the e = 1
    # path at an order the sigma_2 check above (e = k, N = 200) does not reach
    n_max = 500
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            p[n] += sign * p[n - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= n:
                p[n] += sign * p[n - k * (3 * k + 1) // 2]
            k += 1
    assert product_expansion(lambda k: 1, n_max) == p
    assert p[100] == 190569292 and p[500] == 2300165032574323995027


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
        assert exp_coefficients(u) == via_product


def divisor_convolution(exponent, order):
    """prod (1 - q^k)^(-e_k) to q^order by n F_n = sum_m a_m F_(n-m), a_m = sum_(k | m) k e_k.

    The sigma_2 convolution when e_k = k; a test-only oracle, one integer recursion.
    """
    a = [0] * (order + 1)
    for k in range(1, order + 1):
        e = exponent(k)
        for m in range(k, order + 1, k):
            a[m] += k * e
    f = [1] + [0] * order
    for n in range(1, order + 1):
        f[n], rem = divmod(sum(map(mul, a[1:n + 1], reversed(f[:n]))), n)
        assert rem == 0
    return f


# e_k = 1 and e_k = k take the prefix sums for k^2 <= order and the slices above;
# e_k = -1 takes the slices throughout; the mixed exponents, in -4..6, take both at
# small k and the slices for e_k * k > order
EXPONENTS = {"1": lambda k: 1, "k": lambda k: k, "-1": lambda k: -1,
             "mixed": lambda k: 7 * k % 11 - 4}


@pytest.mark.parametrize("name", EXPONENTS)
def test_product_expansion_full_tables_through_both_branches(name):
    exponent = EXPONENTS[name]
    for order in (0, 1, 5, 100, 2000):
        table = product_expansion(exponent, order)
        assert table == divisor_convolution(exponent, order), order
        if order <= 100:
            u = [Fraction(0)] * (order + 1)
            for k in range(1, order + 1):
                for j in range(1, order // k + 1):
                    u[k * j] += Fraction(exponent(k), j)
            assert exp_coefficients(u) == table, order
    assert divisor_convolution(EXPONENTS["k"], 6) == [1, 1, 3, 6, 13, 24, 48]


def test_log_coefficients_examples():
    assert log_coefficients([1, 1, 3, 6, 13]) == [
        Fraction(1),
        Fraction(5, 2),
        Fraction(10, 3),
        Fraction(21, 4),
    ]
    assert log_coefficients([1]) == []
    assert log_coefficients([1, 1, 1, 1]) == [1, Fraction(1, 2), Fraction(1, 3)]
    with pytest.raises(ValueError):
        log_coefficients([2, 1])
    with pytest.raises(ValueError):
        log_coefficients([])
    p2 = product_expansion(lambda k: k, 200)
    assert log_coefficients(p2) == log_coefficients([Fraction(c) for c in p2])


def test_log_coefficients_refuses_floats_and_strings():
    # no floats, no rounding: 0.1 would enter as its binary approximation, "1/2" as a parse
    for counts in ([1, 0.1], [1, "1/2"], [1.0, 1], [1, 1, Decimal(2)]):
        with pytest.raises(TypeError, match="ints or Fractions"):
            log_coefficients(counts)


def test_log_coefficients_then_exp_reproduces_counts():
    rng = random.Random(31)
    for _ in range(40):
        order = rng.randint(1, 12)
        counts = [1] + [rng.randint(1, 50) for _ in range(order)]
        s = log_coefficients(counts)
        assert exp_coefficients([0, *s]) == counts

