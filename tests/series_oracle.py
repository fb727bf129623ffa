"""An exact series exponential, the oracle the tests check `log_coefficients` against."""

from fractions import Fraction


def exp_coefficients(f):
    """e_0..e_N of exp(sum_n f_n q^n), f_0 = 0, by n*e_n = sum_{k=1..n} k*f_k*e_{n-k}."""
    if f[0] != 0:
        raise ValueError("exp needs a zero constant term")
    e = [Fraction(1)]
    for n in range(1, len(f)):
        e.append(sum(k * f[k] * e[n - k] for k in range(1, n + 1)) / n)
    return e
