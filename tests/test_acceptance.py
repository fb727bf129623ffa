"""Acceptance suite.

Each test is one acceptance criterion, checked exactly (zero tolerance)
at its stated bound and reported as a single PASS/FAIL line.  Run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they print.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from kummerchi.boxsets import count_pd_alt, enumerate_pd
from kummerchi.dd_partitions import partition_count_table
from kummerchi.kummer import chi_kummer_closed, chi_kummer_stratified, dt_invariant, ns_from_c, sigma
from kummerchi.layered import count_pd
from kummerchi.verify import verify_first_order, verify_single_step
from kummerchi.series import log_coefficients, product_expansion
from series_oracle import exp_coefficients


def _criterion(num, description, ok, details=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} {status}: {description}"
    if details and not ok:
        line += f"  [{details}]"
    print(line)
    assert ok, line


def test_criterion_01_closed_equals_stratified():
    start = time.time()
    bad = [n for n in range(1, 21) if chi_kummer_closed(n) != chi_kummer_stratified(n, 3)]
    elapsed = time.time() - start
    _criterion(
        1,
        f"chi closed == stratified for n <= 20 ({elapsed:.2f}s, budget 10s)",
        not bad and elapsed < 10,
        f"mismatch at n={bad[:3]}",
    )


def test_criterion_02_sigma2_from_signed_weights():
    bad = [n for n in range(1, 21) if ns_from_c(n, 3) != sigma(2, n)]
    _criterion(
        2,
        "sum c(alpha) prod P2(i)^alpha_i == sigma_2(n) for n <= 20",
        not bad,
        f"mismatch at n={bad[:3]}",
    )


def test_criterion_03_single_step_exhaustive():
    report = verify_single_step(20)
    _criterion(
        3,
        f"single-step relation exhaustively for n <= 20 ({report.count} checks)",
        report.passed,
        "; ".join(f"{c.detail}: {c.lhs} != {c.rhs}" for c in report.failed[:3]),
    )


def test_criterion_04_sigma2_convolution():
    p2 = product_expansion(lambda k: k, 30)
    bad = [
        n
        for n in range(1, 31)
        if n * p2[n] != sum(sigma(2, k) * p2[n - k] for k in range(1, n + 1))
    ]
    _criterion(
        4,
        "n P2(n) == sum sigma_2(k) P2(n-k) for n <= 30, P2 from the product",
        not bad,
        f"mismatch at n={bad[:3]}",
    )


def test_criterion_05_plane_partition_triangle():
    start = time.time()
    product = product_expansion(lambda k: k, 12)
    bad = []
    for n in range(13):
        enumerated = sum(1 for _ in enumerate_pd(2, n))
        if not (enumerated == count_pd_alt(2, n) == count_pd(2, n) == product[n]):
            bad.append(n)
    elapsed = time.time() - start
    # the count at the top of the triangle, by actual enumeration
    top = sum(1 for _ in enumerate_pd(2, 12))
    _criterion(
        5,
        f"enumeration == DFS count == layered count == product coefficient "
        f"for d=2, n <= 12; P2(12) = {top} ({elapsed:.2f}s, budget 30s)",
        not bad and top == 1479 and elapsed < 30,
        f"mismatch at n={bad[:3]}",
    )


def test_criterion_06_chi_series_identity():
    failures = []
    for g, closed in ((1, lambda n: n), (2, lambda n: n**3 * sigma(1, n)), (3, lambda n: n**5 * sigma(2, n))):
        table = partition_count_table(g - 1, 20)
        s = log_coefficients(table)
        for n in range(1, 21):
            if n ** (2 * g) * s[n - 1] != closed(n):
                failures.append((g, n))
    # g = 4: P3 by brute force with cross-method agreement, n^8 s_n a positive integer
    table4 = partition_count_table(3, 10)  # cross-checks layered vs DFS internally
    s4 = log_coefficients(table4)
    for n in range(1, 11):
        val = n**8 * s4[n - 1]
        if val.denominator != 1 or val <= 0:
            failures.append((4, n))
        if val != chi_kummer_stratified(n, 4):
            failures.append((4, n))
    _criterion(
        6,
        "n^(2g) s_n == n, n^3 sigma_1, n^5 sigma_2 for g=1,2,3 (n <= 20); "
        "g=4 gives positive integers matching the stratified sum (n <= 10)",
        not failures,
        f"mismatch at (g,n)={failures[:3]}",
    )


def test_criterion_07_dt_invariants():
    bad = [
        n
        for n in range(1, 21)
        if dt_invariant(n) != (-1) ** (n + 1) * Fraction(sigma(2, n), n)
    ]
    spots = dt_invariant(2) == Fraction(-5, 2) and dt_invariant(3) == Fraction(10, 3)
    _criterion(
        7,
        "DT == (-1)^(n+1) sigma_2(n)/n for n <= 20; DT(2) = -5/2, DT(3) = 10/3",
        not bad and spots,
        f"mismatch at n={bad[:3]}",
    )


def test_criterion_08_first_order_identity():
    r2 = verify_first_order(2, 15)
    r3 = verify_first_order(3, 15)
    _criterion(
        8,
        "1 + eps sum chi/n^(2g) q^n == exp(eps log sum P_{g-1} q^n) at order 15, g = 2, 3",
        r2.passed and r3.passed,
        "; ".join(f"g={c.g} n={c.n}" for c in (r2.failed + r3.failed)[:3]),
    )


def test_criterion_09_series_property_suites():
    order = 30
    cases = 100
    rng = random.Random(123457)

    def rand_series(constant):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        coeffs[0] = Fraction(constant)
        return coeffs

    failures = []
    for case in range(cases):
        u = rand_series(0)
        if log_coefficients(exp_coefficients(u)) != u[1:]:
            failures.append(("exp-log", case))
        f = rand_series(1)
        if exp_coefficients([0, *log_coefficients(f)]) != f:
            failures.append(("log-exp", case))
    for case in range(cases):
        counts = [1] + [rng.randint(1, 99) for _ in range(order)]
        s = log_coefficients(counts)
        if exp_coefficients([0, *s]) != counts:
            failures.append(("log-coefficients", case))
    _criterion(
        9,
        f"series property suites: exp/log round trip, log_coefficients/exp inverse; "
        f"{cases} random exact cases each at order {order}",
        not failures,
        f"first failures: {failures[:3]}",
    )


def test_criterion_10_byte_identical_verification():
    cmd = [
        sys.executable,
        "-m",
        "kummerchi",
        "verify",
        "--max-n",
        "15",
        "--genus",
        "1,2,3",
        "--format",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=False)
    second = subprocess.run(cmd, capture_output=True, check=False)
    codes_ok = first.returncode == 0 and second.returncode == 0
    bytes_ok = first.stdout == second.stdout and first.stdout != b""
    payload = json.loads(first.stdout) if codes_ok else {}
    _criterion(
        10,
        "two fresh runs of `verify --max-n 15 --genus 1,2,3 --format json` "
        "exit 0 with byte-identical output",
        codes_ok and bytes_ok and payload.get("passed") is True,
        f"codes=({first.returncode},{second.returncode})",
    )
