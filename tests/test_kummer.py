import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerchi import kummer, partitions
from kummerchi.dd_partitions import EnumerationCapError, count_pd, partition_count_rows
from kummerchi.kummer import (
    Check,
    KummerRow,
    Report,
    chi_kummer_closed,
    chi_kummer_stratified,
    dt_invariant,
    kummer_rows,
    ns_from_c,
    partition_count_table,
    run_all_verifiers,
    sigma,
    verify_chi_series,
    verify_first_order,
    verify_sigma2_convolution,
    verify_single_step,
)
from kummerchi.partitions import enumerate_partitions
from kummerchi.series import log_coefficients, product_expansion


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_sigma_examples():
    assert sigma(2, 1) == 1
    assert sigma(2, 6) == 50
    assert sigma(1, 4) == 7
    assert sigma(0, 12) == 6
    with pytest.raises(ValueError):
        sigma(2, 0)


def test_sigma_takes_nonnegative_integer_powers_only():
    # sigma(-1, 6) was 2.0 and sigma(2.0, 4) was 21.0: floats out of an integer function
    with pytest.raises(ValueError, match="nonnegative"):
        sigma(-1, 6)
    for k in (2.0, 0.5, "2"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            sigma(k, 4)
    assert type(sigma(True, 4)) is int and sigma(True, 4) == 7  # bool is an int


def test_sigma_against_naive_divisor_sum():
    for n in range(1, 60):
        for k in (0, 1, 2, 3):
            assert sigma(k, n) == sum(d**k for d in divisors(n))


def test_chi_closed_examples():
    assert chi_kummer_closed(1) == 1
    assert chi_kummer_closed(2) == 160
    assert chi_kummer_closed(3) == 2430
    with pytest.raises(ValueError):
        chi_kummer_closed(0)


def test_chi_stratified_hand_case():
    # n = 2, g = 3: alpha = 2^1 gives c = 2, P2(2) = 3; alpha = 1^2 gives c = -1
    assert chi_kummer_stratified(2, 3) == 2**5 * (2 * 3 - 1)
    assert chi_kummer_stratified(2, 3) == 160
    assert chi_kummer_stratified(2, 2) == 24
    assert chi_kummer_stratified(1, 4) == 1


def test_chi_routes_agree():
    table = partition_count_table(2, 16)
    for n in range(1, 17):
        assert chi_kummer_closed(n) == chi_kummer_stratified(n, 3, table=table)


def test_ns_from_c_examples():
    assert ns_from_c(3, 3) == 10
    assert ns_from_c(2, 2) == 3
    assert ns_from_c(5, 1) == 1
    with pytest.raises(ValueError):
        ns_from_c(0, 3)
    with pytest.raises(ValueError):
        ns_from_c(3, 0)


def test_ns_from_c_closed_forms():
    for n in range(1, 16):
        assert ns_from_c(n, 1) == 1
        assert ns_from_c(n, 2) == sigma(1, n)
        assert ns_from_c(n, 3) == sigma(2, n)


def test_one_walk_gives_every_ns_to_the_cap():
    # n * s_n of every n <= 40 from one walk per genus, against the divisor sums
    for g, expected in ((1, lambda n: 1), (2, lambda n: sigma(1, n)), (3, lambda n: sigma(2, n))):
        ns = kummer._ns_table(40, partition_count_table(g - 1, 40))
        assert ns == [0] + [expected(n) for n in range(1, 41)], g
    assert ns_from_c(40, 3) == sigma(2, 40)


# sum_{alpha |- n} c(alpha) prod_i t_i^(alpha_i) = n [q^n] log(1 + sum_i t_i q^i) for any
# integer table; the routes only ever pass t_1 = P_d(1) = 1, so t_1 != 1 is drawn here
_ENTRY = st.integers(-5, 5) | st.integers(-(10**30), 10**30)


@st.composite
def _tables(draw):
    """[1, t_1, ..., t_N] with t_1 != 1 and N <= 12."""
    top = draw(st.integers(1, 12))
    return [1, draw(_ENTRY.filter(lambda v: v != 1)),
            *draw(st.lists(_ENTRY, min_size=top - 1, max_size=top - 1))]


@settings(database=None, deadline=None, max_examples=150)
@given(_tables())
def test_stratified_sum_is_the_logarithm_of_any_table(table):
    logs = log_coefficients(table)
    assert kummer._ns_table(len(logs), table) == [0] + [n * s for n, s in enumerate(logs, 1)]


@settings(database=None, deadline=None, max_examples=100)
@given(_tables(), st.integers(-4, 4))
def test_scaling_q_scales_each_stratified_sum(table, lam):
    # t_i -> lam^i t_i is q -> lam q, which multiplies n s_n by lam^n
    top = len(table) - 1
    scaled = [lam**i * t for i, t in enumerate(table)]
    expected = [lam**n * v for n, v in enumerate(kummer._ns_table(top, table))]
    assert kummer._ns_table(top, scaled) == expected


def test_stratified_sum_of_log_one_plus_q():
    # log(1 + q) = sum_n (-1)^(n - 1) q^n / n
    assert kummer._ns_table(20, [1, 1] + [0] * 19) == [0] + [(-1) ** (n - 1) for n in range(1, 21)]


def test_ns_from_c_refuses_a_short_table_before_it_walks(monkeypatch):
    def tripped(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(partitions, "_strata", tripped)
    with pytest.raises(ValueError, match="table has no entry for part size 3"):
        ns_from_c(3, 3, table=[1, 1, 3])
    with pytest.raises(ValueError, match="table has no entry for part size 3"):
        chi_kummer_stratified(3, 2, table=[1, 1, 2])


def test_ns_from_c_refuses_a_table_of_floats_before_it_walks(monkeypatch):
    # a caller's table gives an int answer or none, as the package's own tables do
    assert ns_from_c(3, 3, table=[1, 1, 3, 6]) == 10

    def tripped(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(partitions, "_strata", tripped)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        ns_from_c(3, 3, table=[1, 1, 3, 6.0])
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        chi_kummer_stratified(2, 3, table=[1, 1.0, 3])


def test_three_routes_to_sigma2():
    # divisor sums, the signed stratification, and the series logarithm
    s = log_coefficients(partition_count_table(2, 15))
    for n in range(1, 16):
        assert sigma(2, n) == ns_from_c(n, 3) == n * s[n - 1]
    # the log route alone at the order `table` reaches
    s = log_coefficients(partition_count_table(2, 200))
    for n in range(1, 201):
        assert n**6 * s[n - 1] == n**5 * sum(d**2 for d in divisors(n))


def test_dt_examples():
    assert dt_invariant(1) == 1
    assert dt_invariant(2) == Fraction(-5, 2)
    assert dt_invariant(3) == Fraction(10, 3)


def test_dt_formula_and_denominators():
    for n in range(1, 21):
        dt = dt_invariant(n)
        assert dt == (-1) ** (n + 1) * Fraction(sigma(2, n), n)
        assert n % dt.denominator == 0


def test_partition_count_table_small_d():
    assert partition_count_table(0, 5) == [1] * 6
    assert partition_count_table(1, 6) == [1, 1, 2, 3, 5, 7, 11]
    assert partition_count_table(2, 6) == [1, 1, 3, 6, 13, 24, 48]
    assert partition_count_table(1, 0) == [1]


def test_partition_count_table_d3_cross_checked():
    assert partition_count_table(3, 8) == [count_pd(3, n) for n in range(9)]
    with pytest.raises(EnumerationCapError):
        partition_count_table(3, 13)
    with pytest.raises(ValueError):
        partition_count_table(-1, 5)


def test_kummer_rows_threefold():
    rows = kummer_rows(6, g=3)
    assert [r.n for r in rows] == [1, 2, 3, 4, 5, 6]
    for r in rows:
        assert r.chi == r.n**5 * r.sigma2
        assert r.dt == (-1) ** (r.n + 1) * Fraction(r.sigma2, r.n)
        assert r.s == Fraction(r.sigma2, r.n)
        assert r.n % r.dt.denominator == 0
    assert rows[1] == KummerRow(
        n=2, sigma2=5, chi=160, dt=Fraction(-5, 2), s=Fraction(5, 2)
    )


def test_kummer_rows_other_genus():
    rows = kummer_rows(4, g=2)
    # chi = n^3 sigma_1(n) for Abelian surfaces
    assert [r.chi for r in rows] == [n**3 * sigma(1, n) for n in range(1, 5)]
    assert rows[1].dt == Fraction(-3, 2)
    ones = kummer_rows(5, g=1)
    assert [r.chi for r in ones] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        kummer_rows(0)


def test_report_structure():
    bad = Check("demo", 2, False, "1", "2", g=3, detail="why")
    report = Report("demo", 2, (bad,))
    assert not report.passed
    assert report.failures() == [bad]
    assert Report("empty", 0, ()).passed
    # the field, not tuple.count
    assert Report("x", 3, ()).count == 3
    twin = Report("demo", 2, (Check("demo", 2, False, "1", "2", g=3, detail="why"),))
    assert twin == report and hash(twin) == hash(report)
    assert Report("x", 3, ()) != Report("x", 4, ())
    assert repr(Report("x", 3, ())) == "Report(name='x', count=3, failed=())"


def test_verify_sigma2_convolution(monkeypatch):
    report = verify_sigma2_convolution(12)
    assert report.passed
    assert report.count == 12
    # sigma_2(1) one too large spoils every right-hand side
    real_sigma = kummer.sigma
    monkeypatch.setattr(kummer, "sigma", lambda k, n: real_sigma(k, n) + (n == 1))
    failures = verify_sigma2_convolution(12).failures()
    assert [c.n for c in failures] == list(range(1, 13))
    first = failures[0]
    assert (first.n, first.lhs, first.rhs) == (1, "1", "2")


def test_route_2_and_the_single_step_check_compute_c_at_every_node(monkeypatch):
    # the walk computes no c; its callers compute it where they use it: route 2 at each
    # of the sum p(n) = 138 nodes up to 10, the single-step check there and once for each
    # distinct part size of each alpha of two or more parts
    calls = []
    real_c = partitions._c_closed
    monkeypatch.setattr(partitions, "_c_closed",
                        lambda n, parts, dfact: calls.append(n) or real_c(n, parts, dfact))
    alphas = [a for n in range(1, 11) for a in enumerate_partitions(n)]
    assert kummer._ns_table(10, [1] * 11) == [0] + [1] * 10
    assert len(calls) == len(alphas) == 138
    calls.clear()
    assert verify_single_step(10).passed
    removals = sum(sum(1 for m in a.mult if m) for a in alphas if sum(a.mult) > 1)
    assert len(calls) == len(alphas) + removals == 412


def test_verify_single_step(monkeypatch):
    report = verify_single_step(10)
    assert report.passed
    # two checks per distinct part size and a closure for each alpha of two or more parts
    assert report.count == sum(
        2 * sum(1 for m in a.mult if m) + 1
        for n in range(1, 11) for a in enumerate_partitions(n) if sum(a.mult) > 1
    )
    # c(alpha) + 1 for every alpha breaks every check, so each one is kept as a failure;
    # the closed form gives c both to the walk and to each removal
    real_c = partitions._c_closed
    monkeypatch.setattr(partitions, "_c_closed", lambda n, parts, dfact: real_c(n, parts, dfact) + 1)
    failures = verify_single_step(10).failures()
    assert len(failures) == report.count
    # base cases are skipped: no checks mention a single-part alpha
    assert not any(c.detail.startswith("alpha=5^1 ") for c in failures)
    # every composite alpha appears with its closure line
    assert any(c.detail == "alpha=1^2 closure" for c in failures)
    assert any("g3-fibres" in c.detail for c in failures)


def test_verify_chi_series_all_supported_genera(monkeypatch):
    for g in (1, 2, 3):
        assert verify_chi_series(g, 12).passed
    assert verify_chi_series(4, 8).passed
    assert verify_chi_series(3, 6).count == 18
    # negated s_n fail all three checks at every n
    monkeypatch.setattr(kummer, "log_coefficients", lambda t: [-x for x in log_coefficients(t)])
    failures = verify_chi_series(3, 6).failures()
    assert len(failures) == 18
    assert any(c.detail == "closed-form" for c in failures)
    assert all(c.g == 3 for c in failures)
    # without the closed form, two checks per n, and the fault fails both
    for g, max_n in ((1, 10), (2, 10), (4, 8)):
        report = verify_chi_series(g, max_n)
        assert len(report.failures()) == report.count == 2 * max_n
        assert all(c.g == g for c in report.failures())


def test_verify_first_order_fails_every_n_under_a_wrong_logarithm(monkeypatch):
    # negated s_n spoil the eps part at every n >= 1; the eps^0 part at n = 0 still holds
    monkeypatch.setattr(kummer, "log_coefficients", lambda t: [-x for x in log_coefficients(t)])
    for g in (1, 2, 3):
        report = verify_first_order(g, 10)
        assert report.count == 11
        assert [c.n for c in report.failures()] == list(range(1, 11))


def test_verifiers_keep_no_passing_check():
    # 73,410 single-step checks at n <= 25; a record of each took 24 MB
    tracemalloc.start()
    try:
        reports = run_all_verifiers(25, [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.failures() for r in reports] == [[]] * 4
    assert peak < 2 * 2**20


def test_verify_chi_series_cap_propagates():
    with pytest.raises(EnumerationCapError):
        verify_chi_series(4, 13)
    assert verify_chi_series(4, 13, enum_cap=13).passed


def test_verify_first_order():
    assert verify_first_order(2, 10).passed
    assert verify_first_order(3, 10).passed
    assert verify_first_order(1, 10).passed


def test_run_all_verifiers():
    reports = run_all_verifiers(6, [1, 3])
    names = [r.name for r in reports]
    assert names == [
        "sigma2-convolution",
        "single-step",
        "chi-series(g=1)",
        "first-order(g=1)",
        "chi-series(g=3)",
        "first-order(g=3)",
    ]
    assert all(r.passed for r in reports)
    # each genus pair equals the two verifiers called alone
    assert reports[2:] == [
        r for g in (1, 3) for r in (verify_chi_series(g, 6), verify_first_order(g, 6))]


def test_run_all_verifiers_builds_each_table_once(monkeypatch):
    from kummerchi import dd_partitions

    planned, counted = [], []
    real_plan = dd_partitions._pd_plan

    def counting_plan(d, max_n, top, enum_cap):
        planned.append(d)
        count = real_plan(d, max_n, top, enum_cap)

        def table():
            counted.append(d)
            return count()
        return table

    monkeypatch.setattr(dd_partitions, "_pd_plan", counting_plan)
    reports = run_all_verifiers(8, [2, 3, 4])
    assert all(r.passed for r in reports)
    # P_2 for the sigma_2 convolution and genus 3, then P_1 and P_3: each counted once,
    # and no table planned that is not counted
    assert counted == [2, 1, 3]
    assert planned == counted


def test_run_all_verifiers_solves_each_genus_once(monkeypatch):
    walks, log_calls = [], []
    real_walk = partitions._strata

    def counting_walk(max_n, table):
        walks.append((max_n, list(table)))
        return real_walk(max_n, table)

    def counting_log(counts):
        log_calls.append(len(counts) - 1)
        return log_coefficients(counts)

    monkeypatch.setattr(partitions, "_strata", counting_walk)
    monkeypatch.setattr(kummer, "log_coefficients", counting_log)
    reports = run_all_verifiers(8, [1, 2, 3])
    assert all(r.passed for r in reports)
    # the single-step check walks once, unweighted; then one stratified walk, weighted
    # by P_{g-1}, and one logarithm per g serve both genus reports, every n at once
    assert walks == [(8, [1] * 9)] + [(8, partition_count_table(g - 1, 8)) for g in (1, 2, 3)]
    assert log_calls == [8, 8, 8]


def test_partition_count_rows_flags_and_routes():
    rows = partition_count_rows(3, 13)
    assert [v for _, v, _ in rows] == partition_count_table(3, 12) + [count_pd(3, 13)]
    assert [n for n, _, checked in rows if checked] == list(range(13))
    plane = partition_count_rows(2, 8, enum_cap=5)
    assert plane == [(n, v, n <= 5) for n, v in enumerate(partition_count_table(2, 8))]
    assert partition_count_rows(1, 12, enum_cap=10)[10:] == [
        (10, 42, True), (11, 56, False), (12, 77, False)]
    # d >= 4 has no product formula: every row is checked, so the enumeration cap binds
    p4 = [1, 1, 5, 15, 45, 120, 326, 835, 2145, 5345, 13220, 32068]
    assert partition_count_rows(4, 10) == [(n, v, True) for n, v in enumerate(p4[:11])]
    with pytest.raises(EnumerationCapError, match="^enumerating 4-dim") as info:
        partition_count_rows(4, 11)
    assert info.value.cap == 10
    assert partition_count_rows(4, 11, enum_cap=11) == [(n, v, True) for n, v in enumerate(p4)]


def test_cross_check_walks_once_per_table(monkeypatch):
    from kummerchi import dd_partitions, partitions

    real = dd_partitions.count_pd_alt_table
    calls = []

    def counted(d, max_n, enum_cap=None):
        calls.append((d, max_n, enum_cap))
        return real(d, max_n, enum_cap=enum_cap)

    monkeypatch.setattr(dd_partitions, "count_pd_alt_table", counted)
    partition_count_rows(3, 13)
    assert calls == [(3, 12, None)]
    calls.clear()
    partition_count_table(3, 8)
    assert calls == [(3, 8, None)]
    calls.clear()
    partition_count_rows(1, 30, enum_cap=20)
    assert calls == [(1, 20, 20)]
    calls.clear()
    assert partition_count_rows(2, 3, enum_cap=5) == [
        (0, 1, True), (1, 1, True), (2, 3, True), (3, 6, True)]
    assert calls == [(2, 3, 5)]
    calls.clear()
    # the products serve the Kummer routes past every enumeration cap, unchecked
    assert partition_count_table(2, 40) == product_expansion(lambda k: k, 40)
    assert calls == []


def test_p_d_mismatch_names_both_counts(monkeypatch):
    from kummerchi import dd_partitions, partitions

    real = dd_partitions.count_pd_alt_table
    wrong_at = []
    monkeypatch.setattr(
        dd_partitions,
        "count_pd_alt_table",
        lambda d, max_n, enum_cap=None: [
            7 if n in wrong_at else v for n, v in enumerate(real(d, max_n, enum_cap=enum_cap))
        ],
    )
    wrong_at[:] = [3]
    with pytest.raises(ArithmeticError, match=r"P_1\(3\): product gives 3, DFS gives 7"):
        partition_count_rows(1, 5)
    # the entry at the cap is checked, the one past it is not
    wrong_at[:] = [10]
    with pytest.raises(ArithmeticError, match=r"P_1\(10\): product gives 42, DFS gives 7"):
        partition_count_rows(1, 12, enum_cap=10)
    wrong_at[:] = [11]
    assert partition_count_rows(1, 12, enum_cap=10)[11] == (11, 56, False)
    wrong_at[:] = [5]
    with pytest.raises(ArithmeticError, match=r"P_3\(5\): layered gives 59, DFS gives 7"):
        partition_count_table(3, 5)
