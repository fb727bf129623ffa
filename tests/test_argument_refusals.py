"""Each public entry point's argument refusal, and that of the `table` command's
rows: its exception type, its message
and, where two arguments are bad, which one it names first.

Every call is refused before it counts anything, so the whole table runs in
well under a second.  A cap's refusal is pinned by its message, which names
the table and the cap.
"""

import pytest

import kummerchi
from kummerchi import EnumerationCapError, kummer

_NOT_INT = "'float' object cannot be interpreted as an integer"
_WALK_CAP_41 = "enumerating 1-dimensional partitions of 41 exceeds the cap of 40"
_DFS_CAP_13 = "enumerating 3-dimensional partitions of 13 exceeds the cap of 12"
_LAYERED_CAP_24 = ("counting 3-dimensional partitions of 24 exceeds the cap of 23 "
                   "set by the running time of the layered count")
_PRODUCT_CAP_6001 = ("counting 2-dimensional partitions of 6001 exceeds the cap of 6000 "
                     "set by the running time of the product expansion")
_ENUM_CAP = "enum_cap must be a positive integer"


def _call(text: str):
    """Evaluate a call of the package's public names; `one` is the exponent e_k = 1."""
    return eval(text, {**{name: getattr(kummerchi, name) for name in kummerchi.__all__},
                       "one": lambda k: 1})


# (call, exception type, message)
_CASES = [
    ("sigma(-1, 1)", ValueError, "sigma takes a nonnegative power k"),
    ("sigma(1.5, 1)", TypeError, _NOT_INT),
    ("sigma(2, 0)", ValueError, "sigma is defined for n >= 1"),
    ("sigma(-1, 0)", ValueError, "sigma takes a nonnegative power k"),
    ("sigma(2, 1.5)", TypeError, _NOT_INT),
    ("chi_kummer_closed(0)", ValueError, "n must be >= 1"),
    ("chi_kummer_closed(2.5)", TypeError, _NOT_INT),
    ("ns_from_c(0, 0)", ValueError, "n must be >= 1"),
    ("ns_from_c(1, 0)", ValueError, "g must be >= 1"),
    ("ns_from_c(2.5, 2)", TypeError, _NOT_INT),
    ("ns_from_c(2, 1.5)", TypeError, _NOT_INT),
    ("ns_from_c(41, 2)", EnumerationCapError, _WALK_CAP_41),
    ("ns_from_c(3, 2, enum_cap=0)", ValueError, _ENUM_CAP),
    ("chi_kummer_stratified(0, 2)", ValueError, "n must be >= 1"),
    ("chi_kummer_stratified(2, 0)", ValueError, "g must be >= 1"),
    ("chi_kummer_stratified(41, 2)", EnumerationCapError, _WALK_CAP_41),
    ("partition_count_table(-1, -1)", ValueError, "d must be nonnegative"),
    ("partition_count_table(1, -1)", ValueError, "max_n must be nonnegative"),
    ("partition_count_table(1.5, 3)", TypeError, _NOT_INT),
    ("partition_count_table(3, 13)", EnumerationCapError, _DFS_CAP_13),
    ("partition_count_table(1, 3, enum_cap=0)", ValueError, _ENUM_CAP),
    ("partition_count_rows(0, 3)", ValueError, "d must be a positive integer"),
    ("partition_count_rows(1.5, 3)", TypeError, _NOT_INT),
    ("partition_count_rows(1, -1)", ValueError, "max_n must be nonnegative"),
    ("partition_count_rows(1, -1, enum_cap=0)", ValueError, _ENUM_CAP),
    ("partition_count_rows(3, 24)", EnumerationCapError, _LAYERED_CAP_24),
    ("count_pd_table(0, -1)", ValueError, "dimension d must be a positive integer"),
    ("count_pd_table(1, -1)", ValueError, "n must be nonnegative"),
    ("count_pd_table(2.5, 3)", TypeError, _NOT_INT),
    ("count_pd_table(3, 24)", EnumerationCapError, _LAYERED_CAP_24),
    ("count_pd(0, 1)", ValueError, "dimension d must be a positive integer"),
    ("count_pd_alt_table(0, -1)", ValueError, "dimension d must be a positive integer"),
    ("count_pd_alt_table(3, -1)", ValueError, "n must be nonnegative"),
    ("count_pd_alt_table(3, 13)", EnumerationCapError, _DFS_CAP_13),
    ("count_pd_alt_table(3, 3, enum_cap=0)", ValueError, _ENUM_CAP),
    ("enumerate_pd(0, 1)", ValueError, "dimension d must be a positive integer"),
    ("enumerate_pd(1, 2.5)", TypeError, _NOT_INT),
    ("enumerate_pd(3, 13)", EnumerationCapError, _DFS_CAP_13),
    ("DdPartition(0, [])", ValueError, "dimension must be a positive integer"),
    ("DdPartition(1.5, [])", TypeError, _NOT_INT),
    ("DdPartition(1, [(0,)])", ValueError, "(0,) is not a lattice point of N^2"),
    ("DdPartition(1, [(0, 1)])", ValueError,
     "box set is not downward closed: (0, 1) present, (0, 0) missing"),
    ("DdPartition(1, [(0, 0), (1.0, 0)])", TypeError, _NOT_INT),
    ("check_enumeration_cap(1, 41)", EnumerationCapError, _WALK_CAP_41),
    ("check_enumeration_cap(1, 2.5)", TypeError, _NOT_INT),
    ("check_enumeration_cap(1, 3, 0)", ValueError, _ENUM_CAP),
    ("check_enumeration_cap(-5, 3)", ValueError, "d must be nonnegative"),
    ("enumeration_cap(2.5)", TypeError, _NOT_INT),
    ("enumeration_cap(-3)", ValueError, "d must be nonnegative"),
    ("verify_sigma2_convolution(0)", ValueError, "max_n must be >= 1"),
    ("verify_sigma2_convolution(6001)", EnumerationCapError, _PRODUCT_CAP_6001),
    ("verify_single_step(0, 0)", ValueError, "max_n must be >= 1"),
    ("verify_single_step(1.5)", TypeError, _NOT_INT),
    ("verify_single_step(41)", EnumerationCapError, _WALK_CAP_41),
    ("verify_single_step(3, 0)", ValueError, _ENUM_CAP),
    ("verify_chi_series(0, 0)", ValueError, "max_n must be >= 1"),
    ("verify_chi_series(0, 3)", ValueError, "g must be >= 1"),
    ("verify_chi_series(4, 13)", EnumerationCapError, _DFS_CAP_13),
    ("verify_chi_series(4, 41)", EnumerationCapError, _WALK_CAP_41),
    ("verify_first_order(0, 0)", ValueError, "max_n must be >= 1"),
    ("verify_first_order(1.5, 3)", TypeError, _NOT_INT),
    ("run_all_verifiers(0, [0])", ValueError, "max_n must be >= 1"),
    ("run_all_verifiers(3, [1, 0])", ValueError, "g must be >= 1"),
    ("run_all_verifiers(3, [1.5])", TypeError, _NOT_INT),
    ("run_all_verifiers(3, [1], 0)", ValueError, _ENUM_CAP),
    ("run_all_verifiers(41, [5])", EnumerationCapError, _WALK_CAP_41),
    ("iter_partitions(-1)", ValueError, "n must be nonnegative"),
    ("iter_partitions(1.5)", TypeError, _NOT_INT),
    ("product_expansion(one, -1)", ValueError, "order must be nonnegative"),
    ("product_expansion(one, 2.5)", TypeError, _NOT_INT),
]


@pytest.mark.parametrize("call, error, message", _CASES, ids=[call for call, _, _ in _CASES])
def test_each_entry_point_refuses_with_its_own_message(call, error, message):
    with pytest.raises(Exception) as raised:
        _call(call)
    assert type(raised.value) is error
    assert str(raised.value) == message


# the `table` command's rows: (max_n, g, enum_cap), max_n named before g, and the
# product's cap at g = 3, where the rows walk no partition
_TABLE_CASES = [
    ("_rows(0, 0, None)", ValueError, "max_n must be >= 1"),
    ("_rows(3, 0, None)", ValueError, "g must be >= 1"),
    ("_rows(1.5, 3, None)", TypeError, _NOT_INT),
    ("_rows(3, 1.5, None)", TypeError, _NOT_INT),
    ("_rows(6001, 3, None)", EnumerationCapError, _PRODUCT_CAP_6001),
    ("_rows(41, 2, None)", EnumerationCapError, _WALK_CAP_41),
]


@pytest.mark.parametrize("call, error, message", _TABLE_CASES,
                         ids=[call for call, _, _ in _TABLE_CASES])
def test_the_table_rows_refuse_with_their_own_message(call, error, message):
    with pytest.raises(Exception) as raised:
        eval(call, {"_rows": kummer._rows})
    assert type(raised.value) is error
    assert str(raised.value) == message


# every check takes `index` of its argument first, so no bound is compared with a
# float, `chi_kummer_stratified` refuses n and g before it takes n ** (2g - 1), and
# `ns_from_c` refuses g before the walk's cap and that cap before its table's
_CHECKED_FIRST = [
    ("sigma(2, 0.5)", TypeError, _NOT_INT),
    ("chi_kummer_closed(0.5)", TypeError, _NOT_INT),
    ("ns_from_c(0.5, 2)", TypeError, _NOT_INT),
    ("ns_from_c(1.5, 0)", TypeError, _NOT_INT),
    ("ns_from_c(41, 0)", ValueError, "g must be >= 1"),
    ("ns_from_c(41, 4)", EnumerationCapError, _WALK_CAP_41),
    ("chi_kummer_stratified(0.5, 2)", TypeError, _NOT_INT),
    ("chi_kummer_stratified(0, 0)", ValueError, "n must be >= 1"),
    ("partition_count_rows(0.5, 3)", TypeError, _NOT_INT),
]


@pytest.mark.parametrize("call, error, message", _CHECKED_FIRST,
                         ids=[call for call, _, _ in _CHECKED_FIRST])
def test_a_float_or_zero_is_refused_before_it_is_used(call, error, message):
    with pytest.raises(error) as raised:
        _call(call)
    assert str(raised.value) == message
