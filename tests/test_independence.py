"""The routes share no code: an executable form of the independence rule.

Each route's kernel runs on a P_{g-1} table given to it, under
`sys.setprofile`, and the test records every package function it reaches.
Two routes may share only the refusal helpers, and the pairs declared in
`_DECLARED`.  A function is keyed by its module, name and first line, and a
comprehension, generator expression or lambda (a frame named `<...>`) counts
as part of the function that defines it, which is recorded when it runs.
"""

import sys
from itertools import combinations

import pytest

from kummerchi import kummer, partition_count_table, series, verify

_MAX_N = 12

# the refusal helpers, which every entry point may call before it counts
_ALLOWED = {
    f"kummerchi.dd_partitions.{name}"
    for name in ("_at_least", "_cap", "check_enumeration_cap", "enumeration_cap")}

# each route's kernel, given the P_{g-1} table, with the functions it must reach
_ROUTES = {
    "route 1, the closed form": (
        lambda table: [kummer.chi_kummer_closed(n) for n in range(1, len(table))],
        {"kummerchi.kummer.chi_kummer_closed", "kummerchi.kummer.sigma"}),
    "route 2, the stratification": (
        lambda table: (kummer._ns_table(len(table) - 1, table),
                       [sum(cw for _, _, cw in kummer._strata_at(n, table))
                        for n in range(1, len(table))]),
        {"kummerchi.kummer._ns_table", "kummerchi.kummer._strata_at",
         "kummerchi.partitions._strata", "kummerchi.partitions._c_closed"}),
    "route 3, the logarithm": (series.log_coefficients, {"kummerchi.series.log_coefficients",
                                                         "kummerchi.series._log_numerators"}),
    "the single-step check": (
        lambda table: verify.verify_single_step(len(table) - 1),
        {"kummerchi.verify.verify_single_step"}),
}

# the single-step check tests route 2's weights against their recursion
_DECLARED = {("route 2, the stratification", "the single-step check"):
             {"kummerchi.partitions._strata", "kummerchi.partitions._c_closed"}}


def _reached(call, *args) -> set[tuple[str, str, int]]:
    """(module, name, first line) of every package function that `call(*args)` runs."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and not code.co_name.startswith("<"):
            module = frame.f_globals.get("__name__", "")
            if module.startswith("kummerchi."):
                seen.add((module, code.co_name, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return seen


def _names(reached: set[tuple[str, str, int]]) -> set[str]:
    return {f"{module}.{name}" for module, name, _ in reached}


@pytest.mark.parametrize("g", [2, 3])
def test_no_two_routes_share_a_function(g):
    reached = {"the P_{g-1} table": _reached(partition_count_table, g - 1, _MAX_N)}
    table = partition_count_table(g - 1, _MAX_N)
    for route, (kernel, kernels) in _ROUTES.items():
        reached[route] = _reached(kernel, table)
        assert kernels <= _names(reached[route]), route  # the tracer sees each route's kernel
    assert {"kummerchi.series.product_expansion",
            "kummerchi.dd_partitions._pd_plan"} <= _names(reached["the P_{g-1} table"])
    for (a, a_reached), (b, b_reached) in combinations(reached.items(), 2):
        shared = {key for key in a_reached & b_reached if f"{key[0]}.{key[1]}" not in _ALLOWED}
        assert _names(shared) == _DECLARED.get((a, b), set()), (a, b)
