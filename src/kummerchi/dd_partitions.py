"""Every P_d table: its route, its DFS check and every refusal.

A d-dimensional partition of n is a function f: N^d -> N, weakly
decreasing along every coordinate axis, with total sum n.  P_d(n)
counts them; P_d(0) = 1 by convention (the empty partition).  Ordinary
partitions are d = 1, plane partitions d = 2, solid partitions d = 3.

Two counts share no code: the layered count on bitmask ideals
(`layered`) and the box-set DFS (`boxsets`), each loaded only by a
table that runs it.  One function, `_pd_plan`, refuses and counts each
table: it picks the route once, ones (d = 0), Euler's and MacMahon's
products (d = 1, 2) or the layered count, and refuses before any counting
with an `EnumerationCapError`: DFS work past a configurable cap on n
(`DEFAULT_ENUM_CAPS`), the products past `_PRODUCT_CAP`, and the layered count
past half the recursion limit and, for d >= 2, `_LAYERED_CAPS`.  Through it
`partition_count_table` serves the Kummer routes, `partition_count_rows` `pd`.
"""

from __future__ import annotations

import sys
from functools import partial
from operator import index
from typing import Callable

from .series import product_expansion

__all__ = [
    "DEFAULT_ENUM_CAPS",
    "EnumerationCapError",
    "check_enumeration_cap",
    "enumeration_cap",
    "partition_count_rows",
    "partition_count_table",
]

# Default upper bounds on n for the enumeration-backed routines.  The
# object counts at the caps (p(40) = 37338, P_2(16) = 18334,
# P_3(12) = 13426, P_4(10) = 13220) keep a full walk comfortably fast.
DEFAULT_ENUM_CAPS: dict[int, int] = {1: 40, 2: 16, 3: 12}
_HIGHER_DIM_CAP = 10
# Caps on n for the layered count that no enum_cap lifts, by d: each was the
# largest max_n whose count_pd_table, then one count per n, took under a
# minute of CPU, one more n taking over a minute.  Time grows with d at fixed n,
# so a d between two keys takes the cap of the next key up, and d above the last
# key takes a cap of 1, as P_d(0) = P_d(1) = 1 costs nothing to count in any d.
# Only the recursion limit caps d = 1.
_LAYERED_CAPS: dict[int, int] = {2: 40, 3: 23, 4: 18, 5: 15, 6: 13, 7: 12, 8: 11, 9: 10, 10: 10,
                                 12: 9, 14: 8, 16: 7, 20: 7, 24: 6, 30: 5}
# Cap on max_n for the product expansions (d = 1, 2) that no enum_cap lifts:
# the largest multiple of 500 whose `table --max-n N` took under about a
# minute of CPU, the next one taking over a minute.  The cap waits for a
# calibration by work budget rather than being re-set by hand.
_PRODUCT_CAP = 6000


class EnumerationCapError(RuntimeError):
    """Raised instead of starting an enumeration, or a count, that exceeds the cap.

    `fixed_by` names what sets a fixed cap, one that no enum_cap lifts; such
    a cap guards a count that enumerates nothing, so its message says "counting".
    """

    def __init__(self, d: int, n: int, cap: int, fixed_by: str | None = None):
        super().__init__(
            f"{'counting' if fixed_by else 'enumerating'} {d}-dimensional partitions of {n} "
            f"exceeds the cap of {cap}"
            + (f" set by {fixed_by}" if fixed_by else "")
        )
        self.d = d
        self.n = n
        self.cap = cap
        self.fixed_by = fixed_by


def enumeration_cap(d: int) -> int:
    """The default cap on n for brute-force work in dimension d, an integer >= 0."""
    return DEFAULT_ENUM_CAPS.get(_at_least(d, 0, "d must be nonnegative"), _HIGHER_DIM_CAP)


def _at_least(value: int, least: int, message: str) -> int:
    """`index(value)`, so a non-integer raises `TypeError`; `ValueError(message)` below `least`."""
    if (value := index(value)) < least:
        raise ValueError(message)
    return value


def _cap(d: int, enum_cap: int | None) -> int:
    """The cap on n in dimension d: `enum_cap` if given, which must be an integer >= 1."""
    if enum_cap is None:
        return enumeration_cap(d)
    return _at_least(enum_cap, 1, "enum_cap must be a positive integer")


def check_enumeration_cap(d: int, n: int, enum_cap: int | None = None) -> None:
    """Raise `EnumerationCapError` if n exceeds the (possibly overridden) cap.

    d and n must be integers: `TypeError` otherwise, where n = 2.5 would
    pass and d = 2.5 would be named in the refusal.  d < 0 raises `ValueError`.
    """
    d, n = _at_least(d, 0, "d must be nonnegative"), index(n)
    cap = _cap(d, enum_cap)
    if n > cap:
        raise EnumerationCapError(d, n, cap)


def _validate_dn(d: int, n: int) -> None:
    """Refuse d < 1 and n < 0, and non-integers before a kernel multiplies a list by them."""
    _at_least(d, 1, "dimension d must be a positive integer")
    _at_least(n, 0, "n must be nonnegative")


def _check_layered_cap(d: int, n: int) -> None:
    """Raise the `EnumerationCapError` that `layered.count_pd(d, n)` would, without counting."""
    _validate_dn(d, n)
    if d > 1:  # below the depth cap at the default recursion limit, so named first
        cap = next((cap for k, cap in _LAYERED_CAPS.items() if k >= d), 1)
        if n > cap:
            raise EnumerationCapError(d, n, cap, "the running time of the layered count")
    depth_cap = sys.getrecursionlimit() // 2
    if n > depth_cap:
        raise EnumerationCapError(d, n, depth_cap, "the recursion limit; "
                                  "partition_count_table serves d <= 2 at larger n")


def _pd_plan(d: int, max_n: int, top: int | None, enum_cap: int | None) -> Callable[[], list[int]]:
    """Refuse [P_d(0), ..., P_d(max_n)] before any counting, or give the call that counts it.

    In order: check d and max_n, refuse past the enumeration cap of the DFS
    check up to `top` (-1: none; None: the Kummer routes' policy, every n of a
    layered table and none of a product), then past the cap of d's route.
    The call runs the route's kernel, then the DFS check, whose error names the route.
    """
    d = _at_least(d, 0, "d must be nonnegative")  # a non-integer would take another d's route
    _at_least(max_n, 0, "max_n must be nonnegative")
    if top is None:
        top = max_n if d >= 3 else -1
    check_enumeration_cap(d, top, enum_cap)
    if d >= 3:
        _check_layered_cap(d, max_n)

        def count() -> list[int]:
            from .layered import count_pd_table  # here, as the DFS below: loaded where it runs
            return count_pd_table(d, max_n)
        route = "layered"
    elif d:
        if max_n > _PRODUCT_CAP:
            raise EnumerationCapError(d, max_n, _PRODUCT_CAP,
                                      "the running time of the product expansion")
        # Euler's product, e_k = 1, and MacMahon's, e_k = k
        route, count = "product", partial(product_expansion, lambda k: k ** (d - 1), max_n)
    else:
        route, count = "ones", lambda: [1] * (max_n + 1)

    def table() -> list[int]:
        values = count()
        if top >= 0:
            from .boxsets import count_pd_alt_table
            for n, alt in enumerate(count_pd_alt_table(d, top, enum_cap)):
                if alt != values[n]:
                    raise ArithmeticError(f"P_{d}({n}): {route} gives {values[n]}, DFS gives {alt}")
        return values
    return table


def partition_count_table(d: int, max_n: int, enum_cap: int | None = None) -> list[int]:
    """[P_d(0), ..., P_d(max_n)] for d >= 0, the table the Kummer routes read; P_0(n) = 1."""
    return _pd_plan(d, max_n, None, enum_cap)()


def partition_count_rows(d: int, max_n: int,
                         enum_cap: int | None = None) -> list[tuple[int, int, bool]]:
    """(n, P_d(n), cross-checked) for n = 0..max_n, d >= 1: the rows `pd` prints.

    Same routes as `partition_count_table`; `top`, the largest n the DFS
    checks, is max_n clipped to the cap for d <= 3, the rows above it
    unchecked, and max_n for d >= 4, which has no product formula.
    """
    _at_least(d, 1, "d must be a positive integer")
    top = max_n if d >= 4 else min(max_n, _cap(d, enum_cap))
    return [(n, value, n <= top) for n, value in enumerate(_pd_plan(d, max_n, top, enum_cap)())]
