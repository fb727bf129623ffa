"""Exact combinatorics of generalized Kummer schemes.

Everything here is integer or rational arithmetic done exactly: Euler
characteristics of the generalized Kummer schemes of Abelian g-folds,
the signed partition weights c(alpha) driving their stratification,
counts of d-dimensional partitions, and the truncated-power-series
identities (exp/log over Q) that tie the two together.  No floats,
no rounding, no tolerances.
"""

from .partitions import (
    Partition,
    c_value,
    enumerate_partitions,
    num_parts,
    remove_part,
    weighted_product,
)
from .dd_partitions import (
    DEFAULT_ENUM_CAPS,
    DdPartition,
    EnumerationCapError,
    check_enumeration_cap,
    count_pd,
    count_pd_alt,
    enumerate_pd,
    enumeration_cap,
)
from .series import (
    FirstOrderSeries,
    OrderMismatchError,
    TruncatedSeries,
    log_coefficients,
    product_expansion,
)
from .kummer import (
    Check,
    KummerRow,
    Report,
    chi_kummer_closed,
    chi_kummer_stratified,
    dt_invariant,
    kummer_rows,
    ns_from_c,
    partition_count_rows,
    partition_count_table,
    run_all_verifiers,
    sigma,
    verify_chi_series,
    verify_first_order,
    verify_sigma2_convolution,
    verify_single_step,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "c_value",
    "enumerate_partitions",
    "num_parts",
    "remove_part",
    "weighted_product",
    "DEFAULT_ENUM_CAPS",
    "DdPartition",
    "EnumerationCapError",
    "check_enumeration_cap",
    "count_pd",
    "count_pd_alt",
    "enumerate_pd",
    "enumeration_cap",
    "FirstOrderSeries",
    "OrderMismatchError",
    "TruncatedSeries",
    "log_coefficients",
    "product_expansion",
    "Check",
    "KummerRow",
    "Report",
    "chi_kummer_closed",
    "chi_kummer_stratified",
    "dt_invariant",
    "kummer_rows",
    "ns_from_c",
    "partition_count_rows",
    "partition_count_table",
    "run_all_verifiers",
    "sigma",
    "verify_chi_series",
    "verify_first_order",
    "verify_sigma2_convolution",
    "verify_single_step",
    "__version__",
]
