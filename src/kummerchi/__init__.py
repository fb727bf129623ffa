"""Exact combinatorics of generalized Kummer schemes.

Everything here is integer or rational arithmetic done exactly: Euler
characteristics of the generalized Kummer schemes of Abelian g-folds,
the signed partition weights c(alpha) driving their stratification,
counts of d-dimensional partitions, and the truncated-power-series
identities (exp/log over Q) that tie the two together.  No floats,
no rounding, no tolerances.
"""

from . import dd_partitions, kummer, partitions, series
from .partitions import *  # noqa: F401,F403
from .dd_partitions import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403
from .kummer import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*partitions.__all__, *dd_partitions.__all__, *series.__all__, *kummer.__all__,
           "__version__"]
