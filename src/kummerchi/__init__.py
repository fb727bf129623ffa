"""Exact combinatorics of generalized Kummer schemes.

Everything here is integer or rational arithmetic done exactly: Euler
characteristics of the generalized Kummer schemes of Abelian g-folds,
the signed partition weights c(alpha) driving their stratification,
counts of d-dimensional partitions, and the truncated-power-series
identities (exp/log over Q) that tie the two together.  No floats,
no rounding, no tolerances.

Importing the package loads none of its modules.  The public names,
`__all__` and the seven modules resolve on first use (PEP 562), so each
command loads only what it runs, as README's "Layout" table lists.
A public name loads `_MODULES` up to its own (`c_value`: `partitions` alone);
`__all__` and an unknown name load all seven.  `cli` is a submodule, not a
public name: it loads itself and its imports, `dd_partitions` and `series`.
"""

__version__ = "0.1.0"

_MODULES = ("partitions", "dd_partitions", "layered", "boxsets", "series", "kummer", "verify")


def __getattr__(name: str):
    if name in (*_MODULES, "cli"):
        __import__(f"{__name__}.{name}")  # binds it here, so no module is asked for twice
        return globals()[name]
    modules = map(__getattr__, _MODULES)  # lazy: a name loads the modules up to its own
    if name == "__all__":
        return [*(public for module in modules for public in module.__all__), "__version__"]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
