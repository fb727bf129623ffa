"""Run one kummerchi CLI invocation with every layer's public functions timed from outside.

    python bench/trace_child.py OUT.json table --max-n 100

behaves like `python -m kummerchi table --max-n 100` (same stdout, same
exit code) and writes per-span statistics and memo sizes to OUT.json.

The layers are the package modules.  Each public function of a layer is
replaced by a timing wrapper both where it is defined and in every
module that imported it by name (`from .x import f` copies the
reference, so `kummer.c_value` and `cli.count_pd` must be replaced
too).  A span's self time is its duration minus the durations of the
spans it called directly, so the self times of nested spans add up to
the outermost duration.  A function or memo that the package no longer
has is simply missing from OUT.json; the benchmark reports it absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "kummerchi"
LAYERS = ("partitions", "dd_partitions", "series", "kummer", "cli")
# Methods timed besides module-level functions; dunder names lose their
# underscores in span names (series.TruncatedSeries.mul).
METHODS = {
    "series": {"TruncatedSeries": ("log", "exp", "__mul__"), "FirstOrderSeries": ("exp", "__mul__")},
}
MEMOS = {"partitions.c_memo": ("partitions", "_C_MEMO"),
         "dd_partitions.chain_memo": ("dd_partitions", "_CHAIN_MEMO")}


class Tracer:
    """Per-span call counts, total and self time, and items returned in lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, dict[str, float]] = {}
        self._open: list[float] = []  # time covered by children, per open span

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0})
        open_spans, clock = self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - children
            if isinstance(result, list):
                stats["items"] += len(result)
            return result

        return traced


def _public_functions(layer: str, module):
    if layer == "cli":
        names = [n for n in vars(module) if n.startswith("cmd_")]
    else:
        names = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    for name in names:
        fn = getattr(module, name, None)
        # generators would be timed only up to their first yield
        if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not inspect.isgeneratorfunction(fn)):
            yield name, fn


def install(tracer: Tracer, package: str = PACKAGE) -> None:
    """Wrap every layer's public functions and rebind each module's reference to them."""
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"{package}.{layer}")
        except ImportError:
            continue
    consumers = [m for name, m in sys.modules.items()
                 if name == package or name.startswith(package + ".")]
    for layer, module in modules.items():
        for name, fn in list(_public_functions(layer, module)):
            traced = tracer.wrap(f"{layer}.{name}", fn)
            for consumer in consumers:
                for key, value in list(vars(consumer).items()):
                    if value is fn:
                        setattr(consumer, key, traced)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name, None)
            for method in methods:
                fn = vars(cls).get(method) if cls is not None else None
                if inspect.isfunction(fn):
                    setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method.strip('_')}", fn))


def memo_sizes(package: str = PACKAGE) -> dict[str, int]:
    sizes = {}
    for name, (layer, attr) in MEMOS.items():
        memo = getattr(sys.modules.get(f"{package}.{layer}"), attr, None)
        if memo is not None:
            sizes[name] = len(memo)
    return sizes


def main(out_path: str, argv: list[str]) -> int:
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as out:
            json.dump({"spans": tracer.spans, "memos": memo_sizes()}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
