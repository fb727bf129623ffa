#!/usr/bin/env python3
"""Benchmark of the kummerchi command-line interface.

    python3 bench/run.py --workload table-g3 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

Every invocation is a real `python -m kummerchi ...` in a fresh
interpreter, run from the repository root with `src` on PYTHONPATH, one
at a time (a closed loop with one client).  A run first times a few
`--version` calls (set-up: interpreter start plus `import kummerchi`),
then runs batches of the workload (see workloads.py) until --seconds
is used up, with one more `--version` call before each batch.  Every
output is checked against the oracles in checks.py; a nonzero exit, a
timeout or a wrong output counts as a failed invocation.

--trace 0 reports the end-to-end metrics: the median over batches of
the batch's wall time and of its children's user+sys CPU (from wait4),
the largest child max-RSS of the run and the median set-up time.
--trace 1 runs each batch twice, plainly and under trace_child.py, in
alternating order, and reports the per-layer metrics of the traced
batches plus the tracing overhead (traced minus plain batch wall).

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Each run also writes bench/results/<workload>-seed<seed>-trace<t>.json
with its provenance and every invocation's argv, exit code and timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import checks
from workloads import WORKLOADS, batches

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
TIMEOUT_S = 60.0
SETUP_PROBES = 5
VERSION_ARGV = ["--version"]

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Invocation:
    argv: list[str]
    traced: bool
    exit_code: int | None  # None: killed after TIMEOUT_S
    wall_s: float
    cpu_s: float
    max_rss_kb: int
    stdout_bytes: int
    error: str | None  # None: exit 0 and the output passed its check
    trace: dict | None = field(default=None, repr=False)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """The spawner.py helper that runs every child of one benchmark run, one at a time."""

    def __init__(self):
        self.work = RESULTS / "tmp"
        self.work.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], cwd=ROOT,
                                     env=_child_env(), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str]) -> tuple[dict, bytes, str]:
        """Usage of one child, its stdout and its stderr."""
        out, err = self.work / "stdout", self.work / "stderr"
        request = {"argv": cmd, "stdout": str(out), "stderr": str(err), "timeout": TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        return json.loads(reply), out.read_bytes(), err.read_text(errors="replace").strip()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_invocation(spawner: Spawner, argv: list[str], traced: bool = False) -> Invocation:
    """Run one CLI call to completion (or until it is killed after TIMEOUT_S) and check it."""
    trace_path = spawner.work / "trace.json"
    if traced:
        cmd = [sys.executable, str(BENCH / "trace_child.py"), str(trace_path), *argv]
    else:
        cmd = [sys.executable, "-m", "kummerchi", *argv]
    usage, stdout, stderr = spawner.run(cmd)
    error = checks.check(argv, usage["exit_code"], stdout)
    if error and stderr:
        error += " | stderr: " + stderr.splitlines()[-1]
    trace = None
    if traced:
        if trace_path.exists():
            trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        elif error is None:
            error = "trace file missing"
    return Invocation(argv, traced, usage["exit_code"], usage["wall_s"], usage["cpu_s"],
                      usage["max_rss_kb"], len(stdout), error, trace)


# --- per-layer metrics ----------------------------------------------------
# Each getter maps a traced batch to a number, or None when the program no
# longer has the function or memo it reads (reported absent).

def _span(name: str, stat: str):
    def get(batch: list[Invocation]):
        found = [inv.trace["spans"][name][stat] for inv in batch
                 if inv.trace and name in inv.trace["spans"]]
        return sum(found) if found else None
    return get


def _layer_self(layer: str):
    def get(batch: list[Invocation]):
        found = [s["self_s"] for inv in batch if inv.trace
                 for name, s in inv.trace["spans"].items() if name.startswith(layer + ".")]
        return sum(found) if found else None
    return get


def _memo(name: str):
    def get(batch: list[Invocation]):
        found = [inv.trace["memos"][name] for inv in batch
                 if inv.trace and name in inv.trace["memos"]]
        return max(found) if found else None
    return get


def _stdout_bytes(batch: list[Invocation]):
    return sum(inv.stdout_bytes for inv in batch)


# name -> (unit, getter); self times of the named span unless it says otherwise
PER_LAYER = {
    "series.product_expansion.s": ("s", _span("series.product_expansion", "self_s")),
    "series.log_coefficients.s": ("s", _span("series.log_coefficients", "self_s")),
    "series.TruncatedSeries.log.s": ("s", _span("series.TruncatedSeries.log", "self_s")),
    "series.TruncatedSeries.exp.s": ("s", _span("series.TruncatedSeries.exp", "self_s")),
    "series.TruncatedSeries.mul.s": ("s", _span("series.TruncatedSeries.mul", "self_s")),
    "series.TruncatedSeries.mul.calls": ("count", _span("series.TruncatedSeries.mul", "calls")),
    "series.self_s": ("s", _layer_self("series")),
    "partitions.enumerate_partitions.s": ("s", _span("partitions.enumerate_partitions", "self_s")),
    "partitions.enumerate_partitions.items": ("count", _span("partitions.enumerate_partitions", "items")),
    "partitions.c_value.s": ("s", _span("partitions.c_value", "self_s")),
    "partitions.c_value.calls": ("count", _span("partitions.c_value", "calls")),
    "partitions.weighted_product.s": ("s", _span("partitions.weighted_product", "self_s")),
    "partitions.c_memo.entries": ("count", _memo("partitions.c_memo")),
    "partitions.self_s": ("s", _layer_self("partitions")),
    "dd_partitions.count_pd.s": ("s", _span("dd_partitions.count_pd", "self_s")),
    "dd_partitions.count_pd.calls": ("count", _span("dd_partitions.count_pd", "calls")),
    "dd_partitions.count_pd_alt.s": ("s", _span("dd_partitions.count_pd_alt", "self_s")),
    "dd_partitions.chain_memo.entries": ("count", _memo("dd_partitions.chain_memo")),
    "dd_partitions.self_s": ("s", _layer_self("dd_partitions")),
    "kummer.partition_count_table.s": ("s", _span("kummer.partition_count_table", "self_s")),
    "kummer.ns_from_c.s": ("s", _span("kummer.ns_from_c", "self_s")),
    "kummer.verify_single_step.s": ("s", _span("kummer.verify_single_step", "self_s")),
    "kummer.verify_chi_series.s": ("s", _span("kummer.verify_chi_series", "self_s")),
    "kummer.verify_first_order.s": ("s", _span("kummer.verify_first_order", "self_s")),
    "kummer.self_s": ("s", _layer_self("kummer")),
    "cli.self_s": ("s", _layer_self("cli")),
    "cli.stdout_bytes": ("bytes", _stdout_bytes),
}
TRACE_OVERHEAD = ("trace.overhead_s", "s")
LAYERS = ("series", "partitions", "dd_partitions", "kummer", "cli")


def reported_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports: per-layer when traced, else end-to-end."""
    if not trace:
        return dict(END_TO_END)
    units = {m: u for m, (u, _) in PER_LAYER.items()}
    units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    return units


# --- measuring ------------------------------------------------------------

def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles; a single sample is all three."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _wall(batch: list[Invocation]) -> float:
    return sum(inv.wall_s for inv in batch)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: set-up probes, then batches until `seconds` is spent."""
    with Spawner() as spawner:
        run_invocation(spawner, VERSION_ARGV)  # warm-up: writes the bytecode caches, not timed
        setup = [run_invocation(spawner, VERSION_ARGV) for _ in range(SETUP_PROBES)]
        plain: list[list[Invocation]] = []
        traced: list[list[Invocation]] = []
        stream = batches(WORKLOADS[name], seed)
        start = time.perf_counter()
        spent: list[float] = []
        while not spent or time.perf_counter() - start + statistics.median(spent) <= seconds:
            began = time.perf_counter()
            batch = next(stream)
            setup.append(run_invocation(spawner, VERSION_ARGV))
            modes = [False, True] if trace else [False]
            if len(spent) % 2:
                modes.reverse()
            for mode in modes:
                (traced if mode else plain).append(
                    [run_invocation(spawner, a, traced=mode) for a in batch])
            spent.append(time.perf_counter() - began)

    invocations = setup + [inv for b in plain + traced for inv in b]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(invocations),
        "failed": sum(inv.error is not None for inv in invocations),
        "batches": len(plain),
        "end_to_end": {
            "wall_s": quartiles([_wall(b) for b in plain]),
            "cpu_s": quartiles([sum(inv.cpu_s for inv in b) for b in plain]),
            "peak_rss_mb": quartiles([max(inv.max_rss_kb for b in plain for inv in b) / 1024]),
            "setup_s": quartiles([inv.wall_s for inv in setup]),
        },
        "invocations": invocations,
    }
    if trace:
        per_layer, absent = {}, []
        for metric, (unit, get) in PER_LAYER.items():
            values = [get(b) for b in traced]
            if any(v is None for v in values):
                absent.append(metric)
            else:
                per_layer[metric] = quartiles(values)
        per_layer[TRACE_OVERHEAD[0]] = quartiles(
            [_wall(t) - _wall(p) for t, p in zip(traced, plain)])
        result["per_layer"] = per_layer
        result["absent"] = absent
        result["spans"] = _merged_spans(inv for b in traced for inv in b)
    return result


def _merged_spans(invocations) -> dict[str, dict[str, float]]:
    merged: dict[str, dict[str, float]] = {}
    for inv in invocations:
        for name, stats in (inv.trace or {}).get("spans", {}).items():
            into = merged.setdefault(name, dict.fromkeys(stats, 0))
            for key, value in stats.items():
                into[key] += value
    return merged


# --- reporting ------------------------------------------------------------

def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kummerchi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _summaries(result: dict) -> dict[str, dict]:
    return result["per_layer"] if result["trace"] else result["end_to_end"]


def metrics_of(result: dict) -> dict[str, dict]:
    """The metrics of the JSON line; an absent per-layer metric reads 0."""
    rows = _summaries(result)
    return {m: {"value": rows[m]["median"] if m in rows else 0.0, "unit": u}
            for m, u in reported_units(result["trace"]).items()}


def write_result(result: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = dict(result, provenance=provenance(), metrics=metrics_of(result))
    record["trace_overhead_s"] = (result["per_layer"]["trace.overhead_s"]["median"]
                                  if result["trace"] else None)
    record["invocations"] = [
        {k: v for k, v in asdict(inv).items() if k != "trace"} for inv in result["invocations"]
    ]
    path = RESULTS / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def print_report(result: dict) -> None:
    fail_rate = result["failed"] / result["attempted"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"batches {result['batches']}  invocations {result['attempted']}  "
          f"fail_rate {fail_rate:.4f} ({result['failed']}/{result['attempted']})")
    for inv in result["invocations"]:
        if inv.error:
            print(f"  FAILED {' '.join(inv.argv)}: {inv.error}")
    rows = _summaries(result)
    print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for metric, unit in reported_units(result["trace"]).items():
        if metric not in rows:
            print(f"  {metric:36} {'absent':>12}")
            continue
        q = rows[metric]
        print(f"  {metric:36} {q['median']:12.6g} {q['q1']:12.6g} {q['q3']:12.6g} {q['n']:4d}  {unit}")
    if result["trace"]:
        share = {layer: rows.get(f"{layer}.self_s", {}).get("median", 0.0) for layer in LAYERS}
        total = sum(share.values()) or 1.0
        print("  layer self time: " + ", ".join(
            f"{layer} {100 * s / total:.0f}%" for layer, s in sorted(share.items(), key=lambda kv: -kv[1])))


def print_summary(metrics: dict[str, dict], workloads: list[str], names: list[str]) -> None:
    """One row per workload, one column per metric, units in the header."""
    header = [f"{n} [{metrics[f'{workloads[0]}.{n}']['unit']}]" for n in names]
    width = max(map(len, header)) + 1
    print(f"{'workload':14}" + "".join(f"{h:>{width}}" for h in header))
    for w in workloads:
        print(f"{w:14}" + "".join(f"{metrics[f'{w}.{n}']['value']:>{width}.6g}" for n in names))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kummerchi" / "__init__.py").is_file():
        print(f"error: no kummerchi sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        write_result(result)
        print_report(result)
        results.append(result)

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {}
        for r in results:
            metrics.update({f"{r['workload']}.{m}": v for m, v in metrics_of(r).items()})
            metrics[f"{r['workload']}.fail_rate"] = {"value": r["failed"] / r["attempted"], "unit": "1"}
        print_summary(metrics, [r["workload"] for r in results], [*reported_units(args.trace), "fail_rate"])
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
