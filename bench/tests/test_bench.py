"""Tests of the benchmark itself: its checks, its seeded inputs and its tracer.

Run from the repository root with `python -m pytest bench/tests`.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import checks
import run
import trace_child
from workloads import WORKLOADS, batches

SMALL_ARGV = [
    ["table", "--max-n", "8"],
    ["table", "--genus", "2", "--max-n", "8"],
    ["c-table", "--max-n", "8"],
    ["pd", "--dim", "3", "--max-n", "13"],
    ["verify", "--genus", "1,2,3,4", "--max-n", "6"],
]


def _doctor(stdout: bytes) -> bytes:
    """Change the last digit of the output by one."""
    text = stdout.decode()
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return (text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]).encode()


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", SMALL_ARGV, ids=lambda a: " ".join(a))
def test_checks_accept_real_output_and_reject_doctored(argv, fmt):
    argv = argv + ["--format", fmt]
    stdout = subprocess.run([sys.executable, "-m", "kummerchi", *argv], cwd=run.ROOT,
                            env=run._child_env(), capture_output=True, check=True).stdout
    assert checks.check(argv, 0, stdout) is None
    assert checks.check(argv, 0, _doctor(stdout)) is not None
    assert checks.check(argv, 1, stdout) == "exit code 1"
    assert checks.check(argv, None, stdout) == "timed out"


def test_doctored_stdout_raises_fail_rate(tmp_path, monkeypatch):
    """A program whose table output is off by one digit fails every table invocation."""
    fake = tmp_path / "src" / "kummerchi"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text(textwrap.dedent(f"""
        import os, subprocess, sys
        env = dict(os.environ, PYTHONPATH={str(run.SRC)!r})
        out = subprocess.run([sys.executable, "-m", "kummerchi", *sys.argv[1:]],
                             env=env, capture_output=True, text=True).stdout
        if sys.argv[1] == "table":
            out = out.replace("160", "161", 1)  # chi(K^2) at g=3
        sys.stdout.write(out)
    """))
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    honest = run.measure("table-g3", seed=3, seconds=0, trace=False)
    assert honest["failed"] == 0
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    doctored = run.measure("table-g3", seed=3, seconds=0, trace=False)
    tables = len(WORKLOADS["table-g3"].slots)
    assert doctored["attempted"] == honest["attempted"]
    assert doctored["failed"] == tables
    assert doctored["failed"] / doctored["attempted"] > honest["failed"] / honest["attempted"]


def test_seed_fixes_the_argv_lists():
    for workload in WORKLOADS.values():
        def first(seed, count=6):
            stream = batches(workload, seed)
            return [next(stream) for _ in range(count)]

        assert first(11) == first(11)
        assert first(11) != first(12)
        for batch in first(11):
            assert len(batch) == len(workload.slots)


def test_drawn_sizes_stay_inside_the_documented_caps():
    for workload in WORKLOADS.values():
        stream = batches(workload, 5)
        for _ in range(50):
            for argv in next(stream):
                n = int(argv[argv.index("--max-n") + 1])
                if argv[0] == "pd":
                    assert n < len(checks.SOLID_PARTITIONS)
                elif "--genus" in argv:  # g != 3 enumerates ordinary partitions
                    assert n <= 40
                    if "4" in argv[argv.index("--genus") + 1]:  # P_3 cross-checked by DFS
                        assert n <= checks.SOLID_CROSS_CHECK_CAP
                else:
                    assert argv[0] == "c-table" and n <= 40 or argv[0] == "table"


def test_self_times_add_up_to_the_parent_duration():
    ticks = iter(range(100))  # each clock read advances time by one
    tracer = trace_child.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("toy.inner", lambda: [1, 2, 3])
    middle = tracer.wrap("toy.middle", lambda: [inner(), inner()])
    outer = tracer.wrap("toy.outer", lambda: (middle(), inner()))
    outer()

    spans = tracer.spans
    # outer reads 0 and 9, middle 1 and 6, the inner calls 2-3, 4-5 and 7-8
    assert {k: (s["calls"], s["total_s"], s["self_s"]) for k, s in spans.items()} == {
        "toy.inner": (3, 3, 3), "toy.middle": (1, 5, 3), "toy.outer": (1, 9, 3)}
    assert sum(s["self_s"] for s in spans.values()) == spans["toy.outer"]["total_s"]
    assert spans["toy.inner"]["items"] == 9


def test_tracer_wraps_consumer_bindings(tmp_path, monkeypatch):
    """kummer.c_value, kummer.product_expansion, cli.c_value and cli.count_pd are traced."""
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    calls = {}
    for argv in (["table", "--genus", "2", "--max-n", "5"], ["c-table", "--max-n", "5"],
                 ["pd", "--dim", "3", "--max-n", "3"]):
        with run.Spawner() as spawner:
            inv = run.run_invocation(spawner, argv, traced=True)
        assert inv.error is None
        calls[argv[0] + argv[2]] = {k: v["calls"] for k, v in inv.trace["spans"].items()}
    assert calls["table2"]["partitions.c_value"] > 0  # through kummer.ns_from_c
    assert calls["table2"]["series.product_expansion"] > 0  # through kummer
    assert calls["c-table5"]["partitions.c_value"] > 0  # through cli.cmd_c_table
    assert calls["pd3"]["dd_partitions.count_pd"] == 4  # through cli.cmd_pd
    assert inv.trace["memos"]["dd_partitions.chain_memo"] > 0


def test_missing_functions_and_memos_are_absent_not_fatal(tmp_path, monkeypatch):
    pkg = tmp_path / "shrunk"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "partitions.py").write_text("__all__ = ['enumerate_partitions']\n"
                                       "def enumerate_partitions(n):\n    return [n]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = trace_child.Tracer()
    trace_child.install(tracer, package="shrunk")
    import shrunk.partitions

    assert shrunk.partitions.enumerate_partitions(4) == [4]
    assert set(tracer.spans) == {"partitions.enumerate_partitions"}
    assert trace_child.memo_sizes("shrunk") == {}
    batch = [run.Invocation(["c-table"], True, 0, 1.0, 1.0, 1, 1, None,
                            {"spans": tracer.spans, "memos": {}})]
    assert run.PER_LAYER["partitions.c_value.s"][1](batch) is None
    assert run.PER_LAYER["partitions.c_memo.entries"][1](batch) is None
    assert run.PER_LAYER["partitions.enumerate_partitions.items"][1](batch) == 1


def test_closed_form_oracle_matches_the_program_up_to_15():
    from kummerchi import c_value, enumerate_partitions

    for n in range(1, 16):
        for alpha in enumerate_partitions(n):
            mult = {i: m for i, m in enumerate(alpha.mult, start=1) if m}
            assert checks.c_closed_form(n, mult) == c_value(alpha)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.reported_units(trace=True)
