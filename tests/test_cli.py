import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kummerchi import cli, kummer, partitions, verify
from kummerchi.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CAP,
    EXIT_IDENTITY_FAILURE,
    EXIT_OK,
    build_parser,
    main,
)
from kummerchi.dd_partitions import partition_count_table
from kummerchi.kummer import chi_kummer_closed, chi_kummer_stratified, sigma
from kummerchi.series import log_coefficients
from kummerchi.verify import Check, Report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _table_rows(max_n, g):
    """The `table` rows rebuilt from the public routes, not from the code the CLI prints:
    chi by the closed form at g = 3 and by the stratification at each n elsewhere, s by
    the library's logarithm, and dt = (-1)^(n+1) chi / n^(2g)."""
    s = log_coefficients(partition_count_table(g - 1, max_n))
    rows = []
    for n in range(1, max_n + 1):
        chi = chi_kummer_closed(n) if g == 3 else chi_kummer_stratified(n, g)
        dt = Fraction(chi if n % 2 else -chi, n ** (2 * g))
        rows.append([str(v) for v in (n, sigma(2, n), chi, dt, s[n - 1])])
    return rows


def test_table_text(capsys):
    code, out, err = run_cli(capsys, "table", "--max-n", "3")
    assert code == EXIT_OK and err == ""
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "sigma2", "chi", "dt", "s"]
    assert lines[2].split() == ["2", "5", "160", "-5/2", "5/2"]
    assert lines[3].split() == ["3", "10", "2430", "10/3", "10/3"]


def test_table_text_genus2(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "2", "--genus", "2")
    assert code == EXIT_OK
    chis = [line.split()[2] for line in out.strip().splitlines()[1:]]
    assert chis == ["1", "24"]


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "3", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "sigma2", "chi", "dt", "s"]
    assert rows[2] == ["2", "5", "160", "-5/2", "5/2"]
    assert rows[3][2] == "2430"


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "8", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["genus"] == 3 and payload["max_n"] == 8
    header = ["n", "sigma2", "chi", "dt", "s"]
    assert [[str(row[k]) for k in header] for row in payload["rows"]] == _table_rows(8, 3)
    assert all(type(row[k]) is int for row in payload["rows"] for k in header[:3])


def test_table_json_single_row(capsys):
    _, out, _ = run_cli(capsys, "table", "--max-n", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["rows"] == [{"n": 1, "sigma2": 1, "chi": 1, "dt": "1", "s": "1"}]


def test_c_table_text(capsys):
    code, out, _ = run_cli(capsys, "c-table", "--max-n", "3")
    assert code == EXIT_OK
    assert "3^1" in out and "1^1 2^1" in out and "1^3" in out
    assert "sigma2(3) = 10" in out and "ok" in out


def test_c_table_json(capsys):
    code, out, _ = run_cli(capsys, "c-table", "--max-n", "4", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    got = {row["partition"]: row["c"] for row in payload["rows"]}
    assert got == {"4^1": 4, "1^1 3^1": -4, "2^2": -2, "1^2 2^1": 4, "1^4": -1}
    assert payload["sigma2_check"] == {"sum": 21, "sigma2": 21, "ok": True}


def test_c_table_csv_footer(capsys):
    code, out, _ = run_cli(capsys, "c-table", "--max-n", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "partition,c"
    assert lines[1:3] == ["2^1,2", "1^2,-1"]
    assert lines[3].startswith("#") and "ok" in lines[3]


def counting_c(monkeypatch):
    """The n of each call of `partitions._c_closed`, which its callers look up when they run."""
    calls = []
    real_c = partitions._c_closed

    def counted(n, parts, dfact):
        calls.append(n)
        return real_c(n, parts, dfact)

    monkeypatch.setattr(partitions, "_c_closed", counted)
    return calls


def test_c_table_computes_c_only_for_the_rows_it_prints(capsys, monkeypatch):
    # the walk computes no c: CSV and JSON compute it once for each of the p(12) = 77
    # rows, text at most once in each of its two passes
    calls = counting_c(monkeypatch)
    for fmt in ("csv", "json", "text"):
        calls.clear()
        assert run_cli(capsys, "c-table", "--max-n", "12", "--format", fmt)[0] == EXIT_OK
        most = 154 if fmt == "text" else 77
        assert calls == [12] * len(calls) and 77 <= len(calls) <= most, fmt


def test_text_calls_its_row_function_twice_and_csv_and_json_once():
    rows = [["a", 1], ["bb", 22]]
    expected = {"text": "x   y\n a   1\nbb  22\n", "csv": "x,y\na,1\nbb,22\n",
                "json": '{\n  "rows": [\n    {\n      "x": "a",\n      "y": 1\n    },\n'
                        '    {\n      "x": "bb",\n      "y": 22\n    }\n  ]\n}\n'}
    for fmt, text in expected.items():
        calls, out = [], io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(fmt, {}, ["x", "y"], lambda: calls.append(fmt) or iter(rows))
        assert out.getvalue() == text, fmt
        assert len(calls) == (2 if fmt == "text" else 1), fmt


def test_c_table_text_is_byte_stable(capsys):
    # sha256 of the text the one-pass emitter wrote when it kept every cell string
    digests = {20: "6ae9b8bf25a6da5a2d44fe8b5db319edeedb5848a1d0f8ab74b945bef698e183",
               31: "c953511010dc908b643a3ddb69c9aca46f6b99ec68900d96c4703972d77cc9ad"}
    for n, digest in digests.items():
        code, out, err = run_cli(capsys, "c-table", "--max-n", str(n))
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, n


def test_pd_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "pd", "--dim", "2", "--max-n", "5")
    assert code == EXIT_OK
    counts = [line.split()[1] for line in out.strip().splitlines()[1:]]
    assert counts == ["1", "1", "3", "6", "13", "24"]
    code, out, _ = run_cli(capsys, "pd", "--dim", "1", "--max-n", "5", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[1] for r in rows[1:]] == ["1", "1", "2", "3", "5", "7"]
    assert all(r[2] == "yes" for r in rows[1:])


def test_pd_json_flags_unchecked_tail(capsys):
    code, out, _ = run_cli(capsys, "pd", "--dim", "2", "--max-n", "18", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    by_n = {row["n"]: row for row in payload["rows"]}
    assert by_n[16]["cross_checked"] is True
    assert by_n[17]["cross_checked"] is False
    assert by_n[18]["cross_checked"] is False
    assert by_n[12]["count"] == 1479


def test_pd_plane_partitions_from_the_product(capsys):
    # the layered count took minutes here; the MacMahon product does not
    code, out, _ = run_cli(capsys, "pd", "--dim", "2", "--max-n", "60", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert [row["count"] for row in rows] == partition_count_table(2, 60)
    assert [row["n"] for row in rows if row["cross_checked"]] == list(range(17))


def test_pd_zero_row(capsys):
    code, out, _ = run_cli(capsys, "pd", "--dim", "3", "--max-n", "0", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["0", "1", "yes"]


def test_pd_above_the_last_layered_cap_answers_to_one(capsys):
    # P_d(0) = P_d(1) = 1 in every d, so d above 30 answers at n <= 1, each row
    # cross-checked by the DFS, and refuses n = 2 naming a cap of 1
    code, out, _ = run_cli(capsys, "pd", "--dim", "31", "--max-n", "1", "--format", "csv")
    assert code == EXIT_OK
    assert list(csv.reader(io.StringIO(out)))[1:] == [["0", "1", "yes"], ["1", "1", "yes"]]
    code, out, err = run_cli(capsys, "pd", "--dim", "31", "--max-n", "2")
    assert (code, out) == (EXIT_CAP, "")
    assert "exceeds the cap of 1 set by" in err


def test_pd_high_dimension_needs_cap(capsys):
    code, out, err = run_cli(capsys, "pd", "--dim", "4", "--max-n", "11")
    assert code == EXIT_CAP
    assert out == ""
    assert "--enum-cap" in err
    code, _, _ = run_cli(capsys, "pd", "--dim", "4", "--max-n", "4")
    assert code == EXIT_OK


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--genus", "1,2,3")
    assert code == EXIT_OK
    assert "all identities hold" in out
    assert out.count("PASS") == 8  # 2 + 2 per genus


def test_verify_runs_a_repeated_genus_once(capsys):
    # the first occurrence of each g is kept, in order: the reports and the genus echoed
    for fmt in ("text", "csv", "json"):
        once = run_cli(capsys, "verify", "--max-n", "6", "--genus", "3,1", "--format", fmt)
        assert run_cli(capsys, "verify", "--max-n", "6", "--genus", "3,1,3,,1",
                       "--format", fmt) == once
    assert json.loads(once[1])["genus"] == [3, 1]


@pytest.mark.parametrize("g, max_n", [(1, 30), (2, 30), (3, 300), (4, 12)])
def test_table_prints_the_library_rows(capsys, g, max_n):
    # the CLI renders its integer rows itself: each cell, dt and s included, is what
    # `str` makes of the value rebuilt from the library's public routes, `Fraction`s for
    # the rationals
    code, out, _ = run_cli(capsys, "table", "--genus", str(g), "--max-n", str(max_n),
                           "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows == _table_rows(max_n, g)


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "6", "--genus", "2,3", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["genus"] == [2, 3]
    assert [r["failed"] for r in payload["reports"]] == [0] * 6
    assert all(r["failures"] == [] for r in payload["reports"])


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "5", "--genus", "1", "--format", "csv"
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "checks", "failed", "passed"]
    assert {r[0] for r in rows[1:]} == {
        "sigma2-convolution",
        "single-step",
        "chi-series(g=1)",
        "first-order(g=1)",
    }


def test_verify_cap_exit(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-n", "13", "--genus", "4")
    assert code == EXIT_CAP
    assert "--enum-cap" in err
    code, _, _ = run_cli(capsys, "verify", "--max-n", "12", "--genus", "4")
    assert code == EXIT_OK


def test_verify_cap_override(capsys):
    code, _, _ = run_cli(
        capsys, "verify", "--max-n", "13", "--genus", "4", "--enum-cap", "13"
    )
    assert code == EXIT_OK


def test_partition_enumeration_honours_cap(capsys):
    # every path that enumerates ordinary partitions refuses above the d = 1 cap
    for argv in (
        ["c-table", "--max-n", "12"],
        ["table", "--genus", "2", "--max-n", "12"],
        ["verify", "--genus", "1", "--max-n", "12"],
    ):
        code, out, err = run_cli(capsys, *argv, "--enum-cap", "10")
        assert code == EXIT_CAP and out == ""
        assert "--enum-cap" in err
    # the closed form at g = 3 enumerates nothing
    code, _, _ = run_cli(capsys, "table", "--genus", "3", "--max-n", "12", "--enum-cap", "10")
    assert code == EXIT_OK


def test_parser_rejects_bad_arguments():
    parser = build_parser()
    for argv in (
        ["table", "--max-n", "0"],
        ["table", "--genus", "0"],
        ["verify", "--genus", "1,x"],
        ["verify", "--genus", ""],
        ["pd", "--dim", "0"],
        ["table", "--format", "yaml"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


@pytest.mark.parametrize("argv, message", [
    (["table", "--max-n", "x"], "argument --max-n: must be a positive integer"),
    (["pd", "--max-n", "1.5"], "argument --max-n: must be nonnegative"),
    (["pd", "--max-n", "-1"], "argument --max-n: must be nonnegative"),
    (["pd", "--dim", "two"], "argument --dim: must be a positive integer"),
    (["verify", "--enum-cap", "1e3"], "argument --enum-cap: must be a positive integer"),
    (["verify", "--enum-cap", "0"], "argument --enum-cap: must be a positive integer"),
])
def test_argument_errors_name_the_range(capsys, argv, message):
    # argparse names the type function of a ValueError; these errors name the range instead
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.endswith(f"error: {message}\n")
    assert "_positive_int" not in err and "_nonnegative_int" not in err


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "verify", "--max-n", "7", "--genus", "1,2,3", "--format", "json")
    second = run_cli(capsys, "verify", "--max-n", "7", "--genus", "1,2,3", "--format", "json")
    assert first == second
    third = run_cli(capsys, "table", "--max-n", "9", "--format", "csv")
    fourth = run_cli(capsys, "table", "--max-n", "9", "--format", "csv")
    assert third == fourth


# stdout of each subcommand in each format, committed from a known-good run
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_ARGV = {
    "table-12": ["table", "--max-n", "12"],
    "table-g2-8": ["table", "--genus", "2", "--max-n", "8"],
    "c-table-6": ["c-table", "--max-n", "6"],
    "pd-d3-13": ["pd", "--dim", "3", "--max-n", "13"],  # n = 13 is past the DFS cap
    "verify-6": ["verify", "--max-n", "6", "--genus", "1,4"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
def test_output_matches_golden_files(capsys, name):
    for fmt in ("text", "csv", "json"):
        code, out, err = run_cli(capsys, *GOLDEN_ARGV[name], "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        assert out == (GOLDEN / f"{name}.{fmt}").read_text(), (name, fmt)


@pytest.mark.parametrize("argv", [["c-table", "--max-n", "20"], ["table", "--max-n", "15"],
                                  ["table", "--genus", "2", "--max-n", "12"],
                                  ["pd", "--dim", "3", "--max-n", "13"],
                                  ["pd", "--dim", "1", "--max-n", "0"]])
def test_streamed_json_is_what_json_dumps_writes(capsys, argv):
    # the rows are written one at a time, by hand; the bytes must not tell
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_emitted_json_scalars_are_what_json_dumps_writes():
    # _emit encodes str, int and bool by their type and the rest by the encoder
    header = ["text", "n", "flag", "other"]
    rows = [('say "hi"', -7, True, None), ("back\\slash\n", 2**64 + 1, False, 0.5),
            ("naïve ∑ \u2028 \x00", -(2**70), True, "plain"), ("", 0, False, -3)]
    meta = {"command": "test", "n": 4}
    emitted = io.StringIO()
    with contextlib.redirect_stdout(emitted):
        cli._emit("json", meta, header, lambda: iter(rows))
    dumped = json.dumps({**meta, "rows": [dict(zip(header, row)) for row in rows]},
                        sort_keys=True, indent=2) + "\n"
    assert emitted.getvalue() == dumped
    assert json.loads(emitted.getvalue())["rows"][1]["n"] == 2**64 + 1


def test_failed_identities_render_in_every_format(capsys, monkeypatch):
    reports = [
        Report("sigma2-convolution", 1, ()),
        Report("chi-series(g=2)", 3, (
            Check("chi-series", 2, False, "24", "25", g=2),
            Check("single-step", 3, False, "-3/2", "3/2", detail="alpha=1^1 2^1"),
        )),
    ]
    # cmd_verify imports run_all_verifiers from verify when it runs
    monkeypatch.setattr(verify, "run_all_verifiers", lambda max_n, genus, enum_cap=None: reports)
    failures = [
        {"identity": "chi-series", "n": 2, "g": 2, "detail": "", "ok": False,
         "lhs": "24", "rhs": "25"},
        {"identity": "single-step", "n": 3, "g": None, "detail": "alpha=1^1 2^1", "ok": False,
         "lhs": "-3/2", "rhs": "3/2"},
    ]
    payload = {
        "command": "verify", "genus": [2], "max_n": 2, "passed": False,
        "reports": [
            {"name": "sigma2-convolution", "checks": 1, "failed": 0, "passed": True,
             "failures": []},
            {"name": "chi-series(g=2)", "checks": 3, "failed": 2, "passed": False,
             "failures": failures},
        ],
    }
    expected = {
        "text": "PASS  sigma2-convolution  (1 checks)\n"
                "FAIL  chi-series(g=2)  (3 checks)\n"
                "      n=2 g=2: 24 != 25\n"
                "      n=3 [alpha=1^1 2^1]: -3/2 != 3/2\n"
                "FAILURES above (max_n=2, genus=2)\n",
        "csv": "name,checks,failed,passed\n"
               "sigma2-convolution,1,0,True\n"
               "chi-series(g=2),3,2,False\n"
               "FAILURE,chi-series,2,2,,24,25\n"
               "FAILURE,single-step,,3,alpha=1^1 2^1,-3/2,3/2\n",
        "json": json.dumps(payload, sort_keys=True, indent=2) + "\n",
    }
    for fmt, text in expected.items():
        got = run_cli(capsys, "verify", "--max-n", "2", "--genus", "2", "--format", fmt)
        assert got == (EXIT_IDENTITY_FAILURE, text, ""), fmt


def test_verifier_failures_render_in_every_format(capsys, monkeypatch):
    # c(1^1 2^1) one too large, as the real verifiers report it: the single-step
    # relation, its g3-fibre form with both sides as fractions, and the closure fail
    # for that alpha and where it is what remains after removing a part
    # (n, parts, prod alpha_i!) = (3, 2, 1) is 1^1 2^1 alone
    real_c = partitions._c_closed
    monkeypatch.setattr(partitions, "_c_closed", lambda n, parts, dfact: real_c(n, parts, dfact)
                        + ((n, parts, dfact) == (3, 2, 1)))
    for fmt in ("text", "csv", "json"):
        got = run_cli(capsys, "verify", "--max-n", "4", "--genus", "1", "--format", fmt)
        expected = (GOLDEN / f"verify-4-fault.{fmt}").read_text()
        assert got == (EXIT_IDENTITY_FAILURE, expected, ""), fmt


def test_c_table_mismatch_renders_in_every_format(capsys, monkeypatch):
    # cmd_c_table imports sigma from kummer when it runs
    real_sigma = kummer.sigma
    monkeypatch.setattr(kummer, "sigma", lambda k, n: real_sigma(k, n) + 1)
    rows = [("3^1", 3), ("1^1 2^1", -3), ("1^3", 1)]
    payload = {
        "command": "c-table", "n": 3,
        "rows": [{"partition": label, "c": c} for label, c in rows],
        "sigma2_check": {"sum": 10, "sigma2": 11, "ok": False},
    }
    expected = {
        "text": "partition  c\n"
                "      3^1   3\n"
                "  1^1 2^1  -3\n"
                "      1^3   1\n"
                "sum c(alpha) * prod P2(i)^alpha_i = 10; sigma2(3) = 11; MISMATCH\n",
        "csv": "partition,c\n3^1,3\n1^1 2^1,-3\n1^3,1\n"
               "# sum c*prod P2 = 10, sigma2(3) = 11, MISMATCH\n",
        "json": json.dumps(payload, sort_keys=True, indent=2) + "\n",
    }
    for fmt, text in expected.items():
        got = run_cli(capsys, "c-table", "--max-n", "3", "--format", fmt)
        assert got == (EXIT_IDENTITY_FAILURE, text, ""), fmt


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_closed_pipe_ends_quietly(fmt):
    # the rows of 35 outgrow a pipe's buffer, so the command is still writing when the
    # reader goes: it must exit 128 + SIGPIPE with nothing on stderr, not a traceback
    proc = subprocess.Popen([sys.executable, "-m", "kummerchi", "c-table", "--max-n", "35",
                             "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (EXIT_BROKEN_PIPE, b"")
