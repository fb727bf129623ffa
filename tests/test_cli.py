import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from kummerchi import cli, kummer, partitions
from kummerchi.cli import (
    EXIT_CAP,
    EXIT_IDENTITY_FAILURE,
    EXIT_OK,
    build_parser,
    main,
)
from kummerchi.kummer import Check, Report, kummer_rows, partition_count_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    recomputed = {r.n: r for r in kummer_rows(8, g=3)}
    assert len(payload["rows"]) == 8
    for row in payload["rows"]:
        expect = recomputed[row["n"]]
        assert row["sigma2"] == expect.sigma2
        assert row["chi"] == expect.chi
        assert Fraction(row["dt"]) == expect.dt
        assert Fraction(row["s"]) == expect.s


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


def test_text_reads_its_rows_twice_and_refuses_an_iterator():
    rows = [["a", 1], ["bb", 22]]
    out = io.StringIO()
    with pytest.raises(TypeError):
        cli._emit("text", out, {}, ["x", "y"], iter(rows))
    assert out.getvalue() == ""  # refused before the header
    cli._emit("text", out, {}, ["x", "y"], rows)
    assert out.getvalue() == "x   y\n a   1\nbb  22\n"
    out = io.StringIO()
    cli._emit("csv", out, {}, ["x", "y"], iter(rows))  # CSV and JSON read the rows once
    assert out.getvalue() == "x,y\na,1\nbb,22\n"


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
    emitted, dumped = io.StringIO(), io.StringIO()
    cli._emit("json", emitted, meta, header, iter(rows))
    cli._dump_json({**meta, "rows": [dict(zip(header, row)) for row in rows]}, dumped)
    assert emitted.getvalue() == dumped.getvalue()
    assert json.loads(emitted.getvalue())["rows"][1]["n"] == 2**64 + 1


def test_failed_identities_render_in_every_format(capsys, monkeypatch):
    reports = [
        Report("sigma2-convolution", 1, ()),
        Report("chi-series(g=2)", 3, (
            Check("chi-series", 2, False, "24", "25", g=2),
            Check("single-step", 3, False, "-3/2", "3/2", detail="alpha=1^1 2^1"),
        )),
    ]
    # cmd_verify imports run_all_verifiers from kummer when it runs
    monkeypatch.setattr(kummer, "run_all_verifiers", lambda max_n, genus, enum_cap=None: reports)
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
