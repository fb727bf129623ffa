import csv
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from kummerchi import cli, kummer
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


def test_pd_high_dimension_needs_cap(capsys):
    code, out, err = run_cli(capsys, "pd", "--dim", "4", "--max-n", "11")
    assert code == EXIT_CAP
    assert out == ""
    assert "--enum-cap" in err
    code, _, _ = run_cli(capsys, "pd", "--dim", "4", "--max-n", "4")
    assert code == EXIT_OK


def test_pd_dim3_refuses_past_the_layered_cap_at_once(capsys, monkeypatch):
    from kummerchi import dd_partitions

    def no_counting(*args):
        raise AssertionError("counted before refusing")

    monkeypatch.setattr(dd_partitions, "_chain_count", no_counting)
    monkeypatch.setattr(dd_partitions, "_staircase", no_counting)
    # --dim 12 --max-n 10 is inside the enumeration cap; it ran out of memory
    for dim, max_n, extra in (("3", "30", ()), ("3", "30", ("--enum-cap", "30")),
                              ("12", "10", ())):
        code, out, err = run_cli(capsys, "pd", "--dim", dim, "--max-n", max_n, *extra)
        assert code == EXIT_CAP
        assert out == ""
        assert "running time of the layered count" in err
        assert "--enum-cap" not in err  # the override does not lift this cap


def test_product_tables_refuse_past_their_cap_at_once(capsys, monkeypatch):
    def no_expanding(*args):
        raise AssertionError("expanded before refusing")

    monkeypatch.setattr(kummer, "product_expansion", no_expanding)
    over = str(kummer._PRODUCT_CAP + 1)
    for argv in (("table", "--max-n", over), ("pd", "--dim", "1", "--max-n", over),
                 ("pd", "--dim", "2", "--max-n", over, "--enum-cap", over)):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CAP
        assert out == ""
        assert err.endswith(f"of {over} exceeds the cap of {kummer._PRODUCT_CAP} "
                            "set by the running time of the product expansion\n")


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


def test_failed_identities_render_in_every_format(capsys, monkeypatch):
    reports = [
        Report("sigma2-convolution", 1, ()),
        Report("chi-series(g=2)", 3, (
            Check("chi-series", 2, False, "24", "25", g=2),
            Check("single-step", 3, False, "-3/2", "3/2", detail="alpha=1^1 2^1"),
        )),
    ]
    monkeypatch.setattr(cli, "run_all_verifiers", lambda max_n, genus, enum_cap=None: reports)
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
    real_c = kummer.c_value
    monkeypatch.setattr(kummer, "c_value", lambda alpha: real_c(alpha) + (alpha.mult == (1, 1)))
    for fmt in ("text", "csv", "json"):
        got = run_cli(capsys, "verify", "--max-n", "4", "--genus", "1", "--format", fmt)
        expected = (GOLDEN / f"verify-4-fault.{fmt}").read_text()
        assert got == (EXIT_IDENTITY_FAILURE, expected, ""), fmt


def test_c_table_mismatch_renders_in_every_format(capsys, monkeypatch):
    real_sigma = cli.sigma
    monkeypatch.setattr(cli, "sigma", lambda k, n: real_sigma(k, n) + 1)
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
