"""Command-line interface.

Four subcommands, each emitting text, CSV, or JSON on stdout:

    table     chi(K^n), DT invariants and s_n for n = 1..max-n
    c-table   the signed weights c(alpha) for all alpha of one weight
    pd        P_d(0..max-n), flagging which values were cross-checked
    verify    run every identity check and report

Exit codes: 0 all good, 1 an identity failed, 2 an enumeration cap was
hit (raise it with --enum-cap).  Rationals are printed exactly, as
"p/q" (or "p" when integral); output for fixed inputs is byte-stable.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .dd_partitions import EnumerationCapError, check_enumeration_cap
from .kummer import (
    kummer_rows,
    partition_count_rows,
    partition_count_table,
    run_all_verifiers,
    sigma,
)
from .partitions import c_value, enumerate_partitions, weighted_product

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_CAP = 2

_FORMATS = ("text", "csv", "json")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _genus_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    if not values or any(g < 1 for g in values):
        raise argparse.ArgumentTypeError("genus values must be positive integers")
    return values


def _emit_json(payload, out) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2), file=out)


def _csv_writer(out):
    return csv.writer(out, lineterminator="\n")


def _text_table(header: list[str], rows: list[list[str]], out) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(), file=out)
    for row in rows:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip(), file=out)


def cmd_table(args, out=None) -> int:
    out = out or sys.stdout
    rows = kummer_rows(args.max_n, g=args.genus, enum_cap=args.enum_cap)
    if args.format == "json":
        payload = {
            "command": "table",
            "genus": args.genus,
            "max_n": args.max_n,
            "rows": [
                {
                    "n": r.n,
                    "sigma2": r.sigma2,
                    "chi": r.chi,
                    "dt": str(r.dt),
                    "s": str(r.s),
                }
                for r in rows
            ],
        }
        _emit_json(payload, out)
    elif args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["n", "sigma2", "chi", "dt", "s"])
        for r in rows:
            writer.writerow([r.n, r.sigma2, r.chi, str(r.dt), str(r.s)])
    else:
        _text_table(
            ["n", "sigma2", "chi", "dt", "s"],
            [[str(r.n), str(r.sigma2), str(r.chi), str(r.dt), str(r.s)] for r in rows],
            out,
        )
    return EXIT_OK


def cmd_c_table(args, out=None) -> int:
    out = out or sys.stdout
    n = args.max_n
    check_enumeration_cap(1, n, args.enum_cap)
    parts = enumerate_partitions(n)
    table = partition_count_table(2, n)
    values = [(alpha, c_value(alpha)) for alpha in parts]
    total = sum(c * weighted_product(alpha, table) for alpha, c in values)
    expected = sigma(2, n)
    if args.format == "json":
        payload = {
            "command": "c-table",
            "n": n,
            "rows": [{"partition": alpha.label(), "c": c} for alpha, c in values],
            "sigma2_check": {"sum": total, "sigma2": expected, "ok": total == expected},
        }
        _emit_json(payload, out)
    elif args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["partition", "c"])
        for alpha, c in values:
            writer.writerow([alpha.label(), c])
        print(f"# sum c*prod P2 = {total}, sigma2({n}) = {expected}, "
              f"{'ok' if total == expected else 'MISMATCH'}", file=out)
    else:
        _text_table(
            ["partition", "c"],
            [[alpha.label(), str(c)] for alpha, c in values],
            out,
        )
        print(f"sum c(alpha) * prod P2(i)^alpha_i = {total}; sigma2({n}) = {expected}; "
              f"{'ok' if total == expected else 'MISMATCH'}", file=out)
    return EXIT_OK if total == expected else EXIT_IDENTITY_FAILURE


def cmd_pd(args, out=None) -> int:
    out = out or sys.stdout
    d, max_n = args.dim, args.max_n
    rows = partition_count_rows(d, max_n, enum_cap=args.enum_cap)
    if args.format == "json":
        payload = {
            "command": "pd",
            "dim": d,
            "max_n": max_n,
            "rows": [
                {"n": n, "count": value, "cross_checked": checked}
                for n, value, checked in rows
            ],
        }
        _emit_json(payload, out)
    elif args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["n", "count", "cross_checked"])
        for n, value, checked in rows:
            writer.writerow([n, value, "yes" if checked else "no"])
    else:
        _text_table(
            ["n", f"P_{d}(n)", "cross-checked"],
            [[str(n), str(value), "yes" if checked else "no"] for n, value, checked in rows],
            out,
        )
    return EXIT_OK


def _check_dict(check) -> dict:
    return {
        "identity": check.identity,
        "n": check.n,
        "g": check.g,
        "detail": check.detail,
        "ok": check.ok,
        "lhs": check.lhs,
        "rhs": check.rhs,
    }


def exit_code_for_reports(reports) -> int:
    return EXIT_OK if all(r.passed for r in reports) else EXIT_IDENTITY_FAILURE


def cmd_verify(args, out=None) -> int:
    out = out or sys.stdout
    reports = run_all_verifiers(args.max_n, args.genus, enum_cap=args.enum_cap)
    if args.format == "json":
        payload = {
            "command": "verify",
            "max_n": args.max_n,
            "genus": args.genus,
            "passed": all(r.passed for r in reports),
            "reports": [
                {
                    "name": r.name,
                    "checks": len(r.checks),
                    "failed": len(r.failures()),
                    "passed": r.passed,
                    "failures": [_check_dict(c) for c in r.failures()],
                }
                for r in reports
            ],
        }
        _emit_json(payload, out)
    elif args.format == "csv":
        writer = _csv_writer(out)
        writer.writerow(["name", "checks", "failed", "passed"])
        for r in reports:
            writer.writerow([r.name, len(r.checks), len(r.failures()), r.passed])
        for r in reports:
            for c in r.failures():
                writer.writerow(
                    ["FAILURE", c.identity, c.g if c.g is not None else "", c.n,
                     c.detail, c.lhs, c.rhs]
                )
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name}  ({len(r.checks)} checks)", file=out)
            for c in r.failures():
                where = f"n={c.n}" + (f" g={c.g}" if c.g is not None else "")
                extra = f" [{c.detail}]" if c.detail else ""
                print(f"      {where}{extra}: {c.lhs} != {c.rhs}", file=out)
        verdict = "all identities hold" if all(r.passed for r in reports) else "FAILURES above"
        print(f"{verdict} (max_n={args.max_n}, genus={','.join(map(str, args.genus))})", file=out)
    return exit_code_for_reports(reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummerchi",
        description="Exact Euler characteristics of generalized Kummer schemes, "
        "higher-dimensional partition counts, and the identities between them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_dim=False, genus_single=False, genus_many=False):
        p.add_argument(
            "--max-n",
            type=_positive_int if not with_dim else _nonnegative_int,
            default=10,
            help="largest n (default %(default)s)",
        )
        if with_dim:
            p.add_argument(
                "--dim",
                type=_positive_int,
                default=2,
                help="partition dimension d (default %(default)s)",
            )
        if genus_single:
            p.add_argument(
                "--genus",
                type=_positive_int,
                default=3,
                help="Abelian variety dimension g (default %(default)s)",
            )
        if genus_many:
            p.add_argument(
                "--genus",
                type=_genus_list,
                default=[1, 2, 3],
                help="comma-separated list of g values (default 1,2,3)",
            )
        p.add_argument(
            "--format",
            choices=_FORMATS,
            default="text",
            help="output format (default %(default)s)",
        )
        p.add_argument(
            "--enum-cap",
            type=_positive_int,
            default=None,
            help="override the brute-force enumeration cap on n "
            "(defaults: 40 for d=1, 16 for d=2, 12 for d=3, 10 above)",
        )

    t = sub.add_parser("table", help="chi(K^n), DT invariants and s_n for n = 1..max-n")
    add_common(t, genus_single=True)
    t.set_defaults(func=cmd_table)

    c = sub.add_parser("c-table", help="signed weights c(alpha) for all alpha of weight n")
    add_common(c)
    c.set_defaults(func=cmd_c_table)
    for action in c._actions:  # --max-n means the tabulated weight here
        if action.dest == "max_n":
            action.help = "weight n whose partitions are tabulated (default %(default)s)"

    p = sub.add_parser("pd", help="P_d(0..max-n) with cross-check flags")
    add_common(p, with_dim=True)
    p.set_defaults(func=cmd_pd)

    v = sub.add_parser("verify", help="run every identity check")
    add_common(v, genus_many=True)
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as err:
        hint = "" if err.fixed_by else "; raise the limit with --enum-cap"
        print(f"error: {err}{hint}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
