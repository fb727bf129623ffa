"""Command-line interface.

Four subcommands, each emitting text, CSV, or JSON on stdout:

    table     chi(K^n), DT invariants and s_n for n = 1..max-n
    c-table   the signed weights c(alpha) for all alpha of one weight
    pd        P_d(0..max-n), flagging which values were cross-checked
    verify    run every identity check and report

Exit codes: 0 all good, 1 an identity failed or two counts disagreed, 2 a
refusal (a cap on n was hit before any exponential work; stdout is empty),
and from the process entry, `__main__`, 141: the reader closed stdout.
--enum-cap lifts only the enumeration caps; the message of a fixed cap
names what sets it instead.  Rationals are printed exactly, as "p/q"
(or "p" when integral); output for fixed inputs is byte-stable.

Each command imports what it runs when it runs: README's "Layout" table
lists the modules each loads.  This module only formats: `_emit` writes each
row as it is made, and `c-table` hands it a walk that holds no row.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .dd_partitions import (DEFAULT_ENUM_CAPS, EnumerationCapError, enumeration_cap,
                            partition_count_rows)

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_CAP = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE; `__main__` returns it, not `main`

_FORMATS = ("text", "csv", "json")
_LARGEST_N = "largest n (default %(default)s)"
_ENUM_CAP_HELP = (
    "override the brute-force enumeration cap on n (defaults: "
    + "".join(f"{cap} for d={d}, " for d, cap in sorted(DEFAULT_ENUM_CAPS.items()))
    + f"{enumeration_cap(max(DEFAULT_ENUM_CAPS) + 1)} above)"
)


def _int_at_least(least: int, wording: str):
    """An argparse type for the integers >= least, whose every refusal says `wording`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:  # refused below: for a ValueError argparse prints this function's name
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(wording)
        return value
    return parse


_positive_int = _int_at_least(1, "must be a positive integer")
_nonnegative_int = _int_at_least(0, "must be nonnegative")


def _genus_list(text: str) -> list[int]:
    try:
        values = list(dict.fromkeys(int(part) for part in text.split(",") if part.strip()))
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    if not values or any(g < 1 for g in values):
        raise argparse.ArgumentTypeError("genus values must be positive integers")
    return values


def _json_field(key: str, value) -> str:
    """`"key": value` as `json.dumps(..., sort_keys=True, indent=2)` writes a top-level
    field, without its indent."""
    import json  # here, not at start-up: only JSON output needs it
    return json.dumps({key: value}, sort_keys=True, indent=2)[4:-2]  # within "{\n  " and "\n}"


def _yes_no(value) -> str:
    return ("no", "yes")[value] if isinstance(value, bool) else str(value)


def _emit(fmt, meta, header, rows, text_header=None, cell=str, footer=None) -> None:
    """Write the rows of `rows()` to stdout in format `fmt`, each as it comes, keeping none.

    JSON is `meta` plus the rows as records keyed by `header`, byte for
    byte what `json.dumps(..., sort_keys=True, indent=2)` writes for the
    whole payload, given at least one row, as every command has.  CSV is
    `header` and the rows as given.  Both call `rows` once.  Text is an
    aligned table under `text_header` (default `header`), each value
    rendered by `cell`.  It calls `rows` twice: the first pass keeps only
    the distinct tuples of cell lengths, a handful, for the column widths,
    and the second writes each row.  The keys of `meta` sort before "rows".
    `footer`, if given, is called once after the last row and returns a
    dict: its "json" entry holds more top-level keys, which sort after
    "rows", and its "csv" or "text" entry is one more line after the table.
    """
    out = sys.stdout
    if fmt == "json":
        import json
        other = json.JSONEncoder().encode  # the compact encoder; str, int and bool skip its Python
        encode = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                  bool: ("false", "true").__getitem__}
        out.write("{\n" + "".join(f"  {_json_field(k, v)},\n" for k, v in sorted(meta.items())))
        # a row holds scalars, so its record is laid out here as `json.dumps` would
        # lay it out, two levels deep, and only the values go through the encoder
        order = sorted(range(len(header)), key=header.__getitem__)
        names = [f"\n      {other(header[i])}: " for i in order]
        out.write('  "rows": [')
        sep = "\n    {"
        for row in rows():
            out.write(sep + ",".join([name + encode.get(type(v), other)(v) for name, v
                                      in zip(names, map(row.__getitem__, order))]) + "\n    }")
            sep = ",\n    {"
        out.write("\n  ]")
    elif fmt == "csv":
        import csv  # here, not at start-up: only CSV output needs it
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        body = rows()  # the writer calls str itself, so only a cell other than str is applied
        writer.writerows(body if cell is str else ([cell(v) for v in row] for row in body))
    else:
        head = text_header or header
        shapes = {tuple(map(len, map(cell, row))) for row in rows()}
        widths = [max(column) for column in zip(map(len, head), *shapes)]
        print("  ".join(h.ljust(w) for h, w in zip(head, widths)).rstrip(), file=out)
        line = "  ".join(f"{{:>{w}}}" for w in widths).format  # each cell right-aligned
        for row in rows():
            out.write(line(*map(cell, row)).rstrip() + "\n")
    tail = footer() if footer else {}
    if fmt == "json":
        late = sorted(tail.get("json", {}).items())
        out.write("".join(f",\n  {_json_field(k, v)}" for k, v in late) + "\n}\n")
    elif fmt in tail:
        print(tail[fmt], file=out)


# Each command writes to `sys.stdout`, looked up when it runs, so a caller that swaps it
# (`contextlib.redirect_stdout`, pytest's `capsys`) gets the output.  Each computes what
# it prints before its first write, so a refusal, raised before any counting, leaves
# stdout empty: `c-table` checks its caps and counts P_2 before `_emit` starts its walk.
def cmd_table(args) -> int:
    from .kummer import _rows

    rows = _rows(args.max_n, args.genus, args.enum_cap)
    _emit(args.format, {"command": "table", "genus": args.genus, "max_n": args.max_n},
          ["n", "sigma2", "chi", "dt", "s"], lambda: rows)
    return EXIT_OK


def cmd_c_table(args) -> int:
    """c(alpha) for each alpha of n, and sum c(alpha) * prod P_2(i)^alpha_i, from `_strata_at`."""
    from .kummer import _strata_at, _tables, sigma

    n = args.max_n
    table = _tables(n, [3], args.enum_cap)[3]
    expected = sigma(2, n)
    total = 0
    # one string per (size, multiplicity) that can occur, so a row's label only joins lookups
    label = {(i, m): f"{i}^{m}" for i in range(1, n + 1) for m in range(1, n // i + 1)}.__getitem__

    def rows():
        nonlocal total
        total = 0  # text walks twice; the footer reads the last walk's sum
        for path, c, cw in _strata_at(n, table):
            total += cw
            yield " ".join(map(label, reversed(path))), c

    def footer():
        ok = total == expected
        verdict = "ok" if ok else "MISMATCH"
        return {
            "json": {"sigma2_check": {"sum": total, "sigma2": expected, "ok": ok}},
            "csv": f"# sum c*prod P2 = {total}, sigma2({n}) = {expected}, {verdict}",
            "text": f"sum c(alpha) * prod P2(i)^alpha_i = {total}; "
                    f"sigma2({n}) = {expected}; {verdict}",
        }

    _emit(args.format, {"command": "c-table", "n": n}, ["partition", "c"], rows,
          footer=footer)
    return EXIT_OK if total == expected else EXIT_IDENTITY_FAILURE


def cmd_pd(args) -> int:
    d = args.dim
    rows = partition_count_rows(d, args.max_n, enum_cap=args.enum_cap)
    _emit(args.format, {"command": "pd", "dim": d, "max_n": args.max_n},
          ["n", "count", "cross_checked"], lambda: rows,
          text_header=["n", f"P_{d}(n)", "cross-checked"], cell=_yes_no)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_all_verifiers

    reports = run_all_verifiers(args.max_n, args.genus, enum_cap=args.enum_cap)
    passed = all(r.passed for r in reports)
    if args.format == "text":
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  ({r.count} checks)")
            for c in r.failed:
                where = f"n={c.n}" + (f" g={c.g}" if c.g is not None else "")
                extra = f" [{c.detail}]" if c.detail else ""
                print(f"      {where}{extra}: {c.lhs} != {c.rhs}")
        verdict = "all identities hold" if passed else "FAILURES above"
        print(f"{verdict} (max_n={args.max_n}, genus={','.join(map(str, args.genus))})")
    elif args.format == "json":
        import json  # here, not at start-up: only JSON output needs it

        records = [{"name": r.name, "checks": r.count, "failed": len(r.failed),
                    "passed": r.passed, "failures": [c._asdict() for c in r.failed]}
                   for r in reports]
        print(json.dumps({"command": "verify", "max_n": args.max_n, "genus": args.genus,
                          "passed": passed, "reports": records}, sort_keys=True, indent=2))
    else:
        rows = [[r.name, r.count, len(r.failed), r.passed] for r in reports]
        rows += [["FAILURE", c.identity, "" if c.g is None else c.g, c.n, c.detail, c.lhs, c.rhs]
                 for r in reports for c in r.failed]
        _emit("csv", {}, ["name", "checks", "failed", "passed"], lambda: rows)
    return EXIT_OK if passed else EXIT_IDENTITY_FAILURE


def _subcommand(sub, name: str, func, text: str, *arguments) -> None:
    """Add subcommand `name` with its (flag, type, default, help) `arguments`,
    --max-n first, then --format and --enum-cap: the order --help shows."""
    parser = sub.add_parser(name, help=text)
    parser.set_defaults(func=func)
    for flag, kind, default, help_text in arguments:
        parser.add_argument(flag, type=kind, default=default, help=help_text)
    parser.add_argument("--format", choices=_FORMATS, default="text",
                        help="output format (default %(default)s)")
    parser.add_argument("--enum-cap", type=_positive_int, default=None, help=_ENUM_CAP_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummerchi",
        description="Exact Euler characteristics of generalized Kummer schemes, "
        "higher-dimensional partition counts, and the identities between them.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    largest_n = ("--max-n", _positive_int, 10, _LARGEST_N)
    _subcommand(sub, "table", cmd_table, "chi(K^n), DT invariants and s_n for n = 1..max-n",
                largest_n,
                ("--genus", _positive_int, 3, "Abelian variety dimension g (default %(default)s)"))
    _subcommand(sub, "c-table", cmd_c_table, "signed weights c(alpha) for all alpha of weight n",
                ("--max-n", _positive_int, 10,
                 "weight n whose partitions are tabulated (default %(default)s)"))
    _subcommand(sub, "pd", cmd_pd, "P_d(0..max-n) with cross-check flags",
                ("--max-n", _nonnegative_int, 10, _LARGEST_N),
                ("--dim", _positive_int, 2, "partition dimension d (default %(default)s)"))
    _subcommand(sub, "verify", cmd_verify, "run every identity check",
                largest_n,
                ("--genus", _genus_list, [1, 2, 3],
                 "comma-separated list of g values (default 1,2,3)"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as err:  # raised before any output, so stdout stays empty
        hint = "" if err.fixed_by else "; raise the limit with --enum-cap"
        print(f"error: {err}{hint}", file=sys.stderr)
        return EXIT_CAP
    except ArithmeticError as err:  # two counts disagree, before any output but c-table's
        if type(err) is not ArithmeticError:  # ZeroDivisionError, OverflowError: a bug
            raise
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IDENTITY_FAILURE
