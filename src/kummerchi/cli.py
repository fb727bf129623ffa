"""Command-line interface.

Four subcommands, each emitting text, CSV, or JSON on stdout:

    table     chi(K^n), DT invariants and s_n for n = 1..max-n
    c-table   the signed weights c(alpha) for all alpha of one weight
    pd        P_d(0..max-n), flagging which values were cross-checked
    verify    run every identity check and report

Exit codes: 0 all good, 1 an identity failed, 2 a refusal: a cap on n
was hit before any exponential work started, and stdout is empty.
--enum-cap lifts only the enumeration caps; the message of a fixed cap
names what sets it instead.  Rationals are printed exactly, as "p/q"
(or "p" when integral); output for fixed inputs is byte-stable.

Each command imports what it runs when it runs.  The parser needs only
`dd_partitions` (and `series`, which it imports) for its caps, so
`--version` loads nothing else; `pd` adds the P_d counts it runs, `table`
and `c-table` add `kummer` and what their route needs, `verify` all.

Every format writes each row as it is made, and `c-table` walks the
partitions one at a time and holds none of its rows, so its memory stays
flat in n.  CSV and JSON read the rows once.  Text reads them twice: once
for the column widths, keeping no cell string, then to write them; so
`c-table` hands over rows that walk the partitions again each time.
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
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated list of integers")
    if not values or any(g < 1 for g in values):
        raise argparse.ArgumentTypeError("genus values must be positive integers")
    return values


def _dump_json(payload: dict, out) -> None:
    import json  # here, not at start-up: only JSON output needs it
    print(json.dumps(payload, sort_keys=True, indent=2), file=out)


def _json_field(key: str, value) -> str:
    """`"key": value` as `_dump_json` writes a top-level field, without its indent."""
    import json
    return json.dumps({key: value}, sort_keys=True, indent=2)[4:-2]  # within "{\n  " and "\n}"


def _yes_no(value) -> str:
    return ("no", "yes")[value] if isinstance(value, bool) else str(value)


class _Rows:
    """Rows walked afresh by `walk()` each time they are iterated, so text can read them twice."""

    def __init__(self, walk):
        self.walk = walk

    def __iter__(self):
        return self.walk()


def _emit(fmt, out, meta, header, rows, text_header=None, cell=str, footer=None) -> None:
    """Write `rows` in format `fmt`, each row as it comes, keeping none.

    JSON is `meta` plus the rows as records keyed by `header`, byte for
    byte what `_dump_json` writes for the whole payload, given at least
    one row, as every command has.  CSV is `header` and the rows as given.
    Both read `rows` once, so any iterable will do.  Text is an aligned
    table under `text_header` (default `header`), each value rendered by
    `cell`.  It reads `rows` twice: the first pass keeps only the widths
    of the columns, the second writes each row.  So text needs rows it
    can iterate again, and refuses an iterator with `TypeError` before it
    writes anything.  The keys of `meta` sort before "rows".  `footer`, if
    given, is called once after the last row and returns a dict: its
    "json" entry holds more top-level keys, which sort after "rows", and
    its "csv" or "text" entry is one more line after the table.
    """
    if fmt == "json":
        import json
        other = json.JSONEncoder().encode  # the compact encoder; str, int and bool skip its Python
        encode = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
                  bool: ("false", "true").__getitem__}
        out.write("{\n" + "".join(f"  {_json_field(k, v)},\n" for k, v in sorted(meta.items())))
        # a row holds scalars, so its record is laid out here as `_dump_json` would
        # lay it out, two levels deep, and only the values go through the encoder
        order = sorted(range(len(header)), key=header.__getitem__)
        names = [f"\n      {other(header[i])}: " for i in order]
        out.write('  "rows": [')
        sep = "\n    {"
        for row in rows:
            out.write(sep + ",".join([name + encode.get(type(v), other)(v) for name, v
                                      in zip(names, map(row.__getitem__, order))]) + "\n    }")
            sep = ",\n    {"
        out.write("\n  ]")
    elif fmt == "csv":
        import csv  # here, not at start-up: only CSV output needs it
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows if cell is str else ([cell(v) for v in row] for row in rows))
    else:
        first = iter(rows)
        if first is rows:
            raise TypeError("text output reads its rows twice, so they cannot be an iterator")
        head = text_header or header
        # the first pass keeps only the distinct tuples of cell lengths, a handful
        shapes = {tuple(map(len, map(cell, row))) for row in first}
        widths = [max(column) for column in zip(map(len, head), *shapes)]
        print("  ".join(h.ljust(w) for h, w in zip(head, widths)).rstrip(), file=out)
        line = "  ".join(f"{{:>{w}}}" for w in widths).format  # each cell right-aligned
        for row in rows:
            out.write(line(*map(cell, row)).rstrip() + "\n")
    tail = footer() if footer else {}
    if fmt == "json":
        late = sorted(tail.get("json", {}).items())
        out.write("".join(f",\n  {_json_field(k, v)}" for k, v in late) + "\n}\n")
    elif fmt in tail:
        print(tail[fmt], file=out)


def cmd_table(args, out=None) -> int:
    from .kummer import kummer_rows

    rows = kummer_rows(args.max_n, g=args.genus, enum_cap=args.enum_cap)
    _emit(
        args.format, out or sys.stdout,
        {"command": "table", "genus": args.genus, "max_n": args.max_n},
        ["n", "sigma2", "chi", "dt", "s"],
        [[r.n, r.sigma2, r.chi, str(r.dt), str(r.s)] for r in rows],
    )
    return EXIT_OK


def cmd_c_table(args, out=None) -> int:
    """c(alpha) for each alpha of n, and sum c(alpha) * prod P_2(i)^alpha_i, from one walk
    (two in text); c is computed only for the alpha of n that are printed."""
    from . import partitions
    from .kummer import _tables, sigma

    n = args.max_n
    table = _tables(n, [3], args.enum_cap)[2]
    expected = sigma(2, n)
    total = 0
    label = {(i, m): f"{i}^{m}" for i in range(1, n + 1) for m in range(1, n // i + 1)}.__getitem__

    def rows():
        nonlocal total
        total = 0
        c_closed = partitions._c_closed
        for weight, l, d, w, path in partitions._strata(n, table, least=n):
            if weight == n:
                c = c_closed(n, l, d)
                total += c * w
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

    _emit(args.format, out or sys.stdout, {"command": "c-table", "n": n}, ["partition", "c"],
          _Rows(rows), footer=footer)
    return EXIT_OK if total == expected else EXIT_IDENTITY_FAILURE


def cmd_pd(args, out=None) -> int:
    d = args.dim
    _emit(
        args.format, out or sys.stdout,
        {"command": "pd", "dim": d, "max_n": args.max_n},
        ["n", "count", "cross_checked"],
        partition_count_rows(d, args.max_n, enum_cap=args.enum_cap),
        text_header=["n", f"P_{d}(n)", "cross-checked"],
        cell=_yes_no,
    )
    return EXIT_OK


def cmd_verify(args, out=None) -> int:
    from .verify import run_all_verifiers

    out = out or sys.stdout
    reports = run_all_verifiers(args.max_n, args.genus, enum_cap=args.enum_cap)
    passed = all(r.passed for r in reports)
    if args.format == "text":
        for r in reports:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  ({r.count} checks)", file=out)
            for c in r.failed:
                where = f"n={c.n}" + (f" g={c.g}" if c.g is not None else "")
                extra = f" [{c.detail}]" if c.detail else ""
                print(f"      {where}{extra}: {c.lhs} != {c.rhs}", file=out)
        verdict = "all identities hold" if passed else "FAILURES above"
        print(f"{verdict} (max_n={args.max_n}, genus={','.join(map(str, args.genus))})", file=out)
    elif args.format == "json":
        records = [{"name": r.name, "checks": r.count, "failed": len(r.failed),
                    "passed": r.passed, "failures": [c._asdict() for c in r.failed]}
                   for r in reports]
        _dump_json({"command": "verify", "max_n": args.max_n, "genus": args.genus,
                    "passed": passed, "reports": records}, out)
    else:
        summary = [[r.name, r.count, len(r.failed), r.passed] for r in reports]
        failures = [["FAILURE", c.identity, "" if c.g is None else c.g, c.n, c.detail, c.lhs,
                     c.rhs] for r in reports for c in r.failed]
        _emit("csv", out, {}, ["name", "checks", "failed", "passed"], summary + failures)
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
    except EnumerationCapError as err:
        hint = "" if err.fixed_by else "; raise the limit with --enum-cap"
        print(f"error: {err}{hint}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
