"""Output checks for every benchmark invocation, against oracles of the benchmark's own.

None of these reuse the package: the divisor sums, the partition
generator, the closed form for c(alpha) and the solid-partition table
live here, so a change to the program cannot also change what it is
checked against.

* table:   chi = n^5 sigma_2(n) at g=3 and n^3 sigma_1(n) at g=2,
           s = chi / n^(2g), dt = (-1)^(n+1) s, sigma2 = sigma_2(n).
* c-table: one row per partition of n, c(alpha) = n (-1)^(l-1) (l-1)! /
           prod_i alpha_i! with l the number of parts, and a footer
           saying the sum equals sigma_2(n) and "ok".
* pd:      d = 3 only, against the table below; the rows with n <= 12
           must say they were cross-checked and the others must not.
* verify:  exit 0, every report passed, each with its expected number
           of checks.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

# P_3(0..16), solid partitions, generated with `pd --dim 3 --max-n 16`;
# the values for n <= 12 were cross-checked by the DFS counter.
SOLID_PARTITIONS = (
    1, 1, 4, 10, 26, 59, 140, 307, 684, 1464, 3122, 6500, 13426, 27248, 54804,
    108802, 214071,
)
SOLID_CROSS_CHECK_CAP = 12


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def sigma(k: int, n: int) -> int:
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def _partitions(n: int, largest: int | None = None):
    """Every partition of n as a weakly decreasing tuple of parts."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def c_closed_form(n: int, mult: dict[int, int]) -> Fraction:
    length = sum(mult.values())
    return Fraction(n * (-1) ** (length - 1) * factorial(length - 1),
                    prod(factorial(m) for m in mult.values()))


@lru_cache(maxsize=None)
def single_step_checks(max_n: int) -> int:
    """How many checks `verify` reports under single-step for this max_n."""
    total = 0
    for n in range(1, max_n + 1):
        for parts in _partitions(n):
            if len(parts) >= 2:
                total += 2 * len(set(parts)) + 1
    return total


def _options(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def _lines(out: str) -> list[str]:
    lines = out.splitlines()
    _expect(bool(lines), "empty output")
    return lines


def _rows(fmt: str, out: str, header: list[str], json_head: dict, json_keys: list[str]):
    """Rows as lists of strings, in the order printed, from any of the three formats."""
    if fmt == "json":
        payload = json.loads(out)
        _expect(all(payload[k] == v for k, v in json_head.items()), "json header")
        return [[_json_cell(row[k]) for k in json_keys] for row in payload["rows"]]
    lines = _lines(out)
    if fmt == "csv":
        rows = list(csv.reader(lines))
        _expect(rows[0] == header, f"csv header {rows[0]}")
        return rows[1:]
    _expect(lines[0].split() == header, f"text header {lines[0]!r}")
    return [line.split() for line in lines[1:]]


def _json_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _check_table(opts: dict[str, str], out: str) -> None:
    g = int(opts.get("--genus", "3"))
    max_n = int(opts["--max-n"])
    _expect(g in (2, 3), f"no oracle for genus {g}")
    header = ["n", "sigma2", "chi", "dt", "s"]
    rows = _rows(opts.get("--format", "text"), out, header,
                 {"command": "table", "genus": g, "max_n": max_n}, header)
    _expect(len(rows) == max_n, f"{len(rows)} rows for max-n {max_n}")
    for n, row in enumerate(rows, start=1):
        s2 = sigma(2, n)
        chi = n**5 * s2 if g == 3 else n**3 * sigma(1, n)
        s = Fraction(chi, n ** (2 * g))
        want = [str(n), str(s2), str(chi), str(s if n % 2 else -s), str(s)]
        _expect(row == want, f"table row {n}: {row} != {want}")


def _check_c_table(opts: dict[str, str], out: str) -> None:
    n = int(opts["--max-n"])
    fmt = opts.get("--format", "text")
    s2 = sigma(2, n)
    if fmt == "json":
        payload = json.loads(out)
        _expect((payload["command"], payload["n"]) == ("c-table", n), "json header")
        rows = [(r["partition"], str(r["c"])) for r in payload["rows"]]
        check = payload["sigma2_check"]
        _expect(check == {"sum": s2, "sigma2": s2, "ok": True}, f"footer {check}")
    else:
        lines = _lines(out)
        footer = lines.pop()
        if fmt == "csv":
            want = f"# sum c*prod P2 = {s2}, sigma2({n}) = {s2}, ok"
            rows = [tuple(r) for r in csv.reader(lines)]
            _expect(rows.pop(0) == ("partition", "c"), "csv header")
        else:
            want = f"sum c(alpha) * prod P2(i)^alpha_i = {s2}; sigma2({n}) = {s2}; ok"
            _expect(lines.pop(0).split() == ["partition", "c"], "text header")
            rows = [(" ".join(t[:-1]), t[-1]) for t in (line.split() for line in lines)]
        _expect(footer == want, f"footer {footer!r}")
    labels = {label for label, _ in rows}
    expected = {" ".join(f"{i}^{parts.count(i)}" for i in sorted(set(parts)))
                for parts in _partitions(n)}
    _expect(len(rows) == len(labels) and labels == expected,
            f"{len(rows)} rows, not each partition of {n} once")
    for label, c in rows:
        mult = dict(tuple(map(int, term.split("^"))) for term in label.split())
        want = c_closed_form(n, mult)
        _expect(want.denominator == 1 and c == str(want), f"c({label}) = {c}, closed form {want}")


def _check_pd(opts: dict[str, str], out: str) -> None:
    d = int(opts.get("--dim", "2"))
    max_n = int(opts["--max-n"])
    _expect(d == 3 and max_n < len(SOLID_PARTITIONS), f"no oracle for d={d}, n={max_n}")
    fmt = opts.get("--format", "text")
    keys = ["n", "count", "cross_checked"]
    header = ["n", f"P_{d}(n)", "cross-checked"] if fmt == "text" else keys
    rows = _rows(fmt, out, header, {"command": "pd", "dim": d, "max_n": max_n}, keys)
    want = [[str(n), str(SOLID_PARTITIONS[n]), "yes" if n <= SOLID_CROSS_CHECK_CAP else "no"]
            for n in range(max_n + 1)]
    _expect(rows == want, f"pd rows {rows} != {want}")


def _check_verify(opts: dict[str, str], out: str) -> None:
    max_n = int(opts["--max-n"])
    genus = [int(g) for g in opts.get("--genus", "1,2,3").split(",")]
    want = [("sigma2-convolution", max_n), ("single-step", single_step_checks(max_n))]
    for g in genus:
        want.append((f"chi-series(g={g})", 2 * max_n + (max_n if g == 3 else 0)))
        want.append((f"first-order(g={g})", max_n + 1))
    fmt = opts.get("--format", "text")
    if fmt == "json":
        payload = json.loads(out)
        _expect(payload["passed"] is True, "json says not passed")
        got = [(r["name"], r["checks"]) for r in payload["reports"]]
        _expect(all(r["passed"] and r["failed"] == 0 and not r["failures"]
                    for r in payload["reports"]), "a report failed")
    elif fmt == "csv":
        rows = list(csv.reader(_lines(out)))
        _expect(rows[0] == ["name", "checks", "failed", "passed"], "csv header")
        _expect(all(r[2:] == ["0", "True"] for r in rows[1:]), "a report failed")
        got = [(r[0], int(r[1])) for r in rows[1:]]
    else:
        lines = _lines(out)
        verdict = f"all identities hold (max_n={max_n}, genus={','.join(map(str, genus))})"
        _expect(lines[-1] == verdict, f"verdict {lines[-1]!r}")
        got = []
        for line in lines[:-1]:
            status, name, count = line.split(None, 2)
            _expect(status == "PASS", f"{line!r}")
            got.append((name, int(count.strip("()").split()[0])))
    _expect(got == want, f"reports {got} != {want}")


def _check_version(opts: dict[str, str], out: str) -> None:
    _expect(out.startswith("kummerchi "), f"version line {out!r}")


_CHECKERS = {
    "table": _check_table,
    "c-table": _check_c_table,
    "pd": _check_pd,
    "verify": _check_verify,
    "--version": _check_version,
}


def check(argv: list[str], exit_code: int | None, stdout: bytes) -> str | None:
    """None when the invocation succeeded with correct output, else why not."""
    if exit_code != 0:
        return "timed out" if exit_code is None else f"exit code {exit_code}"
    try:
        _CHECKERS[argv[0]](_options(argv), stdout.decode())
    except (Mismatch, ValueError, KeyError, IndexError, TypeError) as err:
        return f"{type(err).__name__}: {err}"
    return None
