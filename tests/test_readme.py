"""Every `$ kummerchi ...` example in README.md that shows output is run and compared.

Each example runs as `python -m kummerchi ...` in a fresh process.  Its
stdout must equal the lines shown, byte for byte; a shown line that
starts with "error:" is the expected stderr, and the exit code is then
the cap refusal's.  Examples that show no output are skipped.
"""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kummerchi.cli import EXIT_CAP, EXIT_OK
from kummerchi.dd_partitions import _LAYERED_CAPS, _PRODUCT_CAP

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(argv, stdout lines, stderr lines) for each example that shows output."""
    examples, current, in_block = [], None, False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ kummerchi "):
            current = (shlex.split(line[2:], comments=True)[1:], [], [])
            examples.append(current)
        elif current is not None and line:
            current[2 if line.startswith("error:") else 1].append(line)
    return [e for e in examples if e[1] or e[2]]


EXAMPLES = readme_examples()


def test_readme_has_examples():
    commands = {argv[0] for argv, _, _ in EXAMPLES}
    assert commands == {"table", "c-table", "pd", "verify"}


@pytest.mark.parametrize(
    "argv, out, err", EXAMPLES, ids=[" ".join(argv) for argv, _, _ in EXAMPLES]
)
def test_readme_example(argv, out, err):
    proc = subprocess.run(
        [sys.executable, "-m", "kummerchi", *argv], capture_output=True, check=False
    )
    expected_out = "".join(f"{line}\n" for line in out)
    assert proc.stdout.decode() == expected_out
    assert proc.stderr.decode().splitlines() == err
    assert proc.returncode == (EXIT_CAP if err else EXIT_OK)


def test_readme_cap_table_matches_the_caps():
    rows = {}
    for line in README.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[0] in ("d", "largest n"):
            rows[cells[0]] = [int(cell) for cell in cells[1:]]
    assert dict(zip(rows["d"], rows["largest n"])) == _LAYERED_CAPS
    assert len(rows["d"]) == len(rows["largest n"])
    assert f"refuse n above {_PRODUCT_CAP} at once" in " ".join(README.read_text().split())
