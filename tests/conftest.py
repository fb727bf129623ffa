"""Let a plain `pytest` run from a checkout without installing the package.

`pythonpath` in pyproject.toml covers this process; the subprocesses
the suite starts (`python -m kummerchi`) find `src` through PYTHONPATH.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
