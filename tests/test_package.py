import os
import subprocess
import sys
from pathlib import Path

import pytest

import kummerchi
from kummerchi import dd_partitions, kummer, partitions, series


def test_package_exports_every_module_list_once():
    modules = (partitions, dd_partitions, series, kummer)
    names = [name for module in modules for name in module.__all__]
    assert kummerchi.__all__ == [*names, "__version__"]
    assert len(set(kummerchi.__all__)) == len(kummerchi.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(kummerchi, name) is getattr(module, name)


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # a fresh interpreter: pytest itself imports all four; json and csv are imported
    # only by the branches that write those formats
    probe = ("import sys, kummerchi.cli; "
             "print(sorted({'dataclasses', 'inspect', 'json', 'csv'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _fresh(*args: str) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that finds this package."""
    src = str(Path(kummerchi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_importing_the_package_loads_no_module():
    probe = ("import sys, kummerchi; "
             "print(sorted(m for m in sys.modules if m.startswith('kummerchi.')))")
    assert _fresh("-c", probe).stdout == "[]\n"


@pytest.mark.parametrize("argv", [["--version"], ["pd", "--dim", "3", "--max-n", "3"]])
def test_version_and_pd_load_only_what_they_run(argv):
    # `python -m kummerchi argv`, then the modules it left in sys.modules, on stderr
    probe = ("import runpy, sys\n"
             "try:\n"
             "    runpy.run_module('kummerchi', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exit:\n"
             "    assert not exit.code, exit.code\n"
             "print(sorted({'kummerchi.cli', 'kummerchi.kummer', 'kummerchi.partitions',\n"
             "              'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)")
    proc = _fresh("-c", probe, *argv)
    assert proc.stdout.startswith("n  P_3(n)" if argv[0] == "pd" else "kummerchi ")
    assert proc.stderr == "['kummerchi.cli']\n"


def test_star_import_binds_every_public_name():
    probe = ("from kummerchi import *; import kummerchi; "
             "print([name for name in kummerchi.__all__ if name not in globals()])")
    assert _fresh("-c", probe).stdout == "[]\n"
