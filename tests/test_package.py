import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import kummerchi
from kummerchi import boxsets, dd_partitions, kummer, layered, partitions, series, verify


def test_package_exports_every_module_list_once():
    modules = (partitions, dd_partitions, layered, boxsets, series, kummer, verify)
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


_START = {"kummerchi.cli", "kummerchi.dd_partitions", "kummerchi.series"}


@pytest.mark.parametrize("probe", ["from kummerchi import cli",
                                   "import kummerchi; assert hasattr(kummerchi, 'cli')"])
def test_cli_resolves_as_a_submodule_not_a_public_name(probe):
    # a public name is searched for through the modules up to its own; `cli` is no
    # public name, so that search would load all seven
    probe += ("\nimport sys; "
              "print(sorted(m for m in sys.modules if m.startswith('kummerchi.')))")
    assert _fresh("-c", probe).stdout == f"{sorted(_START)}\n"


_NAMES = [("c_value", {"kummerchi.partitions"}),
          ("check_enumeration_cap", {"kummerchi.partitions", "kummerchi.dd_partitions",
                                     "kummerchi.series"})]


@pytest.mark.parametrize("name, loaded", _NAMES, ids=[name for name, _ in _NAMES])
def test_a_public_name_loads_only_the_modules_up_to_its_own(name, loaded):
    # the search stops at the first module that exports the name
    probe = (f"import sys; from kummerchi import {name}; "
             "print(sorted(m for m in sys.modules if m.startswith('kummerchi.')\n"
             "             or m in ('fractions', 'decimal')))")
    assert _fresh("-c", probe).stdout == f"{sorted(loaded)}\n"


_FIRST_WORDS = {"--version": "kummerchi ", "pd": "n  P_", "table": "n  sigma2", "c-table": "partition",
                "verify": "PASS  "}
_LOADS = [
    (["--version"], _START),
    (["pd", "--dim", "3", "--max-n", "3"], _START | {"kummerchi.layered", "kummerchi.boxsets"}),
    (["pd", "--dim", "1", "--max-n", "3"], _START | {"kummerchi.boxsets"}),
    (["pd", "--dim", "2", "--max-n", "3"], _START | {"kummerchi.boxsets"}),
    (["table", "--max-n", "3"], _START | {"kummerchi.kummer"}),
    (["table", "--genus", "2", "--max-n", "3"],
     _START | {"kummerchi.kummer", "kummerchi.partitions"}),
    (["c-table", "--max-n", "3"], _START | {"kummerchi.kummer", "kummerchi.partitions"}),
    # g = 4 reads P_3, so the layered count and its DFS check load as well
    (["verify", "--max-n", "3", "--genus", "1,2,3,4"],
     {f"kummerchi.{name}" for name in kummerchi._MODULES} | {"kummerchi.cli"}),
]


@pytest.mark.parametrize("argv, loaded", _LOADS, ids=[" ".join(argv) for argv, _ in _LOADS])
def test_each_command_loads_only_what_it_runs(argv, loaded):
    # `python -m kummerchi argv`, then the package modules, `fractions` and `decimal`
    # it left in sys.modules, on stderr
    probe = ("import runpy, sys\n"
             "try:\n"
             "    runpy.run_module('kummerchi', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exit:\n"
             "    assert not exit.code, exit.code\n"
             "print(sorted(m for m in sys.modules if m.startswith('kummerchi.')\n"
             "             or m in ('fractions', 'decimal')), file=sys.stderr)")
    proc = _fresh("-c", probe, *argv)
    assert proc.stdout.startswith(_FIRST_WORDS[argv[0]])
    assert proc.stderr == f"{sorted(loaded)}\n"


def _imports(module: str) -> set[str]:
    """The package modules that `module`'s source imports, at the top or inside a function."""
    tree = ast.parse(Path(kummerchi.__file__).with_name(f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # the package imports itself relatively
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert not any(name.startswith("kummerchi") for name in names), (module, names)
    return found


def test_the_routes_and_their_checks_share_no_code_by_import():
    # the two P_d counts check each other, and route 3's logarithm checks route 2
    assert not _imports("layered") & {"boxsets", "series"}
    assert not _imports("boxsets") & {"layered", "series"}
    assert "series" not in _imports("partitions")
    routes = [m for m in kummerchi._MODULES if m != "verify"]
    assert {m: _imports(m) for m in routes if "verify" in _imports(m)} == {}
    assert _imports("verify") >= {"kummer", "partitions", "series"}  # the parser sees them


def test_star_import_binds_every_public_name():
    probe = ("from kummerchi import *; import kummerchi; "
             "print([name for name in kummerchi.__all__ if name not in globals()])")
    assert _fresh("-c", probe).stdout == "[]\n"


# CPython 3.11's parser doubles its token array at 2,048 tokens, and every command
# compiles `cli.py` from source, so the peak RSS of every command rises by about 0.1 MB
_CLI_TOKEN_CLIFF = 2048


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="tokenize splits f-strings from 3.12, so it counts more tokens")
def test_cli_stays_below_the_parsers_token_cliff():
    path = Path(kummerchi.__file__).with_name("cli.py")
    with path.open(encoding="utf-8") as source:
        count = sum(1 for token in tokenize.generate_tokens(source.readline)
                    if token.type not in (tokenize.COMMENT, tokenize.NL))
    assert count < _CLI_TOKEN_CLIFF, (
        f"cli.py has {count} tokens, at or past {_CLI_TOKEN_CLIFF}, where CPython 3.11's parser "
        "doubles its token array: every command compiles cli.py, so peak RSS rises by about 0.1 MB"
    )
