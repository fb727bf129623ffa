import subprocess
import sys

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
