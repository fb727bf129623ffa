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
