import importlib
import pkgutil

import adet

MODULES = [importlib.import_module(f"adet.{m.name}") for m in pkgutil.iter_modules(adet.__path__)]
EXPORTING = [mod for mod in MODULES if hasattr(mod, "__all__")]


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks only
    # `from adet import *`, which nothing else in the suite runs
    missing = [(mod.__name__, name) for mod in [adet] + MODULES
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing
    assert len(adet.__all__) == len(set(adet.__all__))


def test_package_exports_the_union_of_module_exports():
    # the package star-imports each module, so a name in two modules' __all__
    # would be shadowed silently by the later import
    owners = {}
    for mod in EXPORTING:
        for name in mod.__all__:
            owners.setdefault(name, []).append(mod.__name__)
    assert not {n: m for n, m in owners.items() if len(m) > 1}
    assert sorted(adet.__all__) == sorted([*owners, "errors"])
    assert adet.errors is importlib.import_module("adet.errors")
    for mod in EXPORTING:
        for name in mod.__all__:
            assert getattr(adet, name) is getattr(mod, name), (mod.__name__, name)
