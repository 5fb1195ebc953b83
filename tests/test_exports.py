import importlib
import pkgutil

import adet


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks only
    # `from adet import *`, which nothing else in the suite runs
    modules = [adet] + [importlib.import_module(f"adet.{m.name}")
                        for m in pkgutil.iter_modules(adet.__path__)]
    missing = [(mod.__name__, name) for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing
    assert len(adet.__all__) == len(set(adet.__all__))
