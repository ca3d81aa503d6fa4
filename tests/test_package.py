import importlib
import pkgutil

import cauchydos


def test_every_all_name_resolves():
    # a stale __all__ entry breaks `from module import *` without failing any other test
    modules = [cauchydos] + [importlib.import_module(f"cauchydos.{info.name}")
                             for info in pkgutil.iter_modules(cauchydos.__path__)]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
