import ast
import importlib
import pkgutil
from pathlib import Path

import cauchydos


def test_every_all_name_resolves():
    # a stale __all__ entry breaks `from module import *` without failing any other test
    modules = [cauchydos] + [importlib.import_module(f"cauchydos.{info.name}")
                             for info in pkgutil.iter_modules(cauchydos.__path__)]
    assert len(modules) > 1
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


def _imported_names(module_name):
    """Every name part that an import statement of a cauchydos module mentions."""
    source = (Path(cauchydos.__file__).parent / f"{module_name}.py").read_text()
    parts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                parts.update(alias.name.split("."))
    return parts


def test_sampled_and_exact_routes_import_nothing_from_each_other():
    # the Lloyd identity is verified by comparing the two routes, which only means
    # something while neither computes any part of the other
    for sampled in ("ensemble", "spectra"):
        assert "free_models" not in _imported_names(sampled), sampled
    assert not {"ensemble", "spectra"} & _imported_names("free_models")
