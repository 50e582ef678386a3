"""The package surface: every name a module lists in `__all__` resolves."""

import importlib
import pkgutil

import nullgeom


def test_every_exported_name_resolves():
    declaring = []
    for info in pkgutil.iter_modules(nullgeom.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"nullgeom.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        declaring.append(info.name)
        assert len(set(names)) == len(names), info.name
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], (info.name, missing)
    assert sorted(declaring) == ["cli", "conformal", "nullcone", "scenes", "spacetime"]
