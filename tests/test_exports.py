"""Every name a module lists in `__all__` exists, so deleting a function or
class without its export fails here instead of at a user's import."""

import importlib
import pkgutil

import svns


def test_every_export_resolves():
    names = ["svns"] + [f"svns.{m.name}" for m in pkgutil.iter_modules(svns.__path__)]
    assert len(names) > 1
    missing = [f"{name}.{attr}" for name in names
               for attr in getattr(importlib.import_module(name), "__all__", ())
               if not hasattr(importlib.import_module(name), attr)]
    assert missing == []
