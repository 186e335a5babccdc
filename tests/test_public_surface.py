"""Every exported name resolves, so a stale export fails here and not in a user's import."""

import importlib
import pkgutil

import zetalab


def test_star_import_and_every_module_all_resolve():
    exec("from zetalab import *", {})
    for info in pkgutil.iter_modules(zetalab.__path__):
        module = importlib.import_module(f"zetalab.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (info.name, missing)
