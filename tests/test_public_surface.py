"""Package-wide checks: every exported name resolves, so a stale export fails
here and not in a user's import; no function rebinds a module's state; no
code sets mpmath's process-wide precision; and only the CLI sets Python's
int<->str digit limit."""

import ast
import importlib
import pkgutil
from pathlib import Path

import zetalab


def test_star_import_and_every_module_all_resolve():
    exec("from zetalab import *", {})
    for info in pkgutil.iter_modules(zetalab.__path__):
        module = importlib.import_module(f"zetalab.{info.name}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_no_function_rebinds_module_or_enclosing_state():
    # state that a global or nonlocal statement rebinds is shared by every
    # caller, threads included; memoize pure functions with functools instead
    found = []
    for path in sorted(Path(zetalab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_code_sets_mpmaths_process_wide_precision():
    # mpmath's context precision is shared by every thread; name the precision
    # of each operation (mpmath.libmp) instead of setting it
    found = []
    for path in sorted(Path(zetalab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("workdps", "workprec", "extradps"):
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in ("dps", "prec")
                        and "mp" in (getattr(target.value, "id", None), getattr(target.value, "attr", None))
                    ):
                        found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_cli_sets_the_int_str_digit_limit():
    # the limit is interpreter-wide: a library call that lifts and restores
    # it races every other thread, so the cache stores hexadecimal, which
    # the limit exempts, and only cli.main lifts it for a whole run
    found = []
    for path in sorted(Path(zetalab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "set_int_max_str_digits":
                    found.append(path.name)
    assert found and set(found) == {"cli.py"}, found
