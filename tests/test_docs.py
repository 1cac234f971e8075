"""README names code that exists: every backticked ``module.name`` whose
module is one of the package's resolves to an attribute of it, and every
backticked ``smasp.module`` is a module of the package."""

import importlib
import pkgutil
import re
from pathlib import Path

import smasp

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = frozenset(m.name for m in pkgutil.iter_modules(smasp.__path__))
# a code span's leading dotted name
_DOTTED = re.compile(r"`([A-Za-z_]\w*)((?:\.[A-Za-z_]\w*)+)")


def _references(text):
    """``(module, dotted attribute path)`` of each span that names a
    package module."""
    found = []
    for module, path in _DOTTED.findall(text):
        if module == "smasp":  # named in full: ``smasp.trace``, ``smasp.trace.Trace``
            module, _, path = path[1:].partition(".")
            found.append((module, path))
        elif module in MODULES:
            found.append((module, path[1:]))
    return found


def _resolves(module, path):
    if module not in MODULES:
        return False
    value = importlib.import_module(f"smasp.{module}")
    for name in path.split(".") if path else ():
        if not hasattr(value, name):
            return False
        value = getattr(value, name)
    return True


def test_every_module_name_in_the_readme_resolves():
    references = _references(README.read_text(encoding="utf-8"))
    assert len(references) >= 36
    assert [f"{m}.{p}" for m, p in references if not _resolves(m, p)] == []


def test_a_stale_name_is_caught():
    text = "`engine.Walk.choose` and `smasp.trace.load_trace(text)`, `engine.no_such_name`, " \
           "`json.loads`, `lit.dual`, `smasp.oracles`, `smasp.rules`"
    references = _references(text)
    assert references == [("engine", "Walk.choose"), ("trace", "load_trace"),
                          ("engine", "no_such_name"), ("oracles", ""), ("rules", "")]
    assert [_resolves(m, p) for m, p in references] == [True, True, False, True, False]
