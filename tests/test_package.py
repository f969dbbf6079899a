"""Properties of the package sources as a whole."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import bruhatkl


def test_runtime_imports_only_the_standard_library():
    # sys.stdlib_module_names needs 3.10, the requires-python floor
    sources = sorted(Path(bruhatkl.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: import %s" % (path.name, name) for name in names
                        if name.partition(".")[0]
                        not in sys.stdlib_module_names]
    assert outside == []


def test_every_name_in_all_exists():
    # a stale entry makes "from <module> import *" raise
    missing = []
    for info in pkgutil.iter_modules(bruhatkl.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module("bruhatkl." + info.name)
        missing += ["%s.%s" % (info.name, name)
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    missing += [name for name in bruhatkl.__all__
                if not hasattr(bruhatkl, name)]
    assert missing == []
