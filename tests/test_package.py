"""Properties of the package sources as a whole."""

import ast
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
