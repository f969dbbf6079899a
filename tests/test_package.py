"""Properties of the package sources as a whole."""

import ast
import contextlib
import importlib
import io
import os
import pkgutil
import subprocess
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


def test_cli_import_leaves_out_dataclasses_and_fractions():
    # both are slow to import (dataclasses pulls in inspect, ast and dis;
    # fractions pulls in decimal), and every invocation imports the CLI
    src = str(Path(bruhatkl.__file__).parent.parent)
    code = ("import sys, bruhatkl.cli; bruhatkl.cli.build_parser(); "
            "print(sorted({'dataclasses', 'fractions'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


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


def test_every_import_is_used_or_exported():
    # so a deletion cannot leave a dead import behind
    dead = []
    for path in sorted(Path(bruhatkl.__file__).parent.glob("*.py")):
        imported, used = [], set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0]
                             for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used.update(ast.literal_eval(node.value))
        dead += ["%s: %s" % (path.name, name) for name in imported
                 if name not in used]
    assert dead == []


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Python quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == [
        "R = q^3 - 2q^2 + 2q - 1", "P = 1", "5 3", "True"]
