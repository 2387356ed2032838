"""Importing the package stays cheap.

Most CLI calls do milliseconds of work, so start-up dominates them.
``import gcdperm`` and ``import gcdperm.cli`` load none of ``dataclasses``
(which pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``), ``inspect``,
``fractions`` or ``decimal``: the result records are ``NamedTuple``s, the
suite flags come from ``__kwdefaults__``, and the few functions that build
exact rationals import ``Fraction`` when they run.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gcdperm

HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}
PACKAGE = Path(gcdperm.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
# Every layer module; the benchmark's tracer finds them in sys.modules
# after ``import gcdperm.cli``.
LAYERS = {f"gcdperm.{m}" for m in
          ("primes", "sequence", "records", "classify", "cycles", "primorial", "suites", "cli")}


def _modules_after(statement: str) -> set[str]:
    """sys.modules of a fresh interpreter, started like the others, after statement."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    return set(out.split())


def test_import_loads_no_heavy_stdlib_module():
    bare = _modules_after("pass")
    package = _modules_after("import gcdperm")
    cli = _modules_after("import gcdperm.cli")
    assert "gcdperm" in package and LAYERS <= cli
    assert (package - bare) & HEAVY == set()
    assert (cli - bare) & HEAVY == set()


def _import_time_imports(body):
    """Top-level module names imported by statements that run at import: the
    module body and any block or class body in it, but not function bodies
    or ``if TYPE_CHECKING:`` blocks."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) \
                and node.test.id == "TYPE_CHECKING":
            yield from _import_time_imports(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.partition(".")[0]
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _import_time_imports(getattr(node, field, []))


def test_no_module_imports_heavy_stdlib_at_top_level():
    offenders = {
        p.name: sorted(set(_import_time_imports(ast.parse(p.read_text(encoding="utf-8")).body))
                       & HEAVY)
        for p in SOURCES
    }
    assert {name: mods for name, mods in offenders.items() if mods} == {}


def test_the_guard_sees_import_time_statements():
    tree = ast.parse(
        "import inspect\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from fractions import Fraction\n"
        "else:\n    import decimal\n"
        "try:\n    import dataclasses.x\nexcept ImportError:\n    import ast\n"
        "class C:\n    import json\n"
        "def f():\n    import fractions\n"
    )
    assert list(_import_time_imports(tree.body)) == [
        "inspect", "typing", "decimal", "dataclasses", "ast", "json"
    ]
