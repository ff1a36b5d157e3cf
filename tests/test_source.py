import ast
import os
import subprocess
import sys
from pathlib import Path

import k3lat

SOURCES = sorted(Path(k3lat.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # Guards must survive ``python -O``, which strips assert statements.
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_module_level_function_has_a_caller():
    # A function passes if its own module names it outside its definition,
    # or another module imports it (``from .m import f``) or reaches it as ``m.f``.
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    named = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != own:
                    named.add((module, node.id))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    named.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    named.add((node.value.id, node.attr))
    uncalled = [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and (module, stmt.name) not in named
    ]
    assert uncalled == []


def test_import_does_not_load_numpy():
    # numpy is no dependency; importing it would cost every CLI start
    code = "import sys, k3lat; print('numpy' in sys.modules)"
    src = str(Path(k3lat.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
