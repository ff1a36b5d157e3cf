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


def test_import_does_not_load_numpy():
    # numpy is no dependency; importing it would cost every CLI start
    code = "import sys, k3lat; print('numpy' in sys.modules)"
    src = str(Path(k3lat.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
