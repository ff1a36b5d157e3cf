import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    # another module imports it (``from .m import f``) or reaches it as ``m.f``,
    # or the package's export table maps it to its module (``"f": "m"``).
    # Dunder hooks such as the package's ``__getattr__`` are called by Python.
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
    for node in ast.walk(trees["__init__"]):
        if isinstance(node, ast.Dict):
            named.update((v.value, k.value) for k, v in zip(node.keys, node.values)
                         if isinstance(k, ast.Constant) and isinstance(v, ast.Constant))
    uncalled = [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and (module, stmt.name) not in named
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    ]
    assert uncalled == []


def test_import_does_not_load_numpy():
    # numpy is no dependency; importing it would cost every CLI start
    code = "import sys, k3lat; print('numpy' in sys.modules)"
    src = str(Path(k3lat.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# Every name ``k3lat`` exported when it still imported them eagerly.
PUBLIC_NAMES = {
    "discforms": ["FiniteQuadraticForm", "are_isomorphic", "disc_form", "element_fingerprint",
                  "isotropic_subgroups", "negate", "orthogonal_sum", "overlattice_disc",
                  "p_primary_parts"],
    "genus": ["GenusSpec", "ReducedForm", "enumerate_reduced", "genus_class_count",
              "is_isometric", "short_vectors"],
    "groups": ["FiniteGroup", "h3_bar_resolution", "order_census"],
    "intmat": ["IntMatrix", "SmithForm", "det_exact", "invariant_factors", "smith_normal_form"],
    "lattices": ["ADEConfig", "GramLattice", "RootComponent", "ade_lattice", "config_lattice",
                 "det_sign", "direct_sum", "disc_group", "is_negative_definite",
                 "is_positive_definite", "rescale", "stabilizer_order"],
    "pipeline": ["DEFAULT_FIXED_POINT_PROFILE", "ActionRecord", "InvariantReport",
                 "derive_fixed_point_profile", "discriminant_chain", "glue_quotient_order",
                 "rank_from_config", "rank_from_group", "records_to_json", "shipped_records",
                 "tables_disjoint", "torus_quotient_tables", "xiao_consistency"],
}


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_public_names_resolve_to_their_submodule_objects(module):
    sub = importlib.import_module(f"k3lat.{module}")
    for name in PUBLIC_NAMES[module]:
        namespace = {}
        exec(f"from k3lat import {name}", namespace)
        assert namespace[name] is getattr(sub, name) is getattr(k3lat, name)
        assert name in k3lat.__all__ and name in dir(k3lat)


def test_unknown_public_name_is_refused():
    with pytest.raises(AttributeError, match="no_such_name"):
        k3lat.no_such_name
    with pytest.raises(ImportError):
        exec("from k3lat import no_such_name", {})


def _fresh_cli(*argv):
    """Run ``k3lat.cli.main`` in a fresh interpreter: (exit code, stdout,
    the heavy submodules it loaded)."""
    code = ("import contextlib, io, json, sys\n"
            "from k3lat.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(sys.argv[1:])\n"
            "heavy = [m for m in ('k3lat.discforms', 'k3lat.genus', 'k3lat.groups')\n"
            "         if m in sys.modules]\n"
            "print(json.dumps([code, out.getvalue(), heavy]))\n")
    src = str(Path(k3lat.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(proc.stdout)


# invariants exits 2 on the shipped A6 and M20 records, which lack h3_order
@pytest.mark.parametrize("argv, exit_code", [
    (["--json", "tables"], 0),
    (["--json", "invariants"], 2),
    (["--json", "--seed", "3", "verify"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_commands_do_not_load_discforms_genus_or_groups(argv, exit_code):
    code, out, heavy = _fresh_cli(*argv)
    assert code == exit_code
    assert json.loads(out)
    assert heavy == []


def test_cli_loads_what_h3_and_genus_need(tmp_path):
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({"cayley": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    code, out, heavy = _fresh_cli("--json", "h3", str(c3))
    assert (code, json.loads(out)) == (0, {"order": 3, "h3_invariant_factors": []})
    assert heavy == ["k3lat.groups"]
    code, out, heavy = _fresh_cli("--json", "genus", "--rank", "3", "--det", "84")
    assert code == 0 and json.loads(out)["count"] > 0
    assert heavy == ["k3lat.discforms", "k3lat.genus"]
