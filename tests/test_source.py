import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import k3lat
from k3lat.errors import InconsistentDataError
from k3lat.genus import GenusSpec, ReducedForm
from k3lat.intmat import IntMatrix, smith_normal_form
from k3lat.lattices import ADEConfig, RootComponent
from k3lat.pipeline import ActionRecord, discriminant_chain, shipped_records, tables_disjoint

SOURCES = sorted(Path(k3lat.__file__).parent.glob("*.py"))
SRC = str(Path(k3lat.__file__).parent.parent)


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
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
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


def _imported_names(node):
    """Dotted names an import statement binds or reads from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
    return []


def test_package_avoids_costly_stdlib_imports():
    # Without cached bytecode, dataclasses (with inspect, dis, ast and
    # tokenize), typing and importlib.resources each add milliseconds to every
    # fresh k3lat process; fractions (with decimal) only discforms needs.
    def costly(name, module):
        top = name.split(".")[0]
        return (top in ("dataclasses", "typing") or name.startswith("importlib.resources")
                or (top == "fractions" and module != "discforms"))

    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        for name in _imported_names(node)
        if costly(name, path.stem)
    ]
    assert found == []


def _run_without_site(code, *argv):
    """Run ``code`` in a fresh interpreter without ``site`` and return its
    stdout.  Without ``site`` no ``.pth`` hook preloads modules, so what the
    code imports shows in ``sys.modules`` whatever is installed."""
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": SRC})
    return proc.stdout


@functools.lru_cache(maxsize=None)
def _bare_modules():
    return frozenset(_run_without_site("import sys; print(' '.join(sys.modules))").split())


def _fresh_cli(*argv):
    """Run ``k3lat.cli.main`` in a fresh interpreter: (exit code, stdout,
    the heavy submodules it loaded, the other modules it loaded that a bare
    interpreter does not, ``k3lat`` and this harness's own imports included)."""
    code = ("import contextlib, io, json, sys\n"
            "from k3lat.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(sys.argv[1:])\n"
            "print(json.dumps([code, out.getvalue(), sorted(sys.modules)]))\n")
    code, out, loaded = json.loads(_run_without_site(code, *argv))
    heavy = [m for m in ("k3lat.discforms", "k3lat.genus", "k3lat.groups") if m in loaded]
    extra = sorted(set(loaded) - _bare_modules())
    return code, out, heavy, extra


# invariants exits 2 on the shipped A6 and M20 records, which lack h3_order
@pytest.mark.parametrize("argv, exit_code", [
    (["--json", "tables"], 0),
    (["--json", "invariants"], 2),
    (["--json", "--seed", "3", "verify"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_cli_commands_do_not_load_discforms_genus_or_groups(argv, exit_code):
    code, out, heavy, extra = _fresh_cli(*argv)
    assert code == exit_code
    assert json.loads(out)
    assert heavy == []
    costly = {"dataclasses", "inspect", "fractions", "decimal", "typing",
              "importlib.resources"}
    assert costly & set(extra) == set()
    assert "k3lat.pipeline" in extra


def test_cli_loads_what_h3_and_genus_need(tmp_path):
    c3 = tmp_path / "c3.json"
    c3.write_text(json.dumps({"cayley": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    code, out, heavy, _ = _fresh_cli("--json", "h3", str(c3))
    assert (code, json.loads(out)) == (0, {"order": 3, "h3_invariant_factors": []})
    assert heavy == ["k3lat.groups"]
    code, out, heavy, extra = _fresh_cli("--json", "genus", "--rank", "3", "--det", "84")
    assert code == 0 and json.loads(out)["count"] > 0
    assert heavy == ["k3lat.discforms", "k3lat.genus"]
    assert "fractions" in extra and "dataclasses" not in extra


def _record_instances():
    c2 = next(r for r in shipped_records() if r.name == "C2")
    return [
        (smith_normal_form(IntMatrix([[2, 0], [0, 4]])),
         "SmithForm(d=(2, 4), u=IntMatrix([[1, 0], [0, 1]]), v=IntMatrix([[1, 0], [0, 1]]))"),
        (RootComponent("A", 2), "RootComponent(kind='A', n=2)"),
        (ADEConfig.parse("A1,D4"),
         "ADEConfig(components=(RootComponent(kind='D', n=4), RootComponent(kind='A', n=1)))"),
        (ActionRecord("x", 2, None, ADEConfig.parse("A1"), 1, None),
         "ActionRecord(name='x', group_order=2, census=None, config=ADEConfig(components="
         "(RootComponent(kind='A', n=1),)), glue_index=1, h3_order=None, provenance='')"),
        (discriminant_chain(c2),
         "InvariantReport(name='C2', rank_sg=8, rank_h2g=14, d_k=256, d_m=64, d_j=-256, "
         "d_h2g=-256, d_sg=256, xiao_ok=True, rank_cross_ok=True, sign_ok=True, notes=(), "
         "assumption='index [H2(X)^G : J] taken equal to |H3(G,Z)| (exact transfer sequence)')"),
        (ReducedForm(((2, 1), (1, 2))), "ReducedForm(gram=((2, 1), (1, 2)))"),
        (GenusSpec(2, 3), "GenusSpec(rank=2, det=3, disc=None)"),
    ]


def test_records_are_immutable_and_print_as_before():
    # the repr strings are those the frozen dataclasses printed
    records = _record_instances()
    assert len({type(rec) for rec, _ in records}) == 7
    for rec, text in records:
        assert repr(rec) == text
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert rec == type(rec)(*rec)


def test_record_equality_hashing_and_order():
    assert ADEConfig.parse("A1,A2") == ADEConfig.parse("A2,A1")
    assert hash(ADEConfig.parse("A1,A2")) == hash(ADEConfig.parse("A2,A1"))
    # the torus configuration 4*A3,6*A1 written in another order is still found
    assert tables_disjoint() is True
    assert tables_disjoint([ADEConfig.parse("6*A1,4*A3")]) is False
    a1, a3, d4, e6 = (RootComponent(k, n) for k, n in (("A", 1), ("A", 3), ("D", 4), ("E", 6)))
    assert sorted([e6, d4, a3, a1]) == [a1, a3, d4, e6]
    s4 = next(r for r in shipped_records() if r.name == "S4")
    assert s4.with_values(h3_order=4).h3_order == 4 and s4.h3_order == 2
    with pytest.raises(InconsistentDataError, match="glue_index"):
        s4.with_values(glue_index=5)
