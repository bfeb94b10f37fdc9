"""Source hygiene that needs no linter: no module imports a name it neither
uses nor exports through its __all__, no module defines a private
top-level function, class or assigned constant that no library code
reads (a helper that only tests call is dead, and an assignment does not
count as a read of its own name), no top-level function or class is defined
in two modules, no check is a bare `assert`, which `python -O` strips, no
decision rests on mpmath's floating-point linear algebra, no module
imports mpmath when it is imported (only `cyclo.real_embed` loads it, on
its first call, and without mpmath it raises an ImportError that names the
`embed` extra), `cyclo`, the bottom layer, imports no other verlkit module,
no module but `cyclo` imports or calls the coordinate
internals `_lift`, `_raw`, `_cond`, `_substitute` and `_unpack` (exponent
lookups and rotations stay behind `cyclo`'s helpers), no module but `cyclo`
calls `to_bytes` or `from_bytes` or imports `struct` or `array` (the slot
layout of a packed integer is `cyclo`'s decision), no module but `fusion` reads a
fusion ring's stored rules `_rules`, only `exactla._Frozen` and
`cyclo.CycNumber` refuse writes, copy and pickle for their own kind of value
(besides `repring.QuaternionGroup`'s `__reduce__`), and other code writes
past `_Frozen` only into a lazy slot, and every module states its
public names in a literal __all__ that lists every public top-level
function and class it defines and names nothing it neither defines nor
imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import verlkit

MODULES = sorted(Path(verlkit.__file__).parent.glob("*.py"))


def _unused_imports(tree):
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def _references(paths):
    """Names read as a variable or an attribute, or from-imported, anywhere."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
    return names


REFERENCES = _references(MODULES)


def _definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _assigned_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }


def _private_definitions(path):
    return {
        name
        for name in _definitions(path) | _assigned_names(path)
        if name.startswith("_") and not name.endswith("__")
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_definitions(path):
    assert sorted(_private_definitions(path) - REFERENCES) == []


def test_no_definition_in_two_modules():
    # one implementation per idea: a function or class shared by two modules
    # lives in one and is imported (and, if public, re-exported) by the other
    where = {}
    for path in MODULES:
        for name in _definitions(path):
            where.setdefault(name, []).append(path.name)
    assert {name: paths for name, paths in where.items() if len(paths) > 1} == {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_asserts(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


MPMATH_LINEAR_ALGEBRA = {"eigsy", "eig", "eighe", "matrix", "lu_solve"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_mpmath_linear_algebra(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = [
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id == "mpmath"
        and n.attr in MPMATH_LINEAR_ALGEBRA
    ]
    used += [
        a.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == "mpmath"
        for a in n.names
        if a.name in MPMATH_LINEAR_ALGEBRA
    ]
    assert used == []


def _import_time_nodes(tree):
    """Nodes that run when the module is imported: not function bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_mpmath_import_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        n.lineno
        for n in _import_time_nodes(tree)
        if isinstance(n, ast.Import) and any(a.name.split(".")[0] == "mpmath" for a in n.names)
        or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "mpmath"
    ]
    assert found == []


def test_library_work_leaves_mpmath_unloaded():
    script = """
import sys
import verlkit.cyclo, verlkit.exactla, verlkit.fusion, verlkit.modinv, verlkit.polyring, verlkit.repring
from verlkit.modinv import ade_graph, enumerate_invariants, nimrep_from_graph
enumerate_invariants(10)
nimrep_from_graph(ade_graph("E6")[0], 10)
print("mpmath" in sys.modules)
from verlkit.cyclo import real_embed, sqrt_int
print(float(real_embed(sqrt_int(2)).real) == 2 ** 0.5)
"""
    src = str(Path(verlkit.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert out.stdout.split() == ["False", "True"]


def test_real_embed_without_mpmath_names_the_extra():
    script = """
import sys
sys.modules["mpmath"] = None
from verlkit.cyclo import real_embed, sqrt_int
from verlkit.modinv import enumerate_invariants
print(len(enumerate_invariants(10)))
try:
    real_embed(sqrt_int(2))
except ImportError as err:
    print(err)
"""
    src = str(Path(verlkit.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert out.stdout.splitlines() == ["3", "real_embed needs mpmath: install verlkit[embed]"]


def test_cyclo_imports_no_other_verlkit_module():
    tree = ast.parse((Path(verlkit.__file__).parent / "cyclo.py").read_text())
    found = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and (n.level or (n.module or "").startswith("verlkit"))
        or isinstance(n, ast.Import) and any(a.name.startswith("verlkit") for a in n.names)
    ]
    assert found == []


def _uses(path, names):
    """(line, name) for each import, attribute or variable in `names`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (n.lineno, name)
        for n in ast.walk(tree)
        for name in (
            [a.name for a in n.names] if isinstance(n, ast.ImportFrom)
            else [n.attr] if isinstance(n, ast.Attribute)
            else [n.id] if isinstance(n, ast.Name)
            else []
        )
        if name in names
    ]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "cyclo.py"], ids=lambda p: p.name
)
def test_cyclo_coordinate_internals_stay_in_cyclo(path):
    assert _uses(path, {"_lift", "_raw", "_cond", "_substitute", "_unpack"}) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "cyclo.py"], ids=lambda p: p.name
)
def test_slot_layout_stays_in_cyclo(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Import) and any(a.name in ("array", "struct") for a in n.names)
        or isinstance(n, ast.ImportFrom) and n.module in ("array", "struct")
    ]
    assert imported == [] and _uses(path, {"to_bytes", "from_bytes"}) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "fusion.py"], ids=lambda p: p.name
)
def test_fusion_rule_storage_stays_in_fusion(path):
    # how a FusionRing stores its products is fusion's own decision
    assert _uses(path, {"_rules"}) == []


def _class_members(names):
    """(module, class) for each class body that defines or assigns one of `names`."""
    found = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defined = {item.name}
                    else:
                        defined = {t.id for t in getattr(item, "targets", []) if isinstance(t, ast.Name)}
                    if defined & names:
                        found.add((path.stem, node.name))
    return found


def test_immutability_idiom_lives_in_one_base():
    # every immutable value but CycNumber (cyclo imports no verlkit module) is a _Frozen
    frozen = {("exactla", "_Frozen"), ("cyclo", "CycNumber")}
    assert _class_members({"__setattr__", "__delattr__"}) == frozen
    assert _class_members({"__reduce__"}) == frozen | {("repring", "QuaternionGroup")}
    writes = [
        (path.stem, ast.unparse(node.args[1]))
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
    ]
    lazy = {"'_hash'", "'_times'", "'_matrices'", "'_dense'"}
    # the one write by a variable name is _Frozen._fill's
    assert [w for w in writes if w[1] not in lazy] == [("exactla", "name")]


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_module_declares_all(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    declared = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    assert len(declared) == 1, "no single top-level __all__"
    names = ast.literal_eval(declared[0])
    assert names and sorted(set(names) - _top_level_names(tree)) == []
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    assert sorted(public - set(names)) == []
