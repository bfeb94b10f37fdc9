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
fusion ring's stored rules `_rules`, only `cyclo._Frozen` refuses writes,
copies and pickles for every immutable value, `cyclo.CycNumber` included
(besides `repring.QuaternionGroup`'s `__reduce__`), and other code writes
past `_Frozen` only into a lazy slot, no module but `exactla` names the
unchecked IntMatrix constructor `_matrix`, every module states its
public names in a literal __all__ that lists every public top-level
function and class it defines and names nothing it neither defines nor
imports, and each __all__ and every public signature match a snapshot."""

import ast
import importlib
import inspect
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
    # every immutable value, CycNumber included, is a _Frozen
    frozen = {("cyclo", "_Frozen")}
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
    assert [w for w in writes if w[1] not in lazy] == [("cyclo", "name")]


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


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "exactla.py"], ids=lambda p: p.name
)
def test_unchecked_matrix_constructor_stays_in_exactla(path):
    # `_matrix` skips IntMatrix's entry checks; only exactla's own results use it
    assert _uses(path, {"_matrix"}) == []


PUBLIC_NAMES = {
    "cyclo": ("CycNumber", "DivisionByZero", "cyc_arith", "cyc_conjugate", "real_embed",
        "zeta", "rational", "sqrt_int", "cos_frac", "sin_frac"),
    "exactla": ("IntMatrix", "FGAbelianGroup", "PresentedModule", "smith_normal_form",
        "smith_with_inverses", "cokernel", "kernel_basis", "rank", "fgab_from_relations",
        "connecting_solve", "solve_int", "SelfCheckFailure"),
    "fusion": ("ModularCheckFailure", "NonIntegralFusion", "NonAbelian", "InvalidTwist",
        "SingularLevel", "ModularData", "FusionRing", "su2_modular_data", "verlinde_matrices",
        "su2_fusion_truncated", "torus_fusion", "double_abelian", "double_cyclic_twisted",
        "level1_data"),
    "modinv": ("InvariantCheckFailed", "NegativeEntry", "SpectrumMismatch",
        "SearchBudgetExceeded", "DiagonalNotContained", "SelfCheckFailure", "ModularInvariant",
        "BranchingRule", "Nimrep", "CheckReport", "check_invariant", "enumerate_invariants",
        "embed_invariant", "cardinalities", "ade_graph", "nimrep_from_graph",
        "central_charge_check", "alpha_induction_abelian", "overgroups_of_diagonal",
        "permutation_orbifold_count"),
    "polyring": ("LaurentPoly", "TruncationWindow", "StabilizationFailure", "Inconclusive",
        "SelfCheckFailure", "truncated_quotient", "stabilized_family", "matrix_from_columns",
        "coprime_certificate", "e6_tor"),
    "repring": ("Quaternion", "QuaternionGroup", "CharacterTable", "Irrep", "VirtualRep",
        "Grading", "Embedding", "GroupMismatch", "NotASubgroup", "OrthogonalityFailure",
        "SelfCheckFailure", "NoGradingExists", "InvalidEmbedding", "quaternion_group",
        "character_table", "embedding", "tensor_decompose", "irrep_vr", "restrict", "induce",
        "mckay_graph", "gradings", "classify_graded", "graded_fold", "dirac_induce_T_to_SU2",
        "dirac_induce_finite_to_O2", "res_su2_to_finite", "res_su2_to_O2", "res_su2_to_T",
        "res_O2_to_T", "ind_T_to_O2", "recognize_affine_ade"),
}

# one line per public function, class (its constructor) and public method, as
# inspect.signature prints it; an exception class without a signature of its
# own prints (...)
PUBLIC_SIGNATURES = """
cyclo.CycNumber(order: 'int', coeffs, den: 'int' = 1) -> 'None'
cyclo.CycNumber.is_zero(self) -> 'bool'
cyclo.CycNumber.is_rational(self) -> 'bool'
cyclo.CycNumber.as_fraction(self) -> 'Fraction'
cyclo.CycNumber.as_int(self) -> 'int'
cyclo.CycNumber.inverse(self) -> "'CycNumber'"
cyclo.CycNumber.galois(self, j: 'int') -> "'CycNumber'"
cyclo.CycNumber.conjugate(self) -> "'CycNumber'"
cyclo.CycNumber.normalized(self) -> "'CycNumber'"
cyclo.CycNumber.render(self) -> 'str'
cyclo.CycNumber.coeff_vector(self)
cyclo.DivisionByZero(...)
cyclo.cyc_arith(a: 'CycNumber', b: 'CycNumber', op: 'str') -> 'CycNumber'
cyclo.cyc_conjugate(a: 'CycNumber') -> 'CycNumber'
cyclo.real_embed(a: 'CycNumber')
cyclo.zeta(n: 'int', k: 'int' = 1) -> 'CycNumber'
cyclo.rational(q, order: 'int' = 1) -> 'CycNumber'
cyclo.sqrt_int(m: 'int') -> 'CycNumber'
cyclo.cos_frac(num: 'int', den: 'int') -> 'CycNumber'
cyclo.sin_frac(num: 'int', den: 'int') -> 'CycNumber'
exactla.IntMatrix(rows: 'int', cols: 'int', data) -> 'None'
exactla.IntMatrix.from_rows(rows_list) -> "'IntMatrix'"
exactla.IntMatrix.from_cols(cols_list) -> "'IntMatrix'"
exactla.IntMatrix.identity(n: 'int') -> "'IntMatrix'"
exactla.IntMatrix.zero(rows: 'int', cols: 'int') -> "'IntMatrix'"
exactla.IntMatrix.row(self, i)
exactla.IntMatrix.col(self, j)
exactla.IntMatrix.to_lists(self)
exactla.IntMatrix.transpose(self)
exactla.IntMatrix.mul_vec(self, vec)
exactla.IntMatrix.hstack(self, other)
exactla.IntMatrix.is_zero(self)
exactla.IntMatrix.to_json(self)
exactla.IntMatrix.from_json(obj)
exactla.FGAbelianGroup(free_rank: 'int', torsion=(), generators=None) -> 'None'
exactla.FGAbelianGroup.is_trivial(self) -> 'bool'
exactla.FGAbelianGroup.order(self)
exactla.FGAbelianGroup.describe(self) -> 'str'
exactla.FGAbelianGroup.to_json(self)
exactla.FGAbelianGroup.from_json(obj)
exactla.PresentedModule(generator_labels, relations: 'IntMatrix') -> 'None'
exactla.smith_normal_form(M: 'IntMatrix')
exactla.smith_with_inverses(M: 'IntMatrix')
exactla.cokernel(M: 'IntMatrix', labels=None) -> 'FGAbelianGroup'
exactla.kernel_basis(M: 'IntMatrix') -> 'IntMatrix'
exactla.rank(M: 'IntMatrix') -> 'int'
exactla.fgab_from_relations(P: 'PresentedModule') -> 'FGAbelianGroup'
exactla.connecting_solve(beta: 'IntMatrix', domain_labels=None, codomain_labels=None)
exactla.solve_int(M: 'IntMatrix', target) -> "'tuple | None'"
exactla.SelfCheckFailure(...)
fusion.ModularCheckFailure(...)
fusion.NonIntegralFusion(...)
fusion.NonAbelian(...)
fusion.InvalidTwist(...)
fusion.SingularLevel(...)
fusion.ModularData(labels, S, T) -> None
fusion.FusionRing(labels, N, unit: int = 0) -> None
fusion.FusionRing.matrix(self, lam: int) -> verlkit.exactla.IntMatrix
fusion.FusionRing.product(self, lam: int, mu: int) -> dict
fusion.FusionRing.check_associativity(self) -> None
fusion.FusionRing.is_group_like(self) -> bool
fusion.FusionRing.fusion_group(self) -> verlkit.exactla.FGAbelianGroup
fusion.su2_modular_data(k: int) -> verlkit.fusion.ModularData
fusion.verlinde_matrices(D: verlkit.fusion.ModularData) -> verlkit.fusion.FusionRing
fusion.su2_fusion_truncated(k: int) -> verlkit.fusion.FusionRing
fusion.torus_fusion(tau) -> verlkit.exactla.FGAbelianGroup
fusion.double_abelian(G)
fusion.double_cyclic_twisted(n: int, sigma: int) -> verlkit.fusion.FusionRing
fusion.level1_data(name: str)
modinv.InvariantCheckFailed(...)
modinv.NegativeEntry(...)
modinv.SpectrumMismatch(...)
modinv.SearchBudgetExceeded(volume, budget, rank, pivot_bounds)
modinv.DiagonalNotContained(...)
modinv.ModularInvariant(matrix, data=None) -> None
modinv.ModularInvariant.trace(self) -> int
modinv.ModularInvariant.to_json(self)
modinv.BranchingRule(matrix) -> None
modinv.Nimrep(level, adjacency, matrices, exponents, report) -> None
modinv.Nimrep.to_json(self)
modinv.CheckReport(axioms, notes)
modinv.CheckReport.failures(self)
modinv.CheckReport.to_json(self)
modinv.check_invariant(Z, data) -> verlkit.modinv.CheckReport
modinv.enumerate_invariants(level: int, budget: int = 4000000)
modinv.embed_invariant(branching, extended, base) -> verlkit.modinv.ModularInvariant
modinv.cardinalities(Z, branching=None) -> dict
modinv.ade_graph(name: str)
modinv.nimrep_from_graph(adjacency, level: int) -> verlkit.modinv.Nimrep
modinv.central_charge_check(sub_dim: int, sub_coxeter: int, sub_level: int, ambient_dim: int, ambient_coxeter: int, ambient_level: int) -> bool
modinv.alpha_induction_abelian(G, H) -> dict
modinv.overgroups_of_diagonal(G)
modinv.permutation_orbifold_count(base_primary_count: int, copies: int, group, resolve_fixed_points: bool = False) -> int
polyring.LaurentPoly(names, terms) -> 'None'
polyring.LaurentPoly.var(name: 'str', names=None) -> "'LaurentPoly'"
polyring.LaurentPoly.const(c: 'int', names=('a',)) -> "'LaurentPoly'"
polyring.LaurentPoly.is_zero(self) -> 'bool'
polyring.LaurentPoly.support_bounds(self)
polyring.LaurentPoly.degree(self) -> 'int'
polyring.LaurentPoly.coeff(self, *exps) -> 'int'
polyring.LaurentPoly.render(self) -> 'str'
polyring.TruncationWindow(bounds, stride: 'int' = 5) -> 'None'
polyring.TruncationWindow.symmetric(radius: 'int', nvars: 'int' = 1, stride: 'int' = 5)
polyring.TruncationWindow.enlarged(self, delta: 'int' = None) -> "'TruncationWindow'"
polyring.TruncationWindow.points(self)
polyring.StabilizationFailure(...)
polyring.Inconclusive(...)
polyring.truncated_quotient(generators, relations, window: 'TruncationWindow') -> 'FGAbelianGroup'
polyring.stabilized_family(family, size: 'int', stride: 'int' = 5) -> 'FGAbelianGroup'
polyring.matrix_from_columns(labels, columns) -> 'IntMatrix'
polyring.coprime_certificate(f: 'LaurentPoly', g: 'LaurentPoly')
polyring.e6_tor(window_size: 'int' = 24, stride: 'int' = 5)
repring.Quaternion(w, x, y, z) -> 'None'
repring.Quaternion.inverse(self) -> "'Quaternion'"
repring.Quaternion.su2_matrix(self)
repring.Quaternion.trace(self) -> 'CycNumber'
repring.QuaternionGroup(name, elements, index, irrep_specs, generators, right=None)
repring.QuaternionGroup.mul(self, a: 'int', b: 'int') -> 'int'
repring.QuaternionGroup.inv(self, a: 'int') -> 'int'
repring.QuaternionGroup.conjugacy_classes(self)
repring.QuaternionGroup.irreps(self)
repring.QuaternionGroup.irrep_labels(self)
repring.QuaternionGroup.defining_character(self)
repring.CharacterTable(group: 'QuaternionGroup')
repring.CharacterTable.class_of(self, element_index: 'int') -> 'int'
repring.CharacterTable.inner(self, chi1, chi2) -> 'int'
repring.CharacterTable.decompose(self, chi) -> "'VirtualRep'"
repring.CharacterTable.dim_of(self, label: 'str') -> 'int'
repring.Irrep(label, dim, matrices, _keys=None)
repring.Irrep.character(self)
repring.VirtualRep(group, coeffs)
repring.VirtualRep.character(self)
repring.VirtualRep.dim(self) -> 'int'
repring.VirtualRep.render(self) -> 'str'
repring.Grading(group, kernel, values, psi_label)
repring.Embedding(sub, sup, image_index)
repring.Embedding.image_of(self, sub_index: 'int') -> 'int'
repring.Embedding.image_set(self)
repring.GroupMismatch(...)
repring.NotASubgroup(...)
repring.OrthogonalityFailure(...)
repring.NoGradingExists(...)
repring.InvalidEmbedding(...)
repring.quaternion_group(name: 'str') -> 'QuaternionGroup'
repring.character_table(G: 'QuaternionGroup') -> 'CharacterTable'
repring.embedding(sub_name: 'str', sup_name: 'str') -> 'Embedding'
repring.tensor_decompose(rho: 'VirtualRep', tau: 'VirtualRep') -> 'VirtualRep'
repring.irrep_vr(G: 'QuaternionGroup', label: 'str') -> 'VirtualRep'
repring.restrict(rho: 'VirtualRep', emb: 'Embedding') -> 'VirtualRep'
repring.induce(rho: 'VirtualRep', emb: 'Embedding') -> 'VirtualRep'
repring.mckay_graph(G: 'QuaternionGroup')
repring.gradings(G: 'QuaternionGroup')
repring.classify_graded(rho, grading: 'Grading' = None) -> 'str'
repring.graded_fold(G: 'QuaternionGroup', grading: 'Grading' = None)
repring.dirac_induce_T_to_SU2(weight: 'int') -> 'dict'
repring.dirac_induce_finite_to_O2(rho: 'VirtualRep', d: 'str') -> 'int'
repring.res_su2_to_finite(G: 'QuaternionGroup', m: 'int') -> 'VirtualRep'
repring.res_su2_to_O2(m: 'int') -> 'dict'
repring.res_su2_to_T(m: 'int') -> 'dict'
repring.res_O2_to_T(o2rep: 'dict') -> 'dict'
repring.ind_T_to_O2(trep: 'dict') -> 'dict'
repring.recognize_affine_ade(A: 'IntMatrix') -> 'str'
""".strip().splitlines()


def _signature(obj):
    try:
        return str(inspect.signature(obj))
    except ValueError:
        return "(...)"


def _public_signatures(module):
    lines = []
    for name in module.__all__:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # a re-export is pinned where it is defined
        prefix = "%s.%s" % (module.__name__.split(".")[-1], name)
        lines.append(prefix + _signature(obj))
        if inspect.isclass(obj):
            lines += [
                "%s.%s%s" % (prefix, attr, _signature(getattr(obj, attr)))
                for attr, value in vars(obj).items()
                if not attr.startswith("_")
                and (inspect.isfunction(value) or isinstance(value, (classmethod, staticmethod)))
            ]
    return lines


def test_public_contract_matches_the_snapshot():
    # a change to any __all__ or public signature shows here, in the diff
    assert sorted(PUBLIC_NAMES) == [p.stem for p in MODULES if p.name != "__init__.py"]
    modules = [importlib.import_module("verlkit." + name) for name in PUBLIC_NAMES]
    assert {m.__name__.split(".")[-1]: tuple(m.__all__) for m in modules} == PUBLIC_NAMES
    assert [line for m in modules for line in _public_signatures(m)] == PUBLIC_SIGNATURES
