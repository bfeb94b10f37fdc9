"""Tests for quaternion groups, character tables, and graded folding.

Published values checked here:

* Restrictions of the defining SU(2) rep to the six named groups:
  2r''_-1; r'_i + r'_-i; r_-w + r_-w2; t; t'; y.
* All twenty-nine rows of the seven induction tables between named
  subgroup pairs (A1 into A3 and A5, A3 into D4 and E6, D4 into E6,
  A5 into D5 and E6).
* Folded McKay graphs: A3 -> A1, D4 -> A3 (each of its three gradings),
  D5 -> A5, E7 -> E6; no grading exists for E6, E8, or odd cyclic groups.
* Dirac induction of weights into SU(2) and of D4 virtual reps into the
  graded O(2) ring.

Hand derivations frozen as expectations:

* sigma_3 on O(2): the circle sees a^2 + 1 + a^-2, a reflection has
  trace -1, so the decomposition is kappa_2 + delta.
* sigma_5: a^4 + a^2 + 1 + a^-2 + a^-4 with reflection trace +1, giving
  kappa_4 + kappa_2 + 1.
* t of D4 restricted to <i> = C4 splits into the i- and (-i)-characters,
  so its graded type is 1_2.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from verlkit import cyclo, repring
from verlkit.cyclo import CycNumber
from verlkit.exactla import IntMatrix, kernel_basis
from verlkit.modinv import ade_graph
from verlkit.repring import (
    GroupMismatch,
    InvalidEmbedding,
    Irrep,
    NoGradingExists,
    NotASubgroup,
    OrthogonalityFailure,
    Quaternion,
    QuaternionGroup,
    SelfCheckFailure,
    VirtualRep,
    character_table,
    classify_graded,
    dirac_induce_T_to_SU2,
    dirac_induce_finite_to_O2,
    embedding,
    graded_fold,
    gradings,
    induce,
    ind_T_to_O2,
    irrep_vr,
    mckay_graph,
    quaternion_group,
    recognize_affine_ade,
    res_O2_to_T,
    res_su2_to_O2,
    res_su2_to_T,
    res_su2_to_finite,
    restrict,
    tensor_decompose,
)

NAMED = ["A1", "A3", "A5", "D4", "D5", "E6", "E7"]

EMBED_PAIRS = [
    ("A1", "A3"),
    ("A1", "A5"),
    ("A1", "D4"),
    ("A1", "D5"),
    ("A1", "E6"),
    ("A1", "E7"),
    ("A3", "D4"),
    ("A3", "D5"),
    ("A3", "E6"),
    ("A3", "E7"),
    ("A5", "D5"),
    ("A5", "E6"),
    ("A5", "E7"),
    ("D4", "E6"),
    ("D4", "E7"),
    ("D5", "E7"),
    ("E6", "E7"),
]


def test_group_orders_and_negative_one():
    orders = {"A1": 2, "A3": 4, "A5": 6, "D4": 8, "D5": 12, "E6": 24, "E7": 48}
    for name, n in orders.items():
        G = quaternion_group(name)
        assert G.order == n
        minus_one = -G.elements[0]
        assert minus_one in G.index
    assert quaternion_group("E8").order == 120
    G3 = quaternion_group("C3")
    assert -G3.elements[0] not in G3.index


def test_character_table_shapes():
    ct = character_table(quaternion_group("D4"))
    assert sorted(ct.dims) == [1, 1, 1, 1, 2]
    assert ct.labels == ["s0", "s1", "s2", "s3", "t"]

    ct1 = character_table(quaternion_group("A1"))
    assert ct1.labels == ["r''_1", "r''_-1"]

    # the paper's orders, and the generic labels of the same group as BD3
    paper = {
        "A3": ["r'_1", "r'_-1", "r'_i", "r'_-i"],
        "A5": ["r_1", "r_-1", "r_w", "r_-w", "r_w2", "r_-w2"],
        "D5": ["s'0", "s'1", "s'2", "s'3", "t'", "t''"],
        "E7": ["1", "1'", "2", "2'", "2''", "3", "3'", "4"],
        "BD3": ["l0", "l1", "l2", "l3", "t1", "t2"],
    }
    for name, labels in paper.items():
        assert character_table(quaternion_group(name)).labels == labels
    # a kernel keeps its irreps in exponent order: D5's is C6
    folded = graded_fold(quaternion_group("D5"))["folded_labels"]
    assert folded == ["r_1", "r_-w2", "r_w", "r_-1", "r_w2", "r_-w"]

    ct6 = character_table(quaternion_group("E6"))
    assert ct6.labels == ["x", "x'", "x''", "y", "y'", "y''", "z"]
    assert sorted(ct6.dims) == [1, 1, 1, 2, 2, 2, 3]

    with pytest.raises(NotImplementedError):
        character_table(quaternion_group("E8"))


def test_tensor_with_trivial_is_identity():
    for name in NAMED:
        G = quaternion_group(name)
        ct = character_table(G)
        triv = irrep_vr(G, ct.labels[0])
        for lab in ct.labels:
            rho = irrep_vr(G, lab)
            assert tensor_decompose(triv, rho) == rho


def test_tensor_examples():
    G = quaternion_group("D4")
    t = irrep_vr(G, "t")
    tt = tensor_decompose(t, t)
    assert tt.coeffs == {"s0": 1, "s1": 1, "s2": 1, "s3": 1}

    G6 = quaternion_group("E6")
    y = irrep_vr(G6, "y")
    yy = tensor_decompose(y, y)
    A, labels = mckay_graph(G6)
    iy = labels.index("y")
    row = {labels[j]: A[(iy, j)] for j in range(len(labels)) if A[(iy, j)]}
    assert yy.coeffs == row


def test_virtual_rep_arithmetic_dim_and_render():
    G = quaternion_group("D4")
    s0, s1, t = (irrep_vr(G, lab) for lab in ("s0", "s1", "t"))
    v = 2 * t - s1
    assert v.coeffs == {"t": 2, "s1": -1}
    assert -v == s1 - 2 * t
    assert v - v == 0 * v
    assert v.dim() == 3
    assert (s0 - s1).dim() == 0
    assert v.render() == "-s1 + 2*t"
    assert (-v).render() == "s1 - 2*t"
    assert (s0 + 3 * s1).render() == "s0 + 3*s1"
    assert (v - v).render() == "0"
    assert repr(VirtualRep(quaternion_group("E8"), {})) == "VirtualRep(E8: 0)"
    with pytest.raises(GroupMismatch):
        s0 - irrep_vr(quaternion_group("A1"), "r''_1")


def test_tensor_group_mismatch():
    a = irrep_vr(quaternion_group("A1"), "r''_1")
    b = irrep_vr(quaternion_group("A3"), "r'_1")
    with pytest.raises(GroupMismatch):
        tensor_decompose(a, b)


def test_defining_restrictions():
    expected = {
        "A1": {"r''_-1": 2},
        "A3": {"r'_i": 1, "r'_-i": 1},
        "A5": {"r_-w": 1, "r_-w2": 1},
        "D4": {"t": 1},
        "D5": {"t'": 1},
        "E6": {"y": 1},
    }
    for name, want in expected.items():
        assert res_su2_to_finite(quaternion_group(name), 2).coeffs == want


def test_induction_tables():
    rows = [
        ("A1", "A3", "r''_1", {"r'_1": 1, "r'_-1": 1}),
        ("A1", "A3", "r''_-1", {"r'_i": 1, "r'_-i": 1}),
        ("A1", "A5", "r''_1", {"r_1": 1, "r_w": 1, "r_w2": 1}),
        ("A1", "A5", "r''_-1", {"r_-1": 1, "r_-w": 1, "r_-w2": 1}),
        ("A3", "D4", "r'_1", {"s0": 1, "s2": 1}),
        ("A3", "D4", "r'_-1", {"s1": 1, "s3": 1}),
        ("A3", "D4", "r'_i", {"t": 1}),
        ("A3", "D4", "r'_-i", {"t": 1}),
        ("A3", "E6", "r'_1", {"x": 1, "x'": 1, "x''": 1, "z": 1}),
        ("A3", "E6", "r'_-1", {"z": 2}),
        ("A3", "E6", "r'_i", {"y": 1, "y'": 1, "y''": 1}),
        ("A3", "E6", "r'_-i", {"y": 1, "y'": 1, "y''": 1}),
        ("D4", "E6", "s0", {"x": 1, "x'": 1, "x''": 1}),
        ("D4", "E6", "s1", {"z": 1}),
        ("D4", "E6", "s2", {"z": 1}),
        ("D4", "E6", "s3", {"z": 1}),
        ("D4", "E6", "t", {"y": 1, "y'": 1, "y''": 1}),
        ("A5", "D5", "r_1", {"s'0": 1, "s'1": 1}),
        ("A5", "D5", "r_-1", {"s'2": 1, "s'3": 1}),
        ("A5", "D5", "r_w", {"t''": 1}),
        ("A5", "D5", "r_w2", {"t''": 1}),
        ("A5", "D5", "r_-w", {"t'": 1}),
        ("A5", "D5", "r_-w2", {"t'": 1}),
        ("A5", "E6", "r_1", {"x": 1, "z": 1}),
        ("A5", "E6", "r_-1", {"y'": 1, "y''": 1}),
        ("A5", "E6", "r_w", {"x''": 1, "z": 1}),
        ("A5", "E6", "r_w2", {"x'": 1, "z": 1}),
        ("A5", "E6", "r_-w", {"y": 1, "y'": 1}),
        ("A5", "E6", "r_-w2", {"y": 1, "y''": 1}),
    ]
    for sub, sup, lab, want in rows:
        got = induce(irrep_vr(quaternion_group(sub), lab), embedding(sub, sup))
        assert got.coeffs == want, (sub, sup, lab, got.coeffs)


def test_frobenius_reciprocity_exhaustive():
    for sub_name, sup_name in EMBED_PAIRS:
        emb = embedding(sub_name, sup_name)
        ct_sub = character_table(emb.sub)
        ct_sup = character_table(emb.sup)
        inds = {
            lab: induce(irrep_vr(emb.sub, lab), emb) for lab in ct_sub.labels
        }
        ress = {
            lab: restrict(irrep_vr(emb.sup, lab), emb) for lab in ct_sup.labels
        }
        for rho in ct_sub.labels:
            for tau in ct_sup.labels:
                lhs = inds[rho].coeffs.get(tau, 0)
                rhs = ress[tau].coeffs.get(rho, 0)
                assert lhs == rhs, (sub_name, sup_name, rho, tau)


def test_embedding_rejects_non_subgroups():
    # a subgroup whose elements are not all in the supergroup is rejected with
    # NotASubgroup, not a KeyError from the supergroup's index
    pairs = [("D4", "D5"), ("E7", "E6")]
    pairs += [("A3", "A5"), ("A1", "C5"), ("A3", "BD3"), ("A1", "C3")]
    for sub, sup in pairs:
        with pytest.raises(NotASubgroup):
            embedding(sub, sup)


def test_irrep_generators_must_define_a_homomorphism():
    # i -> 1, g -> -1 is no character of E6: its abelianization is Z_3
    E6 = quaternion_group("E6")
    bad = QuaternionGroup(
        "E6", E6.elements, E6.index, [("bad", [[[1]], [[-1]]])], E6.generators
    )
    with pytest.raises(AssertionError, match="not a homomorphism"):
        bad.irreps()


def test_embedding_generator_images_must_define_a_homomorphism():
    # i has order 4 in A3 but g6^2 has order 3 in E6; the canonical table
    # never pairs them, so call the generator extension directly
    g6 = quaternion_group("E6").generators[1]
    with pytest.raises(NotASubgroup, match="homomorphism"):
        repring._embedding_from_generators(
            quaternion_group("A3"), quaternion_group("E6"), [g6 * g6]
        )


def test_mckay_graphs_are_affine_diagrams():
    want = {
        "A1": ("A1", 2),
        "A3": ("A3", 4),
        "A5": ("A5", 6),
        "D4": ("D4", 5),
        "D5": ("D5", 6),
        "E6": ("E6", 7),
        "E7": ("E7", 8),
    }
    for name, (graph, nodes) in want.items():
        A, labels = mckay_graph(quaternion_group(name))
        assert len(labels) == nodes
        assert recognize_affine_ade(A) == graph
        for i in range(A.rows):
            for j in range(A.cols):
                assert A[(i, j)] == A[(j, i)]


def test_mckay_affine_cartan_property():
    for name in NAMED:
        G = quaternion_group(name)
        ct = character_table(G)
        A, labels = mckay_graph(G)
        dims = [ct.dim_of(lab) for lab in labels]
        for i in range(len(dims)):
            acc = sum(A[(i, j)] * dims[j] for j in range(len(dims)))
            assert acc == 2 * dims[i]
        # the marks that name the diagram are the irrep dimensions (McKay)
        assert repring._affine_marks(A) == ct.dims


AFFINE = ["A%d" % n for n in range(1, 10)] + ["D%d" % n for n in range(4, 10)] + ["E6", "E7", "E8"]


def _affine_grid(name):
    """The affine diagram: ade_graph's finite graph plus its extending node,
    joined to both ends of A_n (twice to the one node of A1), to node 1 of
    D_n, and to the end of the arm that it lengthens to 2 in E6, 3 in E7
    and 5 in E8."""
    A, _ = ade_graph(name)
    n = A.rows
    ends = {"A": [0, n - 1], "D": [1]}.get(name[0]) or {"E6": [5], "E7": [0], "E8": [6]}[name]
    grid = [row + [0] for row in A.to_lists()] + [[0] * (n + 1)]
    for i in ends:
        grid[i][n] += 1
        grid[n][i] += 1
    return grid


def test_affine_diagrams_are_named_under_relabelling():
    assert recognize_affine_ade(IntMatrix.from_rows([[2]])) == "A0"
    assert _affine_grid("A1") == [[0, 2], [2, 0]]
    rng = random.Random(31)
    for name in AFFINE:
        grid = _affine_grid(name)
        for _ in range(5):
            p = rng.sample(range(len(grid)), len(grid))
            relabelled = IntMatrix.from_rows([[grid[i][j] for j in p] for i in p])
            assert recognize_affine_ade(relabelled) == name


def _union(a, b):
    return [row + [0] * len(b) for row in a] + [[0] * len(a) + row for row in b]


def test_non_affine_adjacencies_are_refused():
    # each has a positive null vector of 2I - A, so only one guard refuses it:
    # asymmetric, looped, and a 4-cycle with a negative entry
    guarded = [[[0, 1], [4, 0]], [[1, 1], [1, 1]],
               [[0, -1, 0, 3], [-1, 0, 3, 0], [0, 3, 0, -1], [3, 0, -1, 0]]]
    for grid in guarded:
        cartan = IntMatrix.from_rows(
            [[2 * (i == j) - a for j, a in enumerate(row)] for i, row in enumerate(grid)])
        kernel = kernel_basis(cartan)
        assert kernel.cols == 1 and (min(kernel.col(0)) > 0 or max(kernel.col(0)) < 0)
    refused = [ade_graph(name)[0] for name in AFFINE]
    # two affine components give a kernel of rank 2; an affine one beside a
    # finite one a generator with zeros
    unions = [_union(_affine_grid("D4"), _affine_grid("A2")), _union(_affine_grid("A2"), [[0]])]
    refused += [IntMatrix.from_rows(g) for g in unions + guarded]
    refused.append(IntMatrix.zero(0, 0))
    for A in refused:
        with pytest.raises(ValueError, match="not an affine A-D-E diagram"):
            recognize_affine_ade(A)


def test_gradings_census():
    counts = {"A1": 1, "A3": 1, "A5": 1, "D4": 3, "D5": 1, "E6": 0, "E7": 1}
    for name, n in counts.items():
        assert len(gradings(quaternion_group(name))) == n
    assert gradings(quaternion_group("E8")) == []
    assert gradings(quaternion_group("C3")) == []
    assert gradings(quaternion_group("C5")) == []


def test_classify_graded_examples():
    G = quaternion_group("D4")
    gr = next(g for g in gradings(G) if g.psi_label == "s2")
    assert len(gr.kernel) == 4
    assert classify_graded(irrep_vr(G, "s0"), gr) == "2_1"
    assert classify_graded(irrep_vr(G, "t"), gr) == "1_2"

    for name in NAMED:
        Gn = quaternion_group(name)
        for grading in gradings(Gn):
            triv = irrep_vr(Gn, character_table(Gn).labels[0])
            assert classify_graded(triv, grading) == "2_1"

    assert classify_graded("delta") == "2_1"
    assert classify_graded("1") == "2_1"
    assert classify_graded("kappa_7") == "1_2"
    assert classify_graded("kappa_1") == classify_graded("kappa_10") == "1_2"


def test_graded_folds():
    want = {
        "A1": ("A0", 1),
        "A3": ("A1", 2),
        "A5": ("A2", 3),
        "D5": ("A5", 6),
        "E7": ("E6", 7),
    }
    for name, (graph, nodes) in want.items():
        r = graded_fold(quaternion_group(name))
        assert r["folded_graph"] == graph
        assert r["folded_nodes"] == nodes
        # each 1_2 node splits in two, each 2_1 pair collapses to one
        assert 2 * r["dim_graded_ring"] + r["dim_graded_ring_1"] == nodes

    G = quaternion_group("D4")
    for gr in gradings(G):
        r = graded_fold(G, gr)
        assert r["folded_graph"] == "A3"
        assert r["types"]["t"] == "1_2"
        assert r["dim_graded_ring"] == 1
        assert r["dim_graded_ring_1"] == 2


@pytest.mark.parametrize("m", [4, 6, 8])
def test_every_binary_dihedral_grading_folds(m):
    # BD_m (affine D_(m+2)) has three gradings: the cyclic kernel C_2m, and
    # two binary dihedral kernels BD_(m/2), whose graph is affine D_(m/2+2);
    # graded_fold verifies each fold against the kernel's own irreps
    G = quaternion_group("BD%d" % m)
    folds = sorted(
        (r["folded_graph"], r["folded_nodes"], r["dim_graded_ring"], r["dim_graded_ring_1"])
        for r in (graded_fold(G, gr) for gr in gradings(G))
    )
    half = m // 2
    assert folds == sorted(
        [("A%d" % (2 * m - 1), 2 * m, m - 1, 2)]
        + [("D%d" % (half + 2), half + 3, 1, half + 1)] * 2
    )


def test_fold_refused_without_grading():
    for name in ("E6", "E8", "C3"):
        with pytest.raises(NoGradingExists):
            graded_fold(quaternion_group(name))


def test_a_fold_needs_one_grading_with_a_sign_character():
    with pytest.raises(ValueError) as err:
        graded_fold(quaternion_group("BD4"))
    assert str(err.value) == "BD4 has 3 gradings; pass one explicitly"
    G = quaternion_group("A3")
    (gr,) = gradings(G)
    with pytest.raises(SelfCheckFailure) as err:
        graded_fold(G, repring.Grading(G, gr.kernel, gr.values, None))
    assert str(err.value) == "grading has no matching sign character"


@pytest.mark.parametrize(
    "name, other", [("D5", "A3"), ("BD4", "BD6"), ("C8", "C12"), ("BD6", "BD4"), ("C12", "C8")]
)
def test_a_fold_refuses_a_grading_of_another_group(name, other):
    G = quaternion_group(name)
    for gr in gradings(quaternion_group(other)):
        with pytest.raises(GroupMismatch) as err:
            graded_fold(G, gr)
        assert str(err.value) == "grading lives in a different group"


# E7 folds onto E6 (psi = 1'): 2'' and 4 are fixed, 1, 2, 3 stand for their
# pairs.  Each fake below changes one answer on one irrep, so one check fails.
E7_FOLD_FAULTS = {
    "fixed node 4 is not type 1_2": ("classify_graded", "4", lambda rho, gr: "2_1"),
    "swapped node 3 is not type 2_1": ("classify_graded", "3", lambda rho, gr: "1_2"),
    "type 1_2 restriction did not split in two":
        ("restrict", "4", lambda rho, emb: restrict(irrep_vr(rho.group, "1"), emb)),
    "type 2_1 restriction is not irreducible":
        ("restrict", "3", lambda rho, emb: restrict(irrep_vr(rho.group, "4"), emb)),
    "folded nodes do not biject with kernel irreps":
        ("restrict", "3", lambda rho, emb: restrict(irrep_vr(rho.group, "1"), emb)),
}


@pytest.mark.parametrize("message", E7_FOLD_FAULTS)
def test_each_fold_check_fails_on_its_own(monkeypatch, message):
    name, label, fake = E7_FOLD_FAULTS[message]
    real = getattr(repring, name)
    monkeypatch.setattr(
        repring, name, lambda rho, x: (fake if rho.coeffs == {label: 1} else real)(rho, x)
    )
    with pytest.raises(SelfCheckFailure) as err:
        graded_fold(quaternion_group("E7"))
    assert str(err.value) == message


def test_e7_fold_types():
    r = graded_fold(quaternion_group("E7"))
    assert r["psi"] == "1'"
    assert r["types"] == {
        "1": "2_1",
        "1'": "2_1",
        "2": "2_1",
        "2'": "2_1",
        "2''": "1_2",
        "3": "2_1",
        "3'": "2_1",
        "4": "1_2",
    }


def test_dirac_induction_T_to_SU2():
    assert dirac_induce_T_to_SU2(0) == {}
    assert dirac_induce_T_to_SU2(2) == {2: 1}
    assert dirac_induce_T_to_SU2(-3) == {3: -1}


def test_dirac_induction_finite_to_O2():
    G = quaternion_group("D4")
    s = irrep_vr(G, "s0") + irrep_vr(G, "s1") + irrep_vr(G, "s2") + irrep_vr(G, "s3")
    assert dirac_induce_finite_to_O2(s, "s1") == 0
    for d in ("s1", "s2", "s3"):
        assert dirac_induce_finite_to_O2(irrep_vr(G, "t"), d) == 0
    assert dirac_induce_finite_to_O2(irrep_vr(G, "s0"), "s1") == 1
    with pytest.raises(InvalidEmbedding):
        dirac_induce_finite_to_O2(irrep_vr(G, "s0"), "t")
    with pytest.raises(InvalidEmbedding):
        dirac_induce_finite_to_O2(irrep_vr(G, "s0"), "nope")


def test_symbolic_su2_on_O2_and_T():
    assert res_su2_to_O2(3) == {"kappa_2": 1, "delta": 1}
    assert res_su2_to_O2(5) == {"kappa_4": 1, "kappa_2": 1, "1": 1}
    assert res_su2_to_O2(4) == {"kappa_3": 1, "kappa_1": 1}
    assert res_su2_to_T(3) == {2: 1, 0: 1, -2: 1}
    assert res_su2_to_T(1) == {0: 1}
    assert ind_T_to_O2({0: 1}) == {"1": 1, "delta": 1}
    assert ind_T_to_O2({3: 1, -3: 1}) == {"kappa_3": 2}
    assert res_O2_to_T({"kappa_2": 1, "delta": 1}) == {2: 1, -2: 1, 0: 1}


@given(st.integers(min_value=1, max_value=12))
def test_su2_branching_consistency(m):
    # restricting to O(2) then to T agrees with restricting straight to T
    assert res_O2_to_T(res_su2_to_O2(m)) == res_su2_to_T(m)


@settings(deadline=None, max_examples=20)
@given(
    st.sampled_from(["A1", "A3", "A5", "D4", "D5", "E6"]),
    st.integers(min_value=2, max_value=7),
)
def test_clebsch_gordan_on_subgroups(name, m):
    # sigma_2 (x) sigma_m = sigma_(m+1) + sigma_(m-1), restricted to any G
    G = quaternion_group(name)
    lhs = tensor_decompose(res_su2_to_finite(G, 2), res_su2_to_finite(G, m))
    rhs = res_su2_to_finite(G, m + 1) + res_su2_to_finite(G, m - 1)
    assert lhs == rhs


def test_restriction_examples_from_supergroups():
    e = embedding("D4", "E6")
    E6 = quaternion_group("E6")
    assert restrict(irrep_vr(E6, "y"), e).coeffs == {"t": 1}
    assert restrict(irrep_vr(E6, "z"), e).coeffs == {"s1": 1, "s2": 1, "s3": 1}


def _coset_mask_gradings(G):
    """Sign characters by the quotient G/<squares>: every subset of its
    cosets that is multiplicative on coset representatives.  Oracle for
    `gradings`, as (sorted kernel, values, psi_label), sorted by kernel."""
    n = G.order
    N = repring._closure(sorted({G.mul(a, a) for a in range(n)}), one=0, mul=G.mul)[0]
    coset_of, cosets = {}, []
    for a in range(n):
        if a not in coset_of:
            members = sorted({G.mul(a, h) for h in N})
            for m in members:
                coset_of[m] = len(cosets)
            cosets.append(members)
    q = len(cosets)
    try:
        ct = character_table(G)
    except NotImplementedError:
        ct = None
    out = []
    for mask in range(1, 1 << q):
        vals = [-1 if (mask >> ci) & 1 else 1 for ci in range(q)]
        if vals[coset_of[0]] != 1 or any(
            vals[a] * vals[b] != vals[coset_of[G.mul(cosets[a][0], cosets[b][0])]]
            for a in range(q)
            for b in range(q)
        ):
            continue
        evals = tuple(vals[coset_of[a]] for a in range(n))
        psi = None
        if ct is not None:
            for lab, d in zip(ct.labels, ct.dims):
                if d == 1 and all(
                    ct.chars[lab][ci] == evals[cls[0]]
                    for ci, cls in enumerate(ct.classes)
                ):
                    psi = lab
                    break
        out.append((sorted(a for a in range(n) if evals[a] == 1), evals, psi))
    return sorted(out, key=lambda t: t[0])


@pytest.mark.parametrize(
    "name",
    NAMED
    + ["E8"]
    + ["C%d" % m for m in range(1, 13)]
    + ["BD%d" % m for m in range(2, 9)],
)
def test_gradings_match_coset_mask_oracle(name):
    G = quaternion_group(name)
    got = [(sorted(g.kernel), g.values, g.psi_label) for g in gradings(G)]
    assert got == _coset_mask_gradings(G)


def _hamilton_reference(p, q):
    """The 16-term Hamilton product; oracle for `Quaternion.__mul__`."""
    w1, x1, y1, z1 = p.w, p.x, p.y, p.z
    w2, x2, y2, z2 = q.w, q.x, q.y, q.z
    return (
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def test_quaternion_product_matches_hamilton_formula():
    # non-unit quaternions with coordinates of orders 1, 5, 8 and 12; each
    # right factor is reused, so its prepared matrix meets new left orders
    rng = random.Random(21)

    def coord():
        n = rng.choice([1, 5, 8, 12])
        size = rng.choice([0, 1, 6])
        coeffs = [Fraction(rng.randint(-size, size), rng.choice([1, 2, 3])) for _ in range(n)]
        return CycNumber(n, coeffs)

    rights = [Quaternion(*(coord() for _ in range(4))) for _ in range(6)]
    for _ in range(60):
        p, q = Quaternion(*(coord() for _ in range(4))), rng.choice(rights)
        got = p * q
        for g, w in zip((got.w, got.x, got.y, got.z), _hamilton_reference(p, q)):
            assert (g.order, g.num, g.den) == (w.order, w.num, w.den)


def test_irreps_prepare_each_generator_matrix_once(monkeypatch):
    # E7: 8 irreps x 3 generators, not one preparation per Cayley edge (1,152)
    G = repring._build_group("E7")
    calls = []
    prepare = repring._times

    def counting(B):
        calls.append(B)
        return prepare(B)

    monkeypatch.setattr(repring, "_times", counting)
    assert len(G.irreps()) == 8
    assert len(calls) == 24
    assert 8 * sum(map(len, G._right)) == 1152


def test_self_check_failures_are_typed():
    assert issubclass(SelfCheckFailure, AssertionError)
    assert issubclass(OrthogonalityFailure, SelfCheckFailure)
    with pytest.raises(SelfCheckFailure, match="closure has 4 elements, expected 3"):
        repring._quaternion_closure([repring._Q_I], 3)


BUILT = ["A1", "A3", "A5", "A7", "C5", "D4", "D5", "BD4", "BD6", "BD7", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", BUILT)
def test_keyed_closure_matches_the_quaternion_closure(name):
    G = quaternion_group(name)
    elems, right = repring._quaternion_closure(G.generators, G.order)
    want = repring._closure(G.generators, repring._quat(1, 0, 0, 0), Quaternion.__mul__)
    assert (elems, right) == want
    assert G.index == {q: i for i, q in enumerate(want[0])}


@pytest.mark.parametrize("name", BUILT)
def test_inverses_read_off_the_cayley_table(name):
    G = quaternion_group(name)
    assert all(G._inverse[a] == G.index[e.inverse()] for a, e in enumerate(G.elements))


def test_generators_failing_on_a_non_tree_edge_are_not_a_homomorphism():
    # (rho(i), -rho(g)) on E6's y: (-rho(g))^3 = I but rho(i)^2 = -I, so only
    # the relation g^3 = i^2 fails, on an edge outside the walk's tree
    E6 = quaternion_group("E6")
    rho_i, rho_g = dict(repring._e6_specs())["y"]
    neg_g = [[-CycNumber(1, [1]) * e for e in row] for row in rho_g]
    bad = QuaternionGroup(
        "E6", E6.elements, E6.index, [("y", [rho_i, neg_g])], E6.generators, E6._right
    )
    with pytest.raises(SelfCheckFailure, match="not a homomorphism"):
        bad.irreps()


def test_construction_errors_are_typed():
    one, i = repring._quat(1, 0, 0, 0), repring._Q_I
    # i * i = -1 is not among the elements
    with pytest.raises(GroupMismatch):
        QuaternionGroup("bad", [one, i], {one: 0, i: 1}, None, [i])
    # a column of the table without the identity, an edge where the walk
    # fails, and a generator that reaches nothing
    elems = [one, i, -i]
    for right in ([[1], [1]], [[1, 2], [0, 0], [0, 0]], [[0], [1]]):
        with pytest.raises(SelfCheckFailure, match="not a group's"):
            QuaternionGroup("bad", elems[: len(right)], {}, None, [i], right)


def _canon(e):
    return e.order, e.num, e.den


@pytest.mark.parametrize("name", ["A5", "D5", "BD6", "E6", "E7"])
def test_irreps_and_characters_are_the_walk_unkeyed(name):
    # walk the generator matrices here and unkey every element; the irreps,
    # their characters and the table's class values must match entry by entry
    G = repring._build_group(name)
    ct = character_table(G)
    for (label, gen_mats), r in zip(G._irrep_specs, G.irreps()):
        mats = [repring._as_mat(m) for m in gen_mats]
        steps = [cyclo._times(B).step for B in mats]
        L = lcm(*(e.order for B in mats for row in B for e in row))
        eye = cyclo._key([[int(i == j) for j in range(r.dim)] for i in range(r.dim)], L)
        keys, clashes = repring._walk(G._right, eye, lambda k, g: steps[g](k))
        assert clashes == []
        want = [cyclo._unkey(k, r.dim) for k in keys]
        assert r.label == label and len(r.matrices) == G.order
        assert [[list(map(_canon, row)) for row in M] for M in r.matrices] == [
            [list(map(_canon, row)) for row in M] for M in want
        ]
        traces = [sum((M[i][i] for i in range(1, r.dim)), M[0][0]) for M in want]
        assert list(map(_canon, r.character())) == list(map(_canon, traces))
        assert list(map(_canon, ct.chars[label])) == [_canon(traces[a]) for a in ct.class_reps]


def test_irreps_are_immutable_and_take_explicit_matrices():
    r = quaternion_group("D4").irreps()[4]
    for attr in ("label", "dim", "matrices", "_keys"):
        with pytest.raises(AttributeError):
            setattr(r, attr, None)
    given_mats = (((CycNumber(4, [0, 1]),),), ((CycNumber(1, [-1]),),))
    own = Irrep("x", 1, given_mats)
    assert own.matrices is given_mats
    assert own.character() == [CycNumber(4, [0, 1]), -1]


def test_decompose_rejects_class_functions_that_are_not_characters():
    for name in ("A3", "D5", "E7"):
        ct = character_table(quaternion_group(name))
        with pytest.raises(ValueError, match="not an integer"):
            ct.decompose([Fraction(1, 2)] * len(ct.classes))
        with pytest.raises(ValueError, match="not rational"):
            ct.decompose([CycNumber(4, [0, 1])] + [0] * (len(ct.classes) - 1))
        # multiplicities 1/2 and i: the first entry is the one named
        first, last = ct.chars[ct.labels[0]], ct.chars[ct.labels[-1]]
        with pytest.raises(ValueError, match="not an integer: 1/2"):
            ct.decompose([a / 2 + CycNumber(4, [0, 1]) * b for a, b in zip(first, last)])
        with pytest.raises(ValueError, match="one value per class"):
            ct.decompose([1] * (len(ct.classes) + 1))


def test_a_wrong_gram_matrix_is_an_orthogonality_failure(monkeypatch):
    # l0 + l1 in place of D4's t: every dimension fits, <t, l0> = 1
    D4 = quaternion_group("D4")
    specs = [(lab, mats) for lab, mats in D4._irrep_specs if lab != "t"]
    specs.append(("t", [[[1, 0], [0, -1]], [[1, 0], [0, 1]]]))
    bad = QuaternionGroup("D4", D4.elements, None, specs, D4.generators, D4._right)
    with pytest.raises(OrthogonalityFailure, match="<s0,t> = 1"):
        character_table(bad)
    # halved characters make every Gram entry 1/4: no integer to read
    trace = repring._key_trace
    monkeypatch.setattr(repring, "_key_trace", lambda key, dim: trace(key, dim) / 2)
    again = QuaternionGroup("D4", D4.elements, None, D4._irrep_specs, D4.generators, D4._right)
    with pytest.raises(OrthogonalityFailure, match="not an integer") as err:
        character_table(again)
    assert not isinstance(err.value, ValueError)


def test_group_index_is_built_on_first_use_and_folds_do_not_need_it():
    G = repring._build_group("E7")
    assert G._index is None
    graded_fold(G)
    assert G._index is None
    assert G.index == {q: i for i, q in enumerate(G.elements)}
    for name in ("D5", "E7", "BD4"):
        H = quaternion_group(name)
        for gr in gradings(H):
            K, image = repring._kernel_group(H, gr)
            assert image == tuple(H.index[e] for e in K.elements)
    assert embedding("D5", "E7").sup is quaternion_group("E7")


def _d4(label):
    return irrep_vr(quaternion_group("D4"), label)


def _d4_grading():
    return next(g for g in gradings(quaternion_group("D4")) if g.psi_label == "s2")


PUBLIC_INPUT_ERRORS = {
    "unknown O(2) irrep":
        (lambda: classify_graded("lambda"), ValueError, "unknown O(2) irrep 'lambda'"),
    # the O(2) irreps past 1 and delta are kappa_i for i >= 1 only
    "kappa_0": (lambda: classify_graded("kappa_0"), ValueError, "unknown O(2) irrep 'kappa_0'"),
    "kappa_-3":
        (lambda: classify_graded("kappa_-3"), ValueError, "unknown O(2) irrep 'kappa_-3'"),
    "kappa_x": (lambda: classify_graded("kappa_x"), ValueError, "unknown O(2) irrep 'kappa_x'"),
    "no grading":
        (lambda: classify_graded(_d4("t")), ValueError, "a Grading is required for finite groups"),
    "other group": (
        lambda: classify_graded(irrep_vr(quaternion_group("A3"), "r'_1"), _d4_grading()),
        GroupMismatch, "rho and grading live in different groups",
    ),
    "not irreducible": (
        lambda: classify_graded(2 * _d4("t"), _d4_grading()),
        ValueError, "classify_graded wants a single irreducible",
    ),
    "negative sigma": (
        lambda: res_su2_to_finite(quaternion_group("D4"), -1),
        ValueError, "sigma index must be nonnegative",
    ),
}


@pytest.mark.parametrize("case", PUBLIC_INPUT_ERRORS)
def test_public_input_errors_are_typed_and_named(case):
    call, kind, message = PUBLIC_INPUT_ERRORS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


DEGENERATE_ORDERS = {
    "zeta(0)": lambda: cyclo.zeta(0),
    "zeta(-3)": lambda: cyclo.zeta(-3),
    "C0": lambda: quaternion_group("C0"),
    "BD0": lambda: quaternion_group("BD0"),
    "cos_frac(1, 0)": lambda: cyclo.cos_frac(1, 0),
}


@pytest.mark.parametrize("build", DEGENERATE_ORDERS.values(), ids=DEGENERATE_ORDERS.keys())
def test_degenerate_orders_name_themselves(build):
    with pytest.raises(ValueError, match="order must be positive"):
        build()


# --- input checks and reprs ---------------------------------------------------------


def test_group_input_checks():
    G = quaternion_group("A3")
    label = G.irrep_labels()[0]
    for make, exc, msg in [
        (lambda: irrep_vr(G, "x"), KeyError, "no irrep 'x' in A3"),
        (lambda: quaternion_group("A2"), ValueError,
         "A2 is even; cyclic subgroups here are A(odd) = C(odd+1)"),
        (lambda: quaternion_group("F4"), ValueError, "unknown group 'F4'"),
        (lambda: restrict(irrep_vr(G, label), embedding("A1", "D4")), GroupMismatch,
         "rho does not live in the embedding's supergroup"),
        (lambda: induce(irrep_vr(G, label), embedding("A1", "D4")), GroupMismatch,
         "rho does not live in the embedding's subgroup"),
    ]:
        with pytest.raises(exc) as err:
            make()
        assert err.value.args[0] == msg


def test_group_values_render_and_compare():
    G = quaternion_group("A3")
    assert repr(G) == "QuaternionGroup(A3, order 4)"
    assert G.irrep_labels() == character_table(G).labels
    i = G.elements[1]
    assert repr(i) == "Quaternion(0, 1, 0, 0)" and (i == 1) is False and i != "i"
    assert i.su2_matrix() == ((cyclo.zeta(4), 0), (0, -cyclo.zeta(4)))
    rho = irrep_vr(G, G.irrep_labels()[0])
    assert (rho == 1) is False and rho != "rho"
    assert embedding("A1", "A3").image_set() == frozenset({0, 2})
    assert [repr(gr) for gr in gradings(G)] == ["Grading(A3, kernel order 2, psi=r'_-1)"]


def test_gradings_of_a_group_without_irrep_tables_name_no_psi():
    G = quaternion_group("A3")
    plain = QuaternionGroup("plain", G.elements, None, None, G.generators)
    assert [(gr.kernel, gr.psi_label) for gr in gradings(plain)] == [
        (gr.kernel, None) for gr in gradings(G)
    ]
