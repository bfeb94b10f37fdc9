"""Tests for modular invariants, nimreps, and finite-group inductions.

Published anchors:
- Level 4 block invariant: |x0+x4|^2 + 2|x2|^2, so the matrix has ones
  at the four corners of {0,4} x {0,4} and a 2 at (2,2).
- Level 10 block invariant: |x0+x6|^2 + |x4+x10|^2 + |x3+x7|^2.
- Branching rules behind them: the three primaries of the Z_3 ring
  restrict as (x0+x4, x2, x2), the three Ising primaries as
  (x0+x6, x4+x10, x3+x7); sector counts (tr Z, tr ZZ^t) are (4, 8)
  and (6, 12).
- Fork-graph exponents at level 4 are {0, 2, 2, 4}; the six-node
  E graph at level 10 gives {0, 3, 4, 6, 7, 10}.
- Normalized invariant counts by level: 2 -> 1, 4 -> 2, 10 -> 3.

Derived oracles, frozen after computing them by hand:
- Symmetrized-square sector count with fixed points resolved, for 3
  base labels: 3 diagonal orbits with two-element stabilizer carry two
  characters each, 3 off-diagonal orbits carry one, total 9.
- Chiral induction on the double of an abelian group: both induction
  maps land in cosets of the chosen subgroup of the square, and the
  resulting invariant is Z[(a,x),(b,y)] = [a-b in N][x == y][x kills N]
  where N is the difference subgroup.  The predicate is re-derived
  below without the library's coset machinery.
"""

import random
from collections import defaultdict
from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlkit.cyclo import CycNumber, cos_frac, rational, real_embed, sin_frac, sqrt_int, zeta
from verlkit.exactla import IntMatrix, kernel_basis
from verlkit.fusion import double_abelian, level1_data, su2_modular_data
from verlkit.modinv import (
    _charpoly,
    _commutant_rows,
    _floor_exact,
    _intertwiner_failure,
    _row_hermite,
    BranchingRule,
    CheckReport,
    DiagonalNotContained,
    InvariantCheckFailed,
    ModularInvariant,
    NegativeEntry,
    SearchBudgetExceeded,
    SelfCheckFailure,
    SpectrumMismatch,
    ade_graph,
    alpha_induction_abelian,
    cardinalities,
    central_charge_check,
    check_invariant,
    embed_invariant,
    enumerate_invariants,
    nimrep_from_graph,
    overgroups_of_diagonal,
    permutation_orbifold_count,
)

D4_GRID = (
    (1, 0, 0, 0, 1),
    (0, 0, 0, 0, 0),
    (0, 0, 2, 0, 0),
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 1),
)

E6_GRID = (
    (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1),
)

D4_BRANCHING = [
    [1, 0, 0, 0, 1],
    [0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0],
]

E6_BRANCHING = [
    [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
]


# -- enumeration ---------------------------------------------------------------


def test_level_2_has_only_the_diagonal():
    invs = enumerate_invariants(2)
    assert len(invs) == 1
    assert invs[0].matrix == tuple(
        tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
    )


def test_level_4_finds_the_block_invariant():
    invs = enumerate_invariants(4)
    assert len(invs) == 2
    assert D4_GRID in {z.matrix for z in invs}


def test_level_10_finds_three_including_the_e_block():
    invs = enumerate_invariants(10)
    assert len(invs) == 3
    assert E6_GRID in {z.matrix for z in invs}


@pytest.mark.parametrize("level, count", [(11, 1), (12, 2), (16, 3), (22, 2), (28, 3)])
def test_ciz_census_above_level_ten(level, count):
    # A alone at odd level, A + D at even level, E7 at 16 and E8 at 28:
    # the levels where the Hermite walk prunes branches
    invs = enumerate_invariants(level)
    assert len(invs) == count
    # CIZ: each diagonal (Z_ll)_l is the exponent multiplicity vector of one
    # A-D-E graph of Coxeter number level + 2, and each graph has one invariant
    m = level + 1
    diagonals = sorted(tuple(z.matrix[lam][lam] for lam in range(m)) for z in invs)
    graphs = ["A%d" % m] + (["D%d" % (level // 2 + 2)] if level % 2 == 0 else [])
    graphs += {10: ["E6"], 16: ["E7"], 28: ["E8"]}.get(level, [])
    exponents = [nimrep_from_graph(ade_graph(g)[0], level).exponents for g in graphs]
    spectra = sorted(tuple(e.count(lam) for lam in range(m)) for e in exponents)
    assert diagonals == spectra


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 10])
def test_enumerated_invariants_pass_every_axiom(level):
    data = su2_modular_data(level)
    invs = enumerate_invariants(level)
    grids = {z.matrix for z in invs}
    for z in invs:
        assert check_invariant(z, data).passed
        assert z.is_normalized
        # closure under transpose
        assert tuple(zip(*z.matrix)) in grids


def test_budget_exception_carries_diagnostics():
    with pytest.raises(SearchBudgetExceeded) as exc:
        enumerate_invariants(10, budget=1)
    err = exc.value
    assert err.budget == 1
    assert err.volume > 1
    assert err.rank == len(err.pivot_bounds)
    vol = 1
    for b in err.pivot_bounds:
        vol *= b + 1
    assert vol == err.volume


# -- the search-box floor ------------------------------------------------------


def _mpmath_floor(x):
    """The floor enumerate_invariants read off real_embed before the integer
    enclosure, kept as the oracle.  nint and floor run at mpmath's default
    53 bits, so it is only right well below 2^53, which covers every box
    bound: they are at most (k + 1)^2."""
    v = real_embed(x).real
    near = int(mpmath.nint(v))
    if (x - near).is_zero():
        return near
    return int(mpmath.floor(v))


def _box_bounds(level):
    """d_i d_j over the positions with T_i = T_j, from the closed forms
    d_j = sin(pi (j+1)/n) / sin(pi/n) and T_j = zeta_8n^(2(j+1)^2 - n),
    n = level + 2, in enumerate_invariants' order."""
    n, m = level + 2, level + 1
    inv = sin_frac(1, 2 * n).inverse()
    dims = [sin_frac(j + 1, 2 * n) * inv for j in range(m)]
    return [
        dims[i] * dims[j]
        for i in range(m)
        for j in range(m)
        if ((i + 1) ** 2 - (j + 1) ** 2) % (4 * n) == 0
    ]


def test_box_bounds_follow_the_modular_data():
    data = su2_modular_data(10)
    inv00 = data.S[0][0].inverse()
    dims = [data.S[0][j] * inv00 for j in range(11)]
    want = [dims[i] * dims[j] for i in range(11) for j in range(11) if data.T[i] == data.T[j]]
    assert _box_bounds(10) == want


def test_floor_matches_the_mpmath_oracle_on_every_box_bound():
    values = [v for level in range(1, 29) for v in _box_bounds(level)]
    assert len(values) == 636
    for v in values:
        assert _floor_exact(v) == _mpmath_floor(v), v
        assert _floor_exact(-v) == _mpmath_floor(-v), v


@pytest.mark.parametrize("k", [1, 2, 40, 41, 80, 120, 121])
def test_floor_beside_an_integer(k):
    # (1 + sqrt 2)^k + (1 - sqrt 2)^k and phi^k + psi^k are integers (the
    # recurrences below), and the second terms, below 10^-46 at k = 120,
    # are positive for even k.  Beyond 2^53 the mpmath oracle is no oracle.
    pell, lucas = [2, 2], [2, 1]
    for _ in range(k):
        pell.append(2 * pell[-1] + pell[-2])
        lucas.append(lucas[-1] + lucas[-2])
    for x, near in (((1 + sqrt_int(2)) ** k, pell[k]), (((1 + sqrt_int(5)) / 2) ** k, lucas[k])):
        want = near - 1 if k % 2 == 0 else near
        assert _floor_exact(x) == want
        assert _floor_exact(-x) == -want - 1


def test_floor_of_rationals_written_at_higher_orders():
    # the canonical power-basis vector is unique, so these take the exact branch
    c = zeta(5) + zeta(5, 4)
    s = sqrt_int(3)
    cases = [(c * c + c, 1, -1), ((s + 1) * (s - 1), 2, -2), (cos_frac(1, 6), 0, -1), (s * s / 4, 0, -1)]
    for x, up, down in cases:
        assert x.order > 1 and x.is_rational()
        assert _floor_exact(x) == up == _mpmath_floor(x)
        assert _floor_exact(-x) == down == _mpmath_floor(-x)


def test_floor_rejects_a_non_real_value():
    for x in (zeta(8), 1 + zeta(4), zeta(4) * sqrt_int(2)):
        with pytest.raises(ValueError, match="non-real"):
            _floor_exact(x)


# -- axiom checking ------------------------------------------------------------


def test_check_invariant_rejects_t_violation():
    data = su2_modular_data(2)
    grid = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    rep = check_invariant(grid, data)
    assert not rep.passed
    assert "commutes_with_t" in rep.failures()


def test_check_invariant_rejects_unnormalized_vacuum():
    data = su2_modular_data(2)
    grid = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    rep = check_invariant(grid, data)
    assert rep.axioms["commutes_with_s"]
    assert not rep.axioms["vacuum"]
    assert not rep


def test_check_invariant_rejects_s_violation():
    data = su2_modular_data(2)
    # swaps two T-degenerate labels only when such a pair exists; at
    # level 2 no off-diagonal T pair exists, so scale a diagonal entry
    grid = [[1, 0, 0], [0, 2, 0], [0, 0, 1]]
    rep = check_invariant(grid, data)
    assert not rep.axioms["commutes_with_s"]
    assert "commutes_with_s" in rep.notes


def test_check_invariant_reports_bad_entries_without_raising():
    data = su2_modular_data(2)
    rep = check_invariant([[1, 0, 0], [0, -1, 0], [0, 0, 1]], data)
    assert not rep.axioms["entries"]
    report = rep.to_json()
    assert report["passed"] is False


def test_check_invariant_rejects_wrong_shape():
    data = su2_modular_data(2)
    with pytest.raises(ValueError):
        check_invariant([[1, 0], [0, 1]], data)


def test_modular_invariant_constructor_validates():
    with pytest.raises(ValueError):
        ModularInvariant([[1, 0], [0]])
    with pytest.raises(ValueError):
        ModularInvariant([[1, -1], [0, 1]])
    with pytest.raises(InvariantCheckFailed):
        ModularInvariant([[1, 1, 0], [0, 1, 0], [0, 0, 1]], data=su2_modular_data(2))


# -- embeddings ----------------------------------------------------------------


def test_embed_level_4_reproduces_the_block_invariant():
    ext, _ = level1_data("SU3")
    base = su2_modular_data(4)
    z = embed_invariant(BranchingRule(D4_BRANCHING), ext, base)
    assert z.matrix == D4_GRID
    counts = cardinalities(z, D4_BRANCHING)
    assert (counts["tr_z"], counts["tr_zzt"], counts["tr_btb"]) == (4, 8, 4)


def test_embed_level_10_reproduces_the_e_block():
    ext, _ = level1_data("Sp4")
    base = su2_modular_data(10)
    z = embed_invariant(BranchingRule(E6_BRANCHING), ext, base)
    assert z.matrix == E6_GRID
    counts = cardinalities(z, E6_BRANCHING)
    assert (counts["tr_z"], counts["tr_zzt"], counts["tr_btb"]) == (6, 12, 6)


def test_embed_agrees_with_enumeration():
    ext, _ = level1_data("Sp4")
    base = su2_modular_data(10)
    z = embed_invariant(BranchingRule(E6_BRANCHING), ext, base)
    assert z in enumerate_invariants(10)


def test_embed_rejects_non_intertwining_branching():
    ext, _ = level1_data("SU3")
    base = su2_modular_data(4)
    broken = [
        [1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0],
    ]
    with pytest.raises(InvariantCheckFailed):
        embed_invariant(BranchingRule(broken), ext, base)


def test_branching_rule_validates_vacuum():
    with pytest.raises(ValueError):
        BranchingRule([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        BranchingRule([[1, -1], [0, 1]])


def test_cardinalities_of_the_diagonal():
    for k in (2, 5, 8):
        m = k + 1
        eye = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        counts = cardinalities(eye)
        assert counts == {"tr_z": m, "tr_zzt": m}


# -- graphs and nimreps --------------------------------------------------------


def test_ade_graph_shapes_and_degrees():
    A, labels = ade_graph("A5")
    assert A.shape == (5, 5) and len(labels) == 5
    degs = sorted(sum(A.row(i)) for i in range(5))
    assert degs == [1, 1, 2, 2, 2]
    D, _ = ade_graph("D4")
    assert sorted(sum(D.row(i)) for i in range(4)) == [1, 1, 1, 3]
    E, _ = ade_graph("E8")
    assert sorted(sum(E.row(i)) for i in range(8)) == [1, 1, 1, 2, 2, 2, 2, 3]
    with pytest.raises(ValueError):
        ade_graph("F4")
    with pytest.raises(ValueError):
        ade_graph("D3")


def test_fork_graph_nimrep_at_level_4():
    A, _ = ade_graph("D4")
    nr = nimrep_from_graph(A, 4)
    assert nr.exponents == (0, 2, 2, 4)
    assert all(nr.report.values())
    assert len(nr.matrices) == 5
    assert nr.matrices[0] == IntMatrix.identity(4)


def test_e6_graph_nimrep_at_level_10():
    A, _ = ade_graph("E6")
    nr = nimrep_from_graph(A, 10)
    assert nr.exponents == (0, 3, 4, 6, 7, 10)
    assert all(nr.report.values())


def test_e6_exponents_match_the_block_diagonal():
    # the multiset of exponents equals the diagonal support of the
    # matched invariant, with multiplicity Z_{ll}
    diag = [i for i in range(11) for _ in range(E6_GRID[i][i])]
    A, _ = ade_graph("E6")
    assert list(nimrep_from_graph(A, 10).exponents) == diag


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_path_graph_nimrep_is_the_fusion_ring(k):
    from verlkit.fusion import su2_fusion_truncated

    A, _ = ade_graph("A%d" % (k + 1))
    nr = nimrep_from_graph(A, k)
    ring = su2_fusion_truncated(k)
    assert nr.exponents == tuple(range(k + 1))
    for lam in range(k + 1):
        assert nr.matrices[lam] == ring.matrix(lam)


def test_short_path_graph_goes_negative():
    A, _ = ade_graph("A2")
    with pytest.raises(NegativeEntry):
        nimrep_from_graph(A, 3)


def test_fork_graph_fails_at_the_wrong_level():
    A, _ = ade_graph("D4")
    with pytest.raises(SpectrumMismatch):
        nimrep_from_graph(A, 2)


def test_nimrep_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        nimrep_from_graph([[0, 1], [0, 0]], 2)
    with pytest.raises(ValueError):
        nimrep_from_graph([[0, -1], [-1, 0]], 2)


def _nimrep_reference(A, level):
    """Exponents by the cyclotomic deflation that certified nimrep spectra
    before: the recursion's first negative entry raises NegativeEntry, then
    the charpoly is divided by x - 2cos(pi(kappa+1)/(level+2)) as long as
    the CycNumber remainder is zero, for kappa = 0..level."""
    g = A.rows
    mats = [IntMatrix.identity(g), A][: level + 1]
    for lam in range(2, level + 1):
        nxt = A * mats[-1] - mats[-2]
        for i, j in product(range(g), repeat=2):
            if nxt[i, j] < 0:
                raise NegativeEntry(
                    "entry (%d, %d) of the step-%d matrix is %d" % (i, j, lam, nxt[i, j])
                )
        mats.append(nxt)
    desc = [rational(c) for c in reversed(_charpoly(A.to_lists()))]
    exponents = []
    for kappa in range(level + 1):
        root = cos_frac(kappa + 1, 2 * (level + 2)) * 2
        while len(desc) > 1:
            out = [desc[0]]
            for c in desc[1:]:
                out.append(c + root * out[-1])
            if not out.pop().is_zero():
                break
            desc = out
            exponents.append(kappa)
    if len(desc) != 1:
        raise SpectrumMismatch(
            "%d eigenvalues of the graph lie outside the level-%d exponent set"
            % (len(desc) - 1, level)
        )
    return tuple(sorted(exponents))


_COXETER = dict(
    [("A%d" % n, n + 1) for n in range(1, 26)]
    + [("D%d" % n, 2 * n - 2) for n in range(4, 20)]
    + [("E6", 12), ("E7", 18), ("E8", 30)]
)


@pytest.mark.parametrize("name", sorted(_COXETER))
def test_nimrep_exponents_match_the_cyclotomic_deflation(name):
    A, _ = ade_graph(name)
    h = _COXETER[name]
    passing = []
    for level in (h - 3, h - 2, h - 1):
        if level < 0:
            continue
        try:
            want = _nimrep_reference(A, level)
        except (NegativeEntry, SpectrumMismatch) as exc:
            want = (type(exc), str(exc))
        try:
            nr = nimrep_from_graph(A, level)
        except (NegativeEntry, SpectrumMismatch) as exc:
            got = (type(exc), str(exc))
        else:
            got = nr.exponents
            passing.append(level)
            # the truncation identity holds wherever the spectrum certifies
            assert nr.report["spectrum_numeric"] is True
        assert got == want
    # the graph is a nimrep at its Coxeter level, and at neither neighbour
    assert passing == [h - 2]


def _det_fraction(mat):
    """Determinant as the signed product of Fraction elimination pivots."""
    m = [list(map(Fraction, row)) for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i][c:] = [x - f * y for x, y in zip(m[i][c:], m[c][c:])]
    return det


def _symmetric_grids(rng, count):
    for _ in range(count):
        n = rng.randrange(9)
        grid = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                grid[i][j] = grid[j][i] = rng.choice([0, 0, 1, 2])
        yield grid


def test_charpoly_evaluates_to_the_fraction_determinant():
    graphs = [ade_graph("A%d" % n)[0].to_lists() for n in range(1, 31)]
    graphs += [ade_graph("D%d" % n)[0].to_lists() for n in range(4, 31)]
    graphs += [ade_graph(name)[0].to_lists() for name in ("E6", "E7", "E8")]
    graphs += list(_symmetric_grids(random.Random(1968), 60))
    for grid in graphs:
        n = len(grid)
        coeffs = _charpoly(grid)
        assert len(coeffs) == n + 1 and coeffs[-1] == 1
        for x in range(n + 2):
            shifted = [[x * (i == j) - grid[i][j] for j in range(n)] for i in range(n)]
            assert sum(c * x**i for i, c in enumerate(coeffs)) == _det_fraction(shifted)


def test_nimrep_self_check_failure_is_typed(monkeypatch):
    from verlkit import modinv

    assert issubclass(SelfCheckFailure, RuntimeError)
    monkeypatch.setattr(modinv, "_fusion_failure", lambda ring, mats: (1, 1))
    with pytest.raises(SelfCheckFailure, match="graph matrices fail the fusion identity"):
        nimrep_from_graph(ade_graph("A3")[0], 2)


# -- central charges -----------------------------------------------------------


def test_central_charges_of_the_four_embeddings():
    # SU(2): dim 3, h 2.  SU(3): dim 8, h 3.  Sp(4): dim 10, h 3.
    # G2: dim 14, h 4.  Circle: dim 1, h 0.
    assert central_charge_check(3, 2, 4, 8, 3, 1)
    assert central_charge_check(3, 2, 10, 10, 3, 1)
    assert central_charge_check(3, 2, 28, 14, 4, 1)
    assert central_charge_check(1, 0, 2, 3, 2, 1)


def test_central_charges_fail_off_by_one():
    assert not central_charge_check(3, 2, 5, 8, 3, 1)
    assert not central_charge_check(3, 2, 9, 10, 3, 1)
    assert not central_charge_check(3, 2, 27, 14, 4, 1)
    # the circle charge does not depend on its level, so the failing
    # perturbation is on the ambient side
    assert not central_charge_check(1, 0, 2, 3, 2, 2)


def test_central_charge_rejects_zero_denominator():
    with pytest.raises(ValueError):
        central_charge_check(1, 0, 0, 3, 2, 1)


# -- chiral induction on doubles -----------------------------------------------


def _brute_invariant(orders, N):
    """Closed form [a-b in N][x == y][x kills N] on the double's labels."""
    elts = sorted(product(*[range(mi) for mi in orders]))
    base = [(a, x) for a in elts for x in elts]
    L = lcm(*orders)

    def kills(x):
        return all(
            sum(xi * ni * (L // mi) for xi, ni, mi in zip(x, n, orders)) % L == 0
            for n in N
        )

    rows = []
    for a, x in base:
        row = []
        for b, y in base:
            d = tuple((ai - bi) % mi for ai, bi, mi in zip(a, b, orders))
            row.append(1 if (d in N and x == y and kills(x)) else 0)
        rows.append(row)
    return rows


def test_diagonal_subgroup_gives_the_identity_invariant():
    res = alpha_induction_abelian(2, [((0,), (0,)), ((1,), (1,))])
    assert res["Z"] == IntMatrix.identity(4)
    assert res["difference_subgroup"] == ((0,),)
    assert len(res["full_system"]) == 4
    assert len(res["neutral_system"]) == 4


def test_full_square_gives_the_rank_one_invariant():
    H = [((a,), (b,)) for a in range(2) for b in range(2)]
    res = alpha_induction_abelian(2, H)
    Z = res["Z"].to_lists()
    assert sum(c for row in Z for c in row) == 4
    assert sum(Z[i][i] for i in range(4)) == 2
    assert len(res["neutral_system"]) == 1


@pytest.mark.parametrize("G", [2, 4, (2, 2)])
def test_all_overgroups_give_consistent_invariants(G):
    orders = (G,) if isinstance(G, int) else G
    md, _ = double_abelian(G)
    base = [
        (a, x)
        for a in sorted(product(*[range(mi) for mi in orders]))
        for x in sorted(product(*[range(mi) for mi in orders]))
    ]
    assert md.labels == tuple(base)
    for H in overgroups_of_diagonal(G):
        res = alpha_induction_abelian(G, H)
        Z = res["Z"]
        b = res["branching"]
        # the two chiral routes agree
        assert Z == b.transpose() * b
        # closed-form oracle
        assert Z.to_lists() == _brute_invariant(orders, set(res["difference_subgroup"]))
        # every axiom of the double's modular datum
        assert check_invariant(Z, md).passed
        # the full system has as many labels as the invariant has weight
        assert len(res["full_system"]) == sum(
            c * c for row in Z.to_lists() for c in row
        )
        # plus induction is a bijection onto nothing smaller than cosets
        assert set(res["alpha_plus"]) == set(base)
        assert set(res["alpha_minus"]) == set(base)


def test_alpha_induction_rejects_missing_diagonal():
    with pytest.raises(DiagonalNotContained):
        alpha_induction_abelian(2, [((0,), (0,))])


def test_alpha_induction_rejects_non_subgroup():
    H = [((0,), (0,)), ((1,), (1,)), ((1,), (0,))]
    with pytest.raises(ValueError):
        alpha_induction_abelian(2, H)


def test_overgroup_lattice_sizes():
    assert len(overgroups_of_diagonal(2)) == 2
    assert len(overgroups_of_diagonal(4)) == 3
    assert len(overgroups_of_diagonal((2, 2))) == 5
    # subgroup counts: Z_12 one per divisor of 12; Z_2 x Z_4 has 8;
    # (Z_2)^3 has 1 + 7 + 7 + 1; (Z_3)^2 has 1 + 4 + 1
    assert len(overgroups_of_diagonal(12)) == 6
    assert len(overgroups_of_diagonal((2, 4))) == 8
    assert len(overgroups_of_diagonal((2, 2, 2))) == 16
    assert len(overgroups_of_diagonal((3, 3))) == 6
    # (Z_2)^4 has 1 + 15 + 35 + 15 + 1
    assert len(overgroups_of_diagonal((2, 2, 2, 2))) == 67
    for H in overgroups_of_diagonal(3):
        assert len(H) % 3 == 0


# -- permutation orbifold counts -----------------------------------------------

SWAP = [(0, 1), (1, 0)]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_symmetrized_square_orbit_count(m):
    assert permutation_orbifold_count(m * m, 2, SWAP) == (m**4 + m**2) // 2


def test_resolved_count_splits_fixed_points():
    # 3 diagonal orbits carry two characters each, 3 free orbits one
    assert permutation_orbifold_count(3, 2, SWAP, resolve_fixed_points=True) == 9
    assert permutation_orbifold_count(3, 2, SWAP) == 6


def test_trivial_group_counts_tuples():
    assert permutation_orbifold_count(5, 2, [(0, 1)]) == 25


_GROUPS = [
    [(0, 1)],
    SWAP,
    [(0, 1, 2)],
    [(0, 1, 2), (1, 2, 0), (2, 0, 1)],
    [(0, 1, 2), (1, 0, 2)],
    [
        (0, 1, 2),
        (1, 2, 0),
        (2, 0, 1),
        (1, 0, 2),
        (0, 2, 1),
        (2, 1, 0),
    ],
    # Z_4, the dihedral group of the square, S_4 and <(01), (23)>, on 4 copies
    [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)],
    [
        (0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
        (3, 2, 1, 0), (0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3),
    ],
    sorted(permutations(range(4))),
    [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)],
]


def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _invert(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _class_count(group):
    remaining = set(group)
    classes = 0
    while remaining:
        x = remaining.pop()
        classes += 1
        for g in group:
            remaining.discard(_compose(_compose(g, x), _invert(g)))
    return classes


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=1, max_value=5),
    gi=st.integers(0, len(_GROUPS) - 1),
    resolve=st.booleans(),
)
def test_orbit_count_matches_an_explicit_walk(n, gi, resolve):
    # walk the label tuples; each orbit counts once, or, resolved, as many
    # times as its stabilizer has conjugacy classes
    group = _GROUPS[gi]
    copies = len(group[0])
    seen = set()
    orbits = 0
    for t in product(range(n), repeat=copies):
        if t in seen:
            continue
        stabilizer = []
        for g in group:
            u = tuple(t[g[i]] for i in range(copies))
            seen.add(u)
            if u == t:
                stabilizer.append(g)
        orbits += _class_count(stabilizer) if resolve else 1
    assert permutation_orbifold_count(n, copies, group, resolve_fixed_points=resolve) == orbits


def test_orbifold_count_validates_the_group():
    with pytest.raises(ValueError):
        permutation_orbifold_count(3, 2, [(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        permutation_orbifold_count(3, 2, [(1, 0)])
    with pytest.raises(ValueError):
        permutation_orbifold_count(3, 3, [(0, 1, 2), (1, 2, 0)])
    with pytest.raises(ValueError):
        permutation_orbifold_count(0, 2, SWAP)
    for bad in (2.0, 2.5, True):
        with pytest.raises(TypeError):
            permutation_orbifold_count(bad, 2, SWAP)
        with pytest.raises(TypeError):
            permutation_orbifold_count(2, bad, SWAP)


# -- report plumbing -----------------------------------------------------------


def test_check_report_is_immutable_and_serializable():
    rep = CheckReport({"entries": True}, {})
    assert rep.passed and bool(rep)
    with pytest.raises(AttributeError):
        rep.axioms = {}
    assert rep.to_json() == {"passed": True, "axioms": {"entries": True}, "notes": {}}


def test_invariant_serialization():
    z = ModularInvariant(D4_GRID)
    js = z.to_json()
    assert js["trace"] == 4
    assert js["normalized"] is True
    assert js["matrix"][2][2] == 2


def test_nimrep_serialization():
    A, _ = ade_graph("D4")
    js = nimrep_from_graph(A, 4).to_json()
    assert js["level"] == 4
    assert js["exponents"] == [0, 2, 2, 4]
    assert js["report"]["spectrum_numeric"] is True


# -- the integer intertwiner against the cyclotomic loops it replaced ---------
#
# The library tests X B = A X on integer coordinate matrices.  The oracles
# below are the cyclotomic loops that did it before: the linearized rows of
# ZS = SZ with each coefficient lifted to a common order, and the entrywise
# S products of `check_invariant` and `embed_invariant`.

_CYC_ZERO = CycNumber(1, [0])


def _vec_at_reference(c, order):
    return (c * zeta(order, 0)).coeff_vector()


def _commutant_rows_reference(S, positions):
    m = len(S)
    by_row = defaultdict(list)
    by_col = defaultdict(list)
    for u, (p, q) in enumerate(positions):
        by_row[p].append((u, q))
        by_col[q].append((u, p))
    rows = set()
    for i in range(m):
        for j in range(m):
            coeff = {}
            for u, q in by_row[i]:
                coeff[u] = coeff.get(u, _CYC_ZERO) + S[q][j]
            for u, p in by_col[j]:
                coeff[u] = coeff.get(u, _CYC_ZERO) - S[i][p]
            live = {u: c for u, c in coeff.items() if not c.is_zero()}
            if not live:
                continue
            order = 1
            for c in live.values():
                order = lcm(order, c.order)
            vecs = {u: _vec_at_reference(c, order) for u, c in live.items()}
            for t in range(order):
                den = 1
                for u in live:
                    den = lcm(den, vecs[u][t].denominator)
                row = [0] * len(positions)
                nonzero = False
                for u in live:
                    val = vecs[u][t]
                    if val:
                        row[u] = int(val * den)
                        nonzero = True
                if not nonzero:
                    continue
                g = 0
                for c in row:
                    g = gcd(g, c)
                row = [c // g for c in row]
                for c in row:
                    if c:
                        if c < 0:
                            row = [-x for x in row]
                        break
                rows.add(tuple(row))
    return sorted(rows)


def _s_loop_reference(X, A, B):
    """First (i, j) where (X B)[i][j] != (A X)[i][j], summed entry by entry."""
    for i in range(len(X)):
        for j in range(len(B[0])):
            xb = _CYC_ZERO
            ax = _CYC_ZERO
            for t in range(len(B)):
                if X[i][t]:
                    xb = xb + B[t][j] * X[i][t]
            for t in range(len(A)):
                if X[t][j]:
                    ax = ax + A[i][t] * X[t][j]
            if xb != ax:
                return (i, j)
    return None


def _t_loop_reference(X, TA, TB):
    for i in range(len(X)):
        for j in range(len(X[0])):
            if X[i][j] and TA[i] != TB[j]:
                return (i, j)
    return None


def _hermite_basis(rows, npos):
    if not rows:
        return [[1 if v == u else 0 for v in range(npos)] for u in range(npos)]
    K = kernel_basis(IntMatrix.from_rows(rows))
    return _row_hermite([K.col(t) for t in range(K.cols)])


@pytest.mark.parametrize("level", range(1, 17))
def test_commutant_rows_span_the_cyclotomic_oracle_lattice(level):
    data = su2_modular_data(level)
    m = level + 1
    positions = [(i, j) for i in range(m) for j in range(m) if data.T[i] == data.T[j]]
    rows = _commutant_rows(data.S, positions)
    oracle = _commutant_rows_reference(data.S, positions)
    assert all(any(r) for r in rows)
    assert _hermite_basis(rows, len(positions)) == _hermite_basis(oracle, len(positions))


def _perturbations(grid, rng, count):
    """Copies of `grid` with one or two entries moved by +-1, kept nonnegative."""
    p, m = len(grid), len(grid[0])
    out = []
    while len(out) < count:
        g = [list(row) for row in grid]
        for _ in range(rng.choice((1, 2))):
            i, j = rng.randrange(p), rng.randrange(m)
            g[i][j] = max(0, g[i][j] + rng.choice((1, -1, 1)))
        out.append(g)
    return out


@pytest.mark.parametrize("level", [4, 10, 16])
def test_check_invariant_first_failures_match_the_cyclotomic_loops(level):
    data = su2_modular_data(level)
    rng = random.Random(level)
    seen = {"commutes_with_t": 0, "commutes_with_s": 0}
    S_copy = [list(row) for row in data.S]  # equal to S, but keyed apart from it
    for z in enumerate_invariants(level):
        for g in [list(map(list, z.matrix))] + _perturbations(z.matrix, rng, 40):
            rep = check_invariant(g, data)
            t_bad = _t_loop_reference(g, data.T, data.T)
            s_bad = _s_loop_reference(g, data.S, data.S)
            assert _intertwiner_failure(g, data.S, S_copy) == s_bad
            assert rep.notes.get("commutes_with_t") == (
                None if t_bad is None else "nonzero entry across T classes at %s" % (t_bad,)
            )
            assert rep.notes.get("commutes_with_s") == (
                None if s_bad is None else "ZS and SZ differ first at %s" % (s_bad,)
            )
            seen["commutes_with_t"] += t_bad is not None
            seen["commutes_with_s"] += s_bad is not None and t_bad is None
    # both axioms fail on their own somewhere, so both positions are compared
    assert min(seen.values()) > 0


def test_check_invariant_first_failure_on_a_double():
    md, _ = double_abelian(4)
    for H in overgroups_of_diagonal(4):
        g = alpha_induction_abelian(4, H)["Z"].to_lists()
        for i, j in [(1, 2), (5, 5), (0, 15)]:
            bent = [list(row) for row in g]
            bent[i][j] += 1
            s_bad = _s_loop_reference(bent, md.S, md.S)
            assert check_invariant(bent, md).notes.get("commutes_with_s") == (
                None if s_bad is None else "ZS and SZ differ first at %s" % (s_bad,)
            )


@pytest.mark.parametrize(
    "name, level, branching",
    [("SU3", 4, D4_BRANCHING), ("Sp4", 10, E6_BRANCHING)],
    ids=["SU3_1-to-SU2_4", "Sp4_1-to-SU2_10"],
)
def test_embed_invariant_first_failures_match_the_cyclotomic_loops(name, level, branching):
    ext, _ = level1_data(name)
    base = su2_modular_data(level)
    # the two theories live at different cyclotomic orders
    assert {e.order for row in ext.S for e in row} != {e.order for row in base.S for e in row}
    rng = random.Random(level)
    grids = _perturbations(branching, rng, 60)
    # moves inside a T class leave T intact, so only S can fail
    for i0, j0 in product(range(len(branching)), range(len(branching[0]))):
        if ext.T[i0] == base.T[j0]:
            g = [list(row) for row in branching]
            g[i0][j0] += 1
            grids.append(g)
    s_only = 0
    for g in grids:
        if g[0][0] != 1:
            continue
        t_bad = _t_loop_reference(g, ext.T, base.T)
        s_bad = _s_loop_reference(g, ext.S, base.S)
        if t_bad is not None:
            want = "branching does not intertwine T at (%d, %d)" % t_bad
        elif s_bad is not None:
            want = "branching does not intertwine S at (%d, %d)" % s_bad
            s_only += 1
        else:
            want = None
        try:
            embed_invariant(BranchingRule(g), ext, base)
            got = None
        except InvariantCheckFailed as exc:
            got = str(exc) if "intertwine" in str(exc) else None
        assert got == want
    assert s_only > 0


MODINV_INPUT_ERRORS = {
    "non-square invariant": (lambda: ModularInvariant([[1, 0]]), ValueError,
                             "invariant matrix must be square"),
    "empty branching": (lambda: BranchingRule([]), ValueError,
                        "branching matrix must be nonempty"),
    "ragged branching": (lambda: BranchingRule([[1, 0], [1]]), ValueError,
                         "branching rows must have equal length"),
    "plain integer in a product": (lambda: alpha_induction_abelian((2, 2), [(0, 0)]), ValueError,
                                   "plain integers only label single cyclic factors"),
    "too many components": (lambda: alpha_induction_abelian(2, [((0, 1), 0)]), ValueError,
                            "element has the wrong number of components"),
    "non-square adjacency": (lambda: nimrep_from_graph([[0, 1]], 2), ValueError,
                             "adjacency matrix must be square"),
    "negative level": (lambda: nimrep_from_graph(ade_graph("A3")[0], -1), ValueError,
                       "level must be nonnegative"),
}

@pytest.mark.parametrize("case", MODINV_INPUT_ERRORS)
def test_modinv_input_errors_are_named(case):
    call, kind, message = MODINV_INPUT_ERRORS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


# --- input checks and reprs ---------------------------------------------------------


@pytest.mark.parametrize("make, msg", [
    (lambda: embed_invariant([[1, 0]], su2_modular_data(2), su2_modular_data(2)),
     "branching shape does not match the two data"),
    (lambda: ade_graph("A0"), "A_n needs n >= 1"),
    (lambda: ade_graph("E9"), "E_n exists for n in {6, 7, 8}"),
    (lambda: permutation_orbifold_count(3, 2, [(0, 1), (0, 1)]), "group elements must be distinct"),
])
def test_modinv_input_checks(make, msg):
    with pytest.raises(ValueError) as err:
        make()
    assert err.value.args[0] == msg


def test_modinv_values_render_and_compare():
    md = su2_modular_data(2)
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert repr(check_invariant(eye, md)) == "CheckReport(pass)"
    bad = check_invariant([[1, 1, 0], [1, 1, 0], [0, 0, 1]], md)
    assert repr(bad) == "CheckReport(fail: commutes_with_s, commutes_with_t)"
    Z = ModularInvariant(eye, md)
    assert (Z.size, repr(Z)) == (3, "ModularInvariant(3x3, trace 3)")
    assert (Z == eye) is False and Z != 3
    assert repr(BranchingRule([[1, 0, 1], [0, 1, 0]])) == "BranchingRule(2x3)"
    nim = nimrep_from_graph(ade_graph("A3")[0], 2)
    assert repr(nim) == "Nimrep(level 2, 3 nodes, exponents [0, 1, 2])"


def test_plain_integers_label_a_single_cyclic_factor():
    by_int = alpha_induction_abelian(4, [(a, (a + d) % 4) for a in range(4) for d in (0, 2)])
    by_tuple = alpha_induction_abelian(
        4, [((a,), ((a + d) % 4,)) for a in range(4) for d in (0, 2)])
    assert by_int == by_tuple
