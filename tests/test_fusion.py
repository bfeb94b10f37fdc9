"""Tests for exact modular data and fusion rings.

Published anchors:
- SU(2)_1 has S = [[1,1],[1,-1]]/sqrt(2).
- SU(2)_4 and SU(2)_10 eigenvalue ratios: S_{1l}/S_{0l} = 2cos(pi(l+1)/6)
  and 2cos(pi(l+1)/12) respectively.
- SU(3)_1 obeys Z_3 fusion rules; Sp(4)_1 obeys the Ising rules.
- Twisted doubles of Z_n: (n,sigma) = (2,1) gives Z_4, (2,2) gives
  Z_2 x Z_2 (trivial class, the untwisted answer), (3,1) gives Z_9.

Derived oracle: _oracle_twisted_orders builds the omega_sigma-twisted
double of Z_n over complex floats, reading each flux block's characters
off eigenvectors of the block's left-regular representation, fusing
characters pointwise, and following powers through the resulting Cayley
table.  It shares no code with the exact construction.  The closed form
d = gcd(2n, sigma) for the fusion group Z_d x Z_{n^2/d} agrees with the
oracle at every valid twist with v_2(sigma) <= v_2(n); the lone
exception for n <= 6 is (n, sigma) = (6, 4), where construction and
oracle both give Z_2 x Z_18.  That point is frozen here as constructed;
the acceptance suite reports the closed-form comparison.
"""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verlkit import cyclo, fusion
from verlkit.cyclo import cos_frac, rational, sqrt_int, zeta
from verlkit.exactla import FGAbelianGroup, IntMatrix, PresentedModule, cokernel
from verlkit.fusion import (
    FusionRing,
    InvalidTwist,
    ModularCheckFailure,
    ModularData,
    NonAbelian,
    NonIntegralFusion,
    SingularLevel,
    double_abelian,
    double_cyclic_twisted,
    level1_data,
    su2_fusion_truncated,
    su2_modular_data,
    _fusion_failure,
    torus_fusion,
    verlinde_matrices,
)
from verlkit.modinv import (
    BranchingRule, ade_graph, check_invariant, enumerate_invariants, nimrep_from_graph,
)
from verlkit.polyring import LaurentPoly, TruncationWindow
from verlkit.repring import (
    QuaternionGroup, character_table, embedding, gradings, irrep_vr, quaternion_group,
)

MAX_LEVEL = 16
_ONE, _ZERO = rational(1), rational(0)


def _oracle_twisted_orders(n: int, sigma: int):
    """Element-order multiset of the twisted double's fusion group.

    Numeric throughout: the flux-g block is the twisted group algebra
    with e_x e_y = theta_g(x,y) e_{x+y}, theta_g(x,y) =
    zeta_n^(sigma*g*carry(x,y)).  Characters are eigenvector ratios of
    the block's regular representation; fusion is pointwise character
    multiplication matched against the target block's character list.
    """

    def theta(g, x, y):
        return np.exp(2j * np.pi * sigma * g * ((x % n + y % n) // n) / n)

    chars = []
    for g in range(n):
        L1 = np.zeros((n, n), dtype=complex)
        for x in range(n):
            L1[(x + 1) % n, x] = theta(g, 1, x)
        _, vecs = np.linalg.eig(L1)
        for i in range(n):
            v = vecs[:, i]
            pivot = int(np.argmax(np.abs(v)))
            chi = np.zeros(n, dtype=complex)
            for x in range(n):
                Lx = np.zeros((n, n), dtype=complex)
                for y in range(n):
                    Lx[(x + y) % n, y] = theta(g, x, y)
                chi[x] = (Lx @ v)[pivot] / v[pivot]
            chars.append((g, chi))
    uniq = []
    for g, chi in chars:
        if not any(g2 == g and np.allclose(chi, c2, atol=1e-8) for g2, c2 in uniq):
            uniq.append((g, chi))
    assert len(uniq) == n * n

    def find(g, chi):
        for idx, (g2, c2) in enumerate(uniq):
            if g2 == g and np.allclose(chi, c2, atol=1e-7):
                return idx
        raise AssertionError("fused character missing from target block")

    table = [
        [find((g1 + g2) % n, c1 * c2) for (g2, c2) in uniq] for (g1, c1) in uniq
    ]
    e = find(0, np.ones(n))
    orders = []
    for i in range(n * n):
        x, o = i, 1
        while x != e:
            x = table[x][i]
            o += 1
        orders.append(o)
    return sorted(orders)


def _ring_orders(ring: FusionRing):
    m = len(ring.labels)
    table = [[ring.N[a][b].index(1) for b in range(m)] for a in range(m)]
    orders = []
    for i in range(m):
        x, o = i, 1
        while x != ring.unit:
            x = table[x][i]
            o += 1
        orders.append(o)
    return sorted(orders)


def _valid_twists(n: int):
    return [s for s in range(1, n + 1) if (n * n) % gcd(2 * n, s) == 0]


def _group_order(G):
    total = 1
    for d in G.torsion:
        total *= d
    return total


def test_su2_level1_matrix(su2):
    md, ring = su2[1]
    h = sqrt_int(2) / 2
    assert md.S[0][0] == h and md.S[0][1] == h
    assert md.S[1][0] == h and md.S[1][1] == -h
    assert ring.product(1, 1) == {0: 1}


def test_su2_charge_conjugation_trivial(su2):
    # every SU(2) primary is self-conjugate
    for k in range(1, MAX_LEVEL + 1):
        md, _ = su2[k]
        assert md.charge_conjugation == tuple(range(k + 1))


def test_su2_eigenvalue_ratios(su2):
    # S_{1l}/S_{0l} = 2cos(pi(l+1)/(k+2)), quoted at k=4 and k=10
    for k in (4, 10):
        md, _ = su2[k]
        for lam in range(k + 1):
            ratio = md.S[1][lam] / md.S[0][lam]
            assert ratio == 2 * cos_frac(lam + 1, 2 * (k + 2))


def test_su2_verlinde_equals_truncated(su2):
    for k in range(1, MAX_LEVEL + 1):
        assert su2[k][1] == su2_fusion_truncated(k)


def test_su2_verlinde_associative(su2):
    for k in range(1, MAX_LEVEL + 1):
        su2[k][1].check_associativity()


def test_associativity_failure_names_the_first_pair():
    # commutative and unital, but (g g) x = x x = x while g (g x) = g 1 = g
    N = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a in range(3):
        N[0][a][a] = N[a][0][a] = 1
    N[1][1][2] = 1
    N[1][2][0] = N[2][1][0] = 1
    N[2][2][2] = 1
    ring = FusionRing(("1", "g", "x"), N)
    with pytest.raises(ValueError, match="associativity fails at labels 'g', 'g'"):
        ring.check_associativity()


def test_fusion_identity_failure_is_the_first_pair():
    ring = su2_fusion_truncated(4)
    mats = [ring.matrix(lam) for lam in range(5)]
    assert _fusion_failure(ring, mats) is None
    # swapping the matrices of labels 2 and 3 breaks 1 x 1 = 0 + 2 first
    mats[2], mats[3] = mats[3], mats[2]
    assert _fusion_failure(ring, mats) == (1, 1)


def _fusion_failure_reference(ring, mats):
    """The IntMatrix sums that the packed row comparison replaced."""
    m = len(ring.labels)
    for lam in range(m):
        for mu in range(lam, m):
            rhs = IntMatrix.zero(*mats[lam].shape)
            for nu, c in ring.product(lam, mu).items():
                rhs = rhs + mats[nu] * c
            if mats[lam] * mats[mu] != rhs:
                return lam, mu
    return None


def _conjugated(mats, c):
    """P M P^-1 for P = 1 + c E_(0, g-1): still a representation, now with
    entries near -c^2 as well as small ones."""
    g = mats[0].rows

    def shear(x):
        return IntMatrix.from_rows(
            [[int(i == j) + (x if (i, j) == (0, g - 1) else 0) for j in range(g)]
             for i in range(g)]
        )

    return [shear(c) * M * shear(-c) for M in mats]


def test_packed_fusion_failure_matches_the_matrix_sums():
    families = [(su2_fusion_truncated(k), None) for k in (3, 6, 10)]
    families += [
        (su2_fusion_truncated(k), g) for g, k in (("D4", 4), ("D6", 8), ("E6", 10), ("E7", 16))
    ]
    rng = random.Random(2008)
    firsts = set()
    for ring, graph in families:
        m = len(ring.labels)
        if graph is None:
            base = [ring.matrix(lam) for lam in range(m)]
        else:
            base = list(nimrep_from_graph(ade_graph(graph)[0], m - 1).matrices)
        for mats in (base, _conjugated(base, 10**6)):
            assert _fusion_failure(ring, mats) is None
            g = mats[0].rows
            for _ in range(25):
                lam, i, j = rng.randrange(m), rng.randrange(g), rng.randrange(g)
                rows = mats[lam].to_lists()
                rows[i][j] += rng.choice((1, -1))
                bent = mats[:lam] + [IntMatrix.from_rows(rows)] + mats[lam + 1:]
                want = _fusion_failure_reference(ring, bent)
                assert _fusion_failure(ring, bent) == want
                firsts.add(want)
    # the entries reach -10^12, and many different first pairs occur
    entries = [c for M in _conjugated(base, 10**6) for c in M.data]
    assert min(entries) < -(10**11)
    assert None not in firsts and len(firsts) > 10
    # each row of X^2 - 1 is some (-2^w y, y), y != 0: packed at slot width
    # w it sums to 0, so a slot narrower than the bound misses this failure
    z2 = FusionRing(("1", "g"), [[[1, 0], [0, 1]], [[0, 1], [1, 0]]])
    for w in (16, 32, 48, 64):
        a, d = 1 - 2**w, 10**6
        X = IntMatrix.from_rows([[a, 1], [2**w * (a - d) + 2 ** (2 * w), d]])
        rows = (X * X - IntMatrix.identity(2)).to_lists()
        assert all(y and u == -(2**w) * y for u, y in rows)
        mats = [IntMatrix.identity(2), X]
        assert _fusion_failure(z2, mats) == _fusion_failure_reference(z2, mats) == (1, 1)


def _ade_graphs(k):
    """The A-D-E graphs with Coxeter number k + 2."""
    names = ["A%d" % (k + 1)] + (["D%d" % (k // 2 + 2)] if k % 2 == 0 and k >= 4 else [])
    return names + {10: ["E6"], 16: ["E7"], 28: ["E8"]}.get(k, [])


@pytest.mark.parametrize("level", range(4, 17))
def test_fusion_failure_names_the_first_pair_a_bent_nimrep_breaks(level):
    ring = su2_fusion_truncated(level)
    m, rng = level + 1, random.Random(level)
    for graph in _ade_graphs(level):
        mats = list(nimrep_from_graph(ade_graph(graph)[0], level).matrices)
        assert _fusion_failure(ring, mats) is None
        g = mats[0].rows
        for _ in range(3):
            lam, i, j = rng.randrange(m), rng.randrange(g), rng.randrange(g)
            rows = mats[lam].to_lists()
            rows[i][j] += rng.choice((1, -1, 2))
            bent = mats[:lam] + [IntMatrix.from_rows(rows)] + mats[lam + 1:]
            assert _fusion_failure(ring, bent) == _fusion_failure_reference(ring, bent) is not None


@cache
def _with_caches_filled():
    """One value of each immutable type, its lazy caches filled."""
    x, half = (zeta(12, 5) + sqrt_int(3)) * zeta(8), rational(-3, 4)
    ring, double = su2_fusion_truncated(4), double_abelian(2)[1]
    E6, E7 = quaternion_group("E6"), quaternion_group("E7")
    q, irrep = E6.elements[5], E6.irreps()[3]
    x.normalized(), half.normalized(), ring.N, double.N, hash(q), q * q, irrep.matrices
    a = LaurentPoly.var("a", ("a", "b"))
    data = su2_modular_data(4)
    inv = enumerate_invariants(4)[-1]
    return [
        x, half, IntMatrix.from_rows([[1, -2], [3, 4]]), FGAbelianGroup(1, (2, 4)),
        PresentedModule(("u", "v"), IntMatrix.from_cols([[1, -1], [0, 2]])),
        a**-2 * 3 - 1, TruncationWindow.symmetric(12, 2), ring, double,
        data, su2_modular_data(3), level1_data("Sp4")[0],
        check_invariant(inv.matrix, data), inv,
        BranchingRule([[1, 0, 1], [0, 2, 0]]), nimrep_from_graph(ade_graph("D4")[0], 4),
        q, irrep, irrep_vr(E6, "y") + irrep_vr(E6, "z"), gradings(E7)[0], embedding("D4", "E6"),
    ]


IMMUTABLE = {
    "CycNumber", "IntMatrix", "FGAbelianGroup", "PresentedModule", "LaurentPoly",
    "TruncationWindow", "FusionRing", "ModularData", "CheckReport", "ModularInvariant",
    "BranchingRule", "Nimrep", "Quaternion", "Irrep", "VirtualRep", "Grading", "Embedding",
}

ROUND_TRIPS = {
    "copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


def _plain(slot):
    # a rebuilt group is a new object: compare what its constructor was given
    if isinstance(slot, QuaternionGroup):
        return slot.name, slot.elements, slot.generators, slot._right, slot._irrep_specs
    return slot


def _hashable(slot):
    try:
        hash(slot)
    except TypeError:  # a dict, or a group's lists
        return False
    return True


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_immutable_values_copy_and_pickle(trip):
    values = _with_caches_filled()
    assert {type(v).__name__ for v in values} == IMMUTABLE
    for value in values:
        cls = type(value)
        derived = cls._derived
        assert all(getattr(value, d) is not None for d in derived), value
        back = ROUND_TRIPS[trip](value)
        assert type(back) is cls
        for slot in cls.__slots__:
            if slot in derived and slot.startswith("_"):  # a lazy cache comes back empty
                assert getattr(back, slot) is None, (cls, slot)
                continue
            # a constructor slot, or one the constructor recomputes: equal, and
            # equally hashed where hashable (every rebuilt CycNumber of S and T)
            got, want = _plain(getattr(back, slot)), _plain(getattr(value, slot))
            assert got == want, (cls, slot)
            if _hashable(want):
                assert hash(got) == hash(want), (cls, slot)
        if cls.__eq__ is not object.__eq__:
            assert back == value and hash(back) == hash(value)
    vr, grading = values[-3], values[-2]
    for value in (vr, grading):
        back = ROUND_TRIPS[trip](value)
        assert character_table(back.group).labels == character_table(value.group).labels
    assert ROUND_TRIPS[trip](vr).render() == vr.render() == "y + z"


@pytest.mark.parametrize("name", sorted(IMMUTABLE))
def test_immutable_values_refuse_writes_and_deletes(name):
    value = next(v for v in _with_caches_filled() if type(v).__name__ == name)
    slot = type(value).__slots__[0]
    before = getattr(value, slot)
    for attempt in (
        lambda: setattr(value, slot, None), lambda: setattr(value, "extra", 1),
        lambda: delattr(value, slot), lambda: delattr(value, "extra"),
    ):
        with pytest.raises(AttributeError) as err:
            attempt()
        assert str(err.value) == "%s is immutable" % name
    assert getattr(value, slot) is before


def test_su2_level2_products(su2):
    _, ring = su2[2]
    assert ring.product(1, 1) == {0: 1, 2: 1}
    assert ring.N[1][1][1] == 0


def _edited_su2_4(edit):
    """Duck-typed data with the S of SU(2)_4, edited in place by `edit`."""
    md = su2_modular_data(4)
    S = [list(row) for row in md.S]
    edit(S)
    return SimpleNamespace(labels=md.labels, S=S)


def test_verlinde_failure_messages_name_the_first_bad_pair():
    def halve_row_2(S):
        S[2] = [e / 2 for e in S[2]]

    def twist_entry(S):
        S[3][1] = S[3][1] * zeta(5)

    with pytest.raises(NonIntegralFusion) as err:
        verlinde_matrices(_edited_su2_4(halve_row_2))
    assert str(err.value) == "fusion coefficient 1/4 at 0 x 2"
    with pytest.raises(NonIntegralFusion) as err:
        verlinde_matrices(_edited_su2_4(twist_entry))
    assert str(err.value) == "non-rational fusion coefficient at 0 x 0"


def test_verlinde_names_the_first_negative_coefficient():
    # a negated row 2 of S negates N_{lam mu}^nu when an odd number of
    # lam, mu, nu are 2: first at 1 x 1 = 0 + 2
    def negate_row_2(S):
        S[2] = [-e for e in S[2]]

    with pytest.raises(NonIntegralFusion) as err:
        verlinde_matrices(_edited_su2_4(negate_row_2))
    assert str(err.value) == "fusion coefficient -1 at 1 x 1"


def test_modular_checks_reduce_once_per_product_entry(monkeypatch):
    # a product that reduces every term modulo Phi_L unpacks m^3 times;
    # the packed key product unpacks twice per output entry
    unpack, times = cyclo._unpack, fusion._times
    inside, per_product = [], []

    def counting_unpack(*args):
        if inside:
            inside[-1] += 1
        return unpack(*args)

    def counting_times(B):
        step = times(B).step

        def counting_step(key):
            inside.append(0)
            out = step(key)
            per_product.append(inside.pop())
            return out

        return SimpleNamespace(step=counting_step)

    monkeypatch.setattr(cyclo, "_unpack", counting_unpack)
    monkeypatch.setattr(fusion, "_times", counting_times)
    su2_modular_data(10)
    m = 11
    assert len(per_product) >= 2
    assert max(per_product) <= 4 * m * m


def test_verlinde_rejects_zero_in_vacuum_row():
    # relabeling that puts a vanishing S entry into the vacuum row
    md = su2_modular_data(2)
    perm = (1, 0, 2)
    S = [[md.S[perm[i]][perm[j]] for j in range(3)] for i in range(3)]
    T = [md.T[perm[i]] for i in range(3)]
    bad = ModularData((0, 1, 2), S, T)
    with pytest.raises(NonIntegralFusion):
        verlinde_matrices(bad)


def test_modular_data_validation():
    md = su2_modular_data(1)
    with pytest.raises(ModularCheckFailure):
        ModularData(md.labels, md.S, [md.T[0] * 2, md.T[1]])
    with pytest.raises(ModularCheckFailure):
        S = [[md.S[0][0], md.S[0][1] * 3], [md.S[1][0], md.S[1][1]]]
        ModularData(md.labels, S, md.T)
    with pytest.raises(ModularCheckFailure):
        # unimodular but wrong phase breaks (ST)^3 = S^2
        ModularData(md.labels, md.S, [md.T[0] * zeta(3, 1), md.T[1]])
    # symmetric with S^2 = 1, a permutation squaring to 1: only S* = C S catches it
    i_root3 = zeta(4) * sqrt_int(3)
    S = [[rational(2), i_root3], [i_root3, rational(-2)]]
    with pytest.raises(ModularCheckFailure, match="not unitary"):
        ModularData((0, 1), S, [_ONE, _ONE])


def _oracle_phase_holds(S, T):
    """TST = S T^-1 S* at the full order of T: each T_i S_ij T_j against
    the product S (T^-1 S*), entry by entry (the check before it moved to
    the field of S)."""
    m = len(S)
    lhs = [[T[i] * S[i][j] * T[j] for j in range(m)] for i in range(m)]
    X = [[T[i].conjugate() * S[i][j].conjugate() for j in range(m)] for i in range(m)]
    rhs = cyclo._times(X)(S)
    return all(lhs[i][j] == rhs[i][j] for i in range(m) for j in range(m))


def _oracle_valid(S, T):
    """Every relation ModularData checks, each by its defining product."""
    m = len(S)
    if any(t * t.conjugate() != 1 for t in T):
        return False
    if any(S[i][j] != S[j][i] for i in range(m) for j in range(i)):
        return False
    Sc = [[e.conjugate() for e in row] for row in S]
    P, Q = cyclo._times(Sc)(S), cyclo._times(S)(S)
    if any(P[i][j] != (1 if i == j else 0) for i in range(m) for j in range(m)):
        return False
    ones = [[j for j in range(m) if Q[i][j] != 0] for i in range(m)]
    if any(len(js) != 1 or Q[i][js[0]] != 1 for i, js in enumerate(ones)):
        return False
    perm = [js[0] for js in ones]
    return all(perm[perm[i]] == i for i in range(m)) and _oracle_phase_holds(S, T)


def _verdict(S, T):
    try:
        ModularData(tuple(range(len(S))), S, T)
    except ModularCheckFailure:
        return False
    return True


def _phase_verdict(S, T):
    Sc = [[x.conjugate() for x in row] for row in S]
    return fusion._phase_holds(cyclo._key(S), Sc, [cyclo._root_exponent(t) for t in T])


def _library_data():
    out = [su2_modular_data(k) for k in range(1, 17)]
    out += [double_abelian(G)[0] for G in (2, 3, 4, (2, 2), 5)]
    out += [level1_data(name)[0] for name in ("SU3", "Sp4")]
    return out


def test_phase_check_agrees_with_the_full_order_product_on_library_data():
    for md in _library_data():
        assert _oracle_valid(md.S, md.T)
        assert _phase_verdict(md.S, md.T) and _verdict(md.S, md.T)


def _perturbations(rng, count):
    """Seeded edits of small library data: one T entry times zeta_m^j, two
    T entries swapped, or one symmetric pair of S entries rotated."""
    bases = [su2_modular_data(k) for k in range(1, 9)]
    bases += [double_abelian(G)[0] for G in (2, 3)] + [level1_data("SU3")[0], level1_data("Sp4")[0]]
    for _ in range(count):
        md = rng.choice(bases)
        S, T = [list(row) for row in md.S], list(md.T)
        m = len(T)
        kind = rng.choice(("phase", "swap", "rotate"))
        if kind == "phase":
            mm = rng.choice((2, 3, 4, 5, 8, 12, 16, 24))
            i = rng.randrange(m)
            T[i] = T[i] * zeta(mm, rng.randrange(1, mm))
        elif kind == "swap":
            i, j = rng.sample(range(m), 2)
            T[i], T[j] = T[j], T[i]
        else:
            mm = rng.choice((2, 3, 4, 8, 12))
            i, j = rng.randrange(m), rng.randrange(m)
            S[i][j] = S[i][j] * zeta(mm, rng.randrange(1, mm))
            S[j][i] = S[i][j]
        yield kind, S, T


def test_phase_check_agrees_with_the_full_order_product_on_perturbations():
    rng = random.Random(15)
    seen = {"phase": [], "swap": [], "rotate": []}
    for kind, S, T in _perturbations(rng, 120):
        want = _oracle_phase_holds(S, T)
        assert _phase_verdict(S, T) == want
        assert _verdict(S, T) == _oracle_valid(S, T)
        seen[kind].append(want)
    # every kind occurs, and the sample holds both verdicts
    assert all(seen.values())
    verdicts = [v for vs in seen.values() for v in vs]
    assert True in verdicts and False in verdicts


def test_phase_check_agrees_with_the_full_order_product_off_unitary_s():
    # for unitary S the classes other than s_ij vanish once class s_ij
    # matches (the trace form is positive definite); for other S they are
    # a check of their own, as at this first case of a seeded search
    S, T = [[-zeta(4), _ONE], [_ONE, _ONE]], [-zeta(4), -zeta(8)]
    assert not _oracle_phase_holds(S, T) and not _phase_verdict(S, T)
    rng = random.Random(1)
    vals = [_ZERO, _ONE, -_ONE, zeta(4), zeta(4, 3), rational(2), zeta(8), zeta(3)]
    for _ in range(400):
        a, b, c = (rng.choice(vals) for _ in range(3))
        L = rng.choice((4, 8, 12, 16))
        S, T = [[a, b], [b, c]], [zeta(L, rng.randrange(L)) for _ in range(2)]
        assert _phase_verdict(S, T) == _oracle_phase_holds(S, T)


def test_as_permutation_reads_only_permutation_matrices():
    P = [[_ZERO, _ONE, _ZERO], [_ONE, _ZERO, _ZERO], [_ZERO, _ZERO, _ONE]]
    assert fusion._as_permutation(cyclo._key(P), 3) == (1, 0, 2)
    # a second 1, a root of unity, a half, an empty row, a 1 with an
    # irrational part (coordinate 0 is still 1), and a -1
    edits = [(0, 0, _ONE), (2, 1, zeta(4)), (1, 0, rational(Fraction(1, 2))),
             (1, 0, _ZERO), (2, 2, 1 + zeta(3)), (0, 1, -_ONE)]
    for i, j, x in edits:
        Q = [list(row) for row in P]
        Q[i][j] = x
        assert fusion._as_permutation(cyclo._key(Q), 3) is None
    assert fusion._as_permutation(cyclo._key([]), 0) == ()


def test_as_permutation_needs_the_ones_in_distinct_columns():
    # every row holds one 1 and the entries sum to m, but column 1 is empty
    assert fusion._as_permutation(cyclo._key([[_ONE, _ZERO], [_ONE, _ZERO]]), 2) is None
    assert fusion._as_permutation(cyclo._key([[_ZERO, _ONE], [_ONE, _ZERO]]), 2) == (1, 0)


def test_empty_modular_data_are_accepted():
    md = ModularData((), [], [])
    assert md.labels == md.S == md.T == md.charge_conjugation == ()


def test_unimodular_t_entry_that_is_no_root_of_unity_is_rejected():
    md = su2_modular_data(1)
    u = (3 + 4 * zeta(4)) / 5
    assert u * u.conjugate() == 1
    with pytest.raises(ModularCheckFailure, match="roots of unity"):
        ModularData(md.labels, md.S, [u, md.T[1]])


def test_phase_check_never_computes_at_the_order_of_t(monkeypatch):
    # at k = 16, T lives at order 8n = 144 and S at 36: the check splits
    # over the relative power basis and multiplies only at the order of S
    md = su2_modular_data(16)
    times, orders = fusion._times, Counter()

    def counting_times(B):
        prepared = times(B)
        step = prepared.step

        def counting_step(key):
            out = step(key)
            orders[out[0]] += 1
            return out

        prepared.step = counting_step
        return prepared

    monkeypatch.setattr(fusion, "_times", counting_times)
    ModularData(md.labels, md.S, md.T)
    assert orders and 144 not in orders
    assert max(orders) == 36


def test_su2_t_entries_are_stored_at_their_own_order():
    for k in range(1, 17):
        n = k + 2
        md = su2_modular_data(k)
        for a, t in enumerate(md.T):
            full = zeta(8 * n, (2 * (a + 1) ** 2 - n) % (8 * n))
            assert t == full and hash(t) == hash(full)
            assert t.order == t.normalized().order


def test_fusion_ring_validation():
    good = su2_fusion_truncated(1)
    N = [list(list(row) for row in plane) for plane in good.N]
    N[1][1][0] = -1
    with pytest.raises(ValueError):
        FusionRing(good.labels, N)
    N = [list(list(row) for row in plane) for plane in good.N]
    N[0][1][1] = 2
    with pytest.raises(ValueError):
        FusionRing(good.labels, N)
    N = [list(list(row) for row in plane) for plane in good.N]
    N[1][0][1] = 1
    N[1][0][0] = 1
    with pytest.raises(ValueError):
        FusionRing(good.labels, N)
    N = [list(list(row) for row in plane) for plane in good.N]
    N[1][1][1] = 0.5  # not silently truncated to 0
    with pytest.raises(ValueError, match="fusion rule"):
        FusionRing(good.labels, N)
    # dict rows: a label index equal to m, a negative and a fractional coefficient
    for bad in ({2: 1}, {0: -1}, {0: 1, 1: Fraction(1, 2)}):
        rows = [[good.product(a, b) for b in range(2)] for a in range(2)]
        rows[1][1] = bad
        with pytest.raises(ValueError, match="fusion rule"):
            FusionRing(good.labels, rows)


RINGS_IN_BOTH_FORMS = {
    **{"truncated-%d" % k: lambda k=k: su2_fusion_truncated(k) for k in range(1, 7)},
    **{"verlinde-%d" % k: lambda k=k: verlinde_matrices(su2_modular_data(k)) for k in range(1, 7)},
    "double-(2,3)": lambda: double_abelian((2, 3))[1],
    "twisted-(4,2)": lambda: double_cyclic_twisted(4, 2),
    "SU3": lambda: level1_data("SU3")[1],
    "Sp4": lambda: level1_data("Sp4")[1],
}


@pytest.mark.parametrize("build", RINGS_IN_BOTH_FORMS.values(), ids=RINGS_IN_BOTH_FORMS.keys())
def test_dense_and_dict_rules_round_trip(build):
    ring = build()
    m = len(ring.labels)
    N = ring.N
    assert type(N) is tuple and N is ring.N
    assert all(type(plane) is tuple and all(type(row) is tuple for row in plane) for plane in N)
    assert FusionRing(ring.labels, N, ring.unit) == ring
    rules = [[ring.product(a, b) for b in range(m)] for a in range(m)]
    assert FusionRing(ring.labels, rules, ring.unit) == ring
    for a in range(m):
        for b in range(m):
            assert N[a][b] == tuple(rules[a][b].get(c, 0) for c in range(m))


def test_torus_fusion_examples():
    assert torus_fusion([[2]]).torsion == (2,)
    triv = torus_fusion([[1, 0], [0, 1]])
    assert triv.free_rank == 0 and triv.torsion == ()
    assert torus_fusion([[2, 0], [0, 2]]).torsion == (2, 2)
    assert torus_fusion([[2, 1], [1, 1]]).torsion == ()
    assert torus_fusion([[3, 1], [0, 2]]).torsion == (6,)
    with pytest.raises(SingularLevel):
        torus_fusion([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        torus_fusion([[1, 2, 3], [4, 5, 6]])


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_torus_fusion_order_is_det(entries):
    a, b, c, d = entries
    det = a * d - b * c
    if det == 0:
        with pytest.raises(SingularLevel):
            torus_fusion([[a, b], [c, d]])
    else:
        G = torus_fusion([[a, b], [c, d]])
        assert _group_order(G) == abs(det)


def test_double_abelian_small_groups():
    for m in (2, 3, 4):
        md, ring = double_abelian(m)
        assert len(md.labels) == m * m
        assert ring.fusion_group().torsion == (m, m)
        assert verlinde_matrices(md) == ring
    md, ring = double_abelian((2, 2))
    assert len(md.labels) == 16
    assert ring.fusion_group().torsion == (2, 2, 2, 2)


def _double_by_factors(orders):
    """S and T of the double of the product of the Z_(m_i), each entry a
    product of one root of unity per cyclic factor, S normalized."""
    elts = list(product(*map(range, orders)))
    prim = [(a, x) for a in elts for x in elts]

    def char(x, b):  # x(b) = prod_i zeta_(m_i)^(x_i b_i), multiplied out
        acc = _ONE
        for mi, xi, bi in zip(orders, x, b):
            acc = acc * zeta(mi, xi * bi % mi)
        return acc

    size = Fraction(1, prod(orders))
    S = [[((char(x, b) * char(y, a)).conjugate() * size).normalized() for (b, y) in prim]
         for (a, x) in prim]
    T = [char(x, a) for (a, x) in prim]
    return prim, S, T


@pytest.mark.parametrize("G", [1, 2, 3, 4, 6, (2, 2), (2, 3), (2, 4), (3, 3)], ids=repr)
def test_double_abelian_matches_the_per_factor_products(G):
    prim, S, T = _double_by_factors(G if isinstance(G, tuple) else (G,))
    md, _ = double_abelian(G)
    assert list(md.labels) == prim
    assert [list(row) for row in md.S] == S
    assert [(t.order, t.num, t.den) for t in md.T] == [(t.order, t.num, t.den) for t in T]


def test_double_abelian_duck_typed_group():
    md, ring = double_abelian(quaternion_group("C3"))
    assert ring.fusion_group().torsion == (3, 3)
    with pytest.raises(NonAbelian):
        double_abelian(quaternion_group("D4"))


def test_cyclic_orders_of_group_objects():
    for m in (1, 2, 3, 4, 6, 12):
        want = (m,) if m > 1 else ()
        assert fusion._cyclic_orders(quaternion_group("C%d" % m)) == want


def test_double_abelian_rejects_fractional_orders():
    with pytest.raises(TypeError):
        double_abelian((2.7,))


@pytest.mark.parametrize("G", [(2.5,), True, (True,), [2, 2.0]], ids=repr)
def test_cyclic_orders_must_be_ints(G):
    with pytest.raises(TypeError):
        fusion._cyclic_orders(G)


def _table_ring(table):
    """The fusion ring whose product of labels a and b is table[a][b]."""
    m = len(table)
    N = [[[int(table[a][b] == c) for c in range(m)] for b in range(m)] for a in range(m)]
    return FusionRing(range(m), N)


def test_fusion_group_rejects_tables_that_are_not_groups():
    # a commutative loop of order 6: unit 0, every row a permutation,
    # but (2 * 2) * 4 = 3 and 2 * (2 * 4) = 2
    loop = _table_ring([
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 3, 4, 5, 0, 1],
        [3, 2, 5, 4, 1, 0],
        [4, 5, 0, 1, 3, 2],
        [5, 4, 1, 0, 2, 3],
    ])
    assert loop.is_group_like()
    with pytest.raises(ValueError):
        loop.fusion_group()
    # commutative with unit 0, but row 1 repeats the label 0
    repeat = _table_ring([[0, 1, 2], [1, 0, 0], [2, 0, 0]])
    assert repeat.is_group_like()
    with pytest.raises(ValueError):
        repeat.fusion_group()


def test_twisted_double_examples():
    assert double_cyclic_twisted(2, 1).fusion_group().torsion == (4,)
    assert double_cyclic_twisted(2, 2).fusion_group().torsion == (2, 2)
    assert double_cyclic_twisted(3, 1).fusion_group().torsion == (9,)
    # sigma = n is the trivial class: untwisted answer Z_n x Z_n
    for n in range(2, 7):
        assert double_cyclic_twisted(n, n).fusion_group().torsion == (n, n)


def test_twisted_double_invalid_twists():
    for n, s in ((3, 2), (5, 2), (5, 4)):
        with pytest.raises(InvalidTwist):
            double_cyclic_twisted(n, s)
    with pytest.raises(InvalidTwist):
        double_cyclic_twisted(4, 0)
    with pytest.raises(InvalidTwist):
        double_cyclic_twisted(4, 5)
    with pytest.raises(ValueError):
        double_cyclic_twisted(0, 1)


def test_twisted_double_against_numeric_oracle():
    for n in range(1, 7):
        for s in _valid_twists(n):
            ring = double_cyclic_twisted(n, s)
            assert _ring_orders(ring) == _oracle_twisted_orders(n, s), (n, s)


def test_twisted_double_group_form():
    # d = gcd(2n, sigma) matches the construction whenever v_2(s) <= v_2(n)
    for n in range(1, 7):
        for s in _valid_twists(n):
            if (n, s) == (6, 4):
                continue
            d = gcd(2 * n, s)
            want = tuple(
                f for f in (gcd(d, n * n // d), (n * n) // gcd(d, n * n // d)) if f > 1
            )
            assert double_cyclic_twisted(n, s).fusion_group().torsion == want, (n, s)
    # the exception: the closed form claims Z_4 x Z_9 but the twisted
    # block algebra's characters fuse to Z_2 x Z_18
    assert double_cyclic_twisted(6, 4).fusion_group().torsion == (2, 18)


def test_twisted_double_order_property():
    # the flux/charge presentation of the pointwise convention:
    # n * charge = 0 and n * flux = sigma * charge
    for n in range(1, 13):
        for s in _valid_twists(n):
            G = double_cyclic_twisted(n, s).fusion_group()
            assert _group_order(G) == n * n
            assert G == cokernel(IntMatrix.from_rows([[0, n], [n, -s]])), (n, s)


def test_level1_su3():
    md, ring = level1_data("SU3")
    assert md.labels == ("(00)", "(10)", "(01)")
    assert ring.product(1, 1) == {2: 1}
    assert ring.product(1, 2) == {0: 1}
    assert ring.fusion_group().torsion == (3,)
    assert verlinde_matrices(md) == ring
    assert md.T[1] == md.T[0] * zeta(3, 1)


def test_level1_sp4():
    md, ring = level1_data("Sp4")
    assert md.labels == ("(00)", "(01)", "(10)")
    assert ring.product(2, 2) == {0: 1, 1: 1}
    assert ring.product(1, 1) == {0: 1}
    assert ring.product(1, 2) == {2: 1}
    assert not ring.is_group_like()
    assert verlinde_matrices(md) == ring
    assert md.T[1] == md.T[0] * zeta(2, 1)
    assert md.T[2] == md.T[0] * zeta(16, 5)


def test_level1_unknown_name():
    with pytest.raises(ValueError):
        level1_data("G2")


_UNIT_ROWS = [[{0: 1}, {1: 1}, {2: 1}], [{1: 1}, {0: 1}, {1: 1}], [{2: 1}, {2: 1}, {0: 1}]]
FUSION_RING_INPUT_ERRORS = {
    "short dense row": (lambda: FusionRing(["a"], [[[1, 0]]]), ValueError,
                        "structure constants must be m x m x m"),
    "missing plane": (lambda: FusionRing(["a", "b"], [[[1, 0], [0, 1]]]), ValueError,
                      "structure constants must be m x m x m"),
    "unit out of range": (lambda: FusionRing(["a"], [[[1]]], unit=1), ValueError,
                          "unit label out of range"),
    # 1 x 2 = 1 but 2 x 1 = 2
    "not commutative": (lambda: FusionRing("abc", _UNIT_ROWS), ValueError,
                        "fusion must be commutative"),
}

@pytest.mark.parametrize("case", FUSION_RING_INPUT_ERRORS)
def test_fusion_ring_input_errors_are_named(case):
    call, kind, message = FUSION_RING_INPUT_ERRORS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


# --- input checks, label bounds and reprs --------------------------------------------


@pytest.mark.parametrize("make, exc, msg", [
    (lambda: fusion.su2_modular_data(0), ValueError, "level must be >= 1"),
    (lambda: fusion.su2_fusion_truncated(0), ValueError, "level must be >= 1"),
    (lambda: double_abelian(()), ValueError, "cyclic orders must be >= 1"),
    (lambda: double_abelian(0), ValueError, "cyclic orders must be >= 1"),
    (lambda: double_abelian("Z4"), TypeError,
     "expected an int, a tuple of ints, or a finite group"),
    (lambda: fusion.su2_fusion_truncated(2).fusion_group(), ValueError,
     "fusion ring is not group-like"),
    (lambda: ModularData(["a", "b"], [[1]], [1, 1]), ValueError,
     "S must be square over the labels, T its diagonal"),
])
def test_fusion_input_checks(make, exc, msg):
    with pytest.raises(exc) as err:
        make()
    assert err.value.args[0] == msg


def test_fusion_ring_reads_refuse_labels_outside_the_ring():
    ring = fusion.su2_fusion_truncated(2)
    assert ring.product(1, 1) == {0: 1, 2: 1} and ring.product(2, 2) == {0: 1}
    assert ring.matrix(2) == IntMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    for lam, mu in [(-1, 0), (0, -1), (3, 0), (0, 3)]:
        with pytest.raises(IndexError):
            ring.product(lam, mu)
    for lam in (-1, 3):
        with pytest.raises(IndexError):
            ring.matrix(lam)


def test_modular_data_and_ring_reprs(su2):
    md, ring = su2[2]
    assert repr(md) == "ModularData(3 primaries)" and repr(ring) == "FusionRing(3 labels)"
    assert (ring == 3) is False and ring != "ring"
