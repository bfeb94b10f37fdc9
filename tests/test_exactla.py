"""Smith normal form, kernels, cokernels: example values and invariants.

Derived expectations computed by hand before implementation:
  * [[2,4],[6,8]]: d1 = gcd of entries = 2, d1*d2 = |det| = |16-24| = 8,
    so D = diag(2, 4).
  * diag(1,2,0) presents Z^3 / im = Z/2 + Z (the unit factor drops).
  * ker [[2,4],[1,2]]: row reduce -> x = -2y, basis {(2,-1)}.
  * [[1,1],[1,-1]]: SNF diag(1,2) (det -2, gcd 1), so coker = Z/2, ker = 0.
"""

import random
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verlkit import exactla
from verlkit.exactla import (
    FGAbelianGroup,
    IntMatrix,
    PresentedModule,
    _cayley_invariants,
    _closure,
    _diagonal_solve,
    _row_hermite,
    _smith_engine,
    cokernel,
    connecting_solve,
    fgab_from_relations,
    kernel_basis,
    rank,
    smith_normal_form,
    smith_with_inverses,
    solve_int,
)
from verlkit.fusion import FusionRing
from verlkit.polyring import LaurentPoly


def diag_of(D):
    return [D[i, i] for i in range(min(D.rows, D.cols))]


# --- smith_normal_form ---------------------------------------------------


def test_snf_identity():
    U, D, V = smith_normal_form(IntMatrix.identity(3))
    assert D == IntMatrix.identity(3)


def test_snf_zero():
    U, D, V = smith_normal_form(IntMatrix.zero(2, 2))
    assert D == IntMatrix.zero(2, 2)


def test_snf_2x2_example():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    U, D, V = smith_normal_form(M)
    assert diag_of(D) == [2, 4]
    assert U * M * V == D


def test_snf_transforms_unimodular_and_exact():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(0, 5)
        n = rng.randrange(0, 5)
        M = IntMatrix(m, n, [rng.randrange(-9, 10) for _ in range(m * n)])
        U, Uinv, D, V, Vinv = smith_with_inverses(M)
        assert U * M * V == D
        if m:
            assert U * Uinv == IntMatrix.identity(m)
        if n:
            assert V * Vinv == IntMatrix.identity(n)
        d = diag_of(D)
        assert all(x >= 0 for x in d)
        nz = [x for x in d if x != 0]
        assert all(b % a == 0 for a, b in zip(nz, nz[1:]))
        # off-diagonal zero
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i, j] == 0
        # round trip through the inverses
        assert Uinv * D * Vinv == M


# --- cokernel -------------------------------------------------------------


def test_cokernel_zero_map():
    G = cokernel(IntMatrix.zero(2, 1))
    assert G == FGAbelianGroup(2)


def test_cokernel_cyclic():
    assert cokernel(IntMatrix.from_rows([[5]])) == FGAbelianGroup(0, (5,))


def test_cokernel_mixed():
    M = IntMatrix.from_rows([[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    G = cokernel(M)
    assert G.free_rank == 1 and G.torsion == (2,)


def test_cokernel_no_columns_is_free():
    G = cokernel(IntMatrix(3, 0, []))
    assert G == FGAbelianGroup(3)


def test_cokernel_unimodular_invariance():
    rng = random.Random(3)
    for _ in range(20):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        M = IntMatrix(m, n, [rng.randrange(-6, 7) for _ in range(m * n)])
        # random unimodular via elementary ops on identity
        L = [list(r) for r in IntMatrix.identity(m).to_lists()]
        for _ in range(6):
            a, b = rng.randrange(m), rng.randrange(m)
            if a != b:
                q = rng.randrange(-2, 3)
                for j in range(m):
                    L[a][j] += q * L[b][j]
        Lm = IntMatrix.from_rows(L)
        G1 = cokernel(M)
        G2 = cokernel(Lm * M)
        # left multiplication changes the basis of the ambient Z^m only
        assert (G1.free_rank, G1.torsion) == (G2.free_rank, G2.torsion)


def test_cokernel_generator_labels_transported():
    # coker of [[1],[ -1]] on labels x, y is Z generated by the image of y (or x+y combos)
    M = IntMatrix.from_rows([[1], [-1]])
    G = cokernel(M, ["x", "y"])
    assert G.free_rank == 1 and G.torsion == ()
    assert G.generators[0] != "0"


# --- kernel ---------------------------------------------------------------


def test_kernel_identity_empty():
    K = kernel_basis(IntMatrix.identity(3))
    assert K.cols == 0


def test_kernel_antidiagonal():
    K = kernel_basis(IntMatrix.from_rows([[1, 1]]))
    assert K.cols == 1
    v = K.col(0)
    assert v in ((1, -1), (-1, 1))


def test_kernel_rank_one():
    K = kernel_basis(IntMatrix.from_rows([[2, 4], [1, 2]]))
    assert K.cols == 1
    v = K.col(0)
    assert v in ((2, -1), (-2, 1))


def test_kernel_columns_annihilate_and_rank_nullity():
    rng = random.Random(11)
    for _ in range(30):
        m, n = rng.randrange(0, 5), rng.randrange(0, 5)
        M = IntMatrix(m, n, [rng.randrange(-5, 6) for _ in range(m * n)])
        K = kernel_basis(M)
        for j in range(K.cols):
            assert all(x == 0 for x in M.mul_vec(K.col(j)))
        assert K.cols + rank(M) == n
    # a matrix without rows still has columns, and one without columns rows
    no_rows, no_cols = IntMatrix(0, 2, []), IntMatrix(2, 0, [])
    assert kernel_basis(IntMatrix(0, 3, [])) == IntMatrix.identity(3)
    assert kernel_basis(no_cols) == IntMatrix(0, 0, [])
    assert rank(IntMatrix(0, 0, [])) == 0
    assert solve_int(no_cols, [0, 0]) == ()
    assert solve_int(no_cols, [1, 0]) is None
    assert solve_int(no_rows, []) == (0, 0)
    assert tuple(g.describe() for g in connecting_solve(no_cols)) == ("0", "Z^2")
    assert tuple(g.describe() for g in connecting_solve(no_rows)) == ("Z^2", "0")
    assert smith_normal_form(no_rows) == (IntMatrix(0, 0, []), no_rows, IntMatrix.identity(2))


# --- presentations and the connecting solver ------------------------------


def test_fgab_from_relations_free():
    P = PresentedModule(["a", "b"], IntMatrix(2, 0, []))
    assert fgab_from_relations(P) == FGAbelianGroup(2)


def test_fgab_from_relations_cyclic():
    P = PresentedModule(["a"], IntMatrix.from_rows([[3]]))
    assert fgab_from_relations(P) == FGAbelianGroup(0, (3,))


def test_fgab_from_relations_z2():
    P = PresentedModule(["g1", "g2"], IntMatrix.from_cols([[1, -1], [0, 2]]))
    assert fgab_from_relations(P) == FGAbelianGroup(0, (2,))


def test_connecting_zero_map():
    ker, coker = connecting_solve(IntMatrix.zero(2, 1))
    assert ker == FGAbelianGroup(1)
    assert coker == FGAbelianGroup(2)


def test_connecting_tors_example():
    ker, coker = connecting_solve(IntMatrix.from_rows([[1, 1], [1, -1]]))
    assert ker.is_trivial()
    assert coker == FGAbelianGroup(0, (2,))


def test_divisibility_chain_on_emitted_groups():
    rng = random.Random(19)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(0, 5)
        M = IntMatrix(m, n, [rng.randrange(-8, 9) for _ in range(m * n)])
        G = cokernel(M)
        for a, b in zip(G.torsion, G.torsion[1:]):
            assert b % a == 0


# --- solve_int ------------------------------------------------------------


def test_solve_int_membership():
    M = IntMatrix.from_cols([[2, 0], [0, 3]])
    assert solve_int(M, (4, 3)) == (2, 1)
    assert solve_int(M, (1, 0)) is None


def test_solve_int_reproduces_target():
    rng = random.Random(23)
    for _ in range(30):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        M = IntMatrix(m, n, [rng.randrange(-4, 5) for _ in range(m * n)])
        x = [rng.randrange(-3, 4) for _ in range(n)]
        t = M.mul_vec(tuple(x))
        sol = solve_int(M, t)
        assert sol is not None
        assert M.mul_vec(sol) == t


# --- hypothesis property: SNF round trip on small matrices ----------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3),
    st.integers(0, 3),
    st.data(),
)
def test_snf_roundtrip_property(m, n, data):
    entries = data.draw(
        st.lists(st.integers(-20, 20), min_size=m * n, max_size=m * n)
    )
    M = IntMatrix(m, n, entries)
    U, Uinv, D, V, Vinv = smith_with_inverses(M)
    assert U * M * V == D
    assert Uinv * D * Vinv == M


def test_json_shapes():
    G = FGAbelianGroup(1, (2, 4), ("a", "b", "c"))
    assert G.to_json() == {
        "free_rank": 1,
        "torsion": [2, 4],
        "generators": ["a", "b", "c"],
    }
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert M.to_json() == {"rows": 2, "cols": 2, "data": [1, 2, 3, 4]}
    assert IntMatrix.from_json(M.to_json()) == M


def test_mul_vec_matches_the_dense_row_sums():
    rng = random.Random(11)
    for rows, cols in [(0, 3), (3, 0), (4, 4), (6, 9)]:
        M = IntMatrix(rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)])
        for density in (0.0, 0.3, 1.0):
            v = tuple(rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols))
            dense = tuple(sum(M[i, j] * v[j] for j in range(cols)) for i in range(rows))
            assert M.mul_vec(v) == dense


# --- transforms on demand and the Hermite form ------------------------------


def _engine_cases(rng):
    """Seeded matrices of every shape up to 8 x 8, and how many need the fix-up.

    A monomial matrix (one nonzero per row and column) reaches its diagonal
    by swaps alone, in order of magnitude, so the divisibility fix-up runs
    exactly when those sorted magnitudes do not form a divisibility chain.
    """
    cases, fixups = [], 0
    for m in range(9):
        for n in range(9):
            for kind in ("dense", "low rank", "monomial") * 2:
                r = rng.randint(0, min(m, n))
                if kind == "dense":
                    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
                elif kind == "low rank":
                    L = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
                    R = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
                    rows = [[sum(L[i][t] * R[t][j] for t in range(r)) for j in range(n)]
                            for i in range(m)]
                else:
                    vals = [rng.choice([-15, -6, -4, 2, 3, 4, 9, 10]) for _ in range(r)]
                    cols = rng.sample(range(n), r)
                    at = dict(zip(rng.sample(range(m), r), zip(cols, vals)))
                    rows = [[at[i][1] if i in at and at[i][0] == j else 0 for j in range(n)]
                            for i in range(m)]
                    mags = sorted(abs(v) for v in vals)
                    fixups += any(b % a for a, b in zip(mags, mags[1:]))
                cases.append(IntMatrix(m, n, [x for row in rows for x in row]))
    return cases, fixups


def _assert_smith_form(M, full):
    """U*M*V = D with U, V unimodular and D a nonnegative divisibility chain."""
    U, Uinv, D, V, Vinv = full
    assert U * M * V == D and Uinv * D * Vinv == M
    assert U * Uinv == IntMatrix.identity(M.rows) and V * Vinv == IntMatrix.identity(M.cols)
    d = diag_of(D)
    assert all(x >= 0 for x in d)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:]))
    assert all(D[i, j] == 0 for i in range(D.rows) for j in range(D.cols) if i != j)


def _engine_form(full):
    """smith_with_inverses' five matrices as the engine returns them: lists
    of rows, but U^-1 and V as lists of their columns."""
    U, Uinv, D, V, Vinv = full
    return (U.to_lists(), Uinv.transpose().to_lists(), D.to_lists(),
            V.transpose().to_lists(), Vinv.to_lists())


def test_smith_engine_tracks_exactly_the_transforms_asked_for():
    cases, fixups = _engine_cases(random.Random(6))
    assert len(cases) >= 400 and fixups >= 20
    assert any(M.rows * M.cols == 0 for M in cases)
    assert any(rank(M) < min(M.shape) for M in cases)
    for M in cases:
        full = smith_with_inverses(M)
        _assert_smith_form(M, full)
        full = _engine_form(full)
        D = full[2]
        for flags in product((False, True), repeat=4):
            got = _smith_engine(M.to_lists(), M.cols, *flags)
            assert got[2] == D
            for on, x, y in zip(flags, got[:2] + got[3:], full[:2] + full[3:]):
                assert (x == y) if on else (x is None)


@pytest.mark.parametrize("rows, row_sweeps, diagonal", [
    # pivot 1: every row clear is bookkeeping on V
    ([[1, 2], [3, 4]], 0, [1, 2]),
    ([[1, 5, -7], [0, 0, 0], [2, 10, -13]], 0, [1, 1, 0]),
    # pivot 2 divides its row, and then the next pivot row is empty
    ([[2, 4, 6], [4, 10, 12]], 0, [2, 2]),
    ([[-3, 6, -9]], 0, [3]),
    # pivot 2 beside a 3: the row goes through the Euclid sweeps
    ([[2, 3]], 2, [1]),
    ([[4, 6], [0, 10]], 2, [2, 20]),
])
def test_pivot_rows_are_cleared_on_v_alone_when_the_pivot_divides_them(
        monkeypatch, rows, row_sweeps, diagonal):
    kinds = []
    sweep = exactla._sweep

    def recording(get, t, stop, add, swap):
        kinds.append(add.__name__)
        return sweep(get, t, stop, add, swap)

    monkeypatch.setattr(exactla, "_sweep", recording)
    M = IntMatrix.from_rows(rows)
    got = _smith_engine(M.to_lists(), M.cols, True, True, True, True)
    assert kinds.count("col_add") == row_sweeps
    full = smith_with_inverses(M)
    _assert_smith_form(M, full)
    assert got == _engine_form(full)
    assert diag_of(full[2]) == diagonal


def _random_rhs(rng, rows):
    cols = rng.choice((0, 1, 1, 3))
    return IntMatrix(rows, cols, [rng.randint(-5, 5) for _ in range(rows * cols)])


def test_smith_engine_applies_u_and_vinv_to_right_hand_sides():
    """u=B and vinv=C return U*B and V^-1*C, with the U, D and V^-1 of the
    full factorization, and leave the other transforms as asked."""
    rng = random.Random(18)
    cases, _ = _engine_cases(rng)
    shapes = set()
    for M in cases:
        full = smith_with_inverses(M)
        U, Uinv, D, V, Vinv = _engine_form(full)
        B, C = _random_rhs(rng, M.rows), _random_rhs(rng, M.cols)
        shapes.add((B.cols, C.cols))
        UB, VinvC = (full[0] * B).to_lists(), (full[4] * C).to_lists()
        got = _smith_engine(M.to_lists(), M.cols, u=B.to_lists(), vinv=C.to_lists())
        assert got == (UB, None, D, None, VinvC)
        got = _smith_engine(M.to_lists(), M.cols, B.to_lists(), True, True, C.to_lists())
        assert got == (UB, Uinv, D, V, VinvC)
    assert {(0, 0), (0, 3), (3, 0), (1, 1)} <= shapes


@pytest.mark.parametrize("row", [[0, 0, 0], [1, -2, 3]])
def test_smith_engine_copies_right_hand_sides_with_aliased_rows(row):
    """Rows of u=B and vinv=C that are one list, as in [[0] * k] * n, act as
    fresh rows, and the caller's rows are left as they were."""
    M = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16], [1, 0, 3]])
    before, B, C = list(row), [row] * M.rows, [row] * M.cols
    got = _smith_engine(M.to_lists(), M.cols, B, True, True, C)
    fresh = _smith_engine(M.to_lists(), M.cols, [list(row) for _ in B], True, True,
                          [list(row) for _ in C])
    assert got == fresh
    full = smith_with_inverses(M)
    assert got[0] == (full[0] * IntMatrix.from_rows(B)).to_lists()
    assert got[4] == (full[4] * IntMatrix.from_rows(C)).to_lists()
    assert all(r is row for r in B + C) and row == before


def test_smith_engine_rejects_a_right_hand_side_of_the_wrong_height():
    M = IntMatrix.from_rows([[2, 4], [6, 8], [1, 1]])
    with pytest.raises(ValueError, match="needs 3 rows"):
        _smith_engine(M.to_lists(), M.cols, u=IntMatrix.zero(2, 1).to_lists())
    with pytest.raises(ValueError, match="needs 2 rows"):
        _smith_engine(M.to_lists(), M.cols, vinv=IntMatrix.zero(3, 1).to_lists())


def test_diagonal_solve_rejects_what_has_no_integer_solution():
    # D = diag(2, 0) in a 3 x 2 frame: y solvable iff y0 even, y1 = y2 = 0
    D = IntMatrix.from_rows([[2, 0], [0, 0], [0, 0]]).to_lists()
    assert _diagonal_solve(D, 2, (4, 0, 0)) == [2, 0]
    assert _diagonal_solve(D, 2, (3, 0, 0)) is None  # not a multiple of d1
    assert _diagonal_solve(D, 2, (4, 1, 0)) is None  # hits a zero factor
    assert _diagonal_solve(D, 2, (4, 0, 1)) is None  # past the diagonal
    # the same three through solve_int: M's column span is 2Z x 0 x 0
    M = IntMatrix.from_rows([[2, 4], [0, 0], [0, 0]])
    for t in ((3, 0, 0), (4, 1, 0), (4, 0, 1)):
        assert solve_int(M, t) is None
    assert M.mul_vec(solve_int(M, (6, 0, 0))) == (6, 0, 0)


def _row_hermite_oracle(rows):
    """The Hermite reduction modinv carried before it moved to exactla."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            clean = True
            for i in range(r + 1, len(mat)):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    if q:
                        mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        clean = False
            if clean:
                break
        if r < len(mat) and mat[r][c]:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
            r += 1
            if r == len(mat):
                break
    return mat[:r]


def test_row_hermite_matches_the_modinv_reduction():
    rng = random.Random(7)
    assert _row_hermite([]) == _row_hermite_oracle([]) == []
    seen = {"zero": 0, "dependent": 0, "negative pivot": 0}
    for _ in range(300):
        k, n = rng.randint(1, 7), rng.randint(1, 8)
        rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.4:
            rows[rng.randrange(k)] = [0] * n
            seen["zero"] += 1
        if k > 1 and rng.random() < 0.4:
            a, b = rng.sample(range(k), 2)
            rows[a] = [rng.randint(-3, 3) * x for x in rows[b]]
            seen["dependent"] += 1
        first = next((row[0] for row in rows if row[0]), 0)
        seen["negative pivot"] += first < 0
        H = _row_hermite(rows)
        assert H == _row_hermite_oracle(rows)
        for row in H:
            lead = next(c for c in range(n) if row[c])
            assert row[lead] > 0
            assert all(0 <= other[lead] < row[lead] for other in H if other is not row)
    assert min(seen.values()) >= 50


# --- group closure and Cayley presentations ------------------------------


def test_closure_cap():
    step = lambda a, g: (a + g) % 600
    elems, right = _closure([1], 0, step, cap=600)
    assert elems == list(range(600)) and right[599] == [0]
    with pytest.raises(RuntimeError, match="ran away"):
        _closure([1], 0, step)


def _is_abelian_group(table):
    """Brute force for a commutative table: label 0 is an identity, the
    product is associative and every row is a permutation."""
    m = range(len(table))
    return table[0] == list(m) and all(sorted(row) == list(m) for row in table) and all(
        table[table[a][b]][c] == table[a][table[b][c]] for a in m for b in m for c in m
    )


def _relabelled_product(orders, rng):
    """Z_o1 x ... x Z_ok on shuffled labels: (table, unit)."""
    elements = list(product(*[range(o) for o in orders]))
    labels = list(range(len(elements)))
    rng.shuffle(labels)
    label = dict(zip(elements, labels))
    table = [[None] * len(labels) for _ in labels]
    for x in elements:
        for y in elements:
            table[label[x]][label[y]] = label[tuple((a + b) % o for a, b, o in zip(x, y, orders))]
    return table, label[(0,) * len(orders)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 6), max_size=3), st.randoms(use_true_random=False))
def test_cayley_invariants_of_relabelled_products(orders, rng):
    table, unit = _relabelled_product(orders, rng)
    k = len(orders)
    want = cokernel(IntMatrix.from_rows([[orders[i] * (i == j) for j in range(k)] for i in range(k)]))
    assert _cayley_invariants(lambda a, b: table[a][b], len(table), unit) == want.torsion


def test_cayley_invariants_raise_exactly_on_non_groups():
    # random commutative tables, most with identity 0; about half of them
    # relabelled cyclic groups, of which half then have one product changed
    rng = random.Random(3)
    seen = {True: 0, False: 0}
    for _ in range(400):
        m = rng.randint(2, 7)
        if rng.random() < 0.5:
            table, unit = _relabelled_product([m], rng)
            perm = list(range(m))
            perm[0], perm[unit] = unit, 0  # move the unit to label 0
            table = [[perm[table[perm[a]][perm[b]]] for b in range(m)] for a in range(m)]
            if rng.random() < 0.5:
                a, b = rng.randint(1, m - 1), rng.randint(1, m - 1)
                table[a][b] = table[b][a] = rng.randrange(m)
        else:
            identity = rng.random() < 0.8
            table = [[0] * m for _ in range(m)]
            for a in range(m):
                for b in range(a, m):
                    table[a][b] = table[b][a] = b if a == 0 and identity else rng.randrange(m)
        group = _is_abelian_group(table)
        seen[group] += 1
        mul = lambda a, b: table[a][b]
        if group:
            assert prod(_cayley_invariants(mul, m, 0)) == m
        else:
            with pytest.raises(ValueError):
                _cayley_invariants(mul, m, 0)
    assert min(seen.values()) >= 100


NON_INTEGRAL = {
    "IntMatrix": lambda: IntMatrix(1, 2, [1.5, 2.9]),
    "FGAbelianGroup": lambda: FGAbelianGroup(0, (2.5,)),
    "LaurentPoly-exponent": lambda: LaurentPoly(("a",), {(1.7,): 2}),
    "LaurentPoly-coefficient": lambda: LaurentPoly(("a",), {(1,): 2.5}),
    "FusionRing": lambda: FusionRing((0, 1), [[[1, 0], [0, 1]], [[0, 1], [1, 0.5]]]),
}


@pytest.mark.parametrize("build", NON_INTEGRAL.values(), ids=NON_INTEGRAL.keys())
def test_exact_constructors_reject_non_integral_values(build):
    # int() would truncate 1.5 to 1 and 0.5 to 0; an exact type refuses instead
    with pytest.raises(ValueError, match="integers"):
        build()


def test_exact_constructors_accept_integral_values():
    assert IntMatrix(1, 3, [1.0, Fraction(4, 2), np.int64(3)]).data == (1, 2, 3)
    assert FGAbelianGroup(0, (2.0, Fraction(4, 1), np.int64(8))).torsion == (2, 4, 8)
    assert LaurentPoly(("a",), {(1.0,): Fraction(6, 3)}).terms == {(1,): 2}
    ring = FusionRing((0, 1), [[[1.0, 0], [0, np.int64(1)]], [{1: 1}, {0: Fraction(2, 2)}]])
    assert ring.N == (((1, 0), (0, 1)), ((0, 1), (1, 0)))


FG_ABELIAN_INPUT_ERRORS = {
    "fractional torsion": (lambda: FGAbelianGroup(0, (Fraction(5, 2),)), ValueError,
                           "torsion invariant factors must be integers"),
    "negative free rank": (lambda: FGAbelianGroup(-1), ValueError,
                           "free rank must be nonnegative"),
    "trivial torsion": (lambda: FGAbelianGroup(0, (1,)), ValueError,
                        "torsion invariant factors must be >= 2"),
    "no divisibility chain": (lambda: FGAbelianGroup(0, (2, 3)), ValueError,
                              "invariant factors must form a divisibility chain"),
    "one label short": (lambda: FGAbelianGroup(1, (2,), ["t0"]), ValueError,
                        "need one label per invariant factor and free generator"),
}

@pytest.mark.parametrize("case", FG_ABELIAN_INPUT_ERRORS)
def test_fg_abelian_group_input_errors_are_named(case):
    call, kind, message = FG_ABELIAN_INPUT_ERRORS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message


# --- input checks, bounds and reprs ------------------------------------------------


@pytest.mark.parametrize("make, msg", [
    (lambda: IntMatrix(-1, 0, []), "matrix dimensions must be nonnegative"),
    (lambda: IntMatrix(2, 2, [1, 2, 3]), "expected 4 entries, got 3"),
    (lambda: IntMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
    (lambda: IntMatrix.from_cols([[1, 2], [3]]), "ragged columns"),
    (lambda: IntMatrix.identity(2) + IntMatrix.zero(2, 3), "shape mismatch"),
    (lambda: IntMatrix.identity(2) - IntMatrix.zero(3, 2), "shape mismatch"),
    (lambda: IntMatrix.identity(2) * IntMatrix.zero(3, 2), "inner dimensions mismatch"),
    (lambda: IntMatrix.identity(2).mul_vec([1]), "vector length mismatch"),
    (lambda: IntMatrix.identity(2).hstack(IntMatrix.zero(3, 1)), "row count mismatch"),
    (lambda: PresentedModule(["g"], IntMatrix.zero(2, 1)),
     "relations.rows must equal the number of generators"),
    (lambda: solve_int(IntMatrix.identity(2), [1]), "target length mismatch"),
    (lambda: cokernel(IntMatrix.identity(2), ["a"]), "need one label per codomain generator"),
    (lambda: connecting_solve(IntMatrix.zero(2, 3), ["x"], ["y", "z"]),
     "need one label per domain generator"),
    (lambda: connecting_solve(IntMatrix.zero(2, 3), ["a", "b", "c"], ["y"]),
     "need one label per codomain generator"),
])
def test_matrix_input_checks(make, msg):
    with pytest.raises(ValueError) as err:
        make()
    assert err.value.args[0] == msg


def test_connecting_solve_labels_are_read_like_cokernel_labels():
    beta = IntMatrix.from_rows([[2, 0, 0], [0, 0, 0]])
    ker, coker = connecting_solve(beta, ("a", "b", "c"), iter(["u", "v"]))
    assert ker.generators == ("b", "c") and coker.generators == ("u", "v")
    assert coker == cokernel(beta, ["u", "v"])
    assert connecting_solve(beta)[0].generators == ("x1", "x2")


def test_entry_row_and_column_reads_stay_inside_the_matrix():
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert (M.row(1), M.col(1), M.col(0)) == ((3, 4), (2, 4), (1, 3))
    for read, idx in [(M.row, 2), (M.row, -1), (M.col, 2), (M.col, -1)]:
        with pytest.raises(IndexError):
            read(idx)
    for idx in [(2, 0), (0, -1)]:
        with pytest.raises(IndexError):
            M[idx]
    with pytest.raises(IndexError):
        IntMatrix.zero(3, 0).col(0)


def test_matrix_product_matches_a_naive_triple_loop():
    rng = random.Random(35)
    for _ in range(60):
        m, k, n = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        A = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(k)] for _ in range(m)]
        B = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
        want = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        MA, MB = IntMatrix(m, k, sum(A, [])), IntMatrix(k, n, sum(B, []))
        assert (MA * MB).to_lists() == want
        assert (MA - MA).is_zero() and MA - 2 * MA == -MA


def test_matrix_and_group_reprs_and_helpers():
    M = IntMatrix.from_rows([[1, 0], [0, 2]])
    assert repr(M) == "IntMatrix(2, 2, [1, 0, 0, 2])"
    assert M.hstack(IntMatrix.from_rows([[5], [6]])) == IntMatrix.from_rows([[1, 0, 5], [0, 2, 6]])
    assert M.hstack(IntMatrix.zero(2, 0)) == M
    assert IntMatrix.zero(2, 3).is_zero() and not M.is_zero()
    G = FGAbelianGroup(1, (2,))
    assert G.order() is None and FGAbelianGroup(0, (2, 4)).order() == 8
    assert repr(G) == "FGAbelianGroup('Z/2 + Z')"
    back = FGAbelianGroup.from_json(G.to_json())
    assert back == G and back.generators == G.generators == ("t0", "f0")
