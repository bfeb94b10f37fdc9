"""Modular invariant partition functions and their graph realizations.

A modular invariant for a given exact modular datum is a nonnegative
integer matrix commuting with both S and T, normalized when its vacuum
coefficient is 1.  `enumerate_invariants` finds every one at a given
truncation level by exact integer linear algebra, `embed_invariant`
builds the block invariants coming from a branching of a larger theory,
and `nimrep_from_graph` grows the graph representation of the truncated
fusion rules from an A-D-E adjacency matrix, its spectrum certified by
integer division of the characteristic polynomial and cross-checked by
the exact truncation identity, with no floating point.

The invariance axioms are integer identities: XT = TX asks X to vanish
across T classes, and for an integer X, XS = SX holds exactly when
XS_t = S_tX for each integer coordinate matrix S_t of S over one power
basis, d S = sum_t S_t zeta^t.  The commutant is then the kernel
lattice of an integer system, `exactla.kernel_basis`, and
`enumerate_invariants` walks the rows of its `exactla._row_hermite`
basis depth first, fixing one pivot column per row and pruning a branch
once a finished column leaves the box; this module does no elimination
of its own.

The finite-group analogue lives in `alpha_induction_abelian`: for the
double of a finite abelian group, a subgroup of the square containing
the diagonal produces the same invariant twice, once by comparing the
two chiral inductions and once as b^t b through the quotient double.

`permutation_orbifold_count` counts sectors of a symmetrized tensor
power.  The default counts orbits of label tuples; the keyword
`resolve_fixed_points` weights each orbit by the number of irreducible
characters of its stabilizer instead, so that tuples with symmetry
split into their invariant parts.  Neither walks the tuples: with m
labels and omega the number of orbits on the copies, the default is
Burnside's (1/|G|) sum_x m^omega(x) and the resolved count is Bantay's
(1/|G|) sum_{xy=yx} m^omega(x, y) over commuting pairs (Burnside's
lemma on pairs; Phys. Lett. B 419 (1998) 175), one O(|G|^2 copies) pass.
"""

import re
from collections import defaultdict
from fractions import Fraction
from math import gcd, prod

from .cyclo import (
    CycNumber, _Frozen, _key, _pack, _poly_divexact, _real_cyclotomic_poly, _real_enclosure, _width,
)
from .exactla import IntMatrix, SelfCheckFailure, _closure, _row_hermite, kernel_basis
from .fusion import (
    _cyclic_orders, _elt_add, _fusion_failure, _pairing, _tuples, su2_fusion_truncated,
    su2_modular_data,
)

__all__ = [
    "InvariantCheckFailed",
    "NegativeEntry",
    "SpectrumMismatch",
    "SearchBudgetExceeded",
    "DiagonalNotContained",
    "SelfCheckFailure",
    "ModularInvariant",
    "BranchingRule",
    "Nimrep",
    "CheckReport",
    "check_invariant",
    "enumerate_invariants",
    "embed_invariant",
    "cardinalities",
    "ade_graph",
    "nimrep_from_graph",
    "central_charge_check",
    "alpha_induction_abelian",
    "overgroups_of_diagonal",
    "permutation_orbifold_count",
]


class InvariantCheckFailed(Exception):
    """A candidate matrix fails one of the invariance axioms."""


class NegativeEntry(Exception):
    """The graph recursion produced a negative coefficient."""


class SpectrumMismatch(Exception):
    """Graph eigenvalues do not lie in the exponent set of the level."""


class SearchBudgetExceeded(Exception):
    """The enumeration box is larger than the allowed budget."""

    def __init__(self, volume, budget, rank, pivot_bounds):
        self.volume = volume
        self.budget = budget
        self.rank = rank
        self.pivot_bounds = tuple(pivot_bounds)
        super().__init__(
            "enumeration box of volume %d exceeds budget %d "
            "(kernel rank %d, pivot bounds %s)"
            % (volume, budget, rank, list(pivot_bounds))
        )


class DiagonalNotContained(Exception):
    """The subgroup of the square misses part of the diagonal."""


def _bad_entry(grid):
    """First (i, j) whose entry is not a nonnegative integer, or None."""
    return next(
        ((i, j) for i, row in enumerate(grid) for j, c in enumerate(row)
         if not isinstance(c, int) or c < 0),
        None,
    )


def _int_grid(Z):
    if isinstance(Z, (ModularInvariant, BranchingRule)):
        return Z.matrix
    if isinstance(Z, IntMatrix):
        return tuple(tuple(row) for row in Z.to_lists())
    grid = tuple(tuple(row) for row in Z)
    if grid and any(len(row) != len(grid[0]) for row in grid):
        raise ValueError("matrix rows must have equal length")
    return grid


class CheckReport(_Frozen):
    """Per-axiom verdicts for a candidate invariant."""

    __slots__ = ("axioms", "notes")

    def __init__(self, axioms, notes):
        self._fill(dict(axioms), dict(notes))

    @property
    def passed(self) -> bool:
        return all(self.axioms.values())

    def __bool__(self) -> bool:
        return self.passed

    def failures(self):
        return tuple(name for name in sorted(self.axioms) if not self.axioms[name])

    def to_json(self):
        return {
            "passed": self.passed,
            "axioms": dict(self.axioms),
            "notes": dict(self.notes),
        }

    def __repr__(self):
        state = "pass" if self.passed else "fail: " + ", ".join(self.failures())
        return "CheckReport(%s)" % state


class ModularInvariant(_Frozen):
    """Nonnegative integer matrix Z with ZS = SZ and ZT = TZ.

    Entry validation happens on construction; the commutation axioms are
    verified exactly when a modular datum is supplied.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, data=None) -> None:
        grid = _int_grid(matrix)
        m = len(grid)
        if any(len(row) != m for row in grid):
            raise ValueError("invariant matrix must be square")
        if _bad_entry(grid):
            raise ValueError("entries must be nonnegative integers")
        self._fill(grid)
        if data is not None:
            rep = check_invariant(grid, data)
            if not rep.passed:
                raise InvariantCheckFailed(", ".join(rep.failures()))

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def is_normalized(self) -> bool:
        return bool(self.matrix) and self.matrix[0][0] == 1

    def trace(self) -> int:
        return sum(self.matrix[i][i] for i in range(len(self.matrix)))

    def __eq__(self, other):
        if not isinstance(other, ModularInvariant):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def to_json(self):
        return {
            "matrix": [list(row) for row in self.matrix],
            "normalized": self.is_normalized,
            "trace": self.trace(),
        }

    def __repr__(self):
        return "ModularInvariant(%dx%d, trace %d)" % (
            self.size,
            self.size,
            self.trace(),
        )


class BranchingRule(_Frozen):
    """Nonnegative integer decomposition matrix, vacuum to vacuum once.

    Rows are labels of the extended theory, columns labels of the base;
    entry (t, l) is the multiplicity of base label l inside extended
    label t.  The vacuum must restrict to the vacuum with coefficient 1.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        grid = tuple(tuple(row) for row in (
            matrix.to_lists() if isinstance(matrix, IntMatrix) else matrix
        ))
        if not grid or not grid[0]:
            raise ValueError("branching matrix must be nonempty")
        w = len(grid[0])
        if any(len(row) != w for row in grid):
            raise ValueError("branching rows must have equal length")
        if _bad_entry(grid):
            raise ValueError("entries must be nonnegative integers")
        if grid[0][0] != 1:
            raise ValueError("vacuum must branch to the vacuum with coefficient 1")
        self._fill(grid)

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0])

    def __repr__(self):
        return "BranchingRule(%dx%d)" % (self.rows, self.cols)


class Nimrep(_Frozen):
    """Graph representation of a truncated fusion ring."""

    __slots__ = ("level", "adjacency", "matrices", "exponents", "report")

    def __init__(self, level, adjacency, matrices, exponents, report) -> None:
        self._fill(level, adjacency, tuple(matrices), tuple(exponents), dict(report))

    def to_json(self):
        return {
            "level": self.level,
            "nodes": self.adjacency.shape[0],
            "adjacency": self.adjacency.to_lists(),
            "exponents": list(self.exponents),
            "report": dict(self.report),
        }

    def __repr__(self):
        return "Nimrep(level %d, %d nodes, exponents %s)" % (
            self.level,
            self.adjacency.shape[0],
            list(self.exponents),
        )


def _t_failure(X, TA, TB):
    """First (i, j), row-major, where X TB and TA X differ for diagonal T:
    X[i][j] is nonzero while TA[i] != TB[j].  None when they agree."""
    return next(
        ((i, j) for i, row in enumerate(X) for j, x in enumerate(row)
         if x and TA[i] != TB[j]),
        None,
    )


def _intertwiner_failure(X, A, B):
    """First (i, j), row-major, where the integer X and cyclotomic A, B give
    X B != A X, or None.  A and B are keyed together (once when A is B), at
    one order L over one denominator d, so X B = A X holds exactly when
    X B_t = A_t X for the coordinate slices d B = sum_t B_t zeta_L^t,
    d A = sum_t A_t zeta_L^t.  Each entry's phi(L) coordinates are packed
    into slots wide enough for either side, and a row of entries side by
    side: row i of X B is sum_k X_ik (row k of B), row i of A X is built
    entry by entry from the packed A_ik, and one integer compare tests the
    row.  The slots of a failing row's difference are signed and fit, so
    its lowest set bit lies in its first nonzero slot, which names j."""
    r, c = len(A), len(B)
    _, _, flat = _key(A) if A is B else _key(tuple(A) + tuple(B))
    phi = len(flat) // (r * r + (0 if A is B else c * c) or 1)
    fb = flat[len(flat) - c * c * phi:]
    width = _width(sum(abs(x) for row in X for x in row) * max(map(abs, flat), default=0))
    pa = [_pack(flat[u * phi:(u + 1) * phi], width) for u in range(r * r)]
    pb = [_pack(fb[k * c * phi:(k + 1) * c * phi], width) for k in range(c)]
    cols = [[(k, x) for k, x in enumerate(v) if x] for v in zip(*X)][::-1]
    for i in range(r):
        xb, ax = sum(x * pb[k] for k, x in enumerate(X[i]) if x), 0
        for col in cols:
            ax = (ax << phi * width) + sum(pa[i * r + k] * x for k, x in col)
        if xb != ax:
            low = (xb - ax) & (ax - xb)  # the lowest set bit of xb - ax
            return i, (low.bit_length() - 1) // (phi * width)
    return None


def check_invariant(Z, data) -> CheckReport:
    """Test integrality, both commutations, and vacuum normalization.

    Returns a CheckReport with one verdict per axiom; nothing is raised
    for a failing matrix, only for a shape that does not fit the datum.
    """
    grid = _int_grid(Z)
    m = len(data.labels)
    if len(grid) != m or any(len(row) != m for row in grid):
        raise ValueError("matrix shape does not match the modular datum")
    axioms = {}
    notes = {}
    bad = _bad_entry(grid)
    axioms["entries"] = bad is None
    if bad:
        notes["entries"] = "first offending position %s" % (bad,)
        axioms["commutes_with_t"] = False
        axioms["commutes_with_s"] = False
        axioms["vacuum"] = False
        notes["commutes_with_t"] = "not evaluated"
        notes["commutes_with_s"] = "not evaluated"
        return CheckReport(axioms, notes)
    t_bad = _t_failure(grid, data.T, data.T)
    axioms["commutes_with_t"] = t_bad is None
    if t_bad:
        notes["commutes_with_t"] = "nonzero entry across T classes at %s" % (t_bad,)
    s_bad = _intertwiner_failure(grid, data.S, data.S)
    axioms["commutes_with_s"] = s_bad is None
    if s_bad:
        notes["commutes_with_s"] = "ZS and SZ differ first at %s" % (s_bad,)
    axioms["vacuum"] = grid[0][0] == 1
    if grid[0][0] != 1:
        notes["vacuum"] = "vacuum coefficient is %d" % grid[0][0]
    return CheckReport(axioms, notes)


def _floor_exact(x: CycNumber) -> int:
    """Floor of a real cyclotomic value, from integers alone.

    Rational values are floored exactly.  A value equal to an integer is
    rational, because the canonical power-basis vector is unique, so an
    irrational x at order n is never an integer.  With d x = sum_t c_t
    zeta^t (d = x.den) and E = sum_t |c_t|, `_real_enclosure` bounds
    2^b d x by an enclosure of width 2E at any precision b.  Suppose an
    integer N lies in it once 2^b >= 2E: then |x - N| <= 1, so
    y = d (x - N) is a nonzero algebraic integer of the real subfield, of
    degree m = phi(n)/2, whose conjugates are bounded by H = 2E + d.  Its
    norm is a nonzero integer, so |y| >= H^-(m-1), and 2^b |y| <= 2E.
    At b >= bitlen(2E) + (m - 1) bitlen(H) that is false, so the
    enclosure holds no integer and its two ends share one floor: one
    evaluation decides, with no loop.  b is rounded up to a multiple of
    64 so that values share cosine tables.
    """
    if x != x.conjugate():
        raise ValueError("floor of a non-real value: %s" % x.render())
    if x.is_rational():
        f = x.as_fraction()
        return f.numerator // f.denominator
    err = sum(map(abs, x.num))
    need = (2 * err).bit_length() + (len(x.num) // 2 - 1) * (2 * err + x.den).bit_length()
    bits = -(-need // 64) * 64
    lo, hi = _real_enclosure(x, bits)
    unit = x.den << bits
    if lo // unit != hi // unit:
        raise SelfCheckFailure("the enclosure of %s holds an integer" % x.render())
    return lo // unit


def _commutant_rows(S, positions):
    """Primitive integer rows of the system ZS = SZ, Z unknown at `positions`.

    In coordinate t of `_intertwiner_failure`'s identities, the slice S_t =
    flat[t::phi] of S's key, entry (i, j) of Z S_t - S_t Z gives Z[p][q] the
    coefficient [p = i] S_t[q][j] - [q = j] S_t[i][p].
    """
    m = len(S)
    by_row = defaultdict(list)
    by_col = defaultdict(list)
    for u, (p, q) in enumerate(positions):
        by_row[p].append((u, q))
        by_col[q].append((u, p))
    _, _, flat = _key(S)
    phi = len(flat) // (m * m)
    rows = set()
    for t in range(phi):
        s = flat[t::phi]
        for i in range(m):
            for j in range(m):
                row = [0] * len(positions)
                for u, q in by_row[i]:
                    row[u] += s[q * m + j]
                for u, p in by_col[j]:
                    row[u] -= s[i * m + p]
                g = gcd(*row)
                if g:
                    if next(c for c in row if c) < 0:
                        g = -g
                    rows.add(tuple(c // g for c in row))
    return sorted(rows)


def enumerate_invariants(level: int, budget: int = 4_000_000):
    """Every normalized invariant of the level, in lexicographic order.

    The T commutation restricts the unknown matrix to positions whose T
    eigenvalues agree, the S commutation becomes an integer linear
    system on those positions, and a depth-first walk over the rows of
    its kernel's Hermite basis H picks the integer combinations inside
    the box bounded by products of quantum dimensions.  At depth t the
    coefficient of row t runs over exactly the integers that put pivot
    column p_t in the box (at least 1 at (0, 0)); every column left of
    p_(t+1) is then final, so a branch stops as soon as one of them
    leaves it.  Raises SearchBudgetExceeded when the pivot box has more
    than `budget` points.
    """
    data = su2_modular_data(level)
    S, T = data.S, data.T
    m = len(data.labels)
    inv00 = S[0][0].inverse()
    dims = [(S[0][j] * inv00).normalized() for j in range(m)]
    positions = [(i, j) for i in range(m) for j in range(m) if T[i] == T[j]]
    bound_of = {p: _floor_exact(dims[p[0]] * dims[p[1]]) for p in positions}
    positions.sort(key=lambda p: (bound_of[p], p))
    bounds = [bound_of[p] for p in positions]
    npos = len(positions)

    rows = _commutant_rows(S, positions)
    K = kernel_basis(IntMatrix(len(rows), npos, [c for row in rows for c in row]))
    H = _row_hermite([K.col(t) for t in range(K.cols)])
    rank = len(H)
    pivots = [next(c for c in range(npos) if row[c]) for row in H]

    volume = prod(bounds[c] + 1 for c in pivots)
    if volume > budget:
        raise SearchBudgetExceeded(volume, budget, rank, [bounds[c] for c in pivots])

    out = []

    def walk(t, vec):
        if t == rank:
            grid = [[0] * m for _ in range(m)]
            for u, (i, j) in enumerate(positions):
                grid[i][j] = vec[u]
            if grid[0][0] == 1:
                out.append(ModularInvariant(grid, data=data))
            return
        row, c = H[t], pivots[t]
        piv, lo = row[c], 1 if positions[c] == (0, 0) else 0
        final = range(c + 1, pivots[t + 1] if t + 1 < rank else npos)
        for x in range(-((vec[c] - lo) // piv), (bounds[c] - vec[c]) // piv + 1):
            nxt = [a + x * b for a, b in zip(vec, row)]
            if all(0 <= nxt[u] <= bounds[u] for u in final):
                walk(t + 1, nxt)

    walk(0, [0] * npos)
    out.sort(key=lambda z: z.matrix)
    return out


def embed_invariant(branching, extended, base) -> ModularInvariant:
    """Invariant of the base theory built from a branching: Z = b^t b.

    The branching matrix must intertwine the S and T matrices of the
    extended and base data exactly, and the product must pass every
    invariance axiom; InvariantCheckFailed reports the first failure.
    """
    b = branching if isinstance(branching, BranchingRule) else BranchingRule(branching)
    grid = b.matrix
    if b.rows != len(extended.labels) or b.cols != len(base.labels):
        raise ValueError("branching shape does not match the two data")
    bad = _t_failure(grid, extended.T, base.T)
    if bad:
        raise InvariantCheckFailed("branching does not intertwine T at (%d, %d)" % bad)
    bad = _intertwiner_failure(grid, extended.S, base.S)
    if bad:
        raise InvariantCheckFailed("branching does not intertwine S at (%d, %d)" % bad)
    B = IntMatrix.from_rows(grid)
    return ModularInvariant(B.transpose() * B, data=base)


def cardinalities(Z, branching=None) -> dict:
    """Sector counts of an invariant: tr Z, tr ZZ^t, and tr b^t b."""
    grid = _int_grid(Z)
    out = {
        "tr_z": sum(grid[i][i] for i in range(len(grid))),
        "tr_zzt": sum(c * c for row in grid for c in row),
    }
    if branching is not None:
        bgrid = _int_grid(branching)
        out["tr_btb"] = sum(c * c for row in bgrid for c in row)
    return out


_ADE_NAME = re.compile(r"([ADE])(\d+)")


def ade_graph(name: str):
    """Adjacency matrix and node labels of a simply laced Dynkin graph.

    Node ordering: A_n is the path 0 .. n-1; D_n is the path 0 .. n-3
    with the two fork nodes n-2 and n-1 attached to n-3; E_n is the
    path 0 .. n-2 with the extra node n-1 attached to node 2.
    """
    m = _ADE_NAME.fullmatch(name.strip().upper().replace("_", ""))
    if not m:
        raise ValueError("unknown graph name %r" % (name,))
    family, n = m.group(1), int(m.group(2))
    edges = []
    if family == "A":
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "D":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        edges = [(i, i + 1) for i in range(n - 3)]
        edges += [(n - 3, n - 2), (n - 3, n - 1)]
    else:
        if n not in (6, 7, 8):
            raise ValueError("E_n exists for n in {6, 7, 8}")
        edges = [(i, i + 1) for i in range(n - 2)]
        edges.append((2, n - 1))
    grid = [[0] * n for _ in range(n)]
    for i, j in edges:
        grid[i][j] = 1
        grid[j][i] = 1
    return IntMatrix.from_rows(grid), tuple(str(i) for i in range(n))


def _charpoly(grid):
    """Coefficients c_0..c_n of det(xI - A), low to high, exact integers.

    Faddeev-LeVerrier on the sparse rows of A: M_1 = I,
    c_(n-k) = -tr(A M_k) / k and M_(k+1) = A M_k + c_(n-k) I, so each step
    costs nnz(A) row additions.  Every trace must divide exactly, and
    M_(n+1) = 0 is the Cayley-Hamilton check on the result.
    """
    n = len(grid)
    sparse = [[(j, a) for j, a in enumerate(row) if a] for row in grid]
    coeffs = [0] * n + [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AM = [[0] * n for _ in range(n)]
        for out, row in zip(AM, sparse):
            for j, a in row:
                out[:] = [x + a * y for x, y in zip(out, M[j])]
        t = sum(AM[i][i] for i in range(n))
        if t % k:
            raise SelfCheckFailure("Faddeev-LeVerrier trace %d is not divisible by %d" % (t, k))
        coeffs[n - k] = -t // k
        for i in range(n):
            AM[i][i] += coeffs[n - k]
        M = AM
    if any(any(row) for row in M):
        raise SelfCheckFailure("the characteristic polynomial does not annihilate A")
    return coeffs


def nimrep_from_graph(adjacency, level: int) -> Nimrep:
    """Grow the graph representation of the level from its adjacency.

    G_0 = 1 and G_1 = A, then the three-term recursion
    G_{l+1} = G_1 G_l - G_{l-1}; a negative coefficient anywhere raises
    NegativeEntry.  The spectrum of A must consist of the level's
    exponent values 2 cos(pi (e+1) / (level+2)), certified by integer
    division of the characteristic polynomial and cross-checked by the
    exact truncation identity; otherwise SpectrumMismatch is raised.
    """
    A = adjacency if isinstance(adjacency, IntMatrix) else IntMatrix.from_rows(adjacency)
    g, g2 = A.shape
    if g != g2:
        raise ValueError("adjacency matrix must be square")
    if A != A.transpose():
        raise ValueError("adjacency matrix must be symmetric")
    if any(c < 0 for row in A.to_lists() for c in row):
        raise ValueError("adjacency entries must be nonnegative")
    if level < 0:
        raise ValueError("level must be nonnegative")

    mats = [IntMatrix.identity(g), A][: level + 1]
    for lam in range(2, level + 1):
        nxt = A * mats[-1] - mats[-2]
        bad = _bad_entry(nxt.to_lists())
        if bad:
            raise NegativeEntry(
                "entry (%d, %d) of the step-%d matrix is %d" % (*bad, lam, nxt[bad])
            )
        mats.append(nxt)

    # Psi_d, d | 2n, d >= 3, has the roots 2cos(2 pi a/d), a prime to d, 2a < d:
    # the exponents 2n a/d - 1, Galois conjugates of one multiplicity
    n2 = 2 * (level + 2)
    poly = _charpoly(A.to_lists())
    exponents = []
    for d in (d for d in range(3, n2 + 1) if n2 % d == 0):
        psi = _real_cyclotomic_poly(d)
        while True:
            try:
                poly = _poly_divexact(poly, psi)
            except ArithmeticError:
                break
            exponents += [a * n2 // d - 1 for a in range(1, d // 2 + 1) if gcd(a, d) == 1]
    if len(poly) != 1:
        raise SpectrumMismatch(
            "%d eigenvalues of the graph lie outside the level-%d exponent set"
            % (len(poly) - 1, level)
        )
    exponents.sort()

    # the spectrum certificate makes these identities theorems; verify anyway
    if level >= 1 and _fusion_failure(su2_fusion_truncated(level), mats):
        raise SelfCheckFailure("graph matrices fail the fusion identity")
    if any(M != M.transpose() for M in mats):
        raise SelfCheckFailure("graph matrices fail transpose symmetry")

    # G_{level+1} = U_{level+1}(A/2) = 0 alone puts every eigenvalue of the
    # symmetric A at some 2cos(pi j/(level+2)), with no floating point
    report = {
        "fusion_representation": True,
        "transpose_symmetry": True,
        "spectrum_exact": True,
        "spectrum_numeric": A * mats[-1] == (mats[-2] if level else IntMatrix.zero(g, g)),
    }
    return Nimrep(level, A, mats, exponents, report)


def central_charge_check(
    sub_dim: int,
    sub_coxeter: int,
    sub_level: int,
    ambient_dim: int,
    ambient_coxeter: int,
    ambient_level: int,
) -> bool:
    """Exact equality of the two rational central charges.

    Each side is level * dim / (level + dual Coxeter number); a zero
    dual Coxeter number is allowed for flat factors.
    """
    if sub_level + sub_coxeter <= 0 or ambient_level + ambient_coxeter <= 0:
        raise ValueError("level plus dual Coxeter number must be positive")
    lhs = Fraction(sub_level * sub_dim, sub_level + sub_coxeter)
    rhs = Fraction(ambient_level * ambient_dim, ambient_level + ambient_coxeter)
    return lhs == rhs


def _coerce_elt(x, orders):
    if isinstance(x, int):
        if len(orders) != 1:
            raise ValueError("plain integers only label single cyclic factors")
        return (x % orders[0],)
    t = tuple(int(v) % mi for v, mi in zip(x, orders))
    if len(t) != len(orders) or len(tuple(x)) != len(orders):
        raise ValueError("element has the wrong number of components")
    return t


def alpha_induction_abelian(G, H) -> dict:
    """Both chiral inductions for the double of a finite abelian group.

    `G` is a cyclic order or tuple of cyclic orders; `H` is an iterable
    of pairs (a, b) of group elements forming a subgroup of the square
    that contains the diagonal (DiagonalNotContained otherwise).  Labels
    of the double are pairs (element, character exponents) in the same
    order as `double_abelian`.

    The full system pairs a coset of H with a character of H, written
    as (coset label, (restriction to the difference subgroup, diagonal
    restriction)).  The plus induction of (a, x) lands in the coset of
    a with character pair (x's restriction, x); the minus induction of
    (b, y) lands in the coset of the inverse-twisted pair, which is
    labelled by b, with the trivial restriction and diagonal y.  The
    invariant Z compares the two maps; the branching matrix b through
    the quotient double gives the same matrix as b^t b, which is left
    to the caller to verify.
    """
    orders = _cyclic_orders(G)
    elements = _tuples(orders)
    zero = tuple(0 for _ in orders)
    pairs = {( _coerce_elt(a, orders), _coerce_elt(b, orders)) for a, b in H}
    for g in elements:
        if (g, g) not in pairs:
            raise DiagonalNotContained("missing diagonal pair for %s" % (g,))
    for a, b in pairs:
        for c, d in pairs:
            if (_elt_add(a, c, orders), _elt_add(b, d, orders)) not in pairs:
                raise ValueError("H is not closed under the group law")

    N = sorted(a for a, b in pairs if b == zero)  # (a, b) - (b, b) = (a - b, 0) is in H
    coset_rep = {g: min(_elt_add(g, n, orders) for n in N) for g in elements}
    ell_labels = sorted(set(coset_rep.values()))
    _, chi = _pairing(orders)
    annihilator = [x for x in elements if not any(chi(x, n) for n in N)]
    nu_rep = {x: min(_elt_add(x, a, orders) for a in annihilator) for x in elements}
    nu_labels = sorted(set(nu_rep.values()))

    full = [
        (ell, (nu, z))
        for ell in ell_labels
        for nu in nu_labels
        for z in elements
    ]
    base = [(a, x) for a in elements for x in elements]
    alpha_plus = {
        (a, x): (coset_rep[a], (nu_rep[x], x)) for a in elements for x in elements
    }
    alpha_minus = {
        (b, y): (coset_rep[b], (nu_rep[zero], y)) for b in elements for y in elements
    }
    mm = len(base)
    Z = [
        [1 if alpha_plus[base[i]] == alpha_minus[base[j]] else 0 for j in range(mm)]
        for i in range(mm)
    ]
    neutral = [(ell, x) for ell in ell_labels for x in annihilator]
    b_rows = [
        [1 if coset_rep[a] == ell and x == chi else 0 for (a, x) in base]
        for (ell, chi) in neutral
    ]
    return {
        "full_system": tuple(full),
        "alpha_plus": alpha_plus,
        "alpha_minus": alpha_minus,
        "Z": IntMatrix.from_rows(Z),
        "neutral_system": tuple(neutral),
        "branching": IntMatrix.from_rows(b_rows),
        "difference_subgroup": tuple(N),
    }


def overgroups_of_diagonal(G):
    """All subgroups of the square containing the diagonal.

    There is exactly one for each subgroup N of G, namely the pairs
    whose difference lies in N.  Returned sorted by size.
    """
    orders = _cyclic_orders(G)
    elements = _tuples(orders)
    zero = (0,) * len(orders)
    add = lambda a, b: _elt_add(a, b, orders)
    subgroups = {frozenset({zero})}
    frontier = [frozenset({zero})]
    while frontier:
        S = frontier.pop()
        covered = set(S)
        for g in elements:
            if g in covered:
                continue
            covered.update(add(g, s) for s in S)  # each element of g + S closes the same T
            T = frozenset(_closure(sorted(S | {g}), zero, add, len(elements))[0])
            if T not in subgroups:
                subgroups.add(T)
                frontier.append(T)
    out = [frozenset((add(a, n), a) for a in elements for n in N) for N in subgroups]
    return sorted(out, key=lambda h: (len(h), sorted(h)))


def _compose(a, b):
    return tuple(a[b[i]] for i in range(len(a)))


def _orbit_count(perms, copies) -> int:
    """Orbits on the copies of the group the permutations generate."""
    parent = list(range(copies))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    orbits = copies
    for p in perms:
        for i in range(copies):
            r, s = root(i), root(p[i])
            if r != s:
                parent[r] = s
                orbits -= 1
    return orbits


def permutation_orbifold_count(
    base_primary_count: int,
    copies: int,
    group,
    resolve_fixed_points: bool = False,
) -> int:
    """Count sectors of a permutation-symmetrized tensor power.

    `group` lists the permutations of the copies (tuples of images) and
    must contain the identity and be closed under composition.  The
    default counts each orbit of label tuples once.  With
    `resolve_fixed_points` every orbit is weighted by the number of
    irreducible characters of its stabilizer, so a tuple fixed by a
    transposition contributes two sectors instead of one.

    Both counts are Burnside sums over G, with m = `base_primary_count`
    and omega(...) the number of orbits on the copies of the group the
    listed permutations generate: the default is (1/|G|) sum_x m^omega(x),
    the resolved count (1/|G|) sum_{xy=yx} m^omega(x, y).  Summing over
    commuting pairs the tuples both fix gives sum_t |Stab t| k(Stab t),
    that is |G| times the sum over orbits of the class number k of the
    stabilizer (Burnside's lemma on pairs; Bantay, Characters and
    modular properties of permutation orbifolds, Phys. Lett. B 419
    (1998) 175).  The sum rides on the closure check, which composes
    every pair, so the cost is O(|G|^2 copies) and does not depend on m.
    """
    for n in (base_primary_count, copies):
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError("counts must be ints, got %r" % (n,))
    if base_primary_count < 1 or copies < 1:
        raise ValueError("counts must be positive")
    perms = [tuple(g) for g in group]
    ident = tuple(range(copies))
    pset = set(perms)
    if len(pset) != len(perms):
        raise ValueError("group elements must be distinct")
    for g in perms:
        if sorted(g) != list(range(copies)):
            raise ValueError("%s is not a permutation of the copies" % (g,))
    if ident not in pset:
        raise ValueError("group must contain the identity")
    total = 0
    for a in perms:
        for b in perms:
            ab = _compose(a, b)
            if ab not in pset:
                raise ValueError("group is not closed under composition")
            if b == ident or resolve_fixed_points and ab == _compose(b, a):
                total += base_primary_count ** _orbit_count((a, b), copies)
    count, extra = divmod(total, len(perms))
    if extra:
        raise SelfCheckFailure("orbit count of a group action must be integral")
    return count
