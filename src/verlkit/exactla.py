"""Exact linear algebra: Smith normal form over Z.

Everything here works with arbitrary-precision integers.  The central
object is :class:`IntMatrix` (immutable, row-major); on top of it sit the
Smith normal form and :class:`FGAbelianGroup`, the invariant-factor
presentation of a finitely generated abelian group that every downstream
computation reports its answers in.  All integer elimination is one
Euclid pass, `_sweep`, over one row operation, `_add`: the Smith form
clears its columns, its rows and its divisibility fix-ups with it, and
`_row_hermite` builds the Hermite form of a row lattice with it.  That
echelon has two readers: ``modinv.enumerate_invariants`` walks its rows
for the CIZ search, and ``polyring._common_factor`` reads the gcd over Q
of two polynomials off the last row of their Sylvester rows' echelon.  The
Smith engine, `_smith_engine`, works on lists of rows and hands back U^-1
and V as lists of their columns, the form it builds them in; only the
public wrappers turn an IntMatrix into rows and the results back into
IntMatrix values.  It tracks only the unimodular transforms its reader
names: none for `rank`, V for `kernel_basis` and for
``repring.recognize_affine_ade``, U^-1 and V for `connecting_solve`, all
four for `smith_with_inverses` and so for `cokernel`.  A reader of U or
V^-1 applied to a few columns B gets U*B or V^-1*B instead: `solve_int`
tracks U*target and V, ``polyring.e6_tor`` U*target, U^-1 and V^-1 times
its d2 columns, then U^-1 or nothing for H1, and reads the cokernel
generators straight off U^-1's columns.  A pivot row that its pivot
divides is cleared on V and V^-1 alone.  Every
group closure is one breadth-first walk, `_closure`, and
`_cayley_invariants` presents a finite abelian group by the relations of
its Cayley graph and reads it off the same Smith engine.  Its immutable
values derive from `cyclo._Frozen`.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .cyclo import _format_combo, _Frozen

__all__ = [
    "IntMatrix",
    "FGAbelianGroup",
    "PresentedModule",
    "smith_normal_form",
    "smith_with_inverses",
    "cokernel",
    "kernel_basis",
    "rank",
    "fgab_from_relations",
    "connecting_solve",
    "solve_int",
    "SelfCheckFailure",
]


class SelfCheckFailure(RuntimeError, AssertionError):
    """An identity the computation guarantees failed when verified.

    The one self-check failure of the library: both a RuntimeError and an
    AssertionError, so a handler for either kind catches it.
    """


class IntMatrix(_Frozen):
    """An immutable integer matrix stored row-major.

    >>> M = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> M.shape
    (2, 2)
    >>> M[1, 0]
    6
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        raw = tuple(data)
        data = tuple(map(int, raw))
        if data != raw:
            raise ValueError("matrix entries must be integers")
        if len(data) != rows * cols:
            raise ValueError(
                "expected %d entries, got %d" % (rows * cols, len(data))
            )
        self._fill(rows, cols, data)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rows(cls, rows_list) -> "IntMatrix":
        rows_list = [list(r) for r in rows_list]
        r = len(rows_list)
        c = len(rows_list[0]) if rows_list else 0
        if any(len(row) != c for row in rows_list):
            raise ValueError("ragged rows")
        return cls(r, c, [x for row in rows_list for x in row])

    @classmethod
    def from_cols(cls, cols_list) -> "IntMatrix":
        cols_list = [list(c) for c in cols_list]
        c = len(cols_list)
        r = len(cols_list[0]) if cols_list else 0
        if any(len(col) != r for col in cols_list):
            raise ValueError("ragged columns")
        return cls(r, c, [cols_list[j][i] for i in range(r) for j in range(c)])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    # -- basic queries ---------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, idx):
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(idx)
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j):
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, list(self.data))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return _matrix(self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return _matrix(self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return _matrix(self.rows, self.cols, [-a for a in self.data])

    def __mul__(self, other):
        """Matrix product, or scalar product when `other` is an int.

        >>> (IntMatrix.identity(2) * 3).data
        (3, 0, 0, 3)
        """
        if isinstance(other, int):
            return _matrix(self.rows, self.cols, [a * other for a in self.data])
        if self.cols != other.rows:
            raise ValueError("inner dimensions mismatch")
        out = [0] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for t in range(self.cols):
                a = self.data[base + t]
                if a == 0:
                    continue
                obase = t * other.cols
                rbase = i * other.cols
                for j in range(other.cols):
                    out[rbase + j] += a * other.data[obase + j]
        return _matrix(self.rows, other.cols, out)

    __rmul__ = __mul__

    def transpose(self):
        c = self.cols
        return _matrix(c, self.rows, [x for j in range(c) for x in self.data[j::c]])

    def mul_vec(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        # only the nonzero entries of the vector contribute
        nz = [(j, v) for j, v in enumerate(vec) if v]
        data, c = self.data, self.cols
        return tuple(sum(data[i * c + j] * v for j, v in nz) for i in range(self.rows))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        data = [x for i in range(self.rows) for x in self.row(i) + other.row(i)]
        return _matrix(self.rows, self.cols + other.cols, data)

    def is_zero(self):
        return all(a == 0 for a in self.data)

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols, "data": list(self.data)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["rows"], obj["cols"], obj["data"])


def _matrix(rows: int, cols: int, data) -> IntMatrix:
    """An IntMatrix around int entries the library computed itself, unchecked."""
    M = object.__new__(IntMatrix)
    M._fill(rows, cols, tuple(data))
    return M


def _add(fwd, inv, dst, src, q):
    """Row dst += q * row src on `fwd`, and the inverse step on `inv`.

    `inv` holds the inverse of `fwd` transposed, so the inverse step, column
    src -= q * column dst, is a row operation too.  Either may be None.
    """
    if q:
        if fwd is not None:
            fwd[dst] = [x + q * y for x, y in zip(fwd[dst], fwd[src])]
        if inv is not None:
            inv[src] = [x - q * y for x, y in zip(inv[src], inv[dst])]


def _swap(mats, a, b):
    """Swap rows a and b of every tracked matrix in `mats`."""
    for X in mats:
        if X is not None:
            X[a], X[b] = X[b], X[a]


def _sweep(get, t, stop, add, swap):
    """One Euclid pass: reduce the entries t+1..stop-1 of a line by entry t.

    `get(i)` reads entry i of the line, `add(i, t, q)` adds q times element
    t to element i and `swap(t, i)` exchanges them.  A nonzero remainder is
    smaller than the pivot and becomes the new pivot.  Returns True when the
    pass made no swap, so that every entry past t is zero.
    """
    done = True
    for i in range(t + 1, stop):
        a = get(i)
        if a:
            add(i, t, -(a // get(t)))
            if get(i):
                swap(t, i)
                done = False
    return done


def _smith_engine(A, n, u=False, uinv=False, v=False, vinv=False):
    """Run the SNF elimination on the rows A of an m x n matrix M.

    Returns (U, U^-1, D, V, V^-1) with U*M*V = D and U, V unimodular, as
    lists of rows, except that U^-1 and V come as lists of their columns.
    The column count n is explicit, as a matrix without rows still has
    columns.  The engine works in place on A, which becomes D, and on any
    right-hand side it is given.  Only the transforms flagged are tracked;
    the others come back as None.  A row step of M acts on the rows of U
    and on the columns of U^-1, a column step on the columns of V and on
    the rows of V^-1, so every transform update is one `_add` or `_swap`
    of whole lists.  Pivots are chosen with smallest nonzero magnitude to
    keep entry growth down on the larger connecting matrices.  Once column
    t is cleared to p*e_t, a pivot p that divides its row (always when
    |p| = 1) clears the row by bookkeeping: the column steps change only
    row t of M, so they run on V and V^-1 alone.  Any other pivot row goes
    through the Euclid sweeps.

    `u` and `vinv` may also be the rows of a matrix B (m, resp. n, rows):
    that transform's rows then start from B instead of from I, and its slot
    returns U*B, resp. V^-1*B.  Row operations on U are row operations on
    U*B, so the product is never formed; True is B = I.
    """
    m = len(A)

    def start(k, on):
        if on is False:
            return None
        if on is True:
            return [[0] * i + [1] + [0] * (k - 1 - i) for i in range(k)]
        if len(on) != k:
            raise ValueError("right-hand side needs %d rows" % k)
        return on

    U, Uinv_t, V_t, Vinv = start(m, u), start(m, uinv), start(n, v), start(n, vinv)

    def row_add(dst, src, q):
        _add(A, None, dst, src, q)
        _add(U, Uinv_t, dst, src, q)

    def col_add(dst, src, q):
        if q:
            for row in A:
                row[dst] += q * row[src]
        _add(V_t, Vinv, dst, src, q)

    def row_swap(a, b):
        _swap((A, U, Uinv_t), a, b)

    def col_swap(a, b):
        for row in A:
            row[a], row[b] = row[b], row[a]
        _swap((V_t, Vinv), a, b)

    def negate(i):
        for X in (A, U, Uinv_t):
            if X is not None:
                X[i] = [-x for x in X[i]]

    t = 0
    while t < m and t < n:
        # locate the first smallest-magnitude nonzero entry of the trailing block
        best = None
        for i, j in product(range(t, m), range(t, n)):
            a = abs(A[i][j])
            if a and (best is None or a < best):
                best, pi, pj = a, i, j
                if a == 1:
                    break
        if best is None:
            break
        row_swap(t, pi)
        col_swap(t, pj)
        while not _sweep(lambda i: A[i][t], t, m, row_add, row_swap):
            pass
        # column t is now p*e_t, so a column step j += q*t changes A only at
        # (t, j): when p divides row t, clear it on V and V^-1 alone
        p, row = A[t][t], A[t]
        if abs(p) == 1 or not any(x % p for x in row[t + 1 :]):
            for j in range(t + 1, n):
                if row[j]:
                    _add(V_t, Vinv, j, t, -(row[j] // p))
                    row[j] = 0
        else:
            # clear column t, then row t; a column step can refill the column
            while not (_sweep(lambda i: A[i][t], t, m, row_add, row_swap)
                       and _sweep(lambda j: A[t][j], t, n, col_add, col_swap)):
                pass
        if A[t][t] < 0:
            negate(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a != 0 and b % a != 0:
                changed = True
                # fold the block diag(a, b) into diag(gcd, lcm)
                col_add(i, i + 1, 1)  # block is now [[a, 0], [b, b]]
                while not _sweep(lambda k: A[k][i], i, i + 2, row_add, row_swap):
                    pass
                if A[i][i] < 0:
                    negate(i)
                # gcd divides the fill-in at (i, i+1) exactly
                col_add(i + 1, i, -(A[i][i + 1] // A[i][i]))
                if A[i][i + 1]:
                    raise ArithmeticError("Smith fix-up failed at (%d, %d)" % (i, i + 1))
                if A[i + 1][i + 1] < 0:
                    negate(i + 1)

    return U, Uinv_t, A, V_t, Vinv


def _row_hermite(rows):
    """Hermite form of the row lattice: echelon rows with positive pivots,
    the entries above each pivot reduced into [0, pivot)."""
    mat = [list(r) for r in rows]
    add = lambda dst, src, q: _add(mat, None, dst, src, q)
    swap = lambda a, b: _swap((mat,), a, b)
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        nz = [i for i in range(r, len(mat)) if mat[i][c]]
        if not nz:
            continue
        swap(r, min(nz, key=lambda i: abs(mat[i][c])))
        while not _sweep(lambda i: mat[i][c], r, len(mat), add, swap):
            pass
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            add(i, r, -(mat[i][c] // mat[r][c]))
        r += 1
    return mat[:r]


def _from_rows(rows, k, n) -> IntMatrix:
    """The k x n IntMatrix with these rows of engine output."""
    return _matrix(k, n, [x for row in rows for x in row])


def smith_normal_form(M: IntMatrix):
    """Smith normal form with transforms: returns (U, D, V), U*M*V = D.

    U and V are unimodular; D is diagonal, nonnegative, and its diagonal
    entries form a divisibility chain d1 | d2 | ...

    >>> U, D, V = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> [D[i, i] for i in range(2)]
    [2, 4]
    """
    m, n = M.shape
    U, _, D, V, _ = _smith_engine(M.to_lists(), n, u=True, v=True)
    return _from_rows(U, m, m), _from_rows(D, m, n), _from_rows(zip(*V), n, n)


def smith_with_inverses(M: IntMatrix):
    """Like :func:`smith_normal_form` but returns (U, U^-1, D, V, V^-1)."""
    m, n = M.shape
    U, Uinv, D, V, Vinv = _smith_engine(M.to_lists(), n, True, True, True, True)
    return (_from_rows(U, m, m), _from_rows(zip(*Uinv), m, m), _from_rows(D, m, n),
            _from_rows(zip(*V), n, n), _from_rows(Vinv, n, n))


def _factors(D, k):
    """The first k invariant factors of a Smith form D in rows (0 past its diagonal)."""
    return [D[i][i] if i < len(D) and i < len(D[i]) else 0 for i in range(k)]


def _free_columns(D, n):
    """Indices j < n with zero invariant factor: V's columns there span ker M."""
    return [j for j, d in enumerate(_factors(D, n)) if d == 0]


def _cokernel_of(factors, Uinv, labels=None) -> FGAbelianGroup:
    """Cokernel of a factored matrix from its invariant factors, one per row,
    generators read off the columns `Uinv` of U^-1; with `labels` None, they
    are not read and the generators get default names."""
    keep = [i for i, d in enumerate(factors) if d != 1]
    torsion = [i for i in keep if factors[i]]
    free = [i for i in keep if not factors[i]]
    gens = None if labels is None else [_format_combo(Uinv[i], labels) for i in torsion + free]
    return FGAbelianGroup(len(free), [factors[i] for i in torsion], gens)


def _diagonal_solve(D, n, y):
    """x_d with D x_d = y, or None, for a Smith form D in rows with n columns:
    for U*M*V = D and y = U*b, M x = b is solvable exactly when D x_d = y
    is, and then x = V*x_d."""
    x_d = []
    for j, d in enumerate(_factors(D, n)):
        t = y[j] if j < len(D) else 0
        if (t % d if d else t) != 0:
            return None
        x_d.append(t // d if d else 0)
    return None if any(y[n:]) else x_d


def _closure(gens, one, mul, cap=512):
    """All products of the generators, in breadth-first discovery order,
    with the Cayley graph found on the way: right[a][k] indexes elems[a]*g_k.

    `mul` multiplies two elements and `one` is the identity.  A closure
    past `cap` elements raises RuntimeError: a generator of infinite order.
    """
    elems = [one]
    index = {one: 0}
    right = []
    frontier = [one]
    while frontier:
        nxt = []
        for e in frontier:
            edges = []
            for g in gens:
                p = mul(e, g)
                if p not in index:
                    index[p] = len(elems)
                    elems.append(p)
                    nxt.append(p)
                edges.append(index[p])
            right.append(edges)  # frontiers run in discovery order
        frontier = nxt
        if len(elems) > cap:
            raise RuntimeError("group closure ran away")
    return elems, index, right


def _cayley_invariants(mul, n, unit):
    """Invariant factors of the finite abelian group on labels 0..n-1 with
    product `mul` and identity `unit`; ValueError for any other table.

    Generators are picked greedily, each the smallest label not yet reached.
    Along the breadth-first tree of the Cayley graph each element a gets a
    vector vec(a) in Z^r, and each other edge a*g_k = b the relation
    vec(a) + e_k - vec(b).  In an abelian group these span the kernel L of
    Z^r -> G (Schreier's lemma; Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005), and the Smith form U R V = D of the
    relation columns reads off Z^r/L.  Certificate: `unit` is an identity
    and a -> U vec(a) mod D is additive on all n^2 products, so it is a
    bijection onto Z^r/L and an isomorphism that proves the table a group.
    """
    if any(mul(unit, x) != x for x in range(n)):
        raise ValueError("label %d is not an identity" % unit)
    gens = []
    elems, _, right = _closure(gens, unit, mul, n)
    while len(elems) < n:
        gens.append(min(set(range(n)).difference(elems)))
        elems, _, right = _closure(gens, unit, mul, n)
    r = len(gens)
    vec = [(0,) * r] + [None] * (n - 1)
    relations = []
    for a, edges in enumerate(right):
        for k, b in enumerate(edges):
            step = vec[a][:k] + (vec[a][k] + 1,) + vec[a][k + 1:]
            if vec[b] is None:
                vec[b] = step
            else:
                relations.append([s - t for s, t in zip(step, vec[b])])
    R = [[rel[i] for rel in relations] for i in range(r)]
    U, _, D, _, _ = _smith_engine(R, len(relations), u=True)
    diag = _factors(D, r)
    keep = [i for i in range(r) if diag[i] != 1]
    # the powers of g_k run into a cycle, whose edges add up to a multiple of
    # e_k in L: no factor is 0
    torsion = tuple(diag[i] for i in keep)
    # a point of Z^r/L as one integer, with a spare bit per factor so that
    # the sum of two codes never carries from one factor into the next
    stride = [prod(2 * d for d in torsion[:i]) for i in range(len(torsion) + 1)]
    code = [None] * n
    for a, v in zip(elems, vec):
        y = [sum(x * e for x, e in zip(row, v)) for row in U]
        code[a] = sum(y[i] % diag[i] * s for i, s in zip(keep, stride))
    at_sum = [None] * stride[-1]
    for a in range(n):
        for wrap in product(*[(0, d * s) for d, s in zip(torsion, stride)]):
            at_sum[code[a] + sum(wrap)] = a
    # row `unit` reads b = at_sum[code[b]]: the codes are a bijection onto Z^r/L
    for a in range(n):
        if [mul(a, b) for b in range(n)] != [at_sum[code[a] + c] for c in code]:
            raise ValueError("table is not an abelian group: row %d is not additive" % a)
    return torsion


class FGAbelianGroup(_Frozen):
    """A finitely generated abelian group in invariant-factor normal form.

    The group is Z^free_rank  (+)  Z/d1 (+) ... (+) Z/dr with d_i | d_{i+1}
    and every d_i >= 2.  `generators` carries one opaque label per torsion
    factor followed by one per free generator.
    """

    __slots__ = ("free_rank", "torsion", "generators")

    def __init__(self, free_rank: int, torsion=(), generators=None) -> None:
        raw = tuple(torsion)
        torsion = tuple(map(int, raw))
        if torsion != raw:
            raise ValueError("torsion invariant factors must be integers")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        if generators is None:
            generators = tuple(
                "t%d" % i for i in range(len(torsion))
            ) + tuple("f%d" % i for i in range(free_rank))
        generators = tuple(str(g) for g in generators)
        if len(generators) != len(torsion) + free_rank:
            raise ValueError("need one label per invariant factor and free generator")
        self._fill(free_rank, torsion, generators)

    def __eq__(self, other):
        return (
            isinstance(other, FGAbelianGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        return None if self.free_rank else prod(self.torsion)

    def describe(self) -> str:
        """Human form like 'Z^2 + Z/2 + Z/4' (trivial group renders '0').

        >>> FGAbelianGroup(1, (2, 2, 2, 2)).describe()
        'Z/2 + Z/2 + Z/2 + Z/2 + Z'
        """
        parts = ["Z/%d" % d for d in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "FGAbelianGroup(%r)" % self.describe()

    def to_json(self):
        return {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "generators": list(self.generators),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(obj["free_rank"], obj["torsion"], obj["generators"])


class PresentedModule(_Frozen):
    """Generators plus integer relations (columns in the generator basis)."""

    __slots__ = ("generator_labels", "relations")

    def __init__(self, generator_labels, relations: IntMatrix) -> None:
        generator_labels = tuple(str(g) for g in generator_labels)
        if relations.rows != len(generator_labels):
            raise ValueError("relations.rows must equal the number of generators")
        self._fill(generator_labels, relations)


def cokernel(M: IntMatrix, labels=None) -> FGAbelianGroup:
    """Cokernel Z^rows / im(M), with generator labels carried through U^-1.

    >>> cokernel(IntMatrix.from_rows([[1, 0], [0, 2], [0, 0]])).describe()
    'Z/2 + Z'
    """
    if labels is None:
        labels = ["g%d" % i for i in range(M.rows)]
    if len(labels) != M.rows:
        raise ValueError("need one label per codomain generator")
    # the public factorization, so that a tracer of public entry points sees this SNF
    _, Uinv, D, _, _ = smith_with_inverses(M)
    return _cokernel_of(_factors(D.to_lists(), M.rows), Uinv.transpose().to_lists(), labels)


def kernel_basis(M: IntMatrix) -> IntMatrix:
    """A Z-basis for ker(M), returned as columns (kernels over Z are free).

    >>> kernel_basis(IntMatrix.from_rows([[2, 4], [1, 2]])).col(0)
    (-2, 1)
    """
    n = M.cols
    _, _, D, V, _ = _smith_engine(M.to_lists(), n, v=True)
    free = [V[j] for j in _free_columns(D, n)]
    return _from_rows(zip(*free), n, len(free))


def rank(M: IntMatrix) -> int:
    """Rank over Q (equals the number of nonzero invariant factors)."""
    return M.cols - len(_free_columns(_smith_engine(M.to_lists(), M.cols)[2], M.cols))


def fgab_from_relations(P: PresentedModule) -> FGAbelianGroup:
    """Abelian group on P's generators modulo its relation columns.

    >>> P = PresentedModule(["g1", "g2"], IntMatrix.from_cols([[1, -1], [0, 2]]))
    >>> fgab_from_relations(P).describe()
    'Z/2'
    """
    return cokernel(P.relations, list(P.generator_labels))


def connecting_solve(beta: IntMatrix, domain_labels=None, codomain_labels=None):
    """Kernel and cokernel of one connecting map, with labels.

    Returns (ker, coker): `ker` is a free FGAbelianGroup whose generator
    labels are combinations of the domain labels (the kernel basis), `coker`
    an FGAbelianGroup over the codomain labels.  This is the one-shot solver
    for an exact-sequence step whose remaining corners vanish or are known.

    >>> k, c = connecting_solve(IntMatrix.from_rows([[1, 1], [1, -1]]))
    >>> k.describe(), c.describe()
    ('0', 'Z/2')
    """
    if domain_labels is None:
        domain_labels = ["x%d" % j for j in range(beta.cols)]
    if codomain_labels is None:
        codomain_labels = ["y%d" % i for i in range(beta.rows)]
    _, Uinv, D, V, _ = _smith_engine(beta.to_lists(), beta.cols, uinv=True, v=True)
    ker_labels = tuple(
        _format_combo(V[j], domain_labels) for j in _free_columns(D, beta.cols)
    )
    ker = FGAbelianGroup(len(ker_labels), (), ker_labels)
    return ker, _cokernel_of(_factors(D, beta.rows), Uinv, list(codomain_labels))


def solve_int(M: IntMatrix, target) -> "tuple | None":
    """One integer solution x of M x = target, or None when unsolvable.

    Used for membership tests (is `target` in the column span of M over Z).
    """
    if len(target) != M.rows:
        raise ValueError("target length mismatch")
    n, column = M.cols, IntMatrix(M.rows, 1, target).to_lists()
    Ub, _, D, V, _ = _smith_engine(M.to_lists(), n, u=column, v=True)
    x_d = _diagonal_solve(D, n, [y for y, in Ub])
    return None if x_d is None else tuple(
        sum(x * col[i] for x, col in zip(x_d, V) if x) for i in range(n))
