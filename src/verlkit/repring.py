"""Finite subgroups of SU(2) and their representation machinery.

Groups are lists of explicit unit quaternions closed under multiplication,
with their Cayley graph (right multiplication by each generator) computed
once.  Multiplication tables, irreducible representations (hardcoded
generator matrices over small cyclotomic fields), embeddings and gradings
(signs +-1 on the generators) are values assigned along a walk of that
graph; a failed check on any edge means the generator images do not
define a homomorphism, so construction aborts or, for a sign tuple, no
grading exists.  Each walk multiplies by generator values prepared once
(`cyclo._times`); closures and irreps walk on keys (`cyclo._key`), whose
edge check is key equality, and irreps keep the keys.  A character table
reads each character at the class representatives as a key trace, and
every multiplicity <chi, psi> as an integer entry of one key product,
chi diag(class sizes) conj(X)^T, prepared once per table.  Character
tables are self-verified against the orthogonality relations
(OrthogonalityFailure, a SelfCheckFailure like every failed self-check).
A graded fold is one pass over the irreps that cross-checks three
computations of each: its partner under the sign character (a tensor
product), its type (a norm on the kernel) and its restriction to the kernel.
An affine A-D-E diagram is recognized by the null vector of 2I - A,
which is positive exactly for affine type (Kac, Infinite-dimensional Lie
algebras, Thm 4.3) and is the irrep dimension vector on a McKay graph
(McKay 1980); its largest entry names the type.

Infinite groups appear symbolically: the circle ring Z[a^(+-1)], the O(2)
ring Span{1, delta, kappa_1, ...}, and the SU(2) ring Z[sigma].  Dirac
induction between them follows the conventions fixed in the module
functions below.

Naming follows the A-D-E pattern for the binary polyhedral groups:
A1, A3, A5 are the cyclic groups of orders 2, 4, 6; D4, D5 the binary
dihedral groups of orders 8, 12; E6, E7, E8 the binary tetrahedral,
octahedral, icosahedral groups.  Generic cyclic and binary dihedral groups
are available as "C<m>" and "BD<m>".  Every named group is built on one
path: its name gives its (generators, order, irrep specs), with the paper's
labels and orders applied as data when the specs are made, and one closure
gives its elements.  A canonical embedding is literal containment unless
`_EMBED_IMAGES` lists other generator images for the pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm
from operator import mul

from .cyclo import (
    CycNumber, _coerce, _format_combo, _Frozen, _key, _key_ints, _key_trace, _times, _unkey,
    cos_frac, rational, sin_frac, sqrt_int, zeta,
)
from .exactla import IntMatrix, SelfCheckFailure, _closure, _free_columns, _smith_engine

__all__ = [
    "Quaternion",
    "QuaternionGroup",
    "CharacterTable",
    "Irrep",
    "VirtualRep",
    "Grading",
    "Embedding",
    "GroupMismatch",
    "NotASubgroup",
    "OrthogonalityFailure",
    "SelfCheckFailure",
    "NoGradingExists",
    "InvalidEmbedding",
    "quaternion_group",
    "character_table",
    "embedding",
    "tensor_decompose",
    "irrep_vr",
    "restrict",
    "induce",
    "mckay_graph",
    "gradings",
    "classify_graded",
    "graded_fold",
    "dirac_induce_T_to_SU2",
    "dirac_induce_finite_to_O2",
    "res_su2_to_finite",
    "res_su2_to_O2",
    "res_su2_to_T",
    "res_O2_to_T",
    "ind_T_to_O2",
    "recognize_affine_ade",
]


class GroupMismatch(ValueError):
    """Operands belong to different groups."""


class NotASubgroup(ValueError):
    """No canonical embedding between the named groups."""


class OrthogonalityFailure(SelfCheckFailure):
    """A built character table failed the orthogonality self-test."""


class NoGradingExists(ValueError):
    """The group has no surjection onto {+1, -1}."""


class InvalidEmbedding(ValueError):
    """A Dirac induction was keyed to an unsuitable representation."""


_ZERO = rational(0)
_ONE = rational(1)
_HALF = rational(Fraction(1, 2))


class Quaternion(_Frozen):
    """Unit quaternion with exact cyclotomic coordinates."""

    __slots__ = ("w", "x", "y", "z", "_hash", "_times")
    _derived = ("_hash", "_times")

    def __init__(self, w, x, y, z) -> None:
        self._fill(w, x, y, z, None, None)

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        return Quaternion(*_right_times(o)(((self.w, self.x, self.y, self.z),))[0])

    def inverse(self) -> "Quaternion":
        # unit quaternions only: inverse is the conjugate
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __eq__(self, o):
        if not isinstance(o, Quaternion):
            return NotImplemented
        return (
            self.w == o.w and self.x == o.x and self.y == o.y and self.z == o.z
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.w, self.x, self.y, self.z))
            object.__setattr__(self, "_hash", h)
        return h

    def su2_matrix(self):
        """Image in SU(2): [[w+xi, y+zi], [-y+zi, w-xi]]."""
        i = zeta(4)
        return (
            (self.w + self.x * i, self.y + self.z * i),
            (-self.y + self.z * i, self.w - self.x * i),
        )

    def trace(self) -> CycNumber:
        return 2 * self.w

    def __repr__(self):
        coords = (self.w, self.x, self.y, self.z)
        return "Quaternion(%s)" % ", ".join(v.render() for v in coords)


def _right_times(q: Quaternion):
    """`cyclo._times` of q's right-multiplication matrix, prepared once per q."""
    times = q._times
    if times is None:
        w, x, y, z = q.w, q.x, q.y, q.z
        times = _times(((w, x, y, z), (-x, w, -z, y), (-y, z, w, -x), (-z, -y, x, w)))
        object.__setattr__(q, "_times", times)
    return times


def _quat(w, x, y, z) -> Quaternion:
    return Quaternion(*map(_coerce, (w, x, y, z)))


_Q_I = _quat(0, 1, 0, 0)
_Q_J = _quat(0, 0, 1, 0)
_Q_G = _quat(_HALF, _HALF, _HALF, _HALF)  # (1+i+j+k)/2, of order 6
_R2 = sqrt_int(2) * _HALF  # 1/sqrt(2)


def _quaternion_closure(gens, order):
    """`_closure` of the unit quaternions `gens` on 1x4 keys at their lcm order,
    by generator index (equal generators stay apart), checked to have `order` elements."""
    steps = [_right_times(g).step for g in gens]
    L = lcm(*(c.order for g in gens for c in (g.w, g.x, g.y, g.z)))
    keys, _, right = _closure(range(len(gens)), _key([[1, 0, 0, 0]], L), lambda v, k: steps[k](v))
    if len(keys) != order:
        raise SelfCheckFailure("closure has %d elements, expected %d" % (len(keys), order))
    return [Quaternion(*_unkey(key, 4)[0]) for key in keys], right


def _walk(right, start, step):
    """Values on all elements from `start` at the identity, or None.

    `right[a][k]` is the index of a*g_k.  Breadth-first from index 0, the
    walk sets val(a*g_k) = step(val(a), k) on first arrival and returns None
    if that equation fails on any other edge; values may be keys, compared
    as tuples.  When step(x, k) = x*phi_k and `start` is the identity,
    passing every edge makes val a homomorphism: for b = g_k1...g_kn,
    induction on n along edges gives val(a*b) = val(a)*phi_k1...phi_kn, and
    a = 1 shows that product is val(b): no multiplicativity sweep is needed.
    """
    vals = [None] * len(right)
    vals[0] = start
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            va = vals[a]
            for k, b in enumerate(right[a]):
                v = step(va, k)
                if vals[b] is None:
                    vals[b] = v
                    nxt.append(b)
                elif vals[b] != v:
                    return None
        frontier = nxt
    if any(v is None for v in vals):
        raise ValueError("generators do not generate the group")
    return vals


# -- matrix helpers over CycNumber ------------------------------------------------


def _as_mat(rows):
    return tuple(tuple(map(_coerce, r)) for r in rows)


def _mat_tensor(A, B):
    n, m = len(A), len(B)
    return tuple(
        tuple(A[i][j] * B[k][l] for j in range(n) for l in range(m))
        for i in range(n)
        for k in range(m)
    )


class Irrep(_Frozen):
    """An irreducible representation as explicit matrices, one per element,
    held as keys (`cyclo._key`); a Cayley walk's are unkeyed on first access."""

    __slots__ = ("label", "dim", "_matrices", "_keys")

    def __init__(self, label, dim, matrices, _keys=None):
        self._fill(label, dim, matrices, tuple(map(_key, matrices)) if _keys is None else _keys)

    @property
    def matrices(self):
        if self._matrices is None:
            object.__setattr__(self, "_matrices", tuple(_unkey(k, self.dim) for k in self._keys))
        return self._matrices

    def character(self):
        return [_key_trace(k, self.dim) for k in self._keys]


def _extend_irrep(group, gen_mats, label):
    """Extend generator matrices along the Cayley graph, on keys at the lcm order L."""
    dim = len(gen_mats[0])
    steps = [_times(B).step for B in gen_mats]
    L = lcm(*(e.order for B in gen_mats for row in B for e in row))
    eye = _key([[int(r == c) for c in range(dim)] for r in range(dim)], L)
    keys = _walk(group._right, eye, lambda key, k: steps[k](key))
    if keys is None:
        raise SelfCheckFailure(
            "generator matrices for %r are not a homomorphism" % label
        )
    return Irrep(label, dim, None, tuple(keys))


class QuaternionGroup:
    """A finite subgroup of SU(2) with explicit elements and irreps.  The
    {Quaternion: i} `index` is built on first access when not given."""

    def __init__(self, name, elements, index, irrep_specs, generators, right=None):
        self.name = name
        self.elements = elements
        self._index = index
        self.generators = generators
        self.order = len(elements)
        self._irrep_specs = irrep_specs
        self._irreps = None
        self._classes = None
        self._table = None
        self._gradings = None
        # the Cayley graph: _right[a][k] is the index of a * generators[k]
        try:
            self._right = r = right or [[self.index[e * g] for g in generators] for e in elements]
        except KeyError:
            raise GroupMismatch("elements are not closed under the generators") from None
        # column b of the multiplication table lists a*b for every a; a*(b*g_k)
        # is one Cayley-graph step from a*b, and b's inverse is where b's column holds 0
        try:
            tab = _walk(r, list(range(self.order)), lambda c, k: [r[x][k] for x in c])
            inverse = tab and [col.index(0) for col in tab]
        except ValueError:  # a generator reaches too little, or a column has no 0
            inverse = None
        if not inverse:
            raise SelfCheckFailure("%s: the Cayley graph is not a group's" % name)
        self._mtab, self._inverse = tab, inverse

    def __reduce__(self):  # copy and pickle rebuild the group; its lazy tables are refilled
        return QuaternionGroup, (
            self.name, self.elements, None, self._irrep_specs, self.generators, self._right
        )

    def __repr__(self):
        return "QuaternionGroup(%s, order %d)" % (self.name, self.order)

    @property
    def index(self):
        if self._index is None:
            self._index = {q: i for i, q in enumerate(self.elements)}
        return self._index

    def mul(self, a: int, b: int) -> int:
        return self._mtab[b][a]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def conjugacy_classes(self):
        """List of element-index lists; class 0 is the identity's."""
        if self._classes is None:
            n = self.order
            unassigned = set(range(n))
            classes = []
            while unassigned:
                a = min(unassigned)
                orbit = sorted(
                    {self.mul(self.mul(h, a), self.inv(h)) for h in range(n)}
                )
                classes.append(orbit)
                unassigned -= set(orbit)
            classes.sort(key=lambda c: (c[0] != 0, len(c), c[0]))
            self._classes = classes
        return self._classes

    def irreps(self):
        if self._irreps is None:
            if self._irrep_specs is None:
                raise NotImplementedError(
                    "%s carries no irrep tables (grading queries only)" % self.name
                )
            self._irreps = [
                _extend_irrep(self, [_as_mat(m) for m in gen_mats], label)
                for label, gen_mats in self._irrep_specs
            ]
        return self._irreps

    def irrep_labels(self):
        return [r.label for r in self.irreps()]

    def defining_character(self):
        """Trace of the inclusion into SU(2), per conjugacy class."""
        return [
            self.elements[cls[0]].trace() for cls in self.conjugacy_classes()
        ]


class CharacterTable:
    """Exact character table with paper-faithful irrep labels."""

    def __init__(self, group: QuaternionGroup):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.class_sizes = [len(c) for c in self.classes]
        self.class_reps = [c[0] for c in self.classes]
        self.irreps = group.irreps()
        self.labels = [r.label for r in self.irreps]
        self.dims = [r.dim for r in self.irreps]
        self.chars = {
            r.label: [_key_trace(r._keys[a], r.dim) for a in self.class_reps] for r in self.irreps
        }
        # chi times diag(class sizes) conj(X)^T is |G| <chi, psi> for each irrep psi
        self._dual = _times([
            [s * v.conjugate() for v in col]
            for s, col in zip(self.class_sizes, zip(*(self.chars[b] for b in self.labels)))
        ])
        self._self_test()
        self._class_of = {e: ci for ci, cls in enumerate(self.classes) for e in cls}

    def class_of(self, element_index: int) -> int:
        return self._class_of[element_index]

    def _self_test(self):
        n = self.group.order
        if sum(d * d for d in self.dims) != n:
            raise OrthogonalityFailure(
                "%s: sum of squared dims is not the order" % self.group.name
            )
        try:
            gram = self._multiplicities([self.chars[a] for a in self.labels])
        except ValueError as err:
            raise OrthogonalityFailure("%s: %s" % (self.group.name, err)) from None
        for a, row in zip(self.labels, gram):
            for b, v in zip(self.labels, row):
                if v != (a == b):
                    raise OrthogonalityFailure("%s: <%s,%s> = %d" % (self.group.name, a, b, v))

    def _multiplicities(self, chis):
        """Rows of <chi, psi> for chi in chis and psi the irreps, read off the
        key of one product; ValueError unless every entry is an integer."""
        if any(len(chi) != len(self.classes) for chi in chis):
            raise ValueError("a class function takes one value per class")
        ints = _key_ints(self._dual.step(_key(chis)), self.group.order)
        cols = len(ints) // len(chis)
        return [ints[i : i + cols] for i in range(0, len(ints), cols)]

    def inner(self, chi1, chi2) -> int:
        """Exact <chi1, chi2> for virtual characters given per class: the sum
        of the products of their irrep multiplicities."""
        return sum(map(mul, *self._multiplicities([chi1, chi2])))

    def decompose(self, chi) -> "VirtualRep":
        row = self._multiplicities([chi])[0]
        return VirtualRep(self.group, dict(zip(self.labels, row)))

    def dim_of(self, label: str) -> int:
        return self.dims[self.labels.index(label)]


def character_table(G: QuaternionGroup) -> CharacterTable:
    if G._table is None:
        G._table = CharacterTable(G)
    return G._table


def _collect(pairs) -> dict:
    """The sum of the values of each key over (key, value) pairs; zero sums dropped."""
    out = {}
    for k, v in pairs:
        out[k] = out.get(k, 0) + v
        if not out[k]:
            del out[k]
    return out


class VirtualRep(_Frozen):
    """Integer combination of irreps of one finite group."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        self._fill(group, {k: int(v) for k, v in coeffs.items() if v})

    def __eq__(self, o):
        if not isinstance(o, VirtualRep):
            return NotImplemented
        return self.group.name == o.group.name and self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.group.name, frozenset(self.coeffs.items())))

    def __add__(self, o):
        self._check(o)
        pairs = [*self.coeffs.items(), *o.coeffs.items()]
        return VirtualRep(self.group, _collect(pairs))

    def __sub__(self, o):
        self._check(o)
        return self + -o

    def __neg__(self):
        return VirtualRep(self.group, {k: -v for k, v in self.coeffs.items()})

    def __rmul__(self, n: int):
        return VirtualRep(self.group, {k: n * v for k, v in self.coeffs.items()})

    def _check(self, o):
        if not isinstance(o, VirtualRep) or o.group.name != self.group.name:
            raise GroupMismatch("operands live in different groups")

    def character(self):
        """Class-function values over the group's conjugacy classes."""
        ct = character_table(self.group)
        out = [_ZERO] * len(ct.classes)
        for lab, mult in self.coeffs.items():
            row = ct.chars[lab]
            out = [acc + mult * v for acc, v in zip(out, row)]
        return out

    def dim(self) -> int:
        ct = character_table(self.group)
        return sum(ct.dim_of(k) * v for k, v in self.coeffs.items())

    def render(self) -> str:
        # the zero rep needs no table, so it renders for E8 too
        labels = character_table(self.group).labels if self.coeffs else []
        return _format_combo([self.coeffs.get(lab, 0) for lab in labels], labels)

    def __repr__(self):
        return "VirtualRep(%s: %s)" % (self.group.name, self.render())


def irrep_vr(G: QuaternionGroup, label: str) -> VirtualRep:
    if label not in character_table(G).labels:
        raise KeyError("no irrep %r in %s" % (label, G.name))
    return VirtualRep(G, {label: 1})


def tensor_decompose(rho: VirtualRep, tau: VirtualRep) -> VirtualRep:
    if rho.group.name != tau.group.name:
        raise GroupMismatch("tensor operands live in different groups")
    ct = character_table(rho.group)
    c1, c2 = rho.character(), tau.character()
    prod = [a * b for a, b in zip(c1, c2)]
    return ct.decompose(prod)


# -- group constructions -----------------------------------------------------------


# Labels of C_m's irreps by exponent j (value zeta_m^j at the generator),
# listed in the paper's order: A3 is C4 = <i>, A5 is C6 = <zeta_6>.
_CYCLIC_LABELS = {
    2: {0: "r''_1", 1: "r''_-1"},
    4: {0: "r'_1", 2: "r'_-1", 1: "r'_i", 3: "r'_-i"},
    6: {0: "r_1", 3: "r_-1", 2: "r_w", 5: "r_-w", 4: "r_w2", 1: "r_-w2"},
}


def _cyclic_specs(m: int, order=None):
    """Irreps of C_m = <exp(2*pi*i/m)>, labelled by the A-series, by exponent
    or in the exponent `order` given."""
    labels = _CYCLIC_LABELS.get(m, {})
    return [(labels.get(j, "c%d" % j), [[[zeta(m, j)]]]) for j in order or range(m)]


# the paper's labels of D4 = BD2 and D5 = BD3, in place of l0..l3, t1, ...
_DIHEDRAL_LABELS = {
    "D4": ["s0", "s1", "s2", "s3", "t"],
    "D5": ["s'0", "s'1", "s'2", "s'3", "t'", "t''"],
}


def _binary_dihedral_specs(m: int, labels=None):
    """Irreps of BD_m = <a, b : a^(2m), b^2 = a^m, b a b^-1 = a^-1>, labelled
    l0..l3, t1..t(m-1) or by position from `labels`."""
    if m % 2 == 0:
        one_dims = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    else:
        i = zeta(4)
        one_dims = [(_ONE, _ONE), (_ONE, -_ONE), (-_ONE, i), (-_ONE, -i)]
    mats = [[[[av]], [[bv]]] for av, bv in one_dims]
    for h in range(1, m):
        amat = [[zeta(2 * m, h), 0], [0, zeta(2 * m, -h % (2 * m))]]
        mats.append([amat, [[0, 1], [(-1) ** h, 0]]])
    generic = ["l0", "l1", "l2", "l3"] + ["t%d" % h for h in range(1, m)]
    return list(zip(labels or generic, mats))


def _e6_specs():
    """Irreps of E6 = <i, g> on the images of i and g = _Q_G."""
    w = zeta(3)
    i = zeta(4)
    h = _HALF
    g_su2 = [
        [h + h * i, h + h * i],
        [-h + h * i, h - h * i],
    ]
    i_su2 = [[i, 0], [0, -i]]
    # conjugation action on span{i, j, k}: i -> diag(1,-1,-1); g cycles axes
    i_conj = [[1, 0, 0], [0, -1, 0], [0, 0, -1]]
    g_conj = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    return [
        ("x", [[[_ONE]], [[_ONE]]]),
        ("x'", [[[_ONE]], [[w * w]]]),
        ("x''", [[[_ONE]], [[w]]]),
        ("y", [i_su2, g_su2]),
        ("y'", [i_su2, _scale_mat(g_su2, w * w)]),
        ("y''", [i_su2, _scale_mat(g_su2, w)]),
        ("z", [i_conj, g_conj]),
    ]


def _scale_mat(M, c):
    return [[c * v for v in row] for row in M]


def _e7_specs():
    """Irreps of E7 = <i, g, s>: E6's images of i and g, and images of s."""
    e6 = dict(_e6_specs())
    w = zeta(3)
    i = zeta(4)
    s_su2 = [[_R2 + _R2 * i, _ZERO], [_ZERO, _R2 - _R2 * i]]
    s_conj = [[1, 0, 0], [0, 0, -1], [0, 1, 0]]
    one = [[_ONE]]
    two = e6["y"] + [s_su2]
    # 2'' is the 2-dim irrep of S_3 = E7/D4, where i is trivial
    twopp = [
        [[_ONE, _ZERO], [_ZERO, _ONE]],
        [[w, _ZERO], [_ZERO, w * w]],
        [[_ZERO, _ONE], [_ONE, _ZERO]],
    ]
    return [
        ("1", [one, one, one]),
        ("1'", [one, one, [[-_ONE]]]),
        ("2", two),
        ("2'", e6["y"] + [_scale_mat(s_su2, rational(-1))]),
        ("2''", twopp),
        ("3", e6["z"] + [s_conj]),
        ("3'", e6["z"] + [_scale_mat(s_conj, rational(-1))]),
        ("4", [_mat_tensor(_as_mat(a), _as_mat(b)) for a, b in zip(two, twopp)]),
    ]


def quaternion_group(name: str) -> QuaternionGroup:
    """Construct (and cache) a named finite subgroup of SU(2)."""
    return _named_group(name)  # positional, so one cache entry per name


def _build_group(name: str) -> QuaternionGroup:
    """The named group from its (generators, order, irrep specs), then one closure.

    C<m> is generated by exp(2*pi*i/m) and A<odd n> is C<n+1>, with the paper's
    order of irreps for m = 4, 6; BD<m> by exp(pi*i/m) and j, with D4, D5 =
    BD2, BD3 under the paper's labels; E6 by i and g = (1+i+j+k)/2, E7 by i, g
    and (1+i)/sqrt2, E8 (no irrep tables) by g, a golden-ratio element and i.
    """
    kind, m = None, 0
    for prefix in ("A", "C", "BD"):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            kind, m = prefix, int(name[len(prefix):])
    if name in _DIHEDRAL_LABELS:
        kind, m = "BD", int(name[1]) - 2
    if kind == "A":
        if m % 2 == 0:
            raise ValueError(
                "A%d is even; cyclic subgroups here are A(odd) = C(odd+1)" % m
            )
        kind, m = "C", m + 1
    if kind == "C":
        gens = [_quat(cos_frac(1, m), sin_frac(1, m), 0, 0)]
        order, specs = m, _cyclic_specs(m, _CYCLIC_LABELS.get(m))
    elif kind == "BD":
        gens = [_quat(cos_frac(1, 2 * m), sin_frac(1, 2 * m), 0, 0), _Q_J]
        order, specs = 4 * m, _binary_dihedral_specs(m, _DIHEDRAL_LABELS.get(name))
    elif name == "E6":
        gens, order, specs = [_Q_I, _Q_G], 24, _e6_specs()
    elif name == "E7":
        s = Quaternion(_R2, _R2, _ZERO, _ZERO)
        gens, order, specs = [_Q_I, _Q_G, s], 48, _e7_specs()
    elif name == "E8":
        # phi/2 and 1/(2 phi) = phi/2 - 1/2, via sqrt5 = 1 + 2(zeta5 + zeta5^4)
        phi_half = (_ONE + zeta(5) + zeta(5, 4)) * _HALF
        gens = [_Q_G, Quaternion(phi_half, phi_half - _HALF, _HALF, _ZERO), _Q_I]
        order, specs = 120, None
    else:
        raise ValueError("unknown group %r" % name)
    elems, right = _quaternion_closure(gens, order)
    return QuaternionGroup(name, elems, None, specs, gens, right)


_named_group = cache(_build_group)


# -- canonical embeddings -----------------------------------------------------------


class Embedding(_Frozen):
    """An injective homomorphism between two quaternion groups."""

    __slots__ = ("sub", "sup", "image_index")

    def __init__(self, sub, sup, image_index):
        self._fill(sub, sup, image_index)

    def image_of(self, sub_index: int) -> int:
        return self.image_index[sub_index]

    def image_set(self):
        return frozenset(self.image_index)


def _embedding_from_generators(sub, sup, gen_images):
    """Extend generator images along sub's Cayley graph; verify injectivity."""
    img_idx = [sup.index[q] for q in gen_images]
    imgs = _walk(sub._right, 0, lambda x, k: sup.mul(x, img_idx[k]))
    if imgs is None:
        raise NotASubgroup("generator images do not define a homomorphism")
    if len(set(imgs)) != sub.order:
        raise NotASubgroup("generator images are not injective")
    return Embedding(sub, sup, tuple(imgs))


# generator images of the canonical embeddings that are not literal containment
_EMBED_IMAGES = {
    ("A3", "D5"): [_Q_J],
    ("A5", "E6"): [_Q_G],
    ("A5", "E7"): [_Q_G],
    ("D4", "E6"): [_Q_I, _Q_J],
    ("D4", "E7"): [_Q_I, _Q_J],
    ("D5", "E7"): [_Q_G, Quaternion(_ZERO, _ZERO, _R2, -_R2)],
}


def embedding(sub_name: str, sup_name: str) -> Embedding:
    """The fixed canonical embedding between two named groups."""
    return _canonical_embedding(sub_name, sup_name)


@cache
def _canonical_embedding(sub_name, sup_name):
    sub = quaternion_group(sub_name)
    sup = quaternion_group(sup_name)
    images = _EMBED_IMAGES.get((sub_name, sup_name))
    if images is None:
        # literal containment
        if not all(e in sup.index for e in sub.elements):
            raise NotASubgroup(
                "no canonical embedding %s -> %s" % (sub_name, sup_name)
            )
        images = sub.generators
    return _embedding_from_generators(sub, sup, images)


# -- restriction and induction -------------------------------------------------------


def restrict(rho: VirtualRep, emb: Embedding) -> VirtualRep:
    """Restriction along an embedding, decomposed into subgroup irreps."""
    if rho.group.name != emb.sup.name:
        raise GroupMismatch("rho does not live in the embedding's supergroup")
    ct_sup = character_table(emb.sup)
    ct_sub = character_table(emb.sub)
    chi = rho.character()
    vals = [
        chi[ct_sup.class_of(emb.image_of(rep))] for rep in ct_sub.class_reps
    ]
    return ct_sub.decompose(vals)


def induce(rho: VirtualRep, emb: Embedding) -> VirtualRep:
    """Induction along an embedding, by the Frobenius character formula
    Ind chi(g) = |G| / (|H| |g^G|) * sum of chi(h) over h in H meeting g^G
    (Serre, Linear Representations of Finite Groups, 7.2): one pass over
    the image of H sums chi into the classes of G."""
    if rho.group.name != emb.sub.name:
        raise GroupMismatch("rho does not live in the embedding's subgroup")
    sub, sup = emb.sub, emb.sup
    ct_sub = character_table(sub)
    ct_sup = character_table(sup)
    chi = rho.character()
    sums = [_ZERO] * len(ct_sup.classes)
    for si, img in enumerate(emb.image_index):
        c = ct_sup.class_of(img)
        sums[c] = sums[c] + chi[ct_sub.class_of(si)]
    scale = [Fraction(sup.order, sub.order * size) for size in ct_sup.class_sizes]
    return ct_sup.decompose([t * f for t, f in zip(sums, scale)])


# -- McKay graphs ------------------------------------------------------------------


def mckay_graph(G: QuaternionGroup):
    """Adjacency A with A[i][j] = mult of irrep j in (defining 2-dim) x irrep i.

    Returns (IntMatrix, labels).  2I - A annihilates the dimension vector.
    """
    ct = character_table(G)
    chi_def = G.defining_character()
    prods = [[d * v for d, v in zip(chi_def, ct.chars[a])] for a in ct.labels]
    rows = ct._multiplicities(prods)
    if any(sum(map(mul, row, ct.dims)) != 2 * d for row, d in zip(rows, ct.dims)):
        raise SelfCheckFailure("affine Cartan property failed for %s" % G.name)
    return IntMatrix.from_rows(rows), list(ct.labels)


# -- gradings and folding ------------------------------------------------------------


class Grading(_Frozen):
    """A surjection eps: G -> {+1, -1}, stored as its kernel."""

    __slots__ = ("group", "kernel", "values", "psi_label")

    def __init__(self, group, kernel, values, psi_label):
        self._fill(group, kernel, values, psi_label)

    def __repr__(self):
        return "Grading(%s, kernel order %d, psi=%s)" % (
            self.group.name,
            len(self.kernel),
            self.psi_label,
        )


def gradings(G: QuaternionGroup):
    """All homomorphisms G -> {+1,-1} with kernel of index exactly 2.

    A homomorphism is fixed by its signs on the generators, so each sign
    tuple other than all +1 is walked along the Cayley graph; the walk
    fails on some edge exactly when the tuple defines no homomorphism.
    Sorted by kernel; psi_label names the matching 1-dim irrep, or is None
    when G carries no irrep tables.
    """
    if G._gradings is not None:
        return G._gradings
    out = []
    for signs in product((1, -1), repeat=len(G.generators)):
        if -1 not in signs:
            continue
        vals = _walk(G._right, 1, lambda v, k: v * signs[k])
        if vals is None:
            continue
        try:
            ct = character_table(G)
        except NotImplementedError:
            psi = None
        else:
            psi = _one_dim_label(ct, [vals[c[0]] for c in ct.classes])
        kernel = frozenset(a for a, v in enumerate(vals) if v == 1)
        out.append(Grading(G, kernel, tuple(vals), psi))
    out.sort(key=lambda gr: sorted(gr.kernel))
    G._gradings = out
    return out


def _one_dim_label(ct, values):
    """The 1-dim irrep whose character takes `values` per class, or None."""
    for lab, d in zip(ct.labels, ct.dims):
        if d == 1 and all(v == w for v, w in zip(ct.chars[lab], values)):
            return lab
    return None


def classify_graded(rho, grading: Grading = None) -> str:
    """Type of an irreducible under an index-2 grading: "2_1" or "1_2".

    "2_1": restriction to the kernel stays irreducible.
    "1_2": restriction splits into two conjugate irreducibles.

    A string argument names an O(2)-irrep, graded by the circle kernel:
    "1" and "delta" restrict irreducibly, every "kappa_i" splits.
    """
    if isinstance(rho, str):
        if rho in ("1", "delta"):
            return "2_1"
        if rho.startswith("kappa_"):
            int(rho.split("_")[1])
            return "1_2"
        raise ValueError("unknown O(2) irrep %r" % rho)
    if grading is None:
        raise ValueError("a Grading is required for finite groups")
    if rho.group.name != grading.group.name:
        raise GroupMismatch("rho and grading live in different groups")
    if len(rho.coeffs) != 1 or set(rho.coeffs.values()) != {1}:
        raise ValueError("classify_graded wants a single irreducible")
    G = rho.group
    ct = character_table(G)
    chi = rho.character()
    # |G| = 2 |K|, so <2 chi 1_K, chi> over G is the norm of chi restricted to K
    in_kernel = {ct.class_of(h) for h in grading.kernel}
    norm_val = ct.inner([2 * v if c in in_kernel else 0 for c, v in enumerate(chi)], chi)
    if norm_val == 1:
        return "2_1"
    if norm_val == 2:
        return "1_2"
    raise SelfCheckFailure("restriction norm %d is impossible" % norm_val)


def _kernel_group(G: QuaternionGroup, grading: Grading):
    """The kernel as a standalone group with its own irreps, and the G-index of
    each of its elements: E6, cyclic on an element of order m = |kernel|, or
    binary dihedral BD_(m/4) on an element a of order m/2 and any b outside <a>."""
    kernel = sorted(grading.kernel)
    E6 = quaternion_group("E6")
    at = {G.elements[i]: i for i in kernel}
    if set(E6.elements) == at.keys():
        return E6, tuple(at[e] for e in E6.elements)
    m = len(kernel)
    cycles = {a: _closure([a], 0, G.mul)[0] for a in kernel}
    a = next((a for a in kernel if len(cycles[a]) == m), None)
    if a is not None:
        name, gens, specs = "C%d" % m, [a], _cyclic_specs(m)
    else:
        a = next((a for a in kernel if 2 * len(cycles[a]) == m), None)
        if a is None:
            raise NotImplementedError(
                "kernel of order %d is neither cyclic nor a supported group" % m
            )
        b = next(x for x in kernel if x not in cycles[a])
        name, gens, specs = "BD%d" % (m // 4), [a, b], _binary_dihedral_specs(m // 4)
    powers, _, right = _closure(gens, 0, G.mul)
    closure = [G.elements[p] for p in powers]
    K = QuaternionGroup(name, closure, None, specs, [G.elements[x] for x in gens], right)
    return K, tuple(powers)


def graded_fold(G: QuaternionGroup, grading: Grading = None):
    """Fold the McKay graph of G along a grading; verify against kernel.

    One pass over Irr(G) cross-checks three independent computations for
    each rho: its partner rho (x) psi (`tensor_decompose`; type 1_2 when
    rho is its own partner, else 2_1), its type (`classify_graded`), and
    its restriction to the kernel (`restrict`: two irreducibles for 1_2,
    one for 2_1).  The second node of a swapped pair is skipped, and the
    restrictions must biject with the kernel's irreps.  A grading of
    another group raises GroupMismatch.

    Returns a dict with the folded-graph name, both node counts, the type
    classification of every irrep, and dim ^eR_G / dim ^eR^1_G.
    """
    if grading is not None and grading.group.name != G.name:
        raise GroupMismatch("grading lives in a different group")
    gs = gradings(G)
    if not gs:
        raise NoGradingExists("%s has no index-2 subgroup" % G.name)
    if grading is None:
        if len(gs) > 1:
            raise ValueError("%s has %d gradings; pass one explicitly" % (G.name, len(gs)))
        grading = gs[0]
    ct = character_table(G)
    psi = grading.psi_label
    if psi is None:
        raise SelfCheckFailure("grading has no matching sign character")
    psi_vr = irrep_vr(G, psi)
    K, image = _kernel_group(G, grading)
    emb = Embedding(K, G, image)
    types, folded = {}, []
    for lab in ct.labels:
        rho = irrep_vr(G, lab)
        (partner,) = tensor_decompose(rho, psi_vr).coeffs
        if partner in types:  # the second node of a swapped pair
            types[lab] = "2_1"
            continue
        types[lab] = "1_2" if partner == lab else "2_1"
        kind, dec = classify_graded(rho, grading), restrict(rho, emb).coeffs
        if partner == lab:
            if kind != "1_2":
                raise SelfCheckFailure("fixed node %s is not type 1_2" % lab)
            if sorted(dec.values()) != [1, 1]:
                raise SelfCheckFailure("type 1_2 restriction did not split in two")
        elif kind != "2_1":
            raise SelfCheckFailure("swapped node %s is not type 2_1" % lab)
        elif list(dec.values()) != [1]:
            raise SelfCheckFailure("type 2_1 restriction is not irreducible")
        folded += dec
    if sorted(folded) != sorted(character_table(K).labels):
        raise SelfCheckFailure("folded nodes do not biject with kernel irreps")
    A_k, labels_k = mckay_graph(K)
    kinds = list(types.values())
    return {
        "group": G.name,
        "group_graph": recognize_affine_ade(mckay_graph(G)[0]),
        "group_nodes": len(ct.labels),
        "psi": psi,
        "kernel_order": len(grading.kernel),
        "folded_graph": recognize_affine_ade(A_k),
        "folded_nodes": len(labels_k),
        "types": types,
        "dim_graded_ring": kinds.count("1_2"),
        "dim_graded_ring_1": kinds.count("2_1") // 2,
        "folded_adjacency": A_k,
        "folded_labels": labels_k,
    }


# -- affine A-D-E recognition --------------------------------------------------------


def _affine_marks(A: IntMatrix) -> list:
    """The marks delta > 0 spanning ker(2I - A), as `recognize_affine_ade` checks them."""
    n, grid = A.rows, A.to_lists()
    if A.cols == n and all(a >= 0 and a == grid[j][i] and (i != j or n == 1 or not a)
                           for i, row in enumerate(grid) for j, a in enumerate(row)):
        cartan = [[2 * (i == j) - a for j, a in enumerate(row)] for i, row in enumerate(grid)]
        _, _, D, V, _ = _smith_engine(cartan, n, v=True)
        free = _free_columns(D, n)
        if len(free) == 1 and all(d * V[free[0]][0] > 0 for d in V[free[0]]):
            return [abs(d) for d in V[free[0]]]
    raise ValueError("adjacency is not an affine A-D-E diagram")


def recognize_affine_ade(A: IntMatrix) -> str:
    """Name the affine A-D-E diagram with adjacency A, up to relabelling.

    A must be square, symmetric and nonnegative, with a zero diagonal past
    one node, and ker(2I - A) must have rank 1 and a generator of one sign
    (a disconnected graph fails one of the two).  That generator, a column
    of the unimodular Smith transform V and so primitive, is the marks
    delta > 0.  The largest mark names the n-node diagram: 1 for A(n-1), 2
    for D(n-1), 3, 4 or 6 for E6, E7 or E8.  So the loop [[2]] is A0 and
    the double edge [[0, 2], [2, 0]] is A1.  Other input raises ValueError.
    """
    marks = _affine_marks(A)
    return "%s%d" % ({1: "A", 2: "D"}.get(max(marks), "E"), len(marks) - 1)


# -- symbolic rings: SU(2), O(2), circle ----------------------------------------------


def res_su2_to_finite(G: QuaternionGroup, m: int) -> VirtualRep:
    """Restriction of the m-dimensional SU(2)-irrep sigma_m to G, by
    sigma_(m+1) = sigma_2 sigma_m - sigma_(m-1) from sigma_(-1) = -1, sigma_0 = 0."""
    if m < 0:
        raise ValueError("sigma index must be nonnegative")
    ct = character_table(G)
    chi_def = G.defining_character()
    prev, cur = [-_ONE] * len(ct.classes), [_ZERO] * len(ct.classes)
    for _ in range(m):
        prev, cur = cur, [d * c - p for d, c, p in zip(chi_def, cur, prev)]
    return ct.decompose(cur)


def res_su2_to_T(m: int) -> dict:
    """Weights of sigma_m on the circle: a^(m-1) + a^(m-3) + ... + a^(1-m)."""
    return {m - 1 - 2 * t: 1 for t in range(m)}


def res_su2_to_O2(m: int) -> dict:
    """sigma_m on O(2): paired weights kappa_i plus 1 or delta in the middle."""
    out = {}
    for i in range(m - 1, 0, -2):
        out["kappa_%d" % i] = 1
    if m % 2 == 1:
        j = (m - 1) // 2
        out["1" if j % 2 == 0 else "delta"] = 1
    return out


def res_O2_to_T(o2rep: dict) -> dict:
    """Restriction R_O2 -> R_T: 1, delta -> 1, kappa_i -> a^i + a^-i."""
    pairs = []
    for k, c in o2rep.items():
        if k in ("1", "delta"):
            pairs.append((0, c))
        else:
            i = int(k.split("_")[1])
            pairs += [(i, c), (-i, c)]
    return _collect(pairs)


def ind_T_to_O2(trep: dict) -> dict:
    """Induction R_T -> R_O2: 1 -> 1 + delta, a^i -> kappa_|i|."""
    pairs = []
    for i, c in trep.items():
        if i == 0:
            pairs += [("1", c), ("delta", c)]
        else:
            pairs.append(("kappa_%d" % abs(i), c))
    return _collect(pairs)


def dirac_induce_T_to_SU2(weight: int) -> dict:
    """Dirac induction: 0 -> 0, lambda -> sigma_lambda, -lambda -> -sigma_lambda."""
    if weight == 0:
        return {}
    if weight > 0:
        return {weight: 1}
    return {-weight: -1}


def dirac_induce_finite_to_O2(rho: VirtualRep, d: str) -> int:
    """Coefficient of 1^- under Dirac induction into the graded O(2) ring.

    d names the 1-dimensional irrep of rho's group playing Res delta;
    the answer is Mult_1(rho) - Mult_d(rho).
    """
    ct = character_table(rho.group)
    if d not in ct.labels:
        raise InvalidEmbedding("no irrep %r in %s" % (d, rho.group.name))
    if ct.dim_of(d) != 1:
        raise InvalidEmbedding("%r is not one-dimensional" % d)
    triv = _one_dim_label(ct, [1] * len(ct.classes))
    if triv is None:
        raise SelfCheckFailure("no trivial irrep found")
    return rho.coeffs.get(triv, 0) - rho.coeffs.get(d, 0)
