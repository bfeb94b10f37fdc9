"""Exact modular data and fusion rings.

Covers level-k SU(2), the level-1 SU(3) and Sp(4) theories, torus levels,
and quantum doubles of finite abelian groups, twisted and untwisted.  All
S and T entries are cyclotomic numbers, every fusion coefficient is
certified to be a nonnegative integer, and the modular relations are
checked exactly at construction time; S S is the one key product that
S^2 and unitarity need, as S* = S^2 S.  A fusion ring stores each product
lam x mu as the {nu: N_{lam mu}^nu} dict it is, zeros dropped, so a
group-like ring holds one entry per product; the dense m x m x m tensor
`FusionRing.N` is a view built on first read.
"""

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm, prod

from .cyclo import (
    DivisionByZero, _Frozen, _key, _key_ints, _pack, _prime_factors, _root_exponent, _rotate,
    _times, _width, rational, sin_frac, sqrt_int, zeta,
)
from .exactla import FGAbelianGroup, IntMatrix, _cayley_invariants, cokernel

__all__ = [
    "ModularCheckFailure",
    "NonIntegralFusion",
    "NonAbelian",
    "InvalidTwist",
    "SingularLevel",
    "ModularData",
    "FusionRing",
    "su2_modular_data",
    "verlinde_matrices",
    "su2_fusion_truncated",
    "torus_fusion",
    "double_abelian",
    "double_cyclic_twisted",
    "level1_data",
]


class ModularCheckFailure(Exception):
    """S/T data failed one of the exact modular relations."""


class NonIntegralFusion(Exception):
    """A Verlinde sum did not come out a nonnegative integer."""


class NonAbelian(Exception):
    """The double construction here only covers abelian groups."""


class InvalidTwist(Exception):
    """Twist value fails the divisibility precondition."""


class SingularLevel(Exception):
    """Torus level matrix is singular, so the quotient is infinite."""


_ONE = rational(1)
_ZERO = rational(0)


def _as_permutation(key, m: int):
    """The permutation of an m x m permutation matrix given by its key, or
    None for any other matrix: its entries must be integers whose absolute
    values sum to m, with a 1 in every row and no two in one column."""
    try:
        ints = _key_ints(key)
    except ValueError:
        return None
    rows = [ints[i * m:(i + 1) * m] for i in range(m)]
    if sum(map(abs, ints)) != m or any(1 not in row for row in rows):
        return None
    perm = tuple(row.index(1) for row in rows)
    return perm if len(set(perm)) == m else None


class ModularData(_Frozen):
    """Exact S and T matrices of a rational theory.

    S must be symmetric and unitary, T a diagonal of roots of unity, and
    (ST)^3 = S^2 with S^2 a permutation squaring to the identity.  The
    relations are verified exactly on construction; the permutation is
    stored as `charge_conjugation`.  A T entry that is not a root of unity
    raises ModularCheckFailure.  One key product of S's key (`cyclo._key`)
    gives C = S^2.  Unitarity is then checked entry by entry as S* = C S:
    C commutes with S, so S S* = S C S = C^2 = 1; for a real S it forces
    C = 1.  The phase relation is proved in Q(zeta_B), the field of S, over
    the relative power basis of the field of T (`_phase_holds`):
    Phi_L(z) = Phi_B(z^R) splits each entry of (ST)^3 = S^2 into R = L/B
    identities at order B.
    """

    __slots__ = ("labels", "S", "T", "charge_conjugation")
    _derived = ("charge_conjugation",)

    def __init__(self, labels, S, T) -> None:
        labels = tuple(labels)
        m = len(labels)
        S = tuple(tuple(row) for row in S)
        T = tuple(T)
        if len(S) != m or any(len(row) != m for row in S) or len(T) != m:
            raise ValueError("S must be square over the labels, T its diagonal")
        roots = [_root_exponent(t) for t in T]
        if None in roots:
            raise ModularCheckFailure("T entries must be roots of unity")
        for i in range(m):
            for j in range(i):
                if S[i][j] != S[j][i]:
                    raise ModularCheckFailure("S is not symmetric")
        cells = {id(e): e for row in S for e in row}  # entries are often shared
        conj = {i: e.conjugate() for i, e in cells.items()}
        Sc = [[conj[id(e)] for e in row] for row in S]
        kS = _key(S)
        perm = _as_permutation(_times(S).step(kS), m)
        if perm is None:
            raise ModularCheckFailure("S^2 is not a permutation")
        # S is symmetric, so is S^2, and a symmetric permutation matrix is its
        # own inverse: C^2 = 1 needs no check.  C = S^2 commutes with S, so
        # S* = C S gives S S* = S C S = C^2 = 1
        if any(a != b for i in range(m) for a, b in zip(Sc[i], S[perm[i]])):
            raise ModularCheckFailure("S is not unitary")
        # with S^{-1} = S*, (ST)^3 = S^2 is equivalent to TST = S T^-1 S*
        if not _phase_holds(kS, Sc, roots):
            raise ModularCheckFailure("(ST)^3 = S^2 fails")
        self._fill(labels, S, T, perm)

    def __repr__(self) -> str:
        return "ModularData(%d primaries)" % len(self.labels)


def _phase_holds(kS, Sc, roots) -> bool:
    """Whether TST = S T^-1 S* for T_k = zeta_n^e, (n, e) = roots[k], with S
    given by its key kS and S* by its rows Sc.

    Let L = lcm(the order of kS, the n), B = lcm(the order of kS, rad L)
    and R = L / B.  Every prime of R divides B, so Phi_L(z) = Phi_B(z^R)
    (Washington, Introduction to Cyclotomic Fields, ch. 2) and
    zeta_L^0, ..., zeta_L^(R-1) are a basis of Q(zeta_L) over Q(zeta_B).
    Write T_k = zeta_L^(e_k), -e_k = R q_k + s_k and e_i + e_j = R q_ij + s_ij
    mod L.  Entry (i, j) of the relation reads
    sum_s zeta_L^s P_s[i][j] = zeta_L^(s_ij) zeta_B^(q_ij) S_ij, with
    P_s = S[:, C_s] diag(zeta_B^(q_k)) S*[C_s, :] over C_s = {k : s_k = s}.
    Both sides have coordinates in Q(zeta_B), so it holds exactly when P_s
    is zeta_B^(q_ij) S_ij where s_ij = s and 0 elsewhere: one key product at
    order B per class, with inner dimensions summing to m.  The left factors
    and the right-hand sides are slices of kS rotated by zeta_B^q, each
    distinct (slice, q) rotated once; every class product is then compared
    with its whole right-hand side in one list compare.
    """
    n, d, flat = kS
    m = len(roots)
    f = len(flat) // (m * m or 1)
    L = lcm(n, *(r for r, _ in roots))
    B = lcm(n, *_prime_factors(L))
    R = L // B
    e = [r * (L // nr) for nr, r in roots]
    rotate = cache(lambda vec, q: _rotate(vec, q, n, B))

    def entry(i, j, q):  # zeta_B^q S_ij, at order B, over d
        return rotate(flat[(i * m + j) * f:(i * m + j + 1) * f], q)

    classes = {}
    for k in range(m):
        q, s = divmod(-e[k] % L, R)
        classes.setdefault(s, []).append((k, q))
    P = {}
    for s, ks in classes.items():
        left = tuple(c for i in range(m) for k, q in ks for c in entry(i, k, q))
        P[s] = _times([Sc[k] for k, _ in ks]).step((B, d, left))
    want = {s: [] for s in P}
    for i in range(m):
        for j in range(m):
            q, s = divmod((e[i] + e[j]) % L, R)
            cell = entry(i, j, q)
            if s not in P and any(cell):
                return False
            for t, rhs in want.items():
                rhs += cell if t == s else [0] * len(cell)
    # P_s = rhs / d, with P_s = fP / dP
    return all([c * d for c in fP] == [c * dP for c in want[s]] for s, (_, dP, fP) in P.items())


def _rule(row, m: int) -> dict:
    """One product lam x mu, given as a dense row of length m or as a
    {nu: c} dict, as a dict in label order with zeros dropped.  ValueError
    unless every nu is a label index and every c a nonnegative integer."""
    if isinstance(row, dict):
        items = row.items()
    else:
        items = tuple(row)
        if len(items) != m:
            raise ValueError("structure constants must be m x m x m")
        items = enumerate(items)
    rule = {}
    for nu, c in items:
        if nu not in range(m) or int(c) != c or c < 0:
            raise ValueError("fusion rule %r needs label indices and integers >= 0" % (row,))
        if c:
            rule[int(nu)] = int(c)
    return dict(sorted(rule.items()))


def _dense_row(rule: dict, m: int) -> tuple:
    row = [0] * m
    for nu, c in rule.items():
        row[nu] = c
    return tuple(row)


class FusionRing(_Frozen):
    """Fusion coefficients N_{lm}^n over an ordered label set.

    `N[lam][mu]` is either a dense row of length m or a {nu: c} dict; the
    ring keeps each product as such a dict, zeros dropped, and builds the
    dense nested tuple `N` only when it is first read.  Coefficients are
    nonnegative integers, label `unit` acts as identity, and the ring is
    commutative.  Those three facts are checked eagerly; associativity is
    checked by `check_associativity` since it costs m^5.
    """

    __slots__ = ("labels", "_rules", "unit", "_dense")
    _derived = ("_dense",)

    def __init__(self, labels, N, unit: int = 0) -> None:
        labels = tuple(labels)
        m = len(labels)
        rules = tuple(tuple(_rule(row, m) for row in plane) for plane in N)
        if len(rules) != m or any(len(plane) != m for plane in rules):
            raise ValueError("structure constants must be m x m x m")
        if not 0 <= unit < m:
            raise ValueError("unit label out of range")
        for mu in range(m):
            if rules[unit][mu] != {mu: 1} or rules[mu][unit] != {mu: 1}:
                raise ValueError("unit label does not act as identity")
        for lam in range(m):
            for mu in range(lam):
                if rules[lam][mu] != rules[mu][lam]:
                    raise ValueError("fusion must be commutative")
        self._fill(labels, rules, unit, None)

    @property
    def N(self) -> tuple:
        """N[lam][mu][nu] as nested tuples, built from the rules on first read."""
        if self._dense is None:
            m = len(self.labels)
            dense = tuple(tuple(_dense_row(r, m) for r in plane) for plane in self._rules)
            object.__setattr__(self, "_dense", dense)
        return self._dense

    def __eq__(self, other) -> bool:
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (self.labels, self.unit, self._rules) == (other.labels, other.unit, other._rules)

    def __hash__(self):
        return hash((self.labels, self.unit))

    def __repr__(self) -> str:
        return "FusionRing(%d labels)" % len(self.labels)

    def matrix(self, lam: int) -> IntMatrix:
        """Fusion matrix (N_lam)_{mu nu} = N_{lam mu}^nu."""
        m = len(self.labels)
        if not 0 <= lam < m:
            raise IndexError("label index %r out of range" % (lam,))
        return IntMatrix.from_rows(_dense_row(r, m) for r in self._rules[lam])

    def product(self, lam: int, mu: int) -> dict:
        """Decomposition of lam x mu as {nu: multiplicity}, zeros omitted."""
        if not (0 <= lam < len(self.labels) and 0 <= mu < len(self.labels)):
            raise IndexError("label indices %r out of range" % ((lam, mu),))
        return dict(self._rules[lam][mu])

    def check_associativity(self) -> None:
        """Verify N_lam N_mu = sum_nu N_{lam mu}^nu N_nu for all pairs."""
        mats = [self.matrix(lam) for lam in range(len(self.labels))]
        bad = _fusion_failure(self, mats)
        if bad:
            raise ValueError(
                "associativity fails at labels %r, %r"
                % (self.labels[bad[0]], self.labels[bad[1]])
            )

    def is_group_like(self) -> bool:
        """True when every product is a single label with coefficient 1."""
        # the coefficients are nonnegative integers, so a sum of 1 is one 1
        return all(sum(r.values()) == 1 for plane in self._rules for r in plane)

    def fusion_group(self) -> FGAbelianGroup:
        """The abelian group underlying a group-like ring, in normal form.

        Read off a Cayley presentation Z^r/L of the table by a Smith form
        (Schreier's lemma; Holt, Eick and O'Brien, Handbook of Computational
        Group Theory, 2005) and certified by an explicit isomorphism onto
        Z^r/L that is additive on every product; ValueError otherwise.
        """
        if not self.is_group_like():
            raise ValueError("fusion ring is not group-like")
        table = [[next(iter(r)) for r in plane] for plane in self._rules]
        mul = lambda a, b: table[a][b]
        return FGAbelianGroup(0, _cayley_invariants(mul, len(table), self.unit))


def _fusion_failure(ring, mats):
    """First (lam, mu), lam <= mu, where the integer matrices `mats`, one per
    label, fail M_lam M_mu = sum_nu N_{lam mu}^nu M_nu; None if they represent
    the ring.  With the ring's own fusion matrices this is associativity.
    Each g x g matrix is packed at one slot width w bounding g max|M|^2 and
    sum_nu N max|M|, row by row (P[t]) and whole, row-major (Q).  Row i of
    M_lam M_mu is sum_t (M_lam)_it P_mu[t]; shifted into place, the rows make
    the whole product, and one integer compare with sum_nu N Q_nu tests the
    pair (Kronecker substitution)."""
    m, g = len(ring.labels), mats[0].rows
    top = max((max(max(M.data), -min(M.data)) for M in mats if M.data), default=0)
    spread = max(sum(r.values()) for plane in ring._rules for r in plane)
    width = _width(max(g * top * top, spread * top))
    rows = [[_pack(M.data[t * g:(t + 1) * g], width) for t in range(g)] for M in mats]
    whole = [_pack(M.data, width) for M in mats]
    for lam in range(m):
        data = mats[lam].data
        # the nonzero (t, c) of each row of M_lam, last row first
        terms = [[(t, c) for t, c in enumerate(data[i * g:(i + 1) * g]) if c]
                 for i in reversed(range(g))]
        for mu in range(lam, m):
            P, got = rows[mu], 0
            for row in terms:
                got = (got << g * width) + sum(c * P[t] for t, c in row)
            if got != sum(c * whole[nu] for nu, c in ring._rules[lam][mu].items()):
                return lam, mu
    return None


def su2_modular_data(k: int) -> ModularData:
    """Modular data of level-k SU(2).

    S_{ab} = sqrt(2/n) sin(pi (a+1)(b+1)/n) with n = k+2, realized in
    Q(zeta_8n).  T_a is the root of unity with exponent h_a - c/24 =
    (2(a+1)^2 - n)/(8n), which makes (ST)^3 = S^2 hold on the nose.  Each
    T_a is stored at its own order; their lcm is 4n for even n and 8n for
    odd n.  ModularData proves the phase relation in the field of S by
    Phi_L(z) = Phi_B(z^R): at k = 16, L = 72 and B = 36, so it computes at
    phi(36) = 12 rather than phi(144) = 48.  At odd n, L = B = 8n.
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    n = k + 2
    pref = sqrt_int(2 * n) / n
    sines = {}
    S = []
    for a in range(k + 1):
        row = []
        for b in range(k + 1):
            key = ((a + 1) * (b + 1)) % (2 * n)
            if key not in sines:
                sines[key] = (pref * sin_frac(key, 2 * n)).normalized()
            row.append(sines[key])
        S.append(row)
    T = []
    for a in range(k + 1):
        e = (2 * (a + 1) ** 2 - n) % (8 * n)
        g = gcd(e, 8 * n)
        T.append(zeta(8 * n // g, e // g).normalized())
    return ModularData(tuple(range(k + 1)), S, T)


def verlinde_matrices(D: ModularData) -> FusionRing:
    """Fusion ring diagonalized by S: N_{lm}^n = sum_c S_lc S_mc S*_nc / S_0c.

    The sums are one key product Y Z^t (`cyclo._times`): Y has a row
    x_lc x_mc per l <= m (x_ac = S_ac / S_0c) and Z^t[c][n] = conj(x_nc)
    |S_0c|^2; `cyclo._key_ints` reads the coefficients off its key.  The
    first entry in (l, m >= l, n) order that is not an integer raises
    NonIntegralFusion, and if there is none, the first negative one.
    """
    m = len(D.labels)
    S = D.S
    try:
        inv0 = [S[0][c].normalized().inverse() for c in range(m)]
    except DivisionByZero:
        raise NonIntegralFusion("vacuum row of S contains a zero")
    # eigenvalue ratios and |S_0c|^2 live in much smaller fields than S
    x = [[(S[a][c] * inv0[c]).normalized() for c in range(m)] for a in range(m)]
    w = [(S[0][c] * S[0][c].conjugate()).normalized() for c in range(m)]
    zt = [[(x[nu][c].conjugate() * w[c]).normalized() for nu in range(m)] for c in range(m)]
    pairs = [(lam, mu) for lam in range(m) for mu in range(lam, m)]
    key = _times(zt).step(_key([[x[a][c] * x[b][c] for c in range(m)] for a, b in pairs]))
    try:
        coeffs = _key_ints(key)
        bad = next(((i, c) for i, c in enumerate(coeffs) if c < 0), None)
    except ValueError as err:
        bad = err.index, err.value
    if bad:
        i, q = bad
        what = "non-rational fusion coefficient" if q is None else "fusion coefficient %s" % q
        raise NonIntegralFusion("%s at %r x %r" % (what, *pairs[i // m]))
    N = [[None] * m for _ in range(m)]
    for i, (lam, mu) in enumerate(pairs):
        N[lam][mu] = N[mu][lam] = coeffs[i * m:(i + 1) * m]
    return FusionRing(D.labels, N)


@lru_cache(maxsize=8)
def su2_fusion_truncated(k: int) -> FusionRing:
    """Level-k SU(2) fusion from the truncated Clebsch-Gordan rule.

    N_{lm}^n = 1 exactly when |l-m| <= n <= min(l+m, 2k-l-m) and l+m+n is
    even.  Built without any modular data, so it can serve as an
    independent cross-check of the Verlinde computation.
    """
    if k < 1:
        raise ValueError("level must be >= 1")
    m = k + 1
    N = [
        [dict.fromkeys(range(abs(lam - mu), min(lam + mu, 2 * k - lam - mu) + 1, 2), 1)
         for mu in range(m)]
        for lam in range(m)
    ]
    return FusionRing(tuple(range(m)), N)


def torus_fusion(tau) -> FGAbelianGroup:
    """Fusion group of a torus theory at level matrix tau: coker(tau).

    The label lattice is the quotient of the weight lattice by tau times
    the coweight lattice; its order is |det tau|.  A singular tau has an
    infinite quotient and raises SingularLevel.
    """
    if not isinstance(tau, IntMatrix):
        tau = IntMatrix.from_rows([list(row) for row in tau])
    if tau.rows != tau.cols:
        raise ValueError("level matrix must be square")
    G = cokernel(tau)
    if G.free_rank > 0:
        raise SingularLevel("level matrix is singular")
    return G


def _cyclic_orders(G):
    """Normalize a finite abelian group to a tuple of cyclic orders."""
    if isinstance(G, (int, tuple, list)):
        orders = tuple(G) if isinstance(G, (tuple, list)) else (G,)
        if any(isinstance(mi, bool) or not isinstance(mi, int) for mi in orders):
            raise TypeError("cyclic orders must be ints, got %r" % (G,))
        if not orders or any(mi < 1 for mi in orders):
            raise ValueError("cyclic orders must be >= 1")
        return orders
    if hasattr(G, "mul") and hasattr(G, "order"):
        try:
            return _cayley_invariants(G.mul, G.order, 0)
        except ValueError as exc:
            raise NonAbelian("group is not abelian: %s" % exc) from None
    raise TypeError("expected an int, a tuple of ints, or a finite group")


def _pairing(orders):
    """(L, chi) for the cyclic orders m_i, L their lcm: the character with
    exponents x takes b to prod_i zeta_(m_i)^(x_i b_i) = zeta_L^chi(x, b)."""
    L = lcm(*orders)
    weights = [L // mi for mi in orders]
    return L, lambda x, b: sum(xi * bi * w for xi, bi, w in zip(x, b, weights)) % L


def double_abelian(G):
    """Quantum double of a finite abelian group: modular data and ring.

    Primaries are pairs (a, x) of a group element and a character, both
    encoded as exponent tuples over the cyclic factors.  S is the fully
    conjugated pairing  S_{(a,x),(b,y)} = conj(x(b) y(a)) / |G|  and
    T_{(a,x)} = x(a); fusion is the group law on G x G^.  Returns the
    pair (ModularData, FusionRing).
    """
    orders = _cyclic_orders(G)
    L, chi = _pairing(orders)
    elements = _tuples(orders)
    prim = [(a, x) for a in elements for x in elements]
    # S takes L distinct values zeta_L^-e / |G|, each built once
    pref = Fraction(1, prod(orders))
    values = [(zeta(L, -e % L) * pref).normalized() for e in range(L)]
    S = [[values[(chi(x, b) + chi(y, a)) % L] for (b, y) in prim] for (a, x) in prim]
    T = [zeta(L, chi(x, a)) for (a, x) in prim]
    # prim[i * g + j] is (elements[i], elements[j]), so a product is one index
    g = len(elements)
    add = [[elements.index(_elt_add(a, b, orders)) for b in elements] for a in elements]
    N = [[{add[a][b] * g + add[x][y]: 1} for b in range(g) for y in range(g)]
         for a in range(g) for x in range(g)]
    return ModularData(tuple(prim), S, T), FusionRing(tuple(prim), N)


def _tuples(orders):
    out = [()]
    for mi in orders:
        out = [t + (v,) for t in out for v in range(mi)]
    return out


def _elt_add(a, b, orders):
    return tuple((ai + bi) % mi for ai, bi, mi in zip(a, b, orders))


def double_cyclic_twisted(n: int, sigma: int) -> FusionRing:
    """Group-like fusion ring of the twisted double of Z_n.

    The twist class sigma in {1..n} enters through the 3-cocycle
    omega(a,b,c) = zeta_n^(sigma a carry(b,c)).  Simple objects are pairs
    (g, j) of a flux g and a charge j; each is the projective character
    x -> zeta_{n^2}^((sigma g + n j) x) of its flux block, and fusion
    multiplies characters pointwise, which shifts the charge by sigma
    whenever the fluxes wrap around n.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("order must be a positive integer")
    if not 1 <= sigma <= n:
        raise InvalidTwist("twist must lie in 1..n")
    d = gcd(2 * n, sigma)
    if (n * n) % d != 0:
        raise InvalidTwist("gcd(2n, sigma) = %d does not divide n^2" % d)
    labels = [(g, j) for g in range(n) for j in range(n)]

    def rule(g1, j1, g2, j2):  # label (g, j) has index g n + j
        carry, g = divmod(g1 + g2, n)
        return {g * n + (j1 + j2 + sigma * carry) % n: 1}

    N = [[rule(*p, *q) for q in labels] for p in labels]
    return FusionRing(tuple(labels), N)


def level1_data(name: str):
    """Exact modular data of SU(3)_1 or Sp(4)_1 and their Verlinde fusion ring.

    SU(3)_1 has three primaries {(00),(10),(01)} obeying Z_3 fusion;
    Sp(4)_1 has three primaries {(00),(01),(10)} obeying the Ising rules
    with (10) the spinor.  Returns the pair (ModularData, FusionRing).
    """
    key = name.replace("(", "").replace(")", "").replace("_", "").upper()
    if key == "SU3":
        labels = ("(00)", "(10)", "(01)")
        w = zeta(3, 1)
        pref = sqrt_int(3) / 3
        S = [[(pref * w ** (a * b % 3)).normalized() for b in range(3)] for a in range(3)]
        # c = 2, h = 0, 1/3, 1/3
        t0 = zeta(12, 11)
        T = [t0, t0 * w, t0 * w]
    elif key == "SP4":
        labels = ("(00)", "(01)", "(10)")
        half, root = _ONE * Fraction(1, 2), sqrt_int(2) * Fraction(1, 2)
        S = [[half, half, root], [half, half, -root], [root, -root, _ZERO]]
        # c = 5/2, h = 0, 1/2, 5/16
        t0 = zeta(48, 43)
        T = [t0, (t0 * zeta(2, 1)).normalized(), (t0 * zeta(16, 5)).normalized()]
    else:
        raise ValueError("known level-1 theories: SU3, Sp4")
    md = ModularData(labels, S, T)
    return md, verlinde_matrices(md)
