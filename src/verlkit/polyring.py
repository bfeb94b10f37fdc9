"""Laurent and ordinary polynomials over Z with windowed quotient machinery.

Infinite-rank modules like Z[a^(+-1)] are realized on finite degree windows.
A quotient or homology group is trusted only when the invariant factors
computed on a window and on the window enlarged by the stabilization stride
agree; otherwise :class:`StabilizationFailure` is raised.  All matrix work
reduces to Smith normal form over Z, and the gcd over Q to the last row of
a Hermite form (see `exactla`).
"""

from __future__ import annotations

import warnings
from functools import cache
from itertools import product
from math import gcd

from .cyclo import _format_combo, _Frozen, _power
from .exactla import (
    FGAbelianGroup,
    IntMatrix,
    SelfCheckFailure,
    _cokernel_of,
    _diagonal_solve,
    _factors,
    _free_columns,
    _row_hermite,
    _smith_engine,
    cokernel,
    solve_int,
)

__all__ = [
    "LaurentPoly",
    "TruncationWindow",
    "StabilizationFailure",
    "Inconclusive",
    "SelfCheckFailure",
    "truncated_quotient",
    "stabilized_family",
    "matrix_from_columns",
    "coprime_certificate",
    "e6_tor",
]


class StabilizationFailure(RuntimeError):
    """Two nested windows produced different invariant factors."""


class Inconclusive(RuntimeError):
    """The bounded-degree window certified neither answer."""


class LaurentPoly(_Frozen):
    """Sparse Laurent polynomial over Z in one or two variables.

    Exponents may be negative; zero coefficients are never stored.
    `render` lists terms by ascending exponent.

    >>> a = LaurentPoly.var("a")
    >>> (a ** -1 * (a - 1)).render()
    '-a^-1 + 1'
    """

    __slots__ = ("names", "terms")

    def __init__(self, names, terms) -> None:
        names = tuple(names)
        if len(names) not in (1, 2):
            raise ValueError("one or two variables only")
        clean = {}
        for exps, c in terms.items():
            e, k = tuple(map(int, exps)), int(c)
            if len(e) != len(names):
                raise ValueError("exponent arity mismatch")
            if e != tuple(exps) or k != c:
                raise ValueError("exponents and coefficients must be integers")
            if k:
                clean[e] = clean.get(e, 0) + k
        clean = {e: c for e, c in clean.items() if c}
        self._fill(names, clean)

    @property
    def nvars(self) -> int:
        return len(self.names)

    @classmethod
    def var(cls, name: str, names=None) -> "LaurentPoly":
        names = (name,) if names is None else tuple(names)
        exps = tuple(1 if v == name else 0 for v in names)
        return cls(names, {exps: 1})

    @classmethod
    def const(cls, c: int, names=("a",)) -> "LaurentPoly":
        return cls(names, {(0,) * len(names): c})

    def _same_ring(self, other: "LaurentPoly") -> None:
        if self.names != other.names:
            raise ValueError("mixed polynomial rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other, self.names)
        self._same_ring(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return LaurentPoly(self.names, t)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other, self.names)
        return self + (-other)

    def __rsub__(self, other):
        return LaurentPoly.const(other, self.names) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(
                self.names, {e: c * other for e, c in self.terms.items()}
            )
        self._same_ring(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                t[key] = t.get(key, 0) + c1 * c2
        return LaurentPoly(self.names, t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            if len(self.terms) != 1:
                raise ValueError("only monomials have Laurent inverses")
            ((e, c),) = self.terms.items()
            if abs(c) != 1:
                raise ValueError("only unit monomials have Laurent inverses")
            return LaurentPoly(
                self.names, {tuple(x * k for x in e): c if k % 2 else 1}
            )
        return _power(self, k, LaurentPoly.const(1, self.names))

    def is_zero(self) -> bool:
        return not self.terms

    def support_bounds(self):
        """Per-variable (min, max) exponent over the support."""
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        lo = [min(e[i] for e in self.terms) for i in range(self.nvars)]
        hi = [max(e[i] for e in self.terms) for i in range(self.nvars)]
        return tuple(zip(lo, hi))

    def degree(self) -> int:
        """Top exponent; one-variable ordinary polynomials only."""
        if self.nvars != 1:
            raise ValueError("degree is for one-variable polynomials")
        if not self.terms:
            raise ValueError("zero polynomial")
        if min(e[0] for e in self.terms) < 0:
            raise ValueError("Laurent polynomial has no degree")
        return max(e[0] for e in self.terms)

    def coeff(self, *exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other, self.names)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.names == other.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.names, frozenset(self.terms.items())))

    def render(self) -> str:
        exps = sorted(self.terms)
        monos = [
            "*".join("%s^%d" % (n, x) if x != 1 else n for n, x in zip(self.names, e) if x)
            for e in exps
        ]  # the constant's empty monomial becomes the None label
        return _format_combo([self.terms[e] for e in exps], [m or None for m in monos])

    def __repr__(self):
        return "LaurentPoly(%s)" % self.render()


class TruncationWindow(_Frozen):
    """Per-variable exponent bounds plus the stabilization stride."""

    __slots__ = ("bounds", "stride")

    def __init__(self, bounds, stride: int = 5) -> None:
        bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
        if stride < 1:
            raise ValueError("stride must be positive")
        for lo, hi in bounds:
            if hi - lo < 2 * stride:
                raise ValueError("window too small: need hi - lo >= 2*stride")
        self._fill(bounds, stride)

    @classmethod
    def symmetric(cls, radius: int, nvars: int = 1, stride: int = 5):
        return cls(((-radius, radius),) * nvars, stride)

    def enlarged(self, delta: int = None) -> "TruncationWindow":
        d = self.stride if delta is None else delta
        return TruncationWindow(
            tuple((lo - d, hi + d) for lo, hi in self.bounds), self.stride
        )

    def points(self):
        ranges = [range(lo, hi + 1) for lo, hi in self.bounds]
        return list(product(*ranges))


def matrix_from_columns(labels, columns) -> IntMatrix:
    """Assemble an IntMatrix from sparse columns keyed by basis labels."""
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate basis labels")
    cols = []
    for col in columns:
        v = [0] * len(labels)
        for lab, c in col.items():
            v[index[lab]] = v[index[lab]] + c
        cols.append(v)
    if not cols:
        return IntMatrix.zero(len(labels), 0)
    return IntMatrix.from_cols(cols)


def _quotient_on(labels, relations) -> FGAbelianGroup:
    return cokernel(matrix_from_columns(labels, relations), labels=labels)


def stabilized_family(family, size: int, stride: int = 5) -> FGAbelianGroup:
    """Quotient of a windowed presentation family, stabilization-checked.

    `family(w)` returns (labels, relations) where relations are sparse
    columns over the labels.  The result at window `size` is returned only
    when the enlarged window `size + stride` has identical invariants.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    labels1, rels1 = family(size)
    if not rels1:
        warnings.warn(
            "degenerate presentation: no relations instantiated; "
            "the free rank below is window-dependent",
            stacklevel=2,
        )
        return FGAbelianGroup(len(labels1), (), generators=tuple(labels1))
    g1 = _quotient_on(labels1, rels1)
    labels2, rels2 = family(size + stride)
    _check_stable("", size, stride, g1, _quotient_on(labels2, rels2))
    return g1


def _check_stable(name, size, stride, g1, g2):
    """Raise StabilizationFailure unless windows size and size + stride agree."""
    if g1 != g2:
        raise StabilizationFailure(
            "%swindow %d gives %s but window %d gives %s"
            % (name, size, g1.describe(), size + stride, g2.describe())
        )


def _monomial_label(names, exps) -> str:
    parts = ["%s^%d" % (n, e) for n, e in zip(names, exps)]
    return "*".join(parts)


def _ideal_family(names, relations, window: TruncationWindow):
    def family(extra: int):
        grown = window.enlarged(extra)
        labels = [_monomial_label(names, p) for p in grown.points()]
        rels = []
        for f in relations:
            # every shift in these ranges keeps the support of f inside the window
            pairs = zip(grown.bounds, f.support_bounds())
            for shift in product(*[range(lo - a, hi - b + 1) for (lo, hi), (a, b) in pairs]):
                rels.append({
                    _monomial_label(names, [x + s for x, s in zip(e, shift)]): c
                    for e, c in f.terms.items()
                })
        return labels, rels

    return family


def truncated_quotient(
    generators, relations, window: TruncationWindow
) -> FGAbelianGroup:
    """Quotient of a Laurent polynomial ring by shift-instantiated relations.

    `generators` names the ring: a variable-name tuple like ("a",) or
    ("a", "b").  Each relation polynomial is instantiated at every monomial
    shift whose support stays inside the window.
    """
    names = tuple(generators)
    if len(names) != len(window.bounds):
        raise ValueError("window arity does not match the variable count")
    for f in relations:
        if not isinstance(f, LaurentPoly):
            raise TypeError("relations must be LaurentPoly values")
        if f.is_zero():
            raise ValueError("zero relation is not shift-periodic")
        if f.names != names:
            raise ValueError("relation lives in a different ring")
    return stabilized_family(
        _ideal_family(names, relations, window), 0, window.stride
    )


# -- coprimality certificates -----------------------------------------------------


def _poly_to_vec(f: LaurentPoly, size: int, shift: int = 0):
    """Coefficients of s^shift * f over the degrees 0..size-1."""
    v = [0] * size
    for (e,), c in f.terms.items():
        v[e + shift] = c
    return v


def _band(f: LaurentPoly, size: int, shifts: int):
    """Rows of the size x shifts matrix whose column t is s^t * f."""
    z = [0] * shifts + _poly_to_vec(f, f.degree() + 1) + [0] * size
    return [z[i + 1 : i + 1 + shifts][::-1] for i in range(size)]


def coprime_certificate(f: LaurentPoly, g: LaurentPoly):
    """Decide whether (f, g) = (1) in Z[x], with a checkable witness.

    The gcd over Q comes first: (False, h) when the primitive gcd h, with a
    positive leading coefficient, has degree >= 1, as h divides every
    u*f + w*g.  Otherwise (True, (u, w)) with u*f + w*g = 1, found by integer
    solving on the stacked shift matrix over degrees < deg f + deg g + 8.
    Raises Inconclusive when that window has no witness.
    """
    for p in (f, g):
        if p.is_zero():
            raise ValueError("nonzero polynomials required")
        if p.nvars != 1:
            raise ValueError("one-variable polynomials required")
        p.degree()  # rejects Laurent support
    h = _common_factor(f, g)
    if h.degree() >= 1:
        return False, h
    size = f.degree() + g.degree() + 8
    fshift = size - f.degree()
    gshift = size - g.degree()
    M = IntMatrix.from_rows(
        [a + b for a, b in zip(_band(f, size, fshift), _band(g, size, gshift))]
    )
    target = [1] + [0] * (size - 1)
    sol = solve_int(M, target)
    if sol is not None:
        u = LaurentPoly(f.names, {(i,): sol[i] for i in range(fshift)})
        w = LaurentPoly(f.names, {(j,): sol[fshift + j] for j in range(gshift)})
        if u * f + w * g != LaurentPoly.const(1, f.names):
            raise SelfCheckFailure("witness failed to expand to 1")
        return True, (u, w)
    raise Inconclusive(
        "no Bezout witness below degree %d, yet f and g are coprime over Q; "
        "the integer ideal may still be proper (e.g. contains only n > 1)"
        % size
    )


def _common_factor(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The primitive gcd of f and g over Q, with a positive leading coefficient.

    The Sylvester rows s^i*f (i < deg g) and s^j*g (j < deg f), highest
    degree first, span over Q the multiples of gcd(f, g) of degree below
    deg f + deg g, so the last row of their Hermite form is an integer
    multiple of the gcd.  Two constants give no rows, and the gcd 1.
    """
    n = f.degree() + g.degree()
    rows = []
    for p, shifts in ((f, g.degree()), (g, f.degree())):
        content = gcd(*p.terms.values())
        rows += [[c // content for c in _poly_to_vec(p, n, i)[::-1]] for i in range(shifts)]
    H = _row_hermite(rows)
    last = H[-1] if H else [1]
    content = gcd(*last)
    return LaurentPoly(f.names, {(len(last) - 1 - k,): c // content for k, c in enumerate(last)})


# -- the sigma-ring Tor computation ------------------------------------------------


@cache
def _sigma_complex():
    """d1f, d1g, d2f, d2g and the cofactors' Bezout witness, checked once."""
    s = LaurentPoly.var("s")
    m = s**2 - 2
    A = s**4 - 3 * s**2 + 1
    B = s**3 * (s**2 - 3)
    d1f, d1g = m * A, m * B
    d2f, d2g = m * B, -(m * A)
    # complex property: d1 o d2 = 0
    if not (d1f * d2f + d1g * d2g).is_zero():
        raise SelfCheckFailure("d1 o d2 != 0; maps entered wrong")

    ok, witness = coprime_certificate(A, B)
    if not ok:
        raise SelfCheckFailure("cofactors unexpectedly share a factor")
    return d1f, d1g, d2f, d2g, witness


def e6_tor(window_size: int = 24, stride: int = 5):
    """Homology of the two-step sigma-ring complex with Ising-type relations.

    d1(p, q) = (s^2-2)[(s^4-3s^2+1)p + s^3(s^2-3)q]  maps Z[s]^2 -> Z[s],
    d2(p)    = (s^2-2)(s^3(s^2-3)p, -(s^4-3s^2+1)p)  maps Z[s] -> Z[s]^2.

    Returns (H0, H1, cert) where H0 = coker d1, H1 = ker d1 / im d2 on
    stabilized windows, and cert records the coprimality witness of the two
    cofactors plus the verified ring relation s*s = 2 in H0.  The complex
    and the witness are built and checked once per process.

    On each of the two windows (`window_size` and `window_size + stride`)
    the band rows of d1 go to the Smith engine once, U d1 V = D, with the
    rows of the d2 columns D2 carried along as V^-1 D2: its rows at zero
    invariant factors are the kernel coordinates C of the d2 columns,
    H1 = coker C, and its other rows vanish unless im d2 escaped ker d1.
    The first window also tracks U^-1, whose columns label H0 with the s^i,
    U (s*s - 2), which decides s*s = 2 in H0, and U^-1 of C, whose columns
    label H1; the second reads only the invariants of H0 and H1.  Every
    matrix stays a list of rows; no IntMatrix is built.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    if window_size < 0:
        raise ValueError("window size must be nonnegative")
    d1f, d1g, d2f, d2g, witness = _sigma_complex()
    d2_top = max(d2f.degree(), d2g.degree())

    def window(w: int, first: bool):
        cod, n = w + d1g.degree(), 2 * w
        d1 = [f + g for f, g in zip(_band(d1f, cod, w), _band(d1g, cod, w))]
        k = max(0, w - d2_top)
        d2 = _band(d2f, w, k) + _band(d2g, w, k)
        target = [[c] for c in [-2, 0, 1] + [0] * (cod - 3)]  # s*s - 2*1
        U, Uinv, D, _, Vinv_d2 = _smith_engine(
            d1, n, u=target if first else False, uinv=first, vinv=d2)
        free = _free_columns(D, n)
        if any(any(Vinv_d2[j]) for j in set(range(n)).difference(free)):
            raise SelfCheckFailure("im d2 escaped ker d1 on the window")
        C = [Vinv_d2[j] for j in free]
        _, C_Uinv, C_D, _, _ = _smith_engine(C, k, uinv=first)
        labels = ["k%d" % i for i in range(len(free))] if first else None
        h1 = _cokernel_of(_factors(C_D, len(free)), C_Uinv, labels)
        labels = ["s^%d" % i for i in range(cod)] if first else None
        h0 = _cokernel_of(_factors(D, cod), Uinv, labels)
        return h0, h1, first and _diagonal_solve(D, n, [y for y, in U]) is not None

    h0, h1, sigma_squared_is_two = window(window_size, True)
    h0b, h1b, _ = window(window_size + stride, False)
    _check_stable("", window_size, stride, h0, h0b)
    _check_stable("H1 ", window_size, stride, h1, h1b)

    cert = {
        "coprime_witness": witness,
        "sigma_squared_is_two": sigma_squared_is_two,
        "generators": ("1", "s"),
        "relation": "s*s = 2",
    }
    return h0, h1, cert
