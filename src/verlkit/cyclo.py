"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A :class:`CycNumber` is stored at a cyclotomic order N as an integer
coefficient vector over the power basis 1, z, ..., z^(phi(N)-1) (z = zeta_N)
plus one positive denominator.  The canonical form is the remainder modulo
the N-th cyclotomic polynomial, which zeroes out the coefficients at
positions phi(N)..N-1; two values at the same order are equal exactly when
their canonical vectors are proportional to the common denominator, and
cross-order equality lifts both sides to the lcm order first.

Multiplication packs coefficient vectors into single big integers (one
machine multiply replaces the whole convolution) and reduces with packed
rows of the power table; the test suite cross-checks it against a naive
convolution.  Slots are 16, 32 or 64 bits, or a multiple of 64.  Adding
a bias of 2^(w-1) per slot and XORing it back leaves every slot in two's
complement, so one `int.to_bytes` and one `struct` unpack of signed words
read them all (`_unpack`), and `_pack` is the same in reverse.
A rational (order 1) factor only scales the other numerator.
Inversion and descent walk the Galois tower by integer substitutions:
`_descend` reads the coordinates of a value in Q(zeta_(N/p)) off its power
basis, and `inverse` multiplies by the conjugates over each subfield in
turn until the relative norm is rational (Itoh-Tsujii).
Matrices have one coordinate format, the key (L, d, flat) of `_key`: flat
holds d * M row-major at the lcm order L of the entries, phi(L) integers
per entry, with gcd(d, *flat) = 1 and d > 0, so a key is canonical at each
L and hashable.  Coordinate t of every entry, row-major, is flat[t::phi];
the zeta_L^t, t < phi(L), are independent over Q, so a linear identity
over Q holds exactly when it holds on every such slice.  `_times(B)`
prepares B for the key -> key product `step`: a table of the packed
z^t * B_lj, t < phi(L), built once per order and slot width, so each
product row is one sum of integer multiples of table rows, already
reduced (the power-basis multiplication table; H. Cohen, A Course in
Computational Algebraic Number Theory, ch. 4).  `_key_trace` reads traces
off a key and `_unkey` gives CycNumbers back.  `_key_ints` is the one reader
of integer entries: character tables, Verlinde fusion and S^2 go through it.
Roots of unity are exponents: `_root_exponent` finds x = zeta_n^e by one
lookup in the power table, and `_rotate` writes zeta_N^q * x, with no
product, as a substitution with an offset: `_substitute` at z -> zeta_N^(N/n)
shifted by q.  With them `fusion.ModularData` checks (ST)^3 = S^2 on keys
in Q(zeta_B), the field of S: when every prime of R = L/B divides B,
Phi_L(z) = Phi_B(z^R) (Washington, Introduction to Cyclotomic Fields,
ch. 2), so zeta_L^0, ..., zeta_L^(R-1) are a basis of Q(zeta_L) over
Q(zeta_B), and the coordinates on it of a canonical vector at L are its
stride-R slices, as in `_descend` for p | d.
Real values are bounded with integers alone: `_real_enclosure` writes
den * x = sum_t c_t cos(2 pi t / N) and sums a fixed-point cosine table
(`_cos_table`: Machin's pi and Taylor series in integers, each entry
within 1 of 2^bits cos(2 pi t / N)) into integers lo <= 2^bits den x <= hi.
Only `real_embed` uses mpmath, an optional dependency (the `embed` extra),
and imports it on its first call.
Three idioms shared across the library live here, because `cyclo` is the one
module every other may import and it imports none of them: `_format_combo`
writes every signed sum of labelled terms (cyclotomic numbers, Laurent
polynomials, cokernel generators, virtual representations), `_power`
is the one square-and-multiply behind both `__pow__` methods, and every
immutable value of the library, `CycNumber` included, derives from
`_Frozen`, which refuses writes and deletes, fills slots (`_fill`), and
copies and pickles a value by calling its constructor again.  A subclass
lists its `__slots__` in constructor order, then the slots named in its
`_derived` tuple, which the constructor recomputes or a lazy read refills;
those are not carried.  `_fill` takes one value for every slot, derived
ones included, and refuses any other count; `CycNumber` fills its slots
through `_raw`'s slot setters instead, and derives its normal form `_norm`.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache, lru_cache, reduce
from itertools import chain, compress
from math import comb, gcd, lcm
from operator import mul

__all__ = [
    "CycNumber",
    "DivisionByZero",
    "cyc_arith",
    "cyc_conjugate",
    "real_embed",
    "zeta",
    "rational",
    "sqrt_int",
    "cos_frac",
    "sin_frac",
]


class DivisionByZero(ZeroDivisionError):
    """Division by a zero cyclotomic number."""


def _poly_divexact(num, den):
    """Quotient of integer polynomials (lists, low degree first); exact."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q[i] = c // den[-1]
        if q[i]:
            for j, d in enumerate(den):
                num[i + j] -= q[i] * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return q


@cache
def _cyclotomic_poly(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, low degree first; a
    tuple, so no caller can edit the memo."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = _cyclotomic_poly(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                if a:
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
            den = new
    return tuple(_poly_divexact(num, den))


def _real_cyclotomic_poly(d: int):
    """Minimal polynomial Psi_d of 2cos(2pi/d), d >= 3, low degree first:
    Phi_d(z) = z^r Psi_d(z + 1/z), r = phi(d)/2, peeled from the top down."""
    c = list(_cyclotomic_poly(d))
    r = len(c) // 2
    psi = [0] * (r + 1)
    for i in range(r, -1, -1):
        psi[i] = c[r + i]
        for t in range(i + 1):
            c[r + i - 2 * t] -= psi[i] * comb(i, t)
    return psi


class _CondData:
    """Per-order tables: phi, the power-basis reduction rows, packing caches,
    and the exponent of each row (`exponents`, built on first use)."""

    __slots__ = ("n", "phi", "rows", "row_max", "_packed", "_exponents")

    def __init__(self, n: int) -> None:
        self.n = n
        cyc_poly = _cyclotomic_poly(n)
        self.phi = len(cyc_poly) - 1
        # rows[i] = canonical vector of z^i, i = 0..n-1
        rows = []
        cur = [0] * self.phi
        if self.phi:
            cur[0] = 1
        for i in range(n):
            rows.append(tuple(cur))
            # multiply by z: shift, then reduce the overflow via the monic poly
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for j in range(self.phi):
                    cur[j] -= top * cyc_poly[j]
        self.rows = tuple(rows)
        self.row_max = max((max(abs(c) for c in r) if r else 0) for r in rows) or 1
        self._packed = {}
        self._exponents = None

    def exponents(self):
        """{rows[e]: e}: the canonical vectors of the powers of zeta_n."""
        if self._exponents is None:
            self._exponents = {row: e for e, row in enumerate(self.rows)}
        return self._exponents

    def packed_rows(self, width: int):
        try:
            return self._packed[width]
        except KeyError:
            packed = tuple(_pack(r, width) for r in self.rows)
            self._packed[width] = packed
            return packed


@cache
def _cond(n: int) -> _CondData:
    return _CondData(n)


def _pack(vec, width: int) -> int:
    """sum_j vec[j] 2^(j width).  Up to 64 bits the values are written as
    signed little-endian words by one `struct` pack, read by one `from_bytes`
    and XORed with `_bias`: the inverse of `_unpack`.  Wider slots, and a
    value that overflows its slot and carries into the next, take the loop."""
    try:
        raw = _words(len(vec), width).pack(*vec)
    except (KeyError, struct.error):
        out = 0
        for c in reversed(vec):
            out = (out << width) + c
        return out
    bias = _bias(len(vec), width)
    return (int.from_bytes(raw, "little") ^ bias) - bias


@lru_cache(maxsize=256)
def _bias(count: int, width: int) -> int:
    """2^(width-1) in each of `count` slots: it makes signed slots nonnegative."""
    return ((1 << count * width) - 1) // ((1 << width) - 1) << (width - 1)


# signed words of the standard `struct` sizes, by their width in bits
_WORD = {16: "h", 32: "i", 64: "q"}


@lru_cache(maxsize=256)
def _words(count: int, width: int) -> struct.Struct:
    """`count` signed little-endian words of `width` bits, a key of _WORD."""
    return struct.Struct("<%d%s" % (count, _WORD[width]))


def _unpack(n: int, count: int, width: int):
    """The `count` signed slots of a packed integer, low slot first.  Each
    slot of n + bias holds its value plus 2^(width-1), so XOR with the bias
    leaves it in two's complement: one `to_bytes` and one `struct` unpack
    read every slot up to 64 bits, one signed `from_bytes` per slot beyond.
    Raises OverflowError if n does not fit."""
    bias, size = _bias(count, width), width >> 3
    raw = ((n + bias) ^ bias).to_bytes(count * size, "little")
    if width in _WORD:
        return list(_words(count, width).unpack(raw))
    cuts = range(0, len(raw), size)
    return [int.from_bytes(raw[i : i + size], "little", signed=True) for i in cuts]


def _width(bound: int) -> int:
    """Slot width in bits that holds signed values up to `bound`, with four
    bits to spare: 16, 32 or 64 when that fits, else a multiple of 64."""
    bits = bound.bit_length() + 4
    if bits > 64:
        return (bits + 63) // 64 * 64
    return 16 if bits <= 16 else 32 if bits <= 32 else 64


def _fold(prod: int, width: int, cond: _CondData):
    """Canonical vector of a packed convolution of two length-phi vectors.
    The biased low phi slots are a plain bit field, so one shift splits off
    the phi - 1 high slots; only those (when nonzero) are unpacked and folded
    down with packed rows of the power table."""
    phi, n = cond.phi, cond.n
    if phi == 1:
        return [prod]
    shift = phi * width
    high = (prod + _bias(phi, width)) >> shift
    if not high:
        return _unpack(prod, phi, width)
    acc = prod - (high << shift)
    packed = cond.packed_rows(width)
    for e, c in enumerate(_unpack(high, phi - 1, width), phi):
        if c:
            acc += c * packed[e % n]
    return _unpack(acc, phi, width)


def _substitute(vec, k: int, cond: _CondData, q: int = 0):
    """Canonical vector of the sum of vec[i] * z^(q + i*k), z = zeta_{cond.n}.
    An exponent e < phi has the unit row: its coefficient goes to out[e]."""
    phi, n, rows = cond.phi, cond.n, cond.rows
    out = [0] * phi
    for i, c in enumerate(vec):
        if c:
            e = (q + i * k) % n
            if e < phi:
                out[e] += c
            else:
                out = [o + c * r for o, r in zip(out, rows[e])]
    return out


def _mul_int_vecs(a, b, cond: _CondData):
    """Product of two canonical integer vectors, canonically reduced.

    Packs both vectors into big integers so the convolution is one integer
    multiply, then folds the high part down with packed reduction rows.
    """
    phi = cond.phi
    ma = max(max(a), -min(a)) or 1
    mb = max(max(b), -min(b)) or 1
    width = _width(phi * ma * mb * (1 + phi * cond.row_max))
    return _fold(_pack(a, width) * _pack(b, width), width, cond)


def _descend(n: int, p: int, vec):
    """Coordinates at order d = n / p of the canonical vector `vec` at
    order n, or None when its value does not lie in Q(zeta_d)."""
    d = n // p
    if d % p == 0:
        # Phi_n(z) = Phi_d(z^p): the subfield is the span of the z^(p*i)
        if any(c for e, c in enumerate(vec) if e % p):
            return None
        return list(vec[::p])
    # zeta_n = zeta_d^a * zeta_p^b; over Q(zeta_d), Q(zeta_n) has the basis
    # zeta_p^j, j < p - 1, and zeta_p^(p-1) = -(1 + zeta_p + ... + zeta_p^(p-2))
    a, b = pow(p, -1, d), pow(d, -1, p)
    buckets = [[0] * d for _ in range(p)]
    for e, c in enumerate(vec):
        if c:
            buckets[b * e % p][a * e % d] += c
    last, cond = buckets.pop(), _cond(d)
    coords = [_substitute([x - y for x, y in zip(bk, last)], 1, cond) for bk in buckets]
    return None if any(map(any, coords[1:])) else coords[0]


class _Frozen:
    """An immutable value: its constructor slots rebuild it (see the module docstring)."""

    __slots__ = ()
    _derived = ()

    def __setattr__(self, *_):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def _fill(self, *values) -> None:
        for name, value in zip(type(self).__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        slots = type(self).__slots__
        return type(self), tuple(getattr(self, s) for s in slots if s not in self._derived)


class CycNumber(_Frozen):
    """An exact element of Q(zeta_N).

    >>> (zeta(4) * zeta(4)).normalized().render()
    '-1'
    >>> (zeta(3) + zeta(3) ** 2).normalized().render()
    '-1'
    """

    __slots__ = ("order", "num", "den", "_norm")
    _derived = ("_norm",)

    def __init__(self, order: int, coeffs, den: int = 1) -> None:
        if order < 1:
            raise ValueError("order must be positive")
        cond = _cond(order)
        coeffs = list(coeffs)
        if len(coeffs) > order:
            raise ValueError("coefficient vector longer than order")
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError("coefficients must be int or Fraction")
        scale = lcm(*(c.denominator for c in coeffs))
        num = [int(c * scale) for c in coeffs]
        _raw(order, _substitute(num, 1, cond), den * scale, self)

    # -- fundamentals ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational: %s" % self.render())
        return Fraction(self.num[0] if self.num else 0, self.den)

    def as_int(self) -> int:
        f = self.as_fraction()
        if f.denominator != 1:
            raise ValueError("not an integer: %s" % f)
        return f.numerator

    def _lift(self, order: int) -> "CycNumber":
        """Rewrite at a multiple of the current order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only lift to a multiple of the order")
        return _raw(order, _substitute(self.num, order // self.order, _cond(order)), self.den)

    @staticmethod
    def _common(a: "CycNumber", b: "CycNumber"):
        if a.order == b.order:
            return a, b
        L = a.order * b.order // gcd(a.order, b.order)
        return a._lift(L), b._lift(L)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        a, b = CycNumber._common(self, other)
        da, db = a.den, b.den
        g = gcd(da, db)
        la, lb = db // g, da // g
        num = [x * la + y * lb for x, y in zip(a.num, b.num)]
        return _raw(a.order, num, da * la)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.order == 1 or other.order == 1:
            # a rational factor scales the other numerator: no lift, no fold
            q, b = (self, other) if self.order == 1 else (other, self)
            return _raw(b.order, [q.num[0] * c for c in b.num], q.den * b.den)
        a, b = CycNumber._common(self, other)
        num = _mul_int_vecs(list(a.num), list(b.num), _cond(a.order))
        return _raw(a.order, num, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # x * cof, cof the product of x's conjugates over Q(zeta_d), is the
        # relative norm of x in Q(zeta_d); descending until the norm is
        # rational, 1/x is the product of the cofactors over that rational
        n, vec, tower = self.order, list(self.num), []
        while any(vec[1:]):
            p = _prime_factors(n)[0]
            d = n // p
            cond = _cond(n)
            conj = [_substitute(vec, j, cond) for j in range(1 + d, n, d) if gcd(j, n) == 1]
            if conj:
                cof = reduce(lambda u, v: _mul_int_vecs(u, v, cond), conj)
                tower.append((n, cof))
                vec = _mul_int_vecs(vec, cof, cond)
            vec = _descend(n, p, vec)
            if vec is None:
                raise ArithmeticError("relative norm did not descend to order %d" % d)
            n = d
        m, acc = 1, [self.den]
        for k, cof in reversed(tower):
            cond = _cond(k)
            acc, m = _mul_int_vecs(_substitute(acc, k // m, cond), cof, cond), k
        return _raw(self.order, _substitute(acc, self.order // m, _cond(self.order)), vec[0])

    def __truediv__(self, other):
        other = _coerce(other)
        if other.is_rational():
            f = other.as_fraction()
            if f == 0:
                raise DivisionByZero("division by zero")
            return _raw(
                self.order,
                [c * f.denominator for c in self.num],
                self.den * f.numerator,
            )
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        # from the rational one, so the first product takes __mul__'s order-1 path
        return _power(self, k, rational(1)) if k else rational(1, self.order)

    # -- Galois ------------------------------------------------------------------

    def galois(self, j: int) -> "CycNumber":
        """Apply zeta -> zeta^j (requires gcd(j, order) = 1)."""
        n = self.order
        if gcd(j % n, n) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        return _raw(n, _substitute(self.num, j, _cond(n)), self.den)

    def conjugate(self) -> "CycNumber":
        if self.order == 1:
            return self
        return self.galois(self.order - 1)

    # -- equality and normal form ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        if self is other:
            return True
        if self._norm is self and other._norm is other and self.order != other.order:
            return False  # normal forms at different orders: different values
        a, b = CycNumber._common(self, other)
        return a.den == b.den and a.num == b.num

    def __hash__(self):
        # rational values compare equal to ints and Fractions: hash like them
        n = self.normalized()
        if n.order == 1:
            return hash(Fraction(n.num[0], n.den))
        return hash((n.order, n.num, n.den))

    def normalized(self) -> "CycNumber":
        """The same value written at its minimal cyclotomic order."""
        cached = self._norm
        if cached is not None:
            return cached
        if self.is_rational():
            cur = _raw(1, [self.num[0] if self.num else 0], self.den)
        else:
            # a prime that fails once fails at every divisor of the order
            n, vec = self.order, self.num
            for p in _prime_factors(n):
                while n % p == 0:
                    sub = _descend(n, p, vec)
                    if sub is None:
                        break
                    n, vec = n // p, sub
            cur = self if n == self.order else _raw(n, vec, self.den)
        _SET_NORM(self, cur)
        _SET_NORM(cur, cur)
        return cur

    # -- output -----------------------------------------------------------------

    def render(self) -> str:
        """Text form like '1/2 + 3*z(8)^1 - z(8)^3' on the minimal order."""
        v = self.normalized()
        labels = [None] + ["z(%d)^%d" % (v.order, i) for i in range(1, len(v.num))]
        return _format_combo([Fraction(c, v.den) for c in v.num], labels)

    def __repr__(self):
        return "CycNumber(%s)" % self.render()

    def coeff_vector(self):
        """Length-`order` rational canonical vector (spec shape)."""
        out = [Fraction(c, self.den) for c in self.num]
        return out + [Fraction(0)] * (self.order - len(out))


def _raw(order: int, num_list, den: int, r=None) -> CycNumber:
    """Internal constructor for already-reduced integer vectors; fills in
    `r` when given (the end of `CycNumber.__init__`)."""
    if r is None:
        r = CycNumber.__new__(CycNumber)
    if den < 0:
        den = -den
        num_list = [-c for c in num_list]
    g = 1 if den == 1 else gcd(den, *num_list)
    if g > 1:
        den //= g
        num_list = [c // g for c in num_list]
    _SET_ORDER(r, order)
    _SET_NUM(r, tuple(num_list))
    _SET_DEN(r, den)
    _SET_NORM(r, None)
    return r


# the slot setters, past the __setattr__ of _Frozen
_SET_ORDER, _SET_NUM, _SET_DEN, _SET_NORM = (
    vars(CycNumber)[a].__set__ for a in CycNumber.__slots__
)


def _prime_factors(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _power(base, k: int, one):
    """base ** k for k >= 0 by square-and-multiply, starting from `one`."""
    while k:
        if k & 1:
            one = one * base
        k >>= 1
        if k:  # a square past the top bit would go unused
            base = base * base
    return one


def _format_combo(coeffs, labels) -> str:
    """Render a combination of labelled terms, zero coefficients skipped and
    signs between the terms; a None label marks the constant term, written
    as its magnitude alone.

    >>> _format_combo([1, -1, 2], ["x", "y", "z"])
    'x - y + 2*z'
    >>> _format_combo([0, 0], ["a", "b"])
    '0'
    >>> _format_combo([Fraction(-1, 2), 0, Fraction(3, 4)], [None, "z(8)^1", "z(8)^3"])
    '-1/2 + 3/4*z(8)^3'
    """
    parts = []
    for c, lab in zip(coeffs, labels):
        if c:
            mag = abs(c)
            term = str(mag) if lab is None else lab if mag == 1 else "%s*%s" % (mag, lab)
            sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
            parts.append(sign + term)
    return " ".join(parts) or "0"


def _coerce(x) -> CycNumber:
    if isinstance(x, CycNumber):
        return x
    if isinstance(x, int):
        return _raw(1, [x], 1)
    if isinstance(x, Fraction):
        return _raw(1, [x.numerator], x.denominator)
    raise TypeError("cannot coerce %r to CycNumber" % (x,))


# -- public constructors -------------------------------------------------------


def zeta(n: int, k: int = 1) -> CycNumber:
    """The root of unity zeta_n^k."""
    if n < 1:
        raise ValueError("order must be positive")
    cond = _cond(n)
    return _raw(n, list(cond.rows[k % n]), 1)


def rational(q, order: int = 1) -> CycNumber:
    q = Fraction(q)
    r = _raw(1, [q.numerator], q.denominator)
    return r._lift(order) if order > 1 else r


def sqrt_int(m: int) -> CycNumber:
    """Exact square root of a nonnegative integer as a cyclotomic number.

    Uses quadratic Gauss sums: for odd squarefree q, sum_r zeta_q^(r^2)
    equals sqrt(q) for q = 1 mod 4 and i*sqrt(q) for q = 3 mod 4.

    >>> (sqrt_int(2) * sqrt_int(2)).as_int()
    2
    >>> (sqrt_int(12) * sqrt_int(12)).as_int()
    12
    """
    if m < 0:
        raise ValueError("nonnegative integers only")
    if m == 0:
        return rational(0)
    s, q = 1, m
    for p in _prime_factors(m):
        while q % (p * p) == 0:
            q //= p * p
            s *= p
    out = rational(s)
    if q % 2 == 0:
        out = out * (zeta(8) - zeta(8, 3))
        q //= 2
    if q > 1:
        g = sum((zeta(q, (r * r) % q) for r in range(1, q)), zeta(q, 0))
        if q % 4 == 1:
            out = out * g
        else:
            out = out * g * (-zeta(4))
    return out


def cos_frac(num: int, den: int) -> CycNumber:
    """cos(2*pi*num/den), exactly."""
    return (zeta(den, num) + zeta(den, -num % den)) / 2


def sin_frac(num: int, den: int) -> CycNumber:
    """sin(2*pi*num/den), exactly."""
    n = 2 * den if den % 2 else den
    k = 2 * num if den % 2 else num
    return (zeta(n, k) - zeta(n, -k % n)) * zeta(4, 3) / 2


def _root_exponent(x):
    """(n, e) with x = zeta_n^e, or None when x is not a root of unity.

    n is the order of x.normalized(), which is never 2 mod 4; when it is
    odd and x = -zeta_n^e', n is doubled.  Each is one lookup in the power
    table of the normalized order.
    """
    x = _coerce(x).normalized()
    if x.den != 1:
        return None
    n, table = x.order, _cond(x.order).exponents()
    if x.num in table:
        return n, table[x.num]
    neg = tuple(-c for c in x.num)
    if n % 2 and neg in table:  # -zeta_n^e = zeta_2n^(2e + n)
        return 2 * n, (2 * table[neg] + n) % (2 * n)
    return None


def _rotate(vec, q: int, n: int, N: int):
    """Canonical vector at order N of zeta_N^q * x, for x with the canonical
    vector `vec` at an order n dividing N: the substitution z -> zeta_N^(N/n)
    with the offset q, sum_i vec[i] zeta_N^(q + i N/n)."""
    if N % n:
        raise ValueError("can only rotate at a multiple of the order")
    return _substitute(vec, N // n, _cond(N), q)


def _key(M, order: int = 1):
    """(L, d, flat) for a matrix M of CycNumbers at L, the lcm of `order` and
    the entry orders: flat holds d * M row-major, gcd(d, *flat) = 1.  Modular
    data share entry objects (S = S^t, repeated sines), so each distinct
    object is lifted and scaled once."""
    M = [[_coerce(e) for e in row] for row in M]
    cells = {id(e): e for row in M for e in row}
    L = lcm(order, *(e.order for e in cells.values()))
    cells = {k: e._lift(L) for k, e in cells.items()}
    d = lcm(*(e.den for e in cells.values()))
    nums = {k: e.num if e.den == d else [c * (d // e.den) for c in e.num] for k, e in cells.items()}
    return L, d, tuple(chain.from_iterable(nums[id(e)] for row in M for e in row))


def _unkey(key, cols: int):
    """The matrix of a key, as rows of `cols` CycNumbers."""
    L, d, flat = key
    phi = _cond(L).phi
    ents = [_raw(L, flat[i : i + phi], d) for i in range(0, len(flat), phi)]
    return tuple(tuple(ents[i : i + cols]) for i in range(0, len(ents), cols))


def _rotations(vec, width: int, cond: _CondData):
    """Biased little-endian bytes of z^t * v packed at `width`, t < phi, for
    the canonical vector v: each is the one before shifted up a slot, its top
    slot c folded back as c times the packed row of z^phi."""
    phi, size = cond.phi, width >> 3
    top_shift, bias = (phi - 1) * width, _bias(phi, width)
    half, wrap = 1 << (width - 1), cond.packed_rows(width)[phi % cond.n]
    x, out = _pack(vec, width), []
    while True:
        biased = x + bias
        out.append(biased.to_bytes(phi * size, "little"))
        if len(out) == phi:
            return out
        top = (biased >> top_shift) - half
        x = ((x - (top << top_shift)) << width) + top * wrap


def _key_trace(key, dim: int) -> CycNumber:
    """The trace of the dim x dim matrix of a key: its diagonal coordinates
    summed at the key's order, over its denominator."""
    L, d, flat = key
    phi = _cond(L).phi
    return _raw(L, [sum(flat[t :: (dim + 1) * phi]) for t in range(phi)], d)


def _key_ints(key, scale: int = 1):
    """The entries of a key over `scale`, row-major, as integers.  The first
    entry that is not rational or not an integer multiple of `scale` raises a
    ValueError; its `index` is the entry's row-major position and its `value`
    the entry over `scale` as a Fraction, None when it is not rational."""
    L, d, flat = key
    phi, scale = _cond(L).phi, scale * d
    ints = flat[::phi]
    if any(map(any, (flat[t::phi] for t in range(1, phi)))) or any(c % scale for c in ints):
        for i, c in enumerate(ints):
            q = None if any(flat[i * phi + 1 : (i + 1) * phi]) else Fraction(c, scale)
            if q is None or q.denominator != 1:
                err = ValueError("not rational" if q is None else "not an integer: %s" % q)
                err.index, err.value = i, q
                raise err
    return [c // scale for c in ints]


def _times(B):
    """M -> M * B for a matrix of CycNumbers B (m x p), given as rows; its
    `step` is the product on keys.  At each lcm order L and slot width, B is
    tabulated once: row l * phi + t of the table packs z^t * B_lj, j < p,
    side by side.  Row i of a product is one sum of the m * phi coordinates
    of row i of the left key times the table rows, already reduced; the rows
    are shifted into one integer, so a product is unpacked once.  Every
    coefficient of z^t * v is at most sum |v_i| * row_max, so the slots hold
    m * phi * max|a| * max_lj(sum |B_lj|) * row_max.  One gcd reduces the
    key, skipped when the denominator is 1."""
    m, p = len(B), len(B[0]) if B else 0
    if any(len(row) != p for row in B):
        raise ValueError("matrix shapes do not match for a product")
    kB, cache = _key(B), {}

    def step(key):
        n, d, fa = key
        L = lcm(n, kB[0])
        cond = _cond(L)
        phi = cond.phi
        if L not in cache:
            _, dB, fb = kB if L == kB[0] else _key(B, L)
            vecs = [fb[i : i + phi] for i in range(0, len(fb), phi)]
            mb = max((sum(map(abs, v)) for v in vecs), default=0) * cond.row_max or 1
            cache[L] = dB, vecs, mb, {}
        dB, vecs, mb, tables = cache[L]
        if n != L:  # lift a key of lower order
            f, k = _cond(n).phi, L // n
            fa = [c for i in range(0, len(fa), f) for c in _substitute(fa[i : i + f], k, cond)]
        row = m * phi
        width = _width(row * (max(max(fa, default=0), -min(fa, default=0)) or 1) * mb)
        if width not in tables:
            rots = {v: _rotations(v, width, cond) for v in set(vecs)}
            bias = _bias(p * phi, width)
            tables[width] = [
                int.from_bytes(b"".join(col), "little") - bias
                for i in range(0, m * p, p or 1)
                for col in zip(*[rots[v] for v in vecs[i : i + p]])
            ]
        table, size, total = tables[width], p * phi * width, 0
        starts = range(0, len(fa), row or 1)
        for i in reversed(starts):  # the product rows side by side, for one unpack
            coords = fa[i : i + row]  # zero coordinates are skipped
            row_i = sum(map(mul, compress(coords, coords), compress(table, coords)))
            total = (total << size) + row_i
        out = _unpack(total, len(starts) * p * phi, width)
        d *= dB
        g = gcd(d, *out) if d > 1 else 1
        if g > 1:
            d, out = d // g, [c // g for c in out]
        return L, d, tuple(out)

    def times(A):
        if any(len(row) != m for row in A):
            raise ValueError("matrix shapes do not match for a product")
        return _unkey(step(_key(A, kB[0])), p) if p else ((),) * len(A)

    times.step = step
    return times


# -- spec operation wrappers -----------------------------------------------------


def cyc_arith(a: CycNumber, b: CycNumber, op: str) -> CycNumber:
    """Field arithmetic dispatch: op in {add, sub, mul, div}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError("unknown op %r" % op)


def cyc_conjugate(a: CycNumber) -> CycNumber:
    return a.conjugate()


# -- real values without floating point ---------------------------------------


def _pi_fixed(p: int) -> int:
    """An integer within 10p + 40 of 2^p * pi, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239).

    Term k of atan(1/m) = sum_k (-1)^k / ((2k + 1) m^(2k+1)) is taken as
    floor(2^p / ((2k + 1) m^(2k+1))): nested floors of positive integers
    compose, so `power // (2k + 1)` is that floor and errs by less than 1.
    The loop keeps the terms with m^(2k+1) <= 2^p, at most p/2 + 1 of them,
    and the alternating tail is below its first term, which is below 1.  So
    each arctangent errs by less than p/2 + 2, and pi by less than
    16(p/2 + 2) + 4(p/2 + 2).
    """

    def atan_inv(m):
        total, power, k = 0, (1 << p) // m, 0
        while power:
            term = power // (2 * k + 1)
            total += -term if k % 2 else term
            power //= m * m
            k += 1
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


@lru_cache(maxsize=64)
def _cos_table(n: int, bits: int):
    """Integers T_t with |T_t - 2^bits cos(2 pi t / n)| < 1, t = 0..n-1.

    Each entry is computed at p = bits + g bits, g = bitlen(bits) + 8, and
    rounded.  With 8t = qn + r, the angle 2 pi t / n is a multiple of pi/2
    plus or minus phi = (pi/4) s/n, s = r or n - r, so phi lies in
    [0, pi/4] and cos is +-cos phi or +-sin phi.  The fixed-point angle
    a = floor(pi_p * s / 4n) errs from 2^p phi by less than
    (10p + 40)/4 + 1 (`_pi_fixed`), so a' = a / 2^p < 1, and since cos and
    sin are 1-Lipschitz that costs less than 2.5p + 11 units.  The Taylor
    terms u_j = floor(u_(j-1) a / (j 2^p)) of 2^p a'^j / j! err by
    e_j <= e_(j-1) a'/j + 1 < 2 (e_0 = e_1 = 0); they stop at the first
    u_J = 0, J <= p, where the exact term is below e_J < 2 and the exact
    tail, with ratios below 1/2, is below it again.  So the series errs
    by less than 2J + 4 <= 2p + 4, and the sum by less than 4.5p + 15,
    which is below 2^(g-2) for every bits >= 1; the final rounding adds
    at most 1/2 unit at `bits`.  t = 0, n/4 and n/2 come out exact.
    """
    g = bits.bit_length() + 8
    p = bits + g
    pi = _pi_fixed(p)
    half = []
    for t in range(n // 2 + 1):
        q, r = divmod(8 * t, n)
        if q % 2:  # 2 pi t / n = m pi/2 - phi
            m, s, sign = (q + 1) // 2, n - r, -1
        else:  # 2 pi t / n = m pi/2 + phi
            m, s, sign = q // 2, r, 1
        a = pi * s // (4 * n)
        cos_phi = sin_phi = 0
        u, j = 1 << p, 0
        while u:
            if j % 2:
                sin_phi += -u if j % 4 == 3 else u
            else:
                cos_phi += -u if j % 4 == 2 else u
            j += 1
            u = u * a // (j << p)
        v = (cos_phi, -sign * sin_phi, -cos_phi, sign * sin_phi)[m % 4]
        half.append((v + (1 << (g - 1))) >> g)
    return tuple(half[min(t, n - t)] for t in range(n))


def _real_enclosure(x: CycNumber, bits: int):
    """Integers lo <= 2^bits * x.den * x <= hi for a real x, hi - lo = 2E.

    A real x equals its real part, so x.den * x = sum_t c_t cos(2 pi t / n)
    over its numerator c at order n; each `_cos_table` entry errs by less
    than 1, so the sum errs by less than E = sum_t |c_t|.
    """
    mid = sum(c * cos for c, cos in zip(x.num, _cos_table(x.order, bits)))
    err = sum(map(abs, x.num))
    return mid - err, mid + err


def real_embed(a: CycNumber):
    """High-precision complex embedding zeta_N -> exp(2*pi*i/N), an mpmath mpc.

    The working precision scales with the coefficient sizes so the stated
    error bound (1e-30 relative to the coefficient magnitude) always holds;
    a caller's higher `mpmath.mp.dps` is kept.
    mpmath loads on the first call, not when verlkit is imported; no
    library decision reads this value (`_real_enclosure` gives certified
    integer bounds instead).
    """
    try:
        import mpmath
    except ImportError as err:
        raise ImportError("real_embed needs mpmath: install verlkit[embed]") from err

    size = max((abs(c) for c in a.num), default=0) + a.den
    extra = len(str(size))
    with mpmath.workdps(max(mpmath.mp.dps, 45 + extra + len(a.num) // 4)):
        total = mpmath.mpc(0)
        n = a.order
        for i, c in enumerate(a.num):
            if c:
                total += mpmath.mpc(c) * mpmath.expjpi(mpmath.mpf(2 * i) / n)
        out = total / a.den
    return out
