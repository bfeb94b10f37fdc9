"""Tests for exact cyclotomic arithmetic.

Hand-derived expectations used below:

* (1 + z8)(1 + z8^7) = 1 + z8 + z8^7 + z8^8 = 2 + z8 + z8^7, since z8^8 = 1.
* conj(z8 + z8^3) = z8^-1 + z8^-3 = z8^7 + z8^5.
* 2*cos(pi/6) = sqrt(3) and cos(pi/6) = cos(2*pi/12).
* zeta_6 = -zeta_3^2 (multiply by zeta_3^3 = 1... directly: e^(i*pi/3) =
  -e^(i*pi/3 + i*pi) = -e^(4*pi*i/3) = -zeta_3^2), so the minimal order of
  zeta_6 is 3.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from verlkit.cyclo import (
    CycNumber,
    DivisionByZero,
    _cond,
    _cos_table,
    _cyclotomic_poly,
    _fold,
    _key,
    _key_ints,
    _mul_int_vecs,
    _pack,
    _poly_divexact,
    _prime_factors,
    _real_cyclotomic_poly,
    _real_enclosure,
    _root_exponent,
    _rotate,
    _substitute,
    _times,
    _unkey,
    _unpack,
    _width,
    cos_frac,
    cyc_arith,
    cyc_conjugate,
    rational,
    real_embed,
    sin_frac,
    sqrt_int,
    zeta,
)
from verlkit.fusion import su2_modular_data

ORDERS = [1, 3, 4, 5, 8, 12]


def small_cyc(order):
    return st.lists(
        st.integers(min_value=-9, max_value=9), min_size=1, max_size=order
    ).map(lambda cs: CycNumber(order, cs))


any_cyc = st.sampled_from(ORDERS).flatmap(small_cyc)


def test_product_of_eighth_roots():
    a = rational(1) + zeta(8)
    b = rational(1) + zeta(8, 7)
    assert a * b == rational(2) + zeta(8) + zeta(8, 7)


def test_conjugate_moves_exponents():
    a = zeta(8) + zeta(8, 3)
    assert cyc_conjugate(a) == zeta(8, 7) + zeta(8, 5)


def test_two_cos_is_sqrt_three():
    assert 2 * cos_frac(1, 12) == sqrt_int(3)


def test_real_cyclotomic_poly_is_the_minimal_polynomial_of_two_cos():
    # monic of degree phi(d)/2 with 2cos(2pi/d) as a root, which has that
    # degree over Q: so it is the minimal polynomial
    for d in range(3, 61):
        psi = _real_cyclotomic_poly(d)
        x = 2 * cos_frac(1, d)
        value = rational(0)
        for c in reversed(psi):
            value = value * x + c
        assert value.is_zero(), d
        assert psi[-1] == 1 and 2 * (len(psi) - 1) == _cond(d).phi


def test_zeta_six_normalizes_to_order_three():
    n = zeta(6).normalized()
    assert n.order == 3
    assert n == zeta(6)


def test_rational_fast_paths():
    x = rational(Fraction(3, 4), order=8)
    assert x.is_rational()
    assert x.as_fraction() == Fraction(3, 4)
    assert x.normalized().order == 1


def test_render_forms():
    assert rational(Fraction(1, 2)).render() == "1/2"
    assert zeta(8).render() == "z(8)^1"
    assert (rational(2) + zeta(8) - 3 * zeta(8, 3)).render() == "2 + z(8)^1 - 3*z(8)^3"
    assert rational(0).render() == "0"


def _reference_render(x):
    """The per-term loop that `CycNumber.render` ran before `_format_combo`."""
    v = x.normalized()
    terms = []
    for i, c in enumerate(v.num):
        if c == 0:
            continue
        f = Fraction(c, v.den)
        mag = abs(f)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else "%s*" % mag
            body = "%sz(%d)^%d" % (head, v.order, i)
        if not terms:
            terms.append(body if f > 0 else "-" + body)
        else:
            terms.append(("+ " if f > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


def _random_cyc(rng):
    """Zero, a constant or a sparse value at an order up to 30, with int and
    Fraction coefficients of either sign and a denominator up to 5."""
    n = rng.randint(1, 30)
    coeffs = [0] * n
    for _ in range(rng.choice([0, 1, 2, rng.randint(1, n)])):
        coeffs[rng.randrange(n)] = rng.choice(
            [1, -1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 7))]
        )
    return CycNumber(n, coeffs, rng.randint(1, 5))


def test_render_matches_the_per_term_loop_it_replaced():
    rng = random.Random(30)
    values = [_random_cyc(rng) for _ in range(400)]
    for x in values:
        assert x.render() == _reference_render(x)
        assert repr(x) == "CycNumber(%s)" % _reference_render(x)
    texts = [x.render() for x in values]
    assert "0" in texts  # zero
    assert any(x.is_rational() and not x.is_zero() for x in values)  # nonzero constants
    assert any(t.startswith("-") for t in texts)  # a negative leading term
    assert any("/" in t and "*z(" in t for t in texts)  # a Fraction coefficient


def test_powers_match_repeated_products():
    rng = random.Random(31)
    for _ in range(60):
        x = _random_cyc(rng)
        product = rational(1, x.order)
        for k in range(10):
            p = x**k
            assert (p.order, p.num, p.den) == (product.order, product.num, product.den)
            product = product * x
        assert (x**0).order == x.order


def test_division_by_zero_raises():
    try:
        cyc_arith(zeta(4), rational(0), "div")
    except DivisionByZero:
        pass
    else:
        raise AssertionError("expected DivisionByZero")


def test_sqrt_int_small_values():
    with mpmath.workdps(50):
        for m in range(0, 40):
            r = sqrt_int(m)
            assert (r * r).as_int() == m
            approx = real_embed(r)
            assert abs(approx - mpmath.sqrt(m)) < mpmath.mpf("1e-28")


def test_real_embed_precision():
    with mpmath.workdps(50):
        delta = real_embed(sqrt_int(2)) - mpmath.sqrt(2)
        assert abs(delta) < mpmath.mpf("1e-30")


def test_real_embed_keeps_a_higher_caller_precision():
    with mpmath.workdps(200):
        delta = real_embed(sqrt_int(2)) - mpmath.sqrt(2)
        assert abs(delta) < mpmath.mpf("1e-190")


def test_real_enclosure_contains_the_embedding():
    # x = a + conj(a) is real.  Its embedding is summed here at 120 digits,
    # fine enough for an enclosure of width 2 sum |c_t| units of 2^-256.
    rng = random.Random(14)
    for n in range(1, 241):
        a = CycNumber(n, [rng.randint(-10**6, 10**6) for _ in range(n)], rng.randint(1, 50))
        x = a + a.conjugate()
        with mpmath.workdps(120):
            total = sum(c * mpmath.cospi(mpmath.mpf(2 * t) / n) for t, c in enumerate(x.num))
            for bits in (64, 256):
                lo, hi = _real_enclosure(x, bits)
                assert lo <= total * 2**bits <= hi, (n, bits)


@pytest.mark.parametrize("bits", [64, 256])
def test_cos_table_is_exact_at_the_quarter_points(bits):
    # the stated entry error is below 1, so these integer entries are exact
    for n in range(1, 241):
        table = _cos_table(n, bits)
        assert len(table) == n
        assert abs(table[0] - 2**bits) < 1
        if n % 4 == 0:
            assert abs(table[n // 4]) < 1
        if n % 2 == 0:
            assert abs(table[n // 2] + 2**bits) < 1


def test_sin_cos_pythagoras():
    for num, den in [(1, 12), (1, 8), (2, 7), (3, 20)]:
        c, s = cos_frac(num, den), sin_frac(num, den)
        assert c * c + s * s == rational(1)


def test_powers_and_inverse():
    z = zeta(5)
    assert z**5 == rational(1)
    assert z**-2 == zeta(5, 3)
    assert (zeta(7) + rational(2)).inverse() * (zeta(7) + rational(2)) == rational(1)


@given(any_cyc, any_cyc, any_cyc)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(any_cyc)
@settings(max_examples=40, deadline=None)
def test_field_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == rational(1)


@given(any_cyc, any_cyc)
@settings(max_examples=40, deadline=None)
def test_conjugation_is_involution(a, b):
    assert cyc_conjugate(cyc_conjugate(a)) == a
    assert cyc_conjugate(a * b) == cyc_conjugate(a) * cyc_conjugate(b)
    assert cyc_conjugate(a + b) == cyc_conjugate(a) + cyc_conjugate(b)


@given(any_cyc)
@settings(max_examples=40, deadline=None)
def test_norm_is_nonnegative_real(a):
    n = a * cyc_conjugate(a)
    assert n == cyc_conjugate(n)
    approx = real_embed(n)
    assert abs(mpmath.im(approx)) < mpmath.mpf("1e-25")
    assert mpmath.re(approx) > -mpmath.mpf("1e-25")


@given(any_cyc)
@settings(max_examples=40, deadline=None)
def test_normalized_preserves_value(a):
    n = a.normalized()
    assert n == a
    assert a.order % n.order == 0
    assert n.normalized().order == n.order


# orders with odd prime squares, two or three odd primes, and 2^3 * 17
TOWER_ORDERS = [9, 15, 18, 20, 21, 27, 30, 45, 105, 136]


@st.composite
def lifted_cyc(draw):
    """(x, N): x built at a random divisor of N, with N in TOWER_ORDERS."""
    n = draw(st.sampled_from(TOWER_ORDERS))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    coeffs = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12))
    return CycNumber(d, coeffs[:d], draw(st.integers(min_value=1, max_value=6))), n


@given(lifted_cyc())
@settings(max_examples=80, deadline=None)
def test_lifted_values_descend_to_one_minimal_order(case):
    x, n = case
    y = x._lift(n)
    a, b = x.normalized(), y.normalized()
    assert (a.order, a.num, a.den) == (b.order, b.num, b.den)
    assert hash(x) == hash(y)
    m = b.order
    assert m % 4 != 2 and n % m == 0 and b == y
    # minimality: for each prime p | m, the value is not fixed by the
    # Galois group of Q(zeta_m) over Q(zeta_(m/p)), the j = 1 mod m/p
    for p in (p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))):
        step = m // p
        assert any(b.galois(j) != b for j in range(1 + step, m, step) if gcd(j, m) == 1), p
    if not x.is_zero():
        assert x * x.inverse() == 1
        assert y * y.inverse() == 1


def test_inverse_raises_when_a_norm_does_not_descend(monkeypatch):
    from verlkit import cyclo

    monkeypatch.setattr(cyclo, "_descend", lambda n, p, vec: None)
    with pytest.raises(ArithmeticError, match="did not descend"):
        (zeta(5) + 2).inverse()


def _mul_reference(a, b, cond):
    """Naive convolution + reduction; oracle for `_mul_int_vecs`."""
    phi = cond.phi
    conv = [0] * (2 * phi - 1 if phi else 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return _substitute(conv, 1, cond)


@given(
    st.sampled_from([3, 4, 8, 9, 12]),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_packed_multiply_matches_reference(order, xs, ys):
    cond = _cond(order)
    a = list(xs[: cond.phi]) + [0] * max(0, cond.phi - len(xs))
    b = list(ys[: cond.phi]) + [0] * max(0, cond.phi - len(ys))
    assert _mul_int_vecs(a, b, cond) == _mul_reference(a, b, cond)


@given(any_cyc)
@settings(max_examples=30, deadline=None)
def test_galois_orbit_multiplicative(a):
    n = a.order
    for j in range(1, n + 1):
        from math import gcd

        if gcd(j, n) == 1:
            assert a.galois(j) * a.galois(j) == (a * a).galois(j)


def test_cross_order_equality():
    assert zeta(4) == zeta(8, 2)
    assert zeta(3) + zeta(3, 2) == rational(-1)
    assert hash(zeta(4)) == hash(zeta(8, 2))


def test_normal_forms_at_different_orders_compare_without_a_lift(monkeypatch):
    a, b = zeta(3).normalized(), zeta(12, 4).normalized()
    assert a == b and a.order == b.order == 3

    def no_lift(self, order):
        raise AssertionError("lifted")

    monkeypatch.setattr(CycNumber, "_lift", no_lift)
    assert zeta(4).normalized() != zeta(3).normalized()
    assert zeta(8).normalized() != rational(1).normalized()


def test_root_exponent_reads_every_root_of_unity_off_the_power_table():
    for n in range(1, 61):
        for e in range(n):
            x = zeta(n, e)
            order, k = _root_exponent(x)
            assert zeta(order, k) == x and x.normalized().order in (order, order // 2)
            assert _root_exponent(-x) is not None
    assert _root_exponent(-zeta(3)) == (6, 5)
    assert _root_exponent(rational(-1)) == (2, 1)
    for x in (rational(2), zeta(5) / 2, 1 + zeta(5), (3 + 4 * zeta(4)) / 5, rational(0)):
        assert _root_exponent(x) is None


def test_rotate_is_a_product_with_a_root_of_unity():
    rng = random.Random(15)
    for _ in range(200):
        o = rng.choice((1, 3, 4, 5, 8, 12))
        n = o * rng.choice((1, 2, 3, 6))
        x = CycNumber(o, [rng.randint(-9, 9) for _ in range(o)], rng.randint(1, 5))
        q = rng.randrange(n)
        vec = _rotate(x.num, q, o, n)
        assert len(vec) == _cond(n).phi
        assert CycNumber(n, vec, x.den) == zeta(n, q) * x
    with pytest.raises(ValueError):
        _rotate(zeta(5).num, 1, 5, 12)


def _substitute_reference(vec, k, cond, shift=0):
    """Adds the full power-table row for every nonzero coefficient; oracle for
    `_substitute`, which adds a unit row's coefficient in place."""
    out = [0] * cond.phi
    for i, c in enumerate(vec):
        if c:
            out = [o + c * r for o, r in zip(out, cond.rows[(shift + i * k) % cond.n])]
    return out


def test_rotation_and_substitution_match_the_full_row_formula():
    rng = random.Random(19)
    for N in (24, 36, 144, 240):
        cond = _cond(N)
        for n in (1, 4, 12, N // 2, N):
            vec = [rng.randint(-9, 9) for _ in range(_cond(n).phi)]
            for q in range(N):
                assert _rotate(vec, q, n, N) == _substitute_reference(vec, N // n, cond, q)
        vec = [rng.randint(-9, 9) for _ in range(cond.phi)]
        for j in range(1, N):
            assert _substitute(vec, j, cond) == _substitute_reference(vec, j, cond)


def test_packed_rotation_matches_substitution_on_every_slice_of_s():
    # every (coordinate slice of S, q) that the (ST)^3 check can rotate, at
    # the order B of that check: the lcm of S's order and the primes of L
    for k in range(1, 17):
        md = su2_modular_data(k)
        n, _, flat = _key(md.S)
        L = lcm(n, *(_root_exponent(t)[0] for t in md.T))
        B = lcm(n, *_prime_factors(L))
        cond, phi = _cond(B), _cond(n).phi
        for vec in {flat[u : u + phi] for u in range(0, len(flat), phi)}:
            for q in range(B):
                assert _rotate(vec, q, n, B) == _substitute_reference(vec, B // n, cond, q)


def test_cyclotomic_poly_memo_is_not_edited_by_its_callers():
    fresh = {}
    for n in range(1, 61):  # x^n - 1 over the Phi_d of its proper divisors
        num = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                num = _poly_divexact(num, fresh[d])
        fresh[n] = num
    for _ in range(3):
        for d in range(3, 61):
            _real_cyclotomic_poly(d)  # edits a copy in place
    assert [list(_cyclotomic_poly(n)) for n in range(1, 61)] == [fresh[n] for n in range(1, 61)]
    for n in range(1, 61):
        with pytest.raises(TypeError):  # the memo itself cannot be edited
            _cyclotomic_poly(n)[0] += 7


def test_arith_dispatch():
    a, b = zeta(8), zeta(8, 3)
    assert cyc_arith(a, b, "add") == a + b
    assert cyc_arith(a, b, "sub") == a - b
    assert cyc_arith(a, b, "mul") == a * b
    assert cyc_arith(a, b, "div") == a / b


def test_coeff_vector_shape():
    v = zeta(8, 1).coeff_vector()
    assert len(v) == 8
    assert v[1] == 1 and sum(abs(x) for x in v) == 1


def test_rational_values_hash_like_int_and_fraction():
    assert rational(1) == 1 and hash(rational(1)) == hash(1)
    half = (zeta(3) + zeta(3, 2) + 2) / 2  # 1/2 computed at order 3
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert {1: "x"}.get(rational(1)) == "x"
    assert {Fraction(1, 2): "y"}.get(half) == "y"
    assert {rational(1): "z"}.get(1) == "z"


def test_coordinate_matrices_rebuild_every_entry_at_one_order_and_scale():
    # coordinate t of every entry of a key, row-major, is flat[t::phi]
    rng = random.Random(7)
    mats = [
        [[CycNumber(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)])
          for _ in range(cols)] for _ in range(rows)]
        for n, rows, cols in ((5, 2, 3), (12, 3, 3), (8, 1, 2))
    ]
    mats.append([[1, Fraction(-3, 2)], [zeta(4), rational(0)]])
    L = lcm(5, 12, 8, 4)
    for M in mats:
        order, d, flat = _key(M, L)
        cols = len(M[0])
        phi = len(flat) // (len(M) * cols)
        assert order == L and phi == _cond(L).phi
        Ms = [flat[t::phi] for t in range(phi)]
        scales = set()
        for i, row in enumerate(M):
            for j, e in enumerate(row):
                rebuilt = sum((zeta(L, t) * Mt[i * cols + j] for t, Mt in enumerate(Ms)), rational(0))
                if e == 0:
                    assert rebuilt == 0
                else:
                    scales.add((rebuilt / e).normalized())
        # one integer scale for every entry of the matrix: the key's d
        (scale,) = scales
        assert scale.as_int() == d >= 1


def _mat_mul_reference(A, B):
    """Entrywise sum of scalar products; oracle for the packed key product
    `_times(B)(A)`."""
    n, m, p = len(A), len(B), len(B[0]) if B else 0
    return tuple(
        tuple(
            sum((A[i][t] * B[t][j] for t in range(1, m)), A[i][0] * B[0][j])
            for j in range(p)
        )
        for i in range(n)
    )


def _random_matrix(rng, rows, cols, orders, size, dens):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            n = rng.choice(orders)
            coeffs = [Fraction(rng.randint(-size, size), rng.choice(dens)) for _ in range(n)]
            row.append(CycNumber(n, coeffs))
        out.append(row)
    return out


def _assert_products_agree(A, B):
    got, want = _times(B)(A), _mat_mul_reference(A, B)
    assert len(got) == len(want)
    for g_row, w_row in zip(got, want):
        assert len(g_row) == len(w_row)
        for g, w in zip(g_row, w_row):
            assert g == w and hash(g) == hash(w)


MIXED_ORDERS = [1, 4, 5, 8, 15, 24, 40]
SHAPES = [(1, 1, 1), (1, 3, 1), (1, 1, 4), (4, 1, 1), (3, 1, 2), (2, 3, 4), (4, 2, 3), (3, 3, 3)]
# no rows on the left, no columns on the right, and no inner dimension
EMPTY_SHAPES = [(0, 2, 3), (0, 0, 0), (2, 3, 0), (2, 0, 0)]


def test_packed_mat_mul_matches_entrywise_products():
    # orders 1 and 2 have phi = 1: every table row is one entry of B
    rng = random.Random(11)
    for orders in ([1], [2], [1, 2], [4], [5, 15], [8, 24], MIXED_ORDERS):
        for n, m, p in SHAPES + EMPTY_SHAPES:
            A = _random_matrix(rng, n, m, orders, 9, [1, 1, 2, 3, 7])
            B = _random_matrix(rng, m, p, orders, 9, [1, 4, 5])
            _assert_products_agree(A, B)


def test_packed_mat_mul_zero_and_shared_entries():
    rng = random.Random(12)
    zero = rational(0)
    Z = [[zero] * 3 for _ in range(2)]
    B = _random_matrix(rng, 3, 2, MIXED_ORDERS, 5, [1, 2])
    _assert_products_agree(Z, B)
    # one shared entry object across both factors, plus plain ints
    e = zeta(40, 7) + Fraction(2, 3)
    _assert_products_agree([[e, 1], [e, e]], [[e, Fraction(-1, 2)], [0, e]])
    # equal entries (one object, and a rebuilt equal value) share their
    # rotations in the table; negated entries get their own
    f, twin = -e, CycNumber(40, e.coeff_vector()[:40])
    _assert_products_agree([[e, f, 1], [f, 2, e]], [[e, f, twin], [f, e, e], [twin, 0, f]])


def test_packed_mat_mul_width_holds_huge_coefficients():
    # equal-sign coefficients near 10^30 push every slot towards its bound
    rng = random.Random(13)
    big = 10**30
    for n in (4, 5, 8, 15, 24, 40):
        for m in (1, 2, 3, 5):
            for sign in (1, -1):
                A = [[CycNumber(n, [sign * (big - rng.randint(0, 9))] * n) for _ in range(m)]
                     for _ in range(2)]
                B = [[CycNumber(n, [big - rng.randint(0, 9)] * n) for _ in range(2)]
                     for _ in range(m)]
                _assert_products_agree(A, B)
    A = _random_matrix(rng, 3, 4, MIXED_ORDERS, big, [1, 3, big + 1])
    B = _random_matrix(rng, 4, 2, MIXED_ORDERS, big, [1, 7])
    _assert_products_agree(A, B)
    # at order 8 (phi = 4, row_max = 1) and m = 3 the slot bound is
    # 3 * 4 * s * 4s = 48 s^2 and the largest output coefficient 12 s^2:
    # 64-bit slots up to s = 2^27, 128-bit slots from s = 2^28
    for s, width in ((2**26, 64), (2**27, 64), (2**28, 128)):
        assert _width(48 * s * s) == width
        for sign in (1, -1):
            A = [[CycNumber(8, [sign * s] * 4) for _ in range(3)] for _ in range(2)]
            B = [[CycNumber(8, [s] * 4), CycNumber(8, [s, -s, s, -s])] for _ in range(3)]
            _assert_products_agree(A, B)
    # rational entries meet the bound m * max|a| * max|b| exactly: 32 * 2^26
    # needs a 64-bit slot, and 2^26 alone would fit in a 32-bit one
    s = 2**13
    _assert_products_agree([[s] * 32, [-s] * 32], [[s]] * 32)
    # at order 105 (phi = 48) a reduced power has up to 32 nonzero
    # coordinates, some of them 2: rotations grow their coefficients
    v = CycNumber(105, [10**6] * 48)
    _assert_products_agree([[v] * 4], [[v, -v]] * 4)


def test_packed_mat_mul_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        _times([[1], [1]])([[1, 1, 1]])
    with pytest.raises(ValueError):
        _times([])([[1]])
    with pytest.raises(ValueError):
        _times([[1], [2]])([[1, 2], [3]])
    with pytest.raises(ValueError):
        _times([[1], [2, 3]])([[1, 2]])
    # an empty inner dimension gives the (empty) zero product
    assert _times([])([[], []]) == ((), ())
    assert _times([[]])([[zeta(5)]]) == ((),)


def test_key_ints_names_the_first_entry_that_is_not_an_integer():
    # row-major order decides, not the kind of failure: a half before an
    # irrational entry is named as the half, and the other way round
    half, i = rational(Fraction(1, 2)), zeta(4)
    cases = [
        ([[1, half], [i, 2]], 1, "not an integer: 1/2", Fraction(1, 2)),
        ([[1, i], [half, 2]], 1, "not rational", None),
        ([[2, 3], [4, half]], 3, "not an integer: 1/2", Fraction(1, 2)),
        ([[3, 1 + i]], 1, "not rational", None),
    ]
    for M, index, message, value in cases:
        with pytest.raises(ValueError) as err:
            _key_ints(_key(M))
        assert (str(err.value), err.value.index, err.value.value) == (message, index, value)
    with pytest.raises(ValueError) as err:
        _key_ints(_key([[6, 3, 2]]), 3)
    assert (str(err.value), err.value.index) == ("not an integer: 2/3", 2)
    assert _key_ints(_key([[2, 4], [-6, 0]]), 2) == [1, 2, -3, 0]
    assert _key_ints(_key([[zeta(3) + zeta(3, 2), 2 * i * i]])) == [-1, -2]


def _unpack_reference(n, count, width):
    """Shift-loop slot reader; oracle for `_unpack` (it drops what does not
    fit in `count` slots)."""
    half = 1 << (width - 1)
    full = 1 << width
    mask = full - 1
    out = []
    for _ in range(count):
        d = n & mask
        n >>= width
        if d >= half:
            d -= full
            n += 1
        out.append(d)
    return out


def _fold_reference(prod, width, cond):
    """Unpack every slot, repack the low ones, fold; oracle for `_fold`."""
    phi, n = cond.phi, cond.n
    conv = _unpack_reference(prod, 2 * phi - 1, width)
    packed = cond.packed_rows(width)
    acc = _pack(conv[:phi], width)
    for e in range(phi, 2 * phi - 1):
        c = conv[e]
        if c:
            acc += c * packed[e % n]
    return _unpack_reference(acc, phi, width)


# every width `_width` returns up to 640 bits: 16, 32, 64, 128, 192, ...
slot_widths = st.integers(min_value=0, max_value=600).map(lambda b: _width((1 << b) - 1))


def _slots(data, count, low, high):
    """`count` slot values in [low, high], the ends and zero drawn often."""
    value = st.one_of(st.sampled_from([low, high, 0]), st.integers(low, high))
    return data.draw(st.lists(value, min_size=count, max_size=count))


@given(st.integers(min_value=1, max_value=150), slot_widths, st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_byte_slot_unpack_matches_shift_loop(order, width, convolution, data):
    phi = _cond(order).phi
    count = 2 * phi - 1 if convolution else phi
    half = 1 << (width - 1)
    vals = _slots(data, count, -half, half - 1)
    n = _pack(vals, width)
    assert _unpack(n, count, width) == _unpack_reference(n, count, width) == vals


@given(st.integers(min_value=1, max_value=150), slot_widths, st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_bit_field_fold_matches_unpack_and_repack(order, width, low_only, data):
    cond = _cond(order)
    phi = cond.phi
    half = 1 << (width - 1)
    if low_only:
        # nothing to fold: the low slots may take every value of a slot
        conv = _slots(data, phi, -half, half - 1) + [0] * (phi - 1)
    else:
        # high slots small enough that every folded slot still fits
        bound = (half - 1) // (1 + (phi - 1) * cond.row_max)
        conv = _slots(data, 2 * phi - 1, -bound, bound)
    prod = _pack(conv, width)
    assert _fold(prod, width, cond) == _fold_reference(prod, width, cond)


@given(st.integers(min_value=0, max_value=2**700))
@settings(max_examples=200, deadline=None)
def test_width_is_a_machine_word_or_a_multiple_of_64_that_holds_the_bound(bound):
    w = _width(bound)
    assert w in (16, 32, 64) or w % 64 == 0
    assert bound < 1 << (w - 1)
    assert _width(0) == 16 and _width(2**40) == 64 and _width(2**60) == 128


@pytest.mark.parametrize("width", [16, 32, 64, 128, 192])
def test_slots_round_trip_at_every_width(width):
    # 16-64 bits are read as signed words, 128 and 192 slot by slot
    rng = random.Random(width)
    half = 1 << (width - 1)
    ends = [half - 1, -(half - 1), -half, 0, 1, -1]
    for count in (1, 2, 3, 7, 24, 65):
        for _ in range(20):
            vals = [rng.choice(ends) if rng.random() < 0.3 else rng.randrange(-half, half)
                    for _ in range(count)]
            n = _pack(vals, width)
            assert n == sum(c << (j * width) for j, c in enumerate(vals))
            assert _unpack(n, count, width) == vals
            # a top slot outside [-2^(w-1), 2^(w-1)) does not fit
            for top in (half, -half - 1, rng.choice((1, -1)) * (half << rng.randrange(1, 70))):
                wide = vals[:-1] + [top]
                n = _pack(wide, width)
                assert n == sum(c << (j * width) for j, c in enumerate(wide))
                with pytest.raises(OverflowError):
                    _unpack(n, count, width)
            # a lower slot outside its range carries into the next one
            j = rng.randrange(count)
            bent = vals[:j] + [vals[j] + rng.choice((1, -1)) * (half << 3)] + vals[j + 1:]
            assert _pack(bent, width) == sum(c << (i * width) for i, c in enumerate(bent))


def test_unpack_rejects_values_that_do_not_fit_in_the_slots():
    # deliberate change: the shift loop dropped the excess without a word
    for width in (16, 32, 64, 128):
        half = 1 << (width - 1)
        top, bottom = _pack([half - 1] * 3, width), _pack([-half] * 3, width)
        assert _unpack(top, 3, width) == [half - 1] * 3
        assert _unpack(bottom, 3, width) == [-half] * 3
        for n in (top + 1, bottom - 1, 1 << (3 * width), -(1 << (3 * width))):
            assert _pack(_unpack_reference(n, 3, width), width) != n
            with pytest.raises(OverflowError):
                _unpack(n, 3, width)


def test_prepared_factor_follows_left_factors_to_new_orders_and_widths():
    # one `_times(B)` meets new lcm orders (8, 40, 120) and a wider slot at
    # order 8, then returns to sizes it has already lifted and packed
    rng = random.Random(14)
    B = _random_matrix(rng, 3, 2, [8], 5, [1, 3])
    times = _times(B)
    for orders, size in (
        ([1], 3), ([8], 3), ([5], 3), ([8], 10**30), ([1, 4], 3),
        ([5, 12], 10**12), ([8], 3), ([1], 10**30), ([2], 3), ([2, 4], 10**12),
        ([24], 3), ([3], 10**30),
    ):
        A = _random_matrix(rng, 2, 3, orders, size, [1, 2, 7])
        got, want = times(A), _mat_mul_reference(A, B)
        assert [len(row) for row in got] == [len(row) for row in want]
        for g_row, w_row in zip(got, want):
            for g, w in zip(g_row, w_row):
                assert g == w and hash(g) == hash(w)


def test_prepared_factor_checks_shapes():
    with pytest.raises(ValueError):
        _times([[1, 2], [3]])
    times = _times([[zeta(8)], [1]])
    assert times([[1, zeta(8, 3)]]) == ((zeta(8) + zeta(8, 3),),)
    with pytest.raises(ValueError):
        times([[1, 2, 3]])
    with pytest.raises(ValueError):
        times([[1, 2], [3]])


KEY_ORDERS = [1, 4, 5, 8, 12, 40]


def test_keys_are_canonical_at_one_order():
    # entries lifted from a divisor order, or written with num and den scaled
    # by a common factor, give the key of the matrix itself at the same L
    rng = random.Random(15)
    for rows, cols in ((1, 1), (1, 4), (2, 3), (3, 3)):
        M = _random_matrix(rng, rows, cols, KEY_ORDERS, 9, [1, 2, 3, 7])
        lifted = [[e._lift(120) for e in row] for row in M]
        scaled = [[CycNumber(e.order, [6 * c for c in e.num], 6 * e.den) for e in row]
                  for row in M]
        key = _key(M, 120)
        assert key[0] == 120 and key[1] > 0 and gcd(key[1], *key[2]) == 1
        assert _key(lifted) == _key(scaled, 120) == key
        assert _key(M, 120) == _key(lifted, 24)


def test_different_matrices_get_different_keys():
    rng = random.Random(16)
    M = _random_matrix(rng, 2, 3, KEY_ORDERS, 9, [1, 2, 3])
    key = _key(M, 120)
    assert _key([[2 * e for e in row] for row in M], 120) != key
    for i, j, t in ((0, 0, 0), (1, 2, 7), (0, 1, 31)):
        other = [list(row) for row in M]
        other[i][j] = other[i][j] + zeta(120, t) / 5
        assert _key(other, 120) != key


def test_unkey_rebuilds_every_entry():
    rng = random.Random(17)
    for rows, cols in ((1, 1), (1, 4), (3, 2), (4, 4)):
        M = _random_matrix(rng, rows, cols, KEY_ORDERS, 9, [1, 2, 5])
        got = _unkey(_key(M), cols)
        assert [len(row) for row in got] == [cols] * rows
        assert all(g == e for g_row, row in zip(got, M) for g, e in zip(g_row, row))


def test_key_step_matches_entrywise_products():
    # mixed orders, and entries up to 10^30 that force slots wider than 64 bits
    rng = random.Random(18)
    for size in (3, 10**12, 10**30):
        for n, m, p in SHAPES:
            A = _random_matrix(rng, n, m, KEY_ORDERS, size, [1, 2, 7])
            B = _random_matrix(rng, m, p, KEY_ORDERS, size, [1, 3])
            got = _times(B).step(_key(A))
            want = _mat_mul_reference(A, B)
            assert got == _key(want, got[0])
            assert _unkey(got, p) == want


# --- input checks and reflected operators ---------------------------------------


@pytest.mark.parametrize("make, exc, msg", [
    (lambda: CycNumber(0, []), ValueError, "order must be positive"),
    (lambda: CycNumber(2, [1, 2, 3]), ValueError, "coefficient vector longer than order"),
    (lambda: CycNumber(3, [0.5]), TypeError, "coefficients must be int or Fraction"),
    (lambda: zeta(4).as_fraction(), ValueError, "not rational: z(4)^1"),
    (lambda: rational(Fraction(1, 2)).as_int(), ValueError, "not an integer: 1/2"),
    (lambda: zeta(4).galois(2), ValueError, "galois exponent must be coprime to the order"),
    (lambda: zeta(4) + "x", TypeError, "cannot coerce 'x' to CycNumber"),
    (lambda: sqrt_int(-1), ValueError, "nonnegative integers only"),
    (lambda: cyc_arith(zeta(3), zeta(4), "pow"), ValueError, "unknown op 'pow'"),
])
def test_cyclotomic_input_checks(make, exc, msg):
    with pytest.raises(exc) as err:
        make()
    assert err.value.args[0] == msg


def test_reflected_operators_and_foreign_equality():
    assert 1 - zeta(4) == rational(1) - zeta(4) and (1 - zeta(4)).render() == "1 - z(4)^1"
    assert 1 / zeta(4) == zeta(4, 3) == -zeta(4)
    assert Fraction(1, 2) / zeta(3) == zeta(3, 2) / 2
    assert (zeta(4) == "z(4)") is False and zeta(4) != "z(4)"
