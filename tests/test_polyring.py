"""Tests for windowed polynomial quotients.

Hand-derived expectations:

* Z[a^(+-1)]/(1 - a^k) has basis {1, a, ..., a^(k-1)}, so the quotient is
  Z^k; k = 1 gives Z.
* Z[a^(+-1)]/(1 + a^2): a^2 = -1 rewrites every monomial into the span of
  {1, a} with a sign, and no integer relation survives between 1 and a,
  so the quotient is Z^2.
* (x, x + 1): (-1)*x + 1*(x + 1) = 1.
* (x, x^2): common factor x.
"""

import random
import warnings
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from verlkit import polyring
from verlkit.exactla import (
    FGAbelianGroup,
    IntMatrix,
    _smith_engine,
    cokernel,
    kernel_basis,
    smith_with_inverses,
    solve_int,
)
from verlkit.polyring import (
    Inconclusive,
    LaurentPoly,
    SelfCheckFailure,
    StabilizationFailure,
    TruncationWindow,
    coprime_certificate,
    e6_tor,
    matrix_from_columns,
    stabilized_family,
    truncated_quotient,
)

a = LaurentPoly.var("a")


def test_poly_arithmetic_basics():
    assert ((a - 1) * (a + 1)).render() == "-1 + a^2"
    assert (a**-2).terms == {(-2,): 1}
    assert ((-a) ** -1) == -(a**-1)
    assert (2 * a - a - a).is_zero()
    assert (a**3 - 2 * a).support_bounds() == ((1, 3),)


def _reference_render(p):
    """The per-term loop that `LaurentPoly.render` ran before `_format_combo`."""
    if not p.terms:
        return "0"
    parts = []
    for e in sorted(p.terms):
        c = p.terms[e]
        mono = "*".join(
            "%s^%d" % (n, x) if x != 1 else n
            for n, x in zip(p.names, e)
            if x != 0
        )
        if not mono:
            body = str(abs(c))
        else:
            body = mono if abs(c) == 1 else "%d*%s" % (abs(c), mono)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def _random_laurent(rng, names):
    """Up to four terms with exponents in -3..3 and coefficients of either sign."""
    return LaurentPoly(names, {
        tuple(rng.randint(-3, 3) for _ in names): rng.choice([1, -1, rng.randint(-9, 9)])
        for _ in range(rng.randint(0, 4))
    })


def test_render_matches_the_per_term_loop_it_replaced():
    rng = random.Random(30)
    polys = [_random_laurent(rng, rng.choice([("a",), ("a", "b")])) for _ in range(400)]
    for p in polys:
        assert p.render() == _reference_render(p)
        assert repr(p) == "LaurentPoly(%s)" % _reference_render(p)
    texts = [p.render() for p in polys]
    assert "0" in texts  # zero
    assert any(p.terms and set(p.terms) == {(0,) * p.nvars} for p in polys)  # constants
    assert any(t.startswith("-") for t in texts)  # a negative leading term
    assert any("^-" in t and "*b" in t for t in texts)  # two variables, negative exponents


def test_powers_match_repeated_products():
    rng = random.Random(31)
    for _ in range(40):
        names = rng.choice([("a",), ("a", "b")])
        x = _random_laurent(rng, names)
        product = LaurentPoly.const(1, names)
        for k in range(10):
            assert x**k == product
            product = product * x
        assert (x**0).names == x.names


def test_two_variable_product():
    x = LaurentPoly.var("a", names=("a", "b"))
    y = LaurentPoly.var("b", names=("a", "b"))
    p = (x + y) * (x - y)
    assert p.coeff(2, 0) == 1 and p.coeff(0, 2) == -1 and p.coeff(1, 1) == 0


def test_window_validation():
    with pytest.raises(ValueError):
        TruncationWindow(((-3, 3),), stride=5)
    w = TruncationWindow.symmetric(10)
    assert w.enlarged().bounds == ((-15, 15),)


def test_cyclic_quotient_rank_three():
    w = TruncationWindow(((-10, 10),), stride=5)
    g = truncated_quotient(("a",), [1 - a**3], w)
    assert g.free_rank == 3 and g.torsion == ()


def test_cyclic_quotient_rank_one():
    w = TruncationWindow.symmetric(10)
    g = truncated_quotient(("a",), [1 - a], w)
    assert g.free_rank == 1 and g.torsion == ()


def test_quotient_by_one_plus_a_squared():
    w = TruncationWindow.symmetric(10)
    g = truncated_quotient(("a",), [1 + a**2], w)
    assert g.free_rank == 2 and g.torsion == ()


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=6))
@settings(max_examples=25, deadline=None)
def test_cyclic_quotient_window_invariance(k, pad):
    radius = 2 * k + 10 + pad
    g = truncated_quotient(
        ("a",), [1 - a**k], TruncationWindow.symmetric(radius)
    )
    assert g.free_rank == k and g.torsion == ()


def test_multiplication_kernel_trivial_on_window():
    # multiplication by 1 - a^k is injective; check kernels on windows
    for k in (1, 2, 5):
        for radius in (8, 13, 21):
            f = 1 - a**k
            dom = range(-radius, radius + 1)
            cod_index = {e: i for i, e in enumerate(range(-radius, radius + k + 1))}
            cols = []
            for t in dom:
                v = [0] * len(cod_index)
                for (e,), c in f.terms.items():
                    v[cod_index[e + t]] = c
                cols.append(v)
            K = kernel_basis(IntMatrix.from_cols(cols))
            assert K.cols == 0


def test_degenerate_relations_warn():
    def family(w):
        return ["g%d" % i for i in range(w)], []

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = stabilized_family(family, 6)
        assert g.free_rank == 6
    assert any("window-dependent" in str(c.message) for c in caught)


def test_stabilization_failure_detected():
    def family(w):
        labels = ["g%d" % i for i in range(w)]
        return labels, [{"g0": 1}]

    with pytest.raises(StabilizationFailure):
        stabilized_family(family, 6)


def test_stabilization_messages_name_both_windows(monkeypatch):
    def family(w):
        return ["g%d" % i for i in range(w)], [{"g0": 1}]

    with pytest.raises(StabilizationFailure) as caught:
        stabilized_family(family, 6)
    assert str(caught.value) == "window 6 gives Z^5 but window 11 gives Z^10"

    # an H1 that changes with the window is reported with its prefix; each
    # window reads H1, then H0, so the third group is window 25's H1
    groups = []
    cokernel_of = polyring._cokernel_of

    def cokernel_of_growing(factors, Uinv, labels=None):
        groups.append(cokernel_of(factors, Uinv, labels))
        g = groups[-1]
        return FGAbelianGroup(g.free_rank, (3,)) if len(groups) == 3 else g

    monkeypatch.setattr(polyring, "_cokernel_of", cokernel_of_growing)
    with pytest.raises(StabilizationFailure) as caught:
        e6_tor(20)
    assert len(groups) == 4
    assert str(caught.value) == "H1 window 20 gives Z^2 but window 25 gives Z/3 + Z^2"


def test_stabilization_needs_a_positive_stride_and_a_real_window():
    def family(w):
        return ["g%d" % i for i in range(w)], [{"g0": 1}]

    with pytest.raises(ValueError, match="stride must be positive"):
        stabilized_family(family, 6, stride=0)
    with pytest.raises(ValueError, match="stride must be positive"):
        e6_tor(5, stride=0)
    with pytest.raises(ValueError, match="window size must be nonnegative"):
        e6_tor(-3)


def test_e6_tor_window_zero_keeps_the_codomain_of_d1():
    # d1 has no columns on window 0, so H0 is all 7 codomain degrees
    with pytest.raises(StabilizationFailure) as caught:
        e6_tor(0)
    assert str(caught.value) == "window 0 gives Z^7 but window 5 gives Z^2"


def test_matrix_from_columns_rejects_duplicates():
    with pytest.raises(ValueError):
        matrix_from_columns(["x", "x"], [])


def test_coprime_linear_pair():
    ok, (u, w) = coprime_certificate(a, a + 1)
    assert ok
    assert u * a + w * (a + 1) == LaurentPoly.const(1)


def test_not_coprime_shares_root():
    ok, factor = coprime_certificate(a, a * a)
    assert not ok
    assert factor.degree() >= 1


def test_coprime_quartic_quintic():
    f = a**4 - 3 * a**2 + 1
    g = a**5 - 3 * a**3
    ok, (u, w) = coprime_certificate(f, g)
    assert ok
    assert u * f + w * g == LaurentPoly.const(1)


def _gcd_over_q_reference(f, g):
    """Euclid over Fractions on coefficient lists, low degree first, made
    primitive with a positive leading coefficient."""
    x = [Fraction(f.coeff(e)) for e in range(f.degree() + 1)]
    y = [Fraction(g.coeff(e)) for e in range(g.degree() + 1)]
    while y:
        while len(x) >= len(y):
            q, shift = x[-1] / y[-1], len(x) - len(y)
            x = [c - q * y[i - shift] if i >= shift else c for i, c in enumerate(x)][:-1]
        while x and not x[-1]:
            x.pop()
        x, y = y, x
    ints = [int(c * lcm(*(c.denominator for c in x))) for c in x]
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return LaurentPoly(f.names, {(e,): c // content for e, c in enumerate(ints)})


def test_shared_factor_is_the_primitive_gcd_with_a_positive_lead():
    # 1 - a is the same gcd up to sign; the positive lead picks a - 1
    ok, factor = coprime_certificate(6 - 2 * a - 4 * a**2, 3 * a**2 - 3)
    assert not ok
    assert factor == a - 1
    rng = random.Random(20)

    def poly(deg):
        cs = [rng.randint(-4, 4) for _ in range(deg)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        return LaurentPoly(("a",), {(e,): c for e, c in enumerate(cs)})

    outcomes = set()
    for _ in range(200):
        h = poly(rng.randint(0, 3))
        f, g = h * poly(rng.randint(0, 4)), h * poly(rng.randint(0, 4))
        want = _gcd_over_q_reference(f, g)
        try:
            ok, factor = coprime_certificate(f, g)
        except Inconclusive:
            outcomes.add("inconclusive")
            assert want.degree() == 0
            continue
        outcomes.add(ok)
        if ok:
            u, w = factor
            assert want.degree() == 0 and u * f + w * g == LaurentPoly.const(1)
            continue
        assert factor == want
        assert factor.coeff(factor.degree()) > 0
        assert gcd(*factor.terms.values()) == 1
    assert outcomes == {True, False, "inconclusive"}


def test_a_shared_factor_is_found_before_any_integer_solve():
    # the integer solve on this pair's 12 x 20 shift matrix blows up its
    # entries; the gcd over Q decides the pair first
    f, g = 9 - 6 * a - 3 * a**2, 12 + 13 * a + 3 * a**2
    assert coprime_certificate(f, g) == (False, a + 3)


def test_inconclusive_integer_content():
    # (2, x): 2u + xw = 1 has no integer solution, but gcd over Q is 1
    with pytest.raises(Inconclusive):
        coprime_certificate(LaurentPoly.const(2), a)
    # two constants: no Sylvester rows, and the gcd over Q is 1
    with pytest.raises(Inconclusive):
        coprime_certificate(LaurentPoly.const(6), LaurentPoly.const(4))


def test_e6_tor_groups():
    h0, h1, cert = e6_tor()
    assert h0.free_rank == 2 and h0.torsion == ()
    assert h1.free_rank == 2 and h1.torsion == ()
    assert cert["sigma_squared_is_two"]
    u, w = cert["coprime_witness"]
    A = a**4 - 3 * a**2 + 1
    B = a**3 * (a**2 - 3)
    assert (
        LaurentPoly(("s",), u.terms) * LaurentPoly(("s",), A.terms)
        + LaurentPoly(("s",), w.terms) * LaurentPoly(("s",), B.terms)
    ) == LaurentPoly.const(1, ("s",))


def test_e6_tor_window_invariance():
    for size in (20, 24, 31):
        h0, h1, _ = e6_tor(window_size=size)
        assert (h0.free_rank, h0.torsion) == (2, ())
        assert (h1.free_rank, h1.torsion) == (2, ())


def _e6_reference(w):
    """H0 and H1 of e6_tor's complex on one window, the long way round:
    a kernel basis of d1, one solve_int per d2 column, then a cokernel."""
    s = LaurentPoly.var("s")
    m, A, B = s**2 - 2, s**4 - 3 * s**2 + 1, s**3 * (s**2 - 3)
    d1f, d1g, d2f, d2g = m * A, m * B, m * B, -(m * A)

    def shifted(poly, size, shift):
        v = [0] * size
        for (e,), c in poly.terms.items():
            v[e + shift] = c
        return v

    cod = w + d1g.degree()
    d1 = IntMatrix.from_cols(
        [shifted(p, cod, i) for p in (d1f, d1g) for i in range(w)]
    )
    h0 = cokernel(d1, ["s^%d" % i for i in range(cod)])
    K = kernel_basis(d1)
    coords = []
    for i in range(w - max(d2f.degree(), d2g.degree())):
        x = solve_int(K, shifted(d2f, w, i) + shifted(d2g, w, i))
        assert x is not None
        coords.append(x)
    h1 = cokernel(IntMatrix.from_cols(coords), ["k%d" % j for j in range(K.cols)])
    return h0, h1


def test_e6_tor_matches_kernel_then_solve_reference():
    for w in (20, 24, 42):
        h0, h1, _ = e6_tor(window_size=w)
        for got, want in zip((h0, h1), _e6_reference(w)):
            assert (got.free_rank, got.torsion, got.generators) == (
                want.free_rank,
                want.torsion,
                want.generators,
            )


def _e6_window(w):
    """d1 on window w and the d2 columns D2 that lie in it, built column by
    column from the polynomials."""
    s = LaurentPoly.var("s")
    m, A, B = s**2 - 2, s**4 - 3 * s**2 + 1, s**3 * (s**2 - 3)
    d1f, d1g, d2f, d2g = m * A, m * B, m * B, -(m * A)
    cod = w + d1g.degree()
    vec = polyring._poly_to_vec
    d1 = IntMatrix.from_cols([vec(p, cod, i) for p in (d1f, d1g) for i in range(w)])
    D2 = IntMatrix.from_cols([vec(d2f, w, i) + vec(d2g, w, i) for i in range(w - 7)])
    return d1, D2


def test_e6_windows_apply_the_transforms_to_their_right_hand_sides():
    for w in (42, 47):
        d1, D2 = _e6_window(w)
        target = IntMatrix(d1.rows, 1, [-2, 0, 1] + [0] * (d1.rows - 3))
        U, Uinv, D, V, Vinv = smith_with_inverses(d1)
        assert sum(1 for i in range(min(D.shape)) if D[i, i]) < min(D.shape)
        Ut, Vinv_D2 = (U * target).to_lists(), (Vinv * D2).to_lists()
        Uinv, D = Uinv.transpose().to_lists(), D.to_lists()
        got = _smith_engine(d1.to_lists(), d1.cols, u=target.to_lists(), uinv=True,
                            vinv=D2.to_lists())
        assert got == (Ut, Uinv, D, None, Vinv_D2)
        got = _smith_engine(d1.to_lists(), d1.cols, vinv=D2.to_lists())
        assert got == (None, None, D, None, Vinv_D2)


def test_e6_window_matrices_are_bands_of_shifted_polynomials():
    s = LaurentPoly.var("s")
    f = (s**2 - 2) * s**3 * (s**2 - 3)
    for size, shifts in ((12, 5), (9, 0), (0, 0), (8, 1)):
        cols = [polyring._poly_to_vec(f, size + 7, t) for t in range(shifts)]
        want = [list(r) for r in zip(*cols)] if cols else [[]] * (size + 7)
        assert polyring._band(f, size + 7, shifts) == want


def test_e6_tor_self_check_failure_is_typed(monkeypatch):
    assert issubclass(SelfCheckFailure, AssertionError)
    monkeypatch.setattr(polyring, "coprime_certificate", lambda f, g: (False, None))
    polyring._sigma_complex.cache_clear()
    with pytest.raises(SelfCheckFailure, match="cofactors unexpectedly share a factor"):
        e6_tor(8)


def test_e6_tor_builds_the_sigma_complex_once(monkeypatch):
    calls = []
    certify = polyring.coprime_certificate

    def counting(f, g):
        calls.append((f, g))
        return certify(f, g)

    monkeypatch.setattr(polyring, "coprime_certificate", counting)
    polyring._sigma_complex.cache_clear()
    first, second = e6_tor(8)[2], e6_tor(13)[2]
    assert len(calls) == 1
    assert first["coprime_witness"] == second["coprime_witness"]


POLYRING_INPUT_ERRORS = {
    "three variables": (lambda: LaurentPoly(("a", "b", "c"), {}), ValueError,
                        "one or two variables only"),
    "exponent arity": (lambda: LaurentPoly(("a",), {(1, 2): 1}), ValueError,
                       "exponent arity mismatch"),
    "zero stride": (lambda: TruncationWindow([(0, 20)], stride=0), ValueError,
                    "stride must be positive"),
    "window arity": (lambda: truncated_quotient(("a",), [a], TruncationWindow([(0, 20)] * 2)),
                     ValueError, "window arity does not match the variable count"),
    "integer relation": (lambda: truncated_quotient(("a",), [1], TruncationWindow([(0, 20)])),
                         TypeError, "relations must be LaurentPoly values"),
    "zero relation": (lambda: truncated_quotient(("a",), [a - a], TruncationWindow([(0, 20)])),
                      ValueError, "zero relation is not shift-periodic"),
    "other ring": (
        lambda: truncated_quotient(("a",), [LaurentPoly.var("b")], TruncationWindow([(0, 20)])),
        ValueError, "relation lives in a different ring",
    ),
}

@pytest.mark.parametrize("case", POLYRING_INPUT_ERRORS)
def test_polyring_input_errors_are_named(case):
    call, kind, message = POLYRING_INPUT_ERRORS[case]
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message
