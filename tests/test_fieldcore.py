import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modrep.errors import DegreeMismatch, NotPrime, ReducibleModulus, ZeroPolynomial
from modrep import fieldcore
from modrep.fieldcore import (
    Poly,
    factors_roots_first,
    field_from_json,
    field_make,
    field_to_json,
    poly_factor,
)

GF2 = field_make(2, 1)
GF4 = field_make(2, 2)
GF5 = field_make(5, 1)
FACTOR_FIELDS = [
    GF2, field_make(3, 1), GF4, GF5, field_make(7, 1), field_make(3, 2), field_make(2, 4)
]


def test_default_gf4_modulus_and_omega():
    assert GF4.modulus == (1, 1, 1)
    w = GF4.omega
    assert w * w == w + 1
    assert w**3 == 1
    assert w != GF4.one()


def test_gf2_elements():
    assert GF2.order == 2
    assert [e.val for e in GF2.elements()] == [0, 1]
    assert GF2.one() + GF2.one() == GF2.zero()


def test_gf5_inverse():
    assert GF5.mul(2, 3) == 1
    assert GF5.inv(2) == 3


def test_field_make_rejects_bad_input():
    with pytest.raises(NotPrime):
        field_make(4, 1)
    with pytest.raises(ReducibleModulus):
        field_make(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(DegreeMismatch):
        field_make(2, 2, [1, 1])


def test_searched_modulus_is_deterministic():
    k1 = field_make(2, 4)
    k2 = field_make(2, 4)
    assert k1.modulus == k2.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1


def test_field_json_roundtrip():
    obj = field_to_json(GF4)
    assert obj == {"char": 2, "degree": 2, "modulus": [1, 1, 1]}
    assert field_from_json('{"char": 2, "degree": 2, "modulus": [1, 1, 1]}') == GF4
    assert field_from_json({"char": 5, "degree": 1}) == GF5


@st.composite
def field_and_elems(draw, n=3):
    ctx = draw(st.sampled_from([GF2, GF4, GF5, field_make(2, 3), field_make(3, 1)]))
    vals = [draw(st.integers(min_value=0, max_value=ctx.order - 1)) for _ in range(n)]
    return ctx, vals


@given(field_and_elems())
@settings(max_examples=200)
def test_field_axioms(data):
    ctx, (a, b, c) = data
    ea, eb, ec = ctx.elem(a), ctx.elem(b), ctx.elem(c)
    assert (ea + eb) * ec == ea * ec + eb * ec
    if a != 0:
        assert ea * ea.inverse() == ctx.one()
    # Frobenius is additive
    assert (ea + eb) ** ctx.char == ea**ctx.char + eb**ctx.char


def test_element_order_and_omega_order():
    assert GF4.element_order(GF4.omega.val) == 3
    assert GF5.element_order(2) == 4


# --- polynomial factorization ---


def test_factor_x2_plus_x_over_gf2():
    f = Poly(GF2, [0, 1, 1])  # x^2 + x
    got = {(g.coeffs, m) for g, m in poly_factor(f)}
    assert got == {((0, 1), 1), ((1, 1), 1)}


def test_factor_irreducible_quadratic_over_gf2():
    f = Poly(GF2, [1, 1, 1])
    assert poly_factor(f) == [(f, 1)]


def test_factor_x3_plus_1_over_gf4():
    # oracle: brute-force root enumeration over the 4 field elements
    f = Poly(GF4, [1, 0, 0, 1])
    roots = sorted(a for a in range(4) if f.eval(a) == 0)
    w = GF4.omega.val
    assert roots == sorted([1, w, GF4.mul(w, w)])
    got = poly_factor(f)
    assert all(m == 1 for _, m in got)
    assert sorted(g.coeffs for g, _ in got) == sorted(
        ((GF4.neg(a), 1) for a in roots)
    )


def test_factor_with_multiplicities():
    # (x+1)^2 * x over GF(2): frozen by hand
    f = Poly(GF2, [0, 1]) * Poly(GF2, [1, 1]) * Poly(GF2, [1, 1])
    got = {(g.coeffs, m) for g, m in poly_factor(f)}
    assert got == {((0, 1), 1), ((1, 1), 2)}


def test_factor_pth_power():
    # x^2 over GF(2) exercises the zero-derivative branch
    got = poly_factor(Poly(GF2, [0, 0, 1]))
    assert got == [(Poly(GF2, [0, 1]), 2)]


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        poly_factor(Poly(GF2, []))


def brute_force_irreducible(g):
    """Oracle: trial division by every monic polynomial of degree <= deg/2."""
    ctx = g.ctx
    if g.degree < 1:
        return False
    for d in range(1, g.degree // 2 + 1):
        for code in range(ctx.order**d):
            div = [(code // ctx.order**i) % ctx.order for i in range(d)] + [1]
            if (g % Poly(ctx, div)).is_zero():
                return False
    return True


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_factor_remultiplies_and_factors_irreducible(data):
    ctx = data.draw(st.sampled_from([GF2, GF4, GF5]))
    deg = data.draw(st.integers(min_value=1, max_value=6))
    coeffs = [data.draw(st.integers(0, ctx.order - 1)) for _ in range(deg)]
    lead = data.draw(st.integers(1, ctx.order - 1))
    f = Poly(ctx, coeffs + [lead])
    factors = poly_factor(f)  # raises internally if re-multiplication fails
    prod = Poly(ctx, [f.leading()])
    for g, m in factors:
        assert g.leading() == 1
        assert brute_force_irreducible(g)
        for _ in range(m):
            prod = prod * g
    assert prod == f
    # deterministic order: by degree, then coefficient tuple
    keys = [(g.degree, g.coeffs) for g, _ in factors]
    assert keys == sorted(keys)


def test_poly_divmod_and_gcd():
    f = Poly(GF5, [1, 0, 1])  # x^2 + 1
    g = Poly(GF5, [2, 1])  # x + 2
    q, r = f.divmod(g)
    assert q * g + r == f
    # x^2 + 4 = (x+1)(x+4) over GF(5)
    assert Poly(GF5, [4, 0, 1]).gcd(Poly(GF5, [1, 1])) == Poly(GF5, [1, 1])


def test_factor_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        poly_factor(Poly(field_make(2, 2), [1, 1, 0, 1, 2, 1]))
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_factors_roots_first_is_poly_factor_in_its_order(data):
    # f is a product of powers of random monic pieces of degree <= 3, so
    # factors repeat; a rootless f has only pieces of degree 2 and 3 without
    # a root, i.e. irreducible ones
    ctx = data.draw(st.sampled_from(FACTOR_FIELDS))
    rootless = data.draw(st.booleans())
    f = Poly(ctx, [data.draw(st.integers(1, ctx.order - 1))])
    for _ in range(data.draw(st.integers(1, 4))):
        deg = data.draw(st.integers(2 if rootless else 1, 3))
        g = Poly(ctx, [data.draw(st.integers(0, ctx.order - 1)) for _ in range(deg)] + [1])
        if rootless and any(g.eval(x) == 0 for x in range(ctx.order)):
            continue
        for _ in range(data.draw(st.integers(1, 3))):
            f = f * g
    assert list(factors_roots_first(f)) == [g for g, _ in poly_factor(f)]


def test_factors_roots_first_factors_only_past_the_linear_factors(monkeypatch):
    # (x + 1)^2 x (x^2 + x + 1) over GF(2): the roots 0 and 1 come first
    f = Poly(GF2, [1, 1]) * Poly(GF2, [1, 1]) * Poly(GF2, [0, 1]) * Poly(GF2, [1, 1, 1])
    calls = []
    real = fieldcore.poly_factor
    monkeypatch.setattr(fieldcore, "poly_factor", lambda g: calls.append(g) or real(g))
    lazy = factors_roots_first(f)
    assert [next(lazy), next(lazy)] == [Poly(GF2, [0, 1]), Poly(GF2, [1, 1])]
    assert calls == []
    assert list(lazy) == [Poly(GF2, [1, 1, 1])]
    assert calls == [f]
