import json

import pytest
from hypothesis import given, strategies as st

from hopflinks.ring import (
    DenomFactor,
    LaurentPoly,
    SkeinScalar,
    all_distinct,
    delta,
)


def mono(c, v=0, s=0):
    return LaurentPoly.term(c, v, s)


Z = LaurentPoly({(0, 1): 1, (0, -1): -1})
V = mono(1, v=1)
V_INV = mono(1, v=-1)


# -- strategies -------------------------------------------------------------

exponents = st.integers(min_value=-3, max_value=3)
polys = st.dictionaries(
    st.tuples(exponents, exponents), st.integers(-5, 5), max_size=4
).map(LaurentPoly)
denominators = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 2)), max_size=2
)
scalars = st.builds(SkeinScalar, polys, denominators)


# -- construction -----------------------------------------------------------

def test_zero_coefficients_are_dropped():
    p = LaurentPoly({(0, 0): 1, (1, 2): 0})
    assert p.terms() == [(0, 0, 1)]
    assert LaurentPoly({(1, 1): 2, (0, 0): 0}) + LaurentPoly({(1, 1): -2}) == LaurentPoly.zero()


def test_duplicate_keys_merge():
    p = LaurentPoly([((1, 0), 2), ((1, 0), 3)])
    assert p.coefficient(v=1) == 5


def test_denominators_merge_and_sort():
    x = SkeinScalar(mono(1, v=1), [(2, 1), (1, 1), (2, 1)])
    assert x.den == (DenomFactor(1, 1), DenomFactor(2, 2))


def test_zero_scalar_has_empty_denominator():
    assert SkeinScalar(LaurentPoly.zero(), [(1, 3)]).den == ()
    assert SkeinScalar.zero().is_zero


def test_bad_denominator_factor_rejected():
    with pytest.raises(ValueError):
        SkeinScalar(mono(1), [(0, 1)])
    with pytest.raises(ValueError):
        SkeinScalar(mono(1), [(1, 0)])


# -- addition ---------------------------------------------------------------

def test_add_identity():
    assert delta() + SkeinScalar.zero() == delta()


def test_add_inverse_cancels():
    other = SkeinScalar(V - V_INV, ((1, 1),))  # (v - v^-1)/(s - s^-1)
    assert (delta() + other).is_zero


def test_add_doubles():
    doubled = SkeinScalar(mono(2, v=-1) - mono(2, v=1), ((1, 1),))
    assert delta() + delta() == doubled


# -- multiplication -----------------------------------------------------------

def test_mul_cancels_denominator():
    assert SkeinScalar(Z) * delta() == SkeinScalar(V_INV - V)


def test_difference_of_squares():
    assert SkeinScalar(V_INV - V) * SkeinScalar(V_INV + V) == SkeinScalar(
        mono(1, v=-2) - mono(1, v=2)
    )


def test_delta_squared():
    expected = SkeinScalar(mono(1, v=-2) - mono(2) + mono(1, v=2), ((1, 2),))
    assert delta() * delta() == expected
    assert delta() ** 2 == expected


# -- exact division -----------------------------------------------------------

def test_exact_div_simple_factorization():
    p = LaurentPoly({(0, 2): 1, (0, -2): -1})
    assert p.exact_div_factor(1) == LaurentPoly({(0, 1): 1, (0, -1): 1})


def test_exact_div_refuses_v_only():
    assert (V_INV - V).exact_div_factor(1) is None


def test_exact_div_constructed_product():
    q = mono(1, v=-1, s=1) - mono(1, v=1, s=-1)
    assert (Z * q).exact_div_factor(1) == q


def test_exact_div_rejects_bad_k():
    with pytest.raises(ValueError):
        Z.exact_div_factor(0)


@given(polys, st.integers(1, 3))
def test_exact_div_round_trip(p, k):
    factor = LaurentPoly({(0, k): 1, (0, -k): -1})
    assert (p * factor).exact_div_factor(k) == p


# -- simplify -----------------------------------------------------------------

def test_simplify_cancels_full_factor():
    x = SkeinScalar((V_INV - V) * Z, ((1, 1),))
    assert x.den == ()
    assert x.num == V_INV - V


def test_simplify_idempotent_on_delta():
    d = delta()
    again = SkeinScalar(d.num, d.den)
    assert again.num == d.num and again.den == d.den


def test_simplify_partial_cancellation():
    x = SkeinScalar(LaurentPoly({(0, 2): 1, (0, -2): -1}), ((1, 1),))
    assert x.den == ()
    assert x.num == LaurentPoly({(0, 1): 1, (0, -1): 1})


@given(scalars)
def test_simplify_preserves_value(x):
    assert SkeinScalar(x.num, x.den) == x


# -- equality -----------------------------------------------------------------

def test_eq_is_representative_independent():
    a = delta()
    b = SkeinScalar((V_INV - V) * Z, ((1, 2),))  # unreduced input form
    assert a == b


def test_eq_distinguishes_zero():
    assert delta() != SkeinScalar.zero()


def test_eq_across_denominators():
    a = SkeinScalar(LaurentPoly({(0, 2): 1, (0, -2): -1}), ((1, 1),))
    b = SkeinScalar(LaurentPoly({(0, 1): 1, (0, -1): 1}))
    assert a == b


# -- mirror ---------------------------------------------------------------------

def test_mirror_swaps_v():
    assert SkeinScalar(V_INV - V).mirror() == SkeinScalar(V - V_INV)


def test_mirror_fixes_delta():
    assert delta().mirror() == delta()


def test_mirror_exchanges_hopf_values():
    h_plus = delta() ** 2 + mono(1, v=-2) - 1
    h_minus = delta() ** 2 + mono(1, v=2) - 1
    assert h_plus.mirror() == h_minus


@given(scalars)
def test_mirror_involution(x):
    assert x.mirror().mirror() == x


@given(scalars, scalars)
def test_mirror_is_ring_homomorphism(x, y):
    assert (x * y).mirror() == x.mirror() * y.mirror()
    assert (x + y).mirror() == x.mirror() + y.mirror()


@given(scalars)
def test_s_inverse_involution(x):
    assert x.s_inverse().s_inverse() == x


# -- ring axioms ------------------------------------------------------------------

@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(scalars, st.integers(0, 4))
def test_pow_matches_repeated_multiplication(x, n):
    expected = SkeinScalar.one()
    for _ in range(n):
        expected = expected * x
    assert x ** n == expected


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        delta() ** -1


# -- delta ---------------------------------------------------------------------

def test_delta_reduced_form():
    d = delta()
    assert d.num == V_INV - V
    assert d.den == (DenomFactor(1, 1),)


def test_delta_times_factor():
    assert delta() * SkeinScalar(Z) == SkeinScalar(V_INV - V)


# -- serialization ----------------------------------------------------------------

def test_json_shape():
    assert delta().to_json() == {
        "num": [{"v": -1, "s": 0, "c": 1}, {"v": 1, "s": 0, "c": -1}],
        "den": [{"k": 1, "mult": 1}],
    }


@given(scalars)
def test_json_round_trip(x):
    again = SkeinScalar.from_json(json.loads(json.dumps(x.to_json())))
    assert again == x
    assert again.to_json() == x.to_json()


# -- all_distinct --------------------------------------------------------------------

def test_all_distinct_spots_equal_values_in_different_clothes():
    a = delta()
    b = SkeinScalar((V_INV - V) * LaurentPoly({(0, 2): 1, (0, -2): -1}), ((1, 1), (2, 1)))
    assert a == b
    assert not all_distinct([a, b])
    assert all_distinct([a, SkeinScalar.zero(), SkeinScalar.one()])
