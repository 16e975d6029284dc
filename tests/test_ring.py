import json
import operator
from functools import cache
from itertools import count
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from hopflinks import ring
from hopflinks.ring import (
    MAX_EXPONENT,
    LaurentPoly,
    SkeinScalar,
    all_distinct,
    common_denominator,
    delta,
)
from ring_tools import coefficient, mono, reference_common_denominator, s_inverse


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

def test_delta_is_one_shared_value():
    d = delta()
    assert delta() is d
    delta.cache_clear()
    assert delta() is not d and delta() == d


def test_zero_coefficients_are_dropped():
    p = LaurentPoly({(0, 0): 1, (1, 2): 0})
    assert p.terms() == [(0, 0, 1)]
    assert LaurentPoly({(1, 1): 2, (0, 0): 0}) + LaurentPoly({(1, 1): -2}) == LaurentPoly.zero()


def test_duplicate_keys_merge():
    p = LaurentPoly([((1, 0), 2), ((1, 0), 3)])
    assert coefficient(p, v=1) == 5


def test_denominators_merge_and_sort():
    x = SkeinScalar(mono(1, v=1), [(2, 1), (1, 1), (2, 1)])
    assert x.den == ((1, 1), (2, 2))


def test_zero_scalar_has_empty_denominator():
    assert SkeinScalar(LaurentPoly.zero(), [(1, 3)]).den == ()
    assert not SkeinScalar.zero()


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
    assert not delta() + other


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


def assert_certified(p, exact=False):
    """max |c| <= _cap < 2^(_w-1), sum |c| <= _l1 (both equal when `exact`), and every row trimmed."""
    sizes = [abs(c) for _, _, c in p.terms()]
    assert max(sizes, default=0) <= p._cap < 1 << (p._w - 1)
    assert sum(sizes) <= p._l1
    if exact:
        assert (p._cap, p._l1) == (max(sizes, default=0), sum(sizes))
    assert all(row & ((1 << p._w) - 1) for _, row in p._rows.values())


@given(polys, st.one_of(st.integers(-9, 9), st.integers(-(1 << 100), 1 << 100)))
@example(LaurentPoly({(0, 0): (1 << 46) - 1, (1, 3): -5}), 1 << 20)
def test_int_product_scales_the_rows(p, n):
    scaled = p * n
    assert scaled == p * LaurentPoly.term(n)
    assert n * p == scaled
    assert_certified(scaled)


# -- carried bounds -------------------------------------------------------------

# Coefficients at the edges of the first two slot widths, and far beyond.
EDGES = [(1 << (w - 1)) - 1 for w in (ring._BASE_WIDTH, 2 * ring._BASE_WIDTH)]
bound_coeffs = st.one_of(
    st.integers(-5, 5), st.sampled_from(EDGES + [-c for c in EDGES]), st.integers(-(1 << 100), 1 << 100)
)
bound_polys = st.dictionaries(st.tuples(exponents, exponents), bound_coeffs, max_size=6).map(LaurentPoly)


@settings(deadline=None)
@given(bound_polys, bound_polys, bound_coeffs, st.integers(1, 12), st.integers(-8, 8))
@example(LaurentPoly({(0, 0): EDGES[0], (0, 2): -EDGES[0]}), LaurentPoly({(1, 1): EDGES[0]}), 3, 1, 2)
def test_every_result_keeps_its_bounds(a, b, n, d, k):
    # max |c| <= _cap < 2^(_w-1) and sum |c| <= _l1 on every result, and
    # both exact where a polynomial is built from its terms.
    phi = LaurentPoly(((0, 2 * j), c) for j, c in enumerate(cyclotomic(d)))
    for p in (a, b, LaurentPoly.from_json(a.to_json()), LaurentPoly.term(n, k, -k), a.mirror(), s_inverse(a)):
        assert_certified(p, exact=True)
    chain = a * b * b * a
    results = [a + b, a - b, -a, n - a, a * b, b * a, a * n, n * b, chain, chain + chain * n, a * phi]
    results += [q for q in ((a * phi).exact_div_phi(d), a.exact_div_phi(d), chain.exact_div_factor(1)) if q is not None]
    results.append(LaurentPoly.brackets([(k, abs(k)), (d, 3)]))
    for p in results:
        assert_certified(p)
        p._fit()
        assert_certified(p)
    assert (a * phi).exact_div_phi(d) == a


def test_scalar_times_int_keeps_its_denominator():
    x = SkeinScalar(V_INV - V * 3, [(2, 1), (1, 1)])
    assert (x * 6)._den == x._den and x * 6 == x * SkeinScalar(6)
    zero = x * 0
    assert not zero and zero._den == () and (0 * x)._den == ()


# -- products of brackets -----------------------------------------------------

bracket_counts = st.lists(st.tuples(st.integers(-12, 12), st.integers(0, 12)), max_size=8).filter(
    lambda counts: sum(m for _, m in counts) <= 60
)
# The fewest brackets whose bound C(n, n // 2) leaves the base slot.
WIDE_BRACKETS = next(n for n in count() if comb(n, n >> 1) >> (ring._BASE_WIDTH - 1))


@settings(deadline=None)
@given(bracket_counts)
@example([(c, 5) for c in range(-6, 6)])  # n = 60, past the base slot
@example([(0, WIDE_BRACKETS - 1), (1, 1)])  # the first count at twice the base width
@example([(0, WIDE_BRACKETS - 1)])  # the last count at the base width
@example([])
def test_brackets_match_the_product_of_powers(counts):
    expected = LaurentPoly.one()
    for c, mult in counts:
        expected = expected * LaurentPoly({(-1, c): 1, (1, -c): -1}) ** mult
    p = LaurentPoly.brackets(counts)
    assert p == expected
    assert_certified(p)
    n = sum(m for _, m in counts)
    assert p._cap == comb(n, n >> 1) and p._l1 == 1 << n
    assert p._w == (ring._BASE_WIDTH if n < WIDE_BRACKETS else 2 * ring._BASE_WIDTH)


def test_brackets_of_nothing_are_one():
    assert LaurentPoly.brackets([]) == LaurentPoly.one()
    assert LaurentPoly.brackets([(3, 0)]) == 1


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


def cross_multiplied_equal(x, y):
    def expand(den):
        out = LaurentPoly.one()
        for k, mult in den:
            out = out * LaurentPoly({(0, k): 1, (0, -k): -1}) ** mult
        return out

    return x.num * expand(y.den) == y.num * expand(x.den)


@given(scalars, scalars)
def test_eq_matches_cross_multiplication(x, y):
    # All but the first pair often share a denominator, where the numerators decide.
    for a, b in [(x, y), (x, SkeinScalar(y.num, x.den)), (x, SkeinScalar(x.num, x.den)), (x, x + y - y)]:
        assert (a == b) == cross_multiplied_equal(a, b)
        assert (a != b) != (a == b)


def test_integer_constants_hash_as_ints():
    assert len({SkeinScalar(1), 1}) == 1
    assert len({SkeinScalar.zero(), 0}) == 1
    assert hash(SkeinScalar(Z * -7, [(1, 1)])) == hash(-7)


def test_eq_over_one_denominator_compares_numerators():
    a = SkeinScalar(V, ((1, 1),))
    assert a.den == SkeinScalar(V_INV, ((1, 1),)).den
    assert a != SkeinScalar(V_INV, ((1, 1),))
    assert a == SkeinScalar(mono(1, v=1), ((1, 1),))


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
    assert s_inverse(s_inverse(x)) == x


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


@pytest.mark.parametrize("x", [Z + mono(2, v=1), delta() + SkeinScalar(V)], ids=["poly", "scalar"])
def test_pow_does_no_wasted_product(monkeypatch, x):
    # Right-to-left binary powering: one squaring per bit below the top
    # bit and one multiply per further set bit, nothing by one.
    cls = type(x)
    products = [cls.one()]
    for _ in range(9):
        products.append(products[-1] * x)
    calls = []
    plain_mul = cls.__mul__

    def counting_mul(a, b):
        calls.append(1)
        return plain_mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counting_mul)
    for n, expected in enumerate(products):
        calls.clear()
        power = x ** n
        assert power == expected
        assert power.to_json() == expected.to_json()
        assert len(calls) == (n.bit_length() - 1 + bin(n).count("1") - 1 if n else 0)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        delta() ** -1


# -- delta ---------------------------------------------------------------------

def test_delta_reduced_form():
    d = delta()
    assert d.num == V_INV - V
    assert d.den == ((1, 1),)


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


# -- canonical form -----------------------------------------------------------------
# An independent reference on plain coefficient lists: the canonical
# denominator is the cover of the cyclotomic exponents left once the
# numerator's own cyclotomic factors are divided out.

def poly_divmod(p, q):
    """Long division of integer coefficient lists, lowest first; q monic."""
    p = list(p)
    quot = [0] * max(len(p) - len(q) + 1, 0)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = p[i + len(q) - 1]
        for j, c in enumerate(q):
            p[i + j] -= quot[i] * c
    return quot, p[: len(q) - 1]


@cache
def cyclotomic(d):
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p, _ = poly_divmod(p, cyclotomic(e))
    return p


def phi_vector(den):
    """Exponent of each Phi_d in prod (s^k - s^-k)^mult."""
    e = {}
    for k, mult in den:
        for d in range(1, 2 * k + 1):
            if 2 * k % d == 0:
                e[d] = e.get(d, 0) + mult
    return e


def phi_order(num, d, limit):
    """Largest m <= limit with Phi_d^m dividing num."""
    rows = {}
    for ev, es, c in num.terms():
        rows.setdefault(ev, {})[es] = c
    lists = [[row.get(es, 0) for es in range(min(row), max(row) + 1)] for row in rows.values()]
    for m in range(limit):
        divided = [poly_divmod(p, cyclotomic(d)) for p in lists]
        if any(any(rem) for _, rem in divided):
            return m
        lists = [quot for quot, _ in divided]
    return limit


def reference_cover(e):
    e, cover = dict(e), {}
    while top := max((d for d in e if e[d]), default=0):
        k = top if top % 2 else top // 2
        cover[k] = cover.get(k, 0) + 1
        for d in phi_vector([(k, 1)]):
            e[d] = max(e.get(d, 0) - 1, 0)
    return tuple(sorted(cover.items()))


def reference_canonical_den(x):
    e = phi_vector(x.den)
    return reference_cover({d: m - phi_order(x.num, d, m) for d, m in e.items()})


def binomial(k):
    return LaurentPoly({(0, k): 1, (0, -k): -1})


PRIME, V0, S0 = 2**61 - 1, 1_234_567_891_011, 987_654_321_987


def residue(num, den=()):
    """num / prod (s^k - s^-k)^mult at (V0, S0) modulo PRIME."""
    top = sum(c * pow(V0, ev, PRIME) * pow(S0, es, PRIME) for ev, es, c in num.terms())
    bottom = 1
    for k, mult in den:
        bottom *= pow(pow(S0, k, PRIME) - pow(S0, -k, PRIME), mult, PRIME)
    return top * pow(bottom, -1, PRIME) % PRIME


def value_of(x):
    return residue(x.num, x.den)


binomial_ks = st.lists(st.integers(1, 6), max_size=4)
big_polys = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-6, 6)), st.integers(-(2**80), 2**80), min_size=1, max_size=5
).map(LaurentPoly)


def assert_same_form(x, y):
    assert x == y
    assert x.to_json() == y.to_json()
    assert hash(x) == hash(y)


def test_roadmap_example_has_one_form():
    x = SkeinScalar(LaurentPoly({(0, 1): 1, (0, -1): 1}), [(2, 1)])
    assert_same_form(x, SkeinScalar(1, [(1, 1)]))
    assert x.den == ((1, 1),) and x.num == LaurentPoly.one()


def test_cover_rule_keeps_a_binomial_denominator():
    # Nothing divides: the stored binomials are already the cover.
    x = SkeinScalar(V, [(1, 2), (3, 1), (4, 1)])
    assert x.den == ((1, 2), (3, 1), (4, 1)) and x.num == V


@given(polys.filter(bool), denominators, binomial_ks)
def test_binomial_multiple_gives_same_form(n, den, ks):
    x = SkeinScalar(n, den)
    product = LaurentPoly.one()
    for k in ks:
        product = product * binomial(k)
    assert_same_form(SkeinScalar(n * product, den + [(k, 1) for k in ks]), x)
    assert x.den == reference_canonical_den(x)
    assert value_of(x) == residue(n, den)


@given(st.integers(1, 30), big_polys, binomial_ks, st.integers(0, 2))
def test_cyclotomic_multiple_is_divided_out(d, q, ks, power):
    # Phi_d^power * Q over s^k - s^-k with d | 2k, coefficients beyond 2^64.
    phi = LaurentPoly(((0, i), c) for i, c in enumerate(cyclotomic(d)))
    k = d if d % 2 else d // 2
    num, den = q * phi**power, [(k, 1)] + [(j, 1) for j in ks]
    x = SkeinScalar(num, den)
    assert x.den == reference_canonical_den(x)
    assert value_of(x) == residue(num, den)
    assert_same_form(x, SkeinScalar(num * binomial(k), den + [(k, 1)]))


def test_cyclotomic_factor_found_at_slot_edges():
    # Coefficients just below each slot width push the divisibility test
    # to its widening step; answering "not divisible" there would leave
    # a Phi_d in both numerator and denominator.
    base = ring._BASE_WIDTH
    edges = [w - j for w in (base, 48, 2 * base, 96, 4 * base, 192) for j in range(1, 17)]
    for d in range(1, 31):
        phi = LaurentPoly(((0, i), c) for i, c in enumerate(cyclotomic(d)))
        k = d if d % 2 else d // 2
        for b in edges:
            q = LaurentPoly({(0, 0): 2**b - 1, (1, 3): 1 - 2**b, (0, -2): 1})
            x = SkeinScalar(q * phi, [(k, 1)])
            assert x.den == reference_canonical_den(x), (d, b)
            assert value_of(x) == residue(q * phi, [(k, 1)]), (d, b)


@given(scalars, scalars)
def test_sum_and_product_forms_are_canonical(x, y):
    for z in (x + y, x * y, x - y + y):
        assert z.den == reference_canonical_den(z)
    assert value_of(x + y) == (value_of(x) + value_of(y)) % PRIME
    assert value_of(x * y) == value_of(x) * value_of(y) % PRIME
    assert_same_form(x + y - y, x)


# -- the reduction in s ---------------------------------------------------------------
# The canonical form as the ring computed it while its rows were packed in
# s: divide out each Phi_d(s), d | 2k, then cover the exponents left by
# adding s^k - s^-k with k = d for odd d and k = d/2 for even d, the first
# binomial that holds Phi_d(s), for the largest uncovered d.  The ring now
# divides by Phi_e(s^2), e | k; the two must give one form.

def convolve(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def reduce_in_s(num, den):
    """(terms, den) of num / prod (s^k - s^-k)^mult in canonical form, reduced by Phi_d(s), d | 2k."""
    merged = {}
    for k, mult in den:
        merged[k] = merged.get(k, 0) + mult
    den = tuple(sorted(merged.items()))
    rows = {}
    for ev, es, c in num.terms():
        rows.setdefault(ev, {})[es] = c
    rows = {ev: (min(row), [row.get(es, 0) for es in range(min(row), max(row) + 1)]) for ev, row in rows.items()}
    e, divided = phi_vector(den), False
    for d in e:
        while e[d]:
            parts = {ev: (lo, poly_divmod(cs, cyclotomic(d))) for ev, (lo, cs) in rows.items()}
            if any(any(rest) for _, (_, rest) in parts.values()):
                break
            rows = {ev: (lo, quot) for ev, (lo, (quot, _)) in parts.items()}
            e[d], divided = e[d] - 1, True
    if not divided:
        return num.terms(), den
    cover, shift, extra = {}, sum(k * mult for k, mult in den), [1]
    while top := max((d for d in e if e[d]), default=0):
        k = top if top % 2 else top // 2
        cover[k] = cover.get(k, 0) + 1
        shift -= k
        for d in phi_vector([(k, 1)]):
            if e.get(d):
                e[d] -= 1
            else:
                extra = convolve(extra, cyclotomic(d))
    terms = []
    for ev, (lo, cs) in sorted(rows.items()):
        terms += [(ev, lo + shift + j, c) for j, c in enumerate(convolve(cs, extra)) if c]
    return terms, tuple(sorted(cover.items()))


@st.composite
def mixed_parity_scalars(draw):
    """(num, den), k up to 12: num times some Phi_d(s), d | 2k, with one v-row holding both s-parities."""
    den = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 2)), min_size=1, max_size=3))
    ds = sorted(phi_vector(den))
    base = draw(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-4, 4)), st.integers(-9, 9), max_size=4))
    base.update({(0, 0): draw(st.integers(1, 9)), (0, draw(st.sampled_from([-3, -1, 1, 3]))): draw(st.integers(-9, -1))})
    num = LaurentPoly(base)
    for d in draw(st.lists(st.sampled_from(ds), max_size=6)):
        num = num * LaurentPoly(((0, j), c) for j, c in enumerate(cyclotomic(d)))
    return num, den


def mixes_parities(num):
    parities = {}
    for ev, es, _ in num.terms():
        parities.setdefault(ev, set()).add(es % 2)
    return any(len(p) == 2 for p in parities.values())


@settings(deadline=None)
@given(mixed_parity_scalars().filter(lambda case: mixes_parities(case[0])))
@example((LaurentPoly({(0, 1): 1, (0, 0): -1}), [(1, 1)]))  # Phi_1(s) alone: no Phi_1(s^2) divides
@example((LaurentPoly({(0, 2): 1, (0, 1): 1, (0, 0): 1}), [(3, 1)]))  # Phi_3(s) of Phi_3(s^2) = Phi_3(s) Phi_6(s)
def test_canonical_form_matches_the_reduction_in_s(case):
    num, den = case
    x = SkeinScalar(num, den)
    terms, reduced_den = reduce_in_s(num, den)
    assert x.num.terms() == terms
    assert x.den == reduced_den


# -- one reduction -------------------------------------------------------------------

def test_arithmetic_never_divides(monkeypatch):
    # The canonical form is the only reduction: arithmetic builds
    # unreduced values and the first read divides, once.
    calls = []
    plain_div = LaurentPoly.exact_div_phi

    def counting_div(p, d):
        calls.append(d)
        return plain_div(p, d)

    monkeypatch.setattr(LaurentPoly, "exact_div_phi", counting_div)
    a = SkeinScalar((V_INV - V) * Z, [(1, 2), (2, 1)])
    b = SkeinScalar(Z * binomial(2) + V, [(1, 1), (2, 1)])
    x = ((a + b) * a - b) ** 3 - a * b
    x = x.mirror() + s_inverse(x) + delta() * Z
    x = SkeinScalar.sum([x, a, -b, 3, delta() * Z, b, a * b])
    assert calls == []
    first = x.to_json()
    assert calls
    calls.clear()
    x.num, x.den, x.format()
    assert x.to_json() == first
    assert x == x and x != 0 and hash(x) == hash(x)
    assert calls == []


# -- grouped sums ---------------------------------------------------------------------

def fold(values):
    """The reference sum: a left fold of `+`, one two-value sum per step."""
    out = SkeinScalar.zero()
    for x in values:
        out = out + x
    return out


@st.composite
def summand_lists(draw):
    """Scalars over repeated and disjoint denominators, ints, zeros and cancelling pairs x, -x, shuffled."""
    xs = draw(st.lists(st.one_of(scalars, st.just(SkeinScalar.zero()), st.integers(-3, 3)), max_size=8))
    xs += [-x for x in xs if draw(st.booleans())]
    return draw(st.permutations(xs))


@given(summand_lists())
@example([])
@example([SkeinScalar.zero(), 0])
@example([delta(), -delta()])
@example([delta(), SkeinScalar(V, [(1, 1)]), SkeinScalar(Z, [(2, 1)]), -delta(), 1])
def test_sum_matches_the_fold(xs):
    total, expected = SkeinScalar.sum(iter(xs)), fold(xs)
    assert total.to_json() == expected.to_json()
    assert hash(total) == hash(expected)
    assert bool(total) == bool(expected)


factored_denominators = st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=4).map(
    lambda factors: tuple(sorted(factors.items()))
)


@given(st.lists(factored_denominators, max_size=6))
@example([])
@example([()])
@example([((1, 2),), ((1, 1), (2, 1)), ((1, 2), (2, 1))])
def test_common_denominator_matches_the_lcm_loop(dens):
    top, cofactors = common_denominator(tuple(dens))
    expected_top, expected = reference_common_denominator(dens)
    assert top == expected_top
    assert len(cofactors) == len(dens)
    for den, cofactor, reference in zip(dens, cofactors, expected):
        assert (cofactor is None) == (den == top) == (reference is None)
        assert cofactor is None or cofactor.terms() == reference.terms()
    assert common_denominator(tuple(dens)) is common_denominator(tuple(dens))


CHAIN_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "**": operator.pow,
    "mirror": lambda x, _: x.mirror(),
}


@st.composite
def chains(draw):
    """6 to 10 steps, at most two of them powers: each power multiplies the degree by up to 3."""
    powers = draw(st.integers(0, 2))
    steps = draw(st.lists(
        st.one_of(st.tuples(st.sampled_from(["+", "-", "*"]), scalars), st.just(("mirror", None))),
        min_size=6 - powers,
        max_size=10 - powers,
    ))
    for _ in range(powers):
        steps.insert(draw(st.integers(0, len(steps))), ("**", draw(st.integers(0, 3))))
    return steps


@settings(deadline=None)
@given(scalars, chains())
def test_reduction_is_path_independent(start, steps):
    # Unreduced end to end, or reduced after every step: one canonical form.
    lazy = eager = start
    for name, arg in steps:
        lazy = CHAIN_OPS[name](lazy, arg)
        eager = SkeinScalar.from_json(CHAIN_OPS[name](eager, arg).to_json())
    assert lazy.to_json() == eager.to_json()
    assert hash(lazy) == hash(eager)


# -- all_distinct --------------------------------------------------------------------

def test_all_distinct_spots_equal_values_in_different_clothes():
    a = delta()
    b = SkeinScalar((V_INV - V) * LaurentPoly({(0, 2): 1, (0, -2): -1}), ((1, 1), (2, 1)))
    assert a == b
    assert not all_distinct([a, b])
    assert all_distinct([a, SkeinScalar.zero(), SkeinScalar.one()])
    assert all_distinct([]) and all_distinct([a])
    assert not all_distinct([SkeinScalar.one(), a, SkeinScalar(1)])


# -- outside input ------------------------------------------------------------------

@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_non_integer_operand_is_type_error(op):
    # The ring used to truncate: mono(3) - 1.5 gave 2.
    for left, right in [(mono(3), 1.5), (1.5, mono(3))]:
        with pytest.raises(TypeError):
            op(left, right)


@pytest.mark.parametrize(
    "terms",
    [
        [{"v": 0.9, "s": 1, "c": 2.7}],  # used to read as 2*s
        [{"v": 0, "s": 1, "c": 2.5}],
        [{"v": 0, "s": 1, "c": True}],  # used to read as s
        [{"v": False, "s": 1, "c": 1}],
    ],
)
def test_poly_from_json_rejects_non_integers(terms):
    with pytest.raises(ValueError):
        LaurentPoly.from_json(terms)


def test_repeated_terms_add_on_read():
    assert LaurentPoly.from_json([{"v": 0, "s": 0, "c": 1}, {"v": 0, "s": 0, "c": 2}]) == 3
    blob = {"num": [{"v": 1, "s": 2, "c": 1}, {"v": 1, "s": 2, "c": -1}], "den": [{"k": 1, "mult": 1}]}
    assert not SkeinScalar.from_json(blob)


@pytest.mark.parametrize("factor", [{"k": 1.9, "mult": 1}, {"k": 1, "mult": 1.0}, {"k": True, "mult": 1}])
def test_scalar_from_json_rejects_non_integer_denominator(factor):
    # {"k": 1.9} used to read as k = 1.
    with pytest.raises(ValueError):
        SkeinScalar.from_json({"num": [{"v": 0, "s": 2, "c": 1}], "den": [factor]})
    with pytest.raises(ValueError):
        SkeinScalar(mono(1), [tuple(factor.values())])


def test_from_json_exponent_bound():
    edge = [{"v": -MAX_EXPONENT, "s": MAX_EXPONENT, "c": 1}]
    assert LaurentPoly.from_json(edge) == mono(1, v=-MAX_EXPONENT, s=MAX_EXPONENT)
    for field in ("v", "s"):
        with pytest.raises(ValueError):
            LaurentPoly.from_json([{"v": 0, "s": 0, "c": 1, field: MAX_EXPONENT + 1}])
    ok = {"num": [{"v": 0, "s": 0, "c": 1}], "den": [{"k": 2, "mult": MAX_EXPONENT // 2}]}
    assert SkeinScalar.from_json(ok).den == ((2, MAX_EXPONENT // 2),)
    ok["den"].append({"k": 1, "mult": 1})
    with pytest.raises(ValueError):
        SkeinScalar.from_json(ok)
