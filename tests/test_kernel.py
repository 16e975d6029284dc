"""The packed LaurentPoly kernel against the dict-of-terms kernel it replaced.

`dict_mul` and `dict_exact_div` are the multiply and divide loops the ring
ran before its rows were packed; they stay here as the reference, and
`ref_div_phi` divides by the cyclotomic Phi_d(s^2) by long division.  A
polynomial is a dict {(v-exponent, s-exponent): coefficient} without zeros.
The strategies mix small coefficients with ones beyond 2^64 and up to
10^40, so products and quotients cross the slot width and force both the
mask-test tightening and the re-encoding at a wider width.
"""

from collections import Counter
from contextlib import contextmanager
from functools import reduce

import pytest
from hypothesis import example, given, strategies as st

from hopflinks import ring
from hopflinks.cli import _grid
from hopflinks.hopf import Decoration, HopfSpec, _core_sum, _core_weights
from hopflinks.render import parse_scalar
from hopflinks.ring import MAX_SLOTS, LaurentPoly, SkeinScalar, _decode, _pack, _product_at, _unpack, _within
from ring_tools import coefficient, s_inverse
from test_ring import assert_certified, cyclotomic, poly_divmod


def dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (av, as_), ac in a.items():
        for (bv, bs), bc in b.items():
            key = (av + bv, as_ + bs)
            c = out.pop(key, 0) + ac * bc
            if c:
                out[key] = c
    return out


def dict_exact_div(terms: dict, k: int) -> dict | None:
    """Quotient by s^k - s^{-k} when exact, else None."""
    if not terms:
        return {}
    groups: dict = {}
    for (ev, es), c in terms.items():
        groups.setdefault(ev, {})[es] = c
    out = {}
    for ev, g in groups.items():
        lo = min(g)
        deg = max(g) - lo
        if deg < 2 * k:
            return None
        f = [0] * (deg + 1)
        for es, c in g.items():
            f[es - lo] = c
        q = [0] * (deg - 2 * k + 1)
        for d in range(deg, 2 * k - 1, -1):
            c = f[d]
            if c:
                q[d - 2 * k] = c
                f[d - 2 * k] += c
                f[d] = 0
        if any(f[: 2 * k]):
            return None
        for j, c in enumerate(q):
            if c:
                out[(ev, j + lo + k)] = c
    return out


def dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        c += out.pop(key, 0)
        if c:
            out[key] = c
    return out


def cyclotomic_s2(d: int) -> list[int]:
    """Coefficients of Phi_d(s^2), lowest first: Phi_d with s -> s^2."""
    out = [0] * (2 * len(cyclotomic(d)) - 1)
    out[::2] = cyclotomic(d)
    return out


def ref_div_phi(terms: dict, d: int) -> dict | None:
    """Quotient by Phi_d(s^2) when exact, else None, by long division row by row."""
    rows: dict = {}
    for (ev, es), c in terms.items():
        rows.setdefault(ev, {})[es] = c
    out = {}
    for ev, row in rows.items():
        lo = min(row)
        quot, rest = poly_divmod([row.get(es, 0) for es in range(lo, max(row) + 1)], cyclotomic_s2(d))
        if any(rest):
            return None
        out.update({(ev, lo + j): c for j, c in enumerate(quot) if c})
    return out


def phi(d: int) -> dict:
    return {(0, j): c for j, c in enumerate(cyclotomic_s2(d)) if c}


def binomial(k: int) -> dict:
    return {(0, k): 1, (0, -k): -1}


def terms_of(p: LaurentPoly) -> dict:
    return {(ev, es): c for ev, es, c in p.terms()}


W = ring._BASE_WIDTH
BIG = [2**63, 2**64, -(2**64) - 1, 3**41, 10**40, -(10**40)]
# Values at the edge of the base slot and twice it, and halves of those;
# then the same at 48 and 96 bits, between the widths.
EDGE = [2 ** (W - 1) - 1, -(2 ** (W - 1) - 1), 2 ** (W - 2) + 1, 2 ** (W // 2 - 1) - 1, -(2 ** (W // 2 - 1) - 1)]
EDGE += [2 ** (2 * W - 1) - 1, 2**47 - 1, -(2**47 - 1), 2**46 + 1, 2**23 - 1, -(2**23 - 1), 2**95 - 1]
coeffs = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(BIG + EDGE),
    st.integers(-(10**40), 10**40),
)
exponents = st.integers(-6, 6)
dicts = st.dictionaries(st.tuples(exponents, exponents), coeffs, max_size=6).map(
    lambda d: {key: c for key, c in d.items() if c}
)
small = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-3, 3)), st.integers(-5, 5), min_size=1, max_size=4
).map(lambda d: {key: c for key, c in d.items() if c} or {(0, 0): -1})


@given(dicts, dicts)
def test_add_sub_neg_match_reference(a, b):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    assert terms_of(pa + pb) == dict_add(a, b)
    assert terms_of(pa - pb) == dict_add(a, {key: -c for key, c in b.items()})
    assert terms_of(-pa) == {key: -c for key, c in a.items()}
    assert terms_of(pa + 7) == dict_add(a, {(0, 0): 7})
    assert terms_of(7 - pa) == dict_add({(0, 0): 7}, {key: -c for key, c in a.items()})


@given(dicts, dicts, coeffs)
def test_mul_matches_reference(a, b, n):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    assert terms_of(pa * pb) == dict_mul(a, b)
    assert terms_of(pa * n) == terms_of(n * pa) == dict_mul(a, {(0, 0): n} if n else {})


@given(dicts, st.integers(0, 4))
def test_pow_matches_reference(a, n):
    assert terms_of(LaurentPoly(a) ** n) == reduce(dict_mul, [a] * n, {(0, 0): 1})


@given(st.lists(small, min_size=12, max_size=14), st.sampled_from(BIG))
def test_product_chains_widen(factors, big):
    # Twelve or more mixed-sign factors, one scaled past 2^63: the
    # certified bound outgrows the slot at least once on the way.
    factors[len(factors) // 2] = {key: c * big for key, c in factors[len(factors) // 2].items()}
    packed = reduce(lambda p, f: p * LaurentPoly(f), factors, LaurentPoly.one())
    assert terms_of(packed) == reduce(dict_mul, factors, {(0, 0): 1})


# The row operations of the skein tree's steps and frames, against the
# generic product they replace.
Z2 = {(0, 2): 1, (0, 0): -2, (0, -2): 1}  # z^2 = s^2 - 2 + s^-2


@given(dicts, st.integers(-6, 6))
@example({(0, 0): 2**64, (0, 1): -3, (2, -5): 10**40, (-1, 4): 7}, -3)
def test_v_shift_matches_the_product_by_a_v_power(a, e):
    p = LaurentPoly(a)
    shifted = p.times_v(e)
    assert shifted == p * LaurentPoly.term(1, v=e)
    assert terms_of(shifted) == dict_mul(a, {(e, 0): 1})
    assert_certified(shifted)


@contextmanager
def no_product():
    """Fail on any LaurentPoly product made inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LaurentPoly, "__mul__", lambda x, y: pytest.fail(f"product {x!r} * {y!r}"))
        yield


@given(dicts, dicts, st.sampled_from([1, -1]), st.booleans())
@example({(0, 0): 5}, {(0, 0): 2**30}, 1, True)  # 2 |c| reaches 2^31: the 32-bit slot is too narrow
@example({}, {(0, 0): 2**30 - 1, (0, 2): 2**30 - 1, (1, 1): -(2**29)}, -1, True)
@example({(0, -2): 2**30}, {(0, 0): 2**30}, -1, False)
@example({(1, 0): 3}, {(0, 0): 2**64, (0, 1): -3, (2, -5): 10**40, (-1, 4): 7}, 1, True)
@example({(1, 0): 2**62}, {(1, 0): 2**62, (1, 2): 2**62}, -1, True)  # past the 64-bit slot
def test_addition_loop_matches_the_reference(a, b, sign, lift):
    # a + sign * b, with b times z^2 when lifted, in one pass of the rows:
    # no product, and the narrowest slot the carried bound allows.
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    with no_product():
        result = pa.plus(pb, sign, lift)
    b = dict_mul(b, Z2) if lift else b
    assert terms_of(result) == dict_add(a, {key: sign * c for key, c in b.items()})
    assert_certified(result)
    assert result._w == max(pa._w, pb._w, ring._width(result._cap.bit_length()))


@given(dicts)
@example({(0, 0): 2**30})  # 2 |c| reaches 2^31: the 32-bit slot is too narrow
@example({(0, 0): 2**30 - 1, (0, 2): 2**30 - 1, (1, 1): -(2**29)})
@example({(0, 0): 2**64, (0, 1): -3, (2, -5): 10**40, (-1, 4): 7})
def test_z2_lift_matches_the_product_by_z_squared(a):
    p = LaurentPoly(a)
    lifted = LaurentPoly.zero().plus(p, lift=True)
    assert lifted == p * ring.Z * ring.Z
    assert terms_of(lifted) == dict_mul(a, Z2)
    assert_certified(lifted)


@pytest.mark.parametrize(
    "a, widened",
    [
        ({(0, 0): 2**28, (0, 2): -(2**28), (3, 1): 5}, False),
        ({(0, 0): 2**30}, True),
        ({(0, 0): 2**30 - 1, (0, 2): 2**30 - 1}, True),
        ({(1, 0): 2**60, (1, 4): -(2**59)}, False),
        ({(1, 0): 2**62, (1, 2): 2**62}, True),
    ],
)
def test_z2_lift_widens_the_slot_only_past_it(a, widened):
    # On the rows in the same slots while min(4 _cap, 2 _l1) fits them;
    # beyond that, re-encoded one width up.  Neither makes a product.
    p = LaurentPoly(a)
    with no_product():
        lifted = LaurentPoly.zero().plus(p, lift=True)
    assert (lifted._w > p._w) == widened
    assert terms_of(lifted) == dict_mul(a, Z2)
    assert_certified(lifted)


V_DELTA = {(-1, 0): 1, (1, 0): -1}  # v^-1 - v, the numerator of the loop value over z


@given(dicts)
@example({(0, 0): 2**30, (2, 0): 2**30, (4, 0): 2**30})  # the running sums reach 3 * 2^30
@example({(0, 0): 2**31 - 1, (0, 2): -(2**31 - 1), (1, 1): 2**30})
@example({(0, 0): 2**64, (0, 1): -3, (2, -5): 10**40, (-1, 4): 7})
@example({(-6, 0): 1, (6, 0): 1})  # a v-row gap between two runs
def test_division_by_the_loop_numerator_matches_the_reference(a):
    # (Q (v^-1 - v)) / (v^-1 - v) is Q, by running sums of the rows: no
    # product, and bounds that certify the quotient.
    p = LaurentPoly(dict_mul(a, V_DELTA))
    with no_product():
        q = p.div_v_delta()
    assert terms_of(q) == a
    assert_certified(q)


@given(dicts, st.tuples(exponents, exponents), coeffs.filter(bool))
def test_division_by_the_loop_numerator_refuses_a_remainder(a, key, c):
    # Q (v^-1 - v) plus one term, which v^-1 - v does not divide.
    p = LaurentPoly(dict_add(dict_mul(a, V_DELTA), {key: c}))
    with pytest.raises(ArithmeticError):
        p.div_v_delta()


@given(dicts, st.integers(1, 8))
def test_exact_div_matches_reference(a, k):
    p = LaurentPoly(a)
    # Exact: a times the factor divides back to a.
    product = p * LaurentPoly(binomial(k))
    assert terms_of(product.exact_div_factor(k)) == a
    assert dict_exact_div(dict_mul(a, binomial(k)), k) == a
    # Arbitrary input: mostly inexact, sometimes exact.
    quotient = p.exact_div_factor(k)
    expected = dict_exact_div(a, k)
    assert (quotient is None) == (expected is None)
    if expected is not None:
        assert terms_of(quotient) == expected


@contextmanager
def division_route():
    """Record the slot widths a division screens at, and every product or other division it runs."""
    widths, others = [], []
    product_at = ring._product_at

    def screened(factors, w):
        out = product_at(factors, w)
        widths.append(out[0])
        return out

    def counted(name):
        original = getattr(LaurentPoly, name)

        def wrapper(*args):
            others.append(name)
            return original(*args)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ring, "_product_at", screened)
        for name in ("__mul__", "exact_div_factor"):
            mp.setattr(LaurentPoly, name, counted(name))
        yield widths, others


@given(dicts, st.integers(1, 24))
def test_exact_div_phi_matches_reference(a, d):
    p = LaurentPoly(a)
    # Exact: a times Phi_d divides back to a.
    product = dict_mul(a, phi(d))
    assert terms_of(LaurentPoly(product).exact_div_phi(d)) == a
    assert ref_div_phi(product, d) == a
    # Arbitrary input: mostly inexact, sometimes exact.
    quotient, expected = p.exact_div_phi(d), ref_div_phi(a, d)
    assert (quotient is None) == (expected is None)
    if expected is not None:
        assert terms_of(quotient) == expected


@given(st.integers(1, 24), st.data())
def test_exact_div_phi_near_the_slot(d, data):
    # Quotient coefficients at the edge of what certifies at the base width
    # W: the division widens to 2W exactly when a coefficient leaves the mask.
    _, _, bits = _product_at(((d, 1),), W)
    edge = 1 << (bits - 1)
    near = st.one_of(st.integers(edge - 2, edge + 2), st.integers(-edge - 2, -edge + 2), st.integers(-9, 9))
    q = data.draw(st.lists(near, min_size=1, max_size=8))
    q[0] = q[0] or 1
    a = {(0, j): c for j, c in enumerate(q) if c}
    product = LaurentPoly(dict_mul(a, phi(d)))
    assert product._w == W
    with division_route() as (widths, others):
        quotient = product.exact_div_phi(d)
    assert terms_of(quotient) == a
    inside = all(-edge <= c < edge for c in q)
    assert quotient._w == (W if inside else 2 * W)
    assert widths == ([W] if inside else [W, 2 * W])
    assert others == []


@pytest.mark.parametrize("d", range(1, 25))
def test_exact_div_phi_runs_the_cofactor_route(d):
    # A quotient slot one past the mask bound at the base width W is not
    # certified there; it is at 2W, with no product and no other division.
    _, _, bits = _product_at(((d, 1),), W)
    a = {(0, j): 1 << (bits - 1) for j in range(2 * d + 1)}
    product = LaurentPoly(dict_mul(a, phi(d)))
    assert product._w == W
    with division_route() as (widths, others):
        quotient = product.exact_div_phi(d)
    assert terms_of(quotient) == a
    assert quotient._w == 2 * W and widths == [W, 2 * W]
    assert others == []


def test_exact_div_phi_false_pass_of_the_screen():
    # N(1 + t + t^2), t = s^2, at t = 2^w is N(2^2w + 2^w + 1), a multiple
    # of 3N = 2^w - 1 = Phi_1(2^w), though Phi_1(t) = t - 1 does not divide
    # it.  The quotient fails the mask, and at the next width the screen fails.
    for w in (W, 2 * W):
        n = (2**w - 1) // 3
        p = LaurentPoly({(0, 0): n, (0, 2): n, (0, 4): n})
        assert p._w == w
        ((_, row),) = p._rows.values()
        assert row % _product_at(((1, 1),), w)[1] == 0
        with division_route() as (widths, others):
            assert p.exact_div_phi(1) is None
        assert widths == [w, ring._width(w)]
        assert others == []
        assert ref_div_phi({(0, 0): n, (0, 2): n, (0, 4): n}, 1) is None


# -- one division by a product of cyclotomic factors ------------------------------------


def ref_div_phis(terms: dict, factors) -> dict | None:
    """Quotient by prod Phi_d(s^2)^m over the (d, m) pairs when exact, else None: repeated `ref_div_phi`."""
    for d, m in factors:
        for _ in range(m):
            if terms is None:
                return None
            terms = ref_div_phi(terms, d)
    return terms


def phis(factors) -> dict:
    """prod Phi_d(s^2)^m over the (d, m) pairs, as terms."""
    return reduce(dict_mul, [phi(d) for d, m in factors for _ in range(m)], {(0, 0): 1})


# 1 to 8 factors Phi_d(s^2), d <= 30, repeats allowed; as sorted (d, m) pairs.
products = st.lists(st.integers(1, 30), min_size=1, max_size=8).map(lambda ds: tuple(sorted(Counter(ds).items())))
# Coefficients 1 to 16 bits below the 32-, 64- and 96-bit slot edges, of either sign.
below_edges = st.builds(
    lambda edge, j, sign: sign * ((1 << (edge - 1 - j)) - 1), st.sampled_from([W, 2 * W, 3 * W]), st.integers(1, 16),
    st.sampled_from([1, -1]),
)
quotients = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-4, 4)), st.one_of(st.integers(-5, 5), below_edges), min_size=1,
    max_size=4,
).map(lambda d: {key: c for key, c in d.items() if c} or {(0, 0): 1})


@given(quotients, products, st.sampled_from(["exact", "off by s", "alone"]))
@example({(0, 0): (1 << (W - 2)) - 1, (0, 2): -((1 << (W - 2)) - 1)}, ((1, 2), (2, 1), (3, 3)), "exact")
def test_exact_div_phis_matches_repeated_ref_div_phi(a, factors, kind):
    # Exact (a times the product), one term off (s^1 is divisible by no
    # Phi_d(s^2)), or a alone (mostly inexact): one division by the whole
    # product gives the quotient of the factors divided out one at a time.
    f = dict_mul(a, phis(factors))
    if kind == "off by s":
        f = dict_add(f, {(0, 1): 1})
    elif kind == "alone":
        f = a
    quotient, expected = LaurentPoly(f).exact_div_phis(factors), ref_div_phis(f, factors)
    assert (quotient is None) == (expected is None)
    if kind == "exact":
        assert expected == a
    if expected is not None:
        assert terms_of(quotient) == expected
        assert_certified(quotient)


@pytest.mark.parametrize("factors", [((1, 1), (2, 1)), ((1, 3), (2, 2), (3, 1), (6, 1)), ((5, 2), (7, 1), (30, 1))])
def test_exact_div_phis_widens_one_step(factors):
    # Quotient slots one past the mask bound of the product at the base
    # width W: its multiple fits W, but only 2W certifies the quotient,
    # with one screen at each width and no product or other division.
    _, _, bits = _product_at(factors, W)
    a = {(0, j): 1 << (bits - 1) for j in range(5)}
    product = LaurentPoly(dict_mul(a, phis(factors)))
    assert product._w == W
    with division_route() as (widths, others):
        quotient = product.exact_div_phis(factors)
    assert terms_of(quotient) == a
    assert quotient._w == 2 * W and widths == [W, 2 * W]
    assert others == []


def test_product_bound_is_the_exact_l1_norm():
    # (t - 1)^40 has L1 norm 2^40: the product starts at the first width
    # where the certifying bound is positive, and that bound is w - 1 - 41.
    w, m, bits = _product_at(((1, 40),), W)
    assert (w, bits) == (2 * W, 2 * W - 42)
    assert m == (2**w - 1) ** 40
    for factors in [((1, 1),), ((2, 3), (5, 1)), ((1, 2), (6, 4), (30, 1))]:
        l1 = sum(abs(c) for c in phis(factors).values())
        w, m, bits = _product_at(factors, W)
        assert w == W and bits == W - 1 - l1.bit_length()
        assert m == sum(c << (w * (es // 2)) for (_, es), c in phis(factors).items())


def divisions(monkeypatch) -> list:
    """Record the factors of every division the ring runs from now on."""
    calls = []
    real = LaurentPoly.exact_div_phis
    monkeypatch.setattr(LaurentPoly, "exact_div_phis", lambda p, factors: calls.append(factors) or real(p, factors))
    return calls


def test_each_closed_form_result_divides_once_and_its_read_never(monkeypatch):
    # A closed-form sum is divided once, by the product of every Phi_d(s^2)
    # of its denominator less those of z^c, and stored in canonical form:
    # reading it divides nothing.  A core whose denominator is z^(n1 + n2)
    # alone leaves nothing to divide.  H(2,2;8,0) widens once on the way.
    calls = divisions(monkeypatch)
    for spec in _grid(3, 6) + [HopfSpec(2, 2, 8, 0)]:
        n = spec.n1 + spec.n2
        top, _ = _core_weights(spec.n1, spec.n2)
        calls.clear()
        value = _core_sum(spec)
        assert len(calls) == (dict(top) != ({1: n} if n else {})), spec
        calls.clear()
        value.to_json(), value.num, value.den, value.format("latex"), hash(value)
        assert calls == [], spec


@given(quotients.filter(lambda a: ref_div_phi(a, 1) is None), st.integers(0, 5), st.integers(0, 3))
def test_known_z_power_constructor_matches_the_generic_form(a, c, spare):
    # den = z^(c + spare) (s^2 - s^-2)(s^3 - s^-3); in t = s^2 its factors
    # beyond z^c are Phi_1^(spare + 2) Phi_2 Phi_3, and num is a times them.
    # With a off Phi_1(s^2), the value is canonical over z^c, and the
    # scalar stored so at construction is the generic one's canonical form.
    # A numerator those factors do not divide, or fewer factors z than c,
    # raise.
    den = ((1, c + spare), (2, 1), (3, 1)) if c + spare else ((2, 1), (3, 1))
    num = LaurentPoly(dict_mul(a, phis(((1, spare + 2), (2, 1), (3, 1)))))
    x, generic = SkeinScalar._over_z(num, den, c), SkeinScalar(num, den)
    assert x._canon is not None
    assert x.to_json() == generic.to_json()
    assert x.den == (((1, c),) if c else ())
    with pytest.raises(ArithmeticError, match="no exact quotient"):
        SkeinScalar._over_z(num + LaurentPoly.term(1, s=1), den, c)
    with pytest.raises(ArithmeticError, match="only"):
        SkeinScalar._over_z(num, den, c + spare + 3)


@given(st.lists(small, min_size=12, max_size=14), st.integers(1, 3))
def test_division_chain_with_growing_coefficients(factors, k):
    # Alternate products and exact divisions so quotients inherit wide bounds.
    p, ref = LaurentPoly.one(), {(0, 0): 1}
    for f in factors:
        p = (p * LaurentPoly(f) * LaurentPoly(binomial(k))).exact_div_factor(k) * 3
        ref = dict_mul(dict_mul(ref, f), {(0, 0): 3})
        assert terms_of(p) == ref


@given(dicts)
def test_substitutions_and_queries_match_reference(a):
    p = LaurentPoly(a)
    assert terms_of(p.mirror()) == {(-ev, -es): c for (ev, es), c in a.items()}
    assert terms_of(s_inverse(p)) == {(ev, -es): c for (ev, es), c in a.items()}
    assert p.terms() == sorted((ev, es, c) for (ev, es), c in a.items())
    for (ev, es), c in a.items():
        assert coefficient(p, ev, es) == c
        assert coefficient(p, ev, es + 13) == 0
    assert coefficient(p, 99, 0) == 0


@given(dicts, dicts, st.sampled_from(BIG))
def test_equality_across_slot_widths(a, b, big):
    pa, pb = LaurentPoly(a), LaurentPoly(b)
    assert (pa == pb) == (a == b)
    # Adding and removing a huge constant leaves the value at a wider width.
    wide = pa + big - big
    assert wide == pa and pa == wide
    assert (wide == pb) == (a == b)
    assert (pa == 0) == (not a)


@pytest.mark.parametrize("edge", EDGE)
def test_full_slots(edge):
    # Thirteen equal coefficients that fill a slot: every certified bound
    # (sum carry, product spread, division fold) is needed to stay exact.
    a = {(ev, es): edge for ev in (-1, 0) for es in range(-6, 7)}
    b = {key: -c for key, c in a.items()}
    p, q = LaurentPoly(a), LaurentPoly(b)
    assert terms_of(p + p) == dict_add(a, a)
    assert terms_of(p - q) == dict_add(a, a)
    assert terms_of(p * q) == dict_mul(a, b)
    assert terms_of(p * p * p) == dict_mul(dict_mul(a, a), a)
    for k in (1, 2, 3):
        for f in (a, dict_mul(a, binomial(k))):
            quotient, expected = LaurentPoly(f).exact_div_factor(k), dict_exact_div(f, k)
            assert (quotient is None) == (expected is None)
            assert quotient is None or terms_of(quotient) == expected


@pytest.mark.parametrize("sign", [1, -1])
def test_quotient_digits_beyond_the_dividend(sign):
    # A tent of 32 coefficients peaking above 2^(W-1), W the base width,
    # times s - s^{-1}: the product's coefficients fit W - 3 bits, so only
    # the division's fold bound sees that its quotient needs a wider slot,
    # and only the quotient's bound makes its square widen again.
    c = sign * (2 ** (W - 5) + 1)
    q = {(0, j): min(j + 1, 32 - j) * c for j in range(32)}
    f = dict_mul(q, binomial(1))
    assert max(abs(x) for x in f.values()).bit_length() == W - 3
    assert LaurentPoly(f)._w == W
    quotient = LaurentPoly(f).exact_div_factor(1)
    assert quotient._w == 2 * W
    assert terms_of(quotient) == q
    assert terms_of(quotient * quotient) == dict_mul(q, q)
    assert terms_of(quotient + quotient) == dict_add(q, q)


def test_slot_widths_are_the_multiples_of_the_base_width():
    # The narrowest multiple of W above the bits asked for.
    for bits in range(16 * W):
        assert ring._width(bits) == min(w for w in range(W, 17 * W, W) if w > bits), bits


@given(st.sampled_from([W, 48, 2 * W, 96]), st.data())
def test_packed_row_identities(w, data):
    half = 1 << (w - 1)
    row = data.draw(st.lists(st.integers(-half + 1, half - 1), min_size=1, max_size=9))
    row[-1] = row[-1] or 1
    packed = _pack(row, w)
    assert packed == sum(c << (w * j) for j, c in enumerate(row))
    assert _unpack(packed, w) == row
    bits = data.draw(st.integers(1, w - 1))
    assert _within([packed], w, bits) == all(-(1 << (bits - 1)) <= c < 1 << (bits - 1) for c in row)


def within_reference(rows, bits):
    """The per-slot check the mask test must agree with."""
    return all(-(1 << (bits - 1)) <= c < 1 << (bits - 1) for row in rows for c in row)


@st.composite
def mask_case(draw):
    """A width, a bound, and rows of mixed lengths and signs with slots at and beside +-2^(bits-1)."""
    w = draw(st.sampled_from([W, 48, 2 * W, 96, 4 * W, 192]))
    bits = draw(st.integers(1, w - 1))
    top, edge = (1 << (w - 1)) - 1, 1 << (bits - 1)
    coeff = st.one_of(
        st.sampled_from([edge, -edge, edge - 1, -edge - 1, 0, 1, -1, top, -top]), st.integers(-top, top)
    )
    row = st.lists(coeff, min_size=1, max_size=10).map(lambda r: r[:-1] + [r[-1] or -edge])
    return w, bits, draw(st.lists(row, max_size=5))


@given(mask_case())
def test_mask_test_over_rows_matches_per_slot_check(case):
    w, bits, rows = case
    assert _within([_pack(row, w) for row in rows], w, bits) == within_reference(rows, bits)


@pytest.mark.parametrize("w", [48, 96, 192, W, 2 * W, 4 * W])
def test_mask_test_short_rows_beside_long_ones(w):
    bits = 16
    edge = 1 << (bits - 1)
    long_row = [1] * 9
    cases = [
        [],
        [[-1], long_row],  # a short negative row beside a long one
        [[-1], long_row[:-1] + [edge]],  # ... out of range above the short row's top
        [[-edge], long_row],
        [[-edge - 1], long_row],
        [[edge - 1], [edge]],  # one-slot rows at the bound
        [long_row, [3, -edge - 1]],
        [[-edge, 0, 0, -edge], [5]],
    ]
    for rows in cases:
        assert _within([_pack(row, w) for row in rows], w, bits) == within_reference(rows, bits)


def slot_rows(w):
    """Rows of slot coefficients for width w: edge values, one-slot rows, zero interior slots."""
    top = (1 << (w - 1)) - 1
    coeff = st.one_of(st.sampled_from([top, -top, 0, 1, -1, 0x80 << (w - 16)]), st.integers(-top, top))
    return st.lists(coeff, min_size=1, max_size=12).map(lambda row: row[:-1] + [row[-1] or top])


@given(
    st.sampled_from([W, 2 * W, 4 * W, 48]).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.tuples(slot_rows(w), st.booleans()), max_size=20))
    )
)
@example((W, [([5, -1], False), ([0, 0, 1], True), ([(1 << (W - 1)) - 1], True), ([7, -3], False)]))
def test_bulk_decode_matches_per_slot_unpack(case):
    # At the base width W the rows are joined into one integer and read in
    # one pass, whatever their number and length; wider rows take
    # `_unpack`.  Up to 20 rows, each negated or not: a row whose top slot
    # is negative borrows from the slots of the rows above it in the join.
    w, signed = case
    rows = [[-c for c in row] if negate else row for row, negate in signed]
    packed = [_pack(row, w) for row in rows]
    assert _decode(packed, w) == [_unpack(row, w) for row in packed] == rows


@pytest.mark.parametrize("nrows", [1, 2, 5])
@pytest.mark.parametrize("shift", [-11, -1, 0, 1, 20])
def test_decode_routes_by_slot_count(monkeypatch, nrows, shift):
    # Rows of 16 + shift slots in all (5 to 36, around the 16 from which
    # the bulk pass once began), edge values among them: at the base width
    # W no row is `_unpack`ed, at 2W each one is, and both read the same
    # coefficients.  A top slot of 1 keeps the bit-length count of the
    # slots exact.
    slots = 16 + shift
    calls = []
    unpack = ring._unpack
    monkeypatch.setattr(ring, "_unpack", lambda row, w: calls.append(row) or unpack(row, w))
    for w in (W, 2 * W):
        top = (1 << (w - 1)) - 1
        values = [top, -top, 0, 1, -1, 1 << (w - 8), -(1 << (w - 2))]
        flat = [values[i % len(values)] for i in range(slots)]
        sizes = [slots // nrows + (i < slots % nrows) for i in range(nrows)]
        rows = [flat[sum(sizes[:i]) : sum(sizes[: i + 1])] for i in range(nrows)]
        rows = [row[:-1] + [1] for row in rows]
        packed = [_pack(row, w) for row in rows]
        calls.clear()
        assert _decode(packed, w) == rows
        assert len(calls) == (0 if w == W else nrows)


def test_bulk_decode_edges(monkeypatch):
    top = (1 << (W - 1)) - 1
    rows = [[top], [-top], [1, 0, 0, -1], [-top, 0, top], [-1] * 5, [1 << (W - 8), -(1 << (W - 8))]]
    packed = [_pack(row, W) for row in rows]
    assert _decode(packed, W) == rows
    p = LaurentPoly({(ev, es): c for ev, row in enumerate(rows) for es, c in enumerate(row)})
    assert p._w == W
    text, terms = p.format("latex"), p.terms()
    # The path a big-endian host takes: every row through _unpack.
    monkeypatch.setattr(ring, "_BULK", False)
    assert _decode(packed, W) == rows
    assert (p.format("latex"), p.terms()) == (text, terms)


# -- reads of rows that mix both s-parities ------------------------------------


def ref_format(a: dict, style: str) -> str:
    """The notation of `LaurentPoly.format`, from a dict of terms."""
    power, times = ("^{}", "*") if style == "plain" else ("^{{{}}}", " ")
    chunks = []
    for (ev, es), c in sorted(a.items()):
        factors = [base + (power.format(e) if e != 1 else "") for base, e in (("v", ev), ("s", es)) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        chunks.append(("- " if c < 0 else "+ ") + times.join(factors))
    text = " ".join(chunks) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


@st.composite
def mixed_parity(draw):
    """Terms with at least one v-row holding both an even and an odd s-exponent."""
    a = draw(dicts)
    ev, even, odd = draw(exponents), draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    a[(ev, 2 * even)] = draw(coeffs) or 1
    a[(ev, 2 * odd + 1)] = draw(coeffs) or -1
    return a


@given(mixed_parity(), st.sampled_from([1, 3, 5, 7]))
def test_mixed_parity_reads_match_reference(a, k):
    p = LaurentPoly(a)
    assert p.terms() == sorted((ev, es, c) for (ev, es), c in a.items())
    assert p.to_json() == [{"v": ev, "s": es, "c": c} for (ev, es), c in sorted(a.items())]
    for style in ("plain", "latex"):
        assert p.format(style) == ref_format(a, style)
    spans: dict = {}
    for ev, es in a:
        lo, hi = spans.get(ev, (es, es))
        spans[ev] = min(lo, es), max(hi, es)
    assert p.spans() == spans
    # Odd k moves every term to the other s-parity.
    assert terms_of((p * LaurentPoly(binomial(k))).exact_div_factor(k)) == a
    quotient, expected = p.exact_div_factor(k), dict_exact_div(a, k)
    assert (quotient is None) == (expected is None)
    assert quotient is None or terms_of(quotient) == expected


def test_bounds_count_s_spans_of_rows_of_one_parity():
    # A row of odd s-exponents packs half its s-span in t = s^2; the slot
    # budgets and the parser's exponent box still count s-exponents.
    rows = [{"v": v, "s": s, "c": 1} for v in range(8) for s in (-4095, 4095)]  # 8 x 8,191 slots
    inside = rows + [{"v": 8, "s": 1, "c": 1}, {"v": 8, "s": 7, "c": 1}]  # + 7: 2^16 - 1
    edge = rows + [{"v": 8, "s": 1, "c": 1}, {"v": 8, "s": 9, "c": 1}]  # + 9: 2^16 + 1
    assert LaurentPoly.from_json(inside).spans()[0] == (-4095, 4095)
    assert len(Decoration.from_json([{"coeff": {"num": inside, "den": []}, "a": 1, "b": 0}]).terms) == 1
    with pytest.raises(ValueError, match=f"{MAX_SLOTS + 1} slots"):
        LaurentPoly.from_json(edge)
    with pytest.raises(ValueError, match=f"{MAX_SLOTS + 1} slots"):
        Decoration.from_json([{"coeff": {"num": edge, "den": []}, "a": 1, "b": 0}])
    # A 63 x 63 exponent box holds at most 4,096 terms; 63 x 67 does not.
    assert len(parse_scalar("(s^-31 + s^31)(v^-31 + v^31)").num.terms()) == 4
    with pytest.raises(ValueError, match="term bound"):
        parse_scalar("(s^-33 + s^33)(v^-31 + v^31)")


def test_reference_division_examples():
    assert dict_exact_div({(0, 2): 1, (0, -2): -1}, 1) == {(0, 1): 1, (0, -1): 1}
    assert dict_exact_div({(1, 0): 1}, 1) is None
    with pytest.raises(ValueError):
        LaurentPoly(binomial(1)).exact_div_factor(0)
