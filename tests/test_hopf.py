import hashlib
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from meridian_tools import opposite_sense_eigenvalue, same_sense_eigenvalue
from ring_tools import mono

from hopflinks import hopf, ring
from hopflinks.basis import monomial_to_eigen, plane_eval_eigen
from hopflinks.cli import _grid
from hopflinks.hopf import (
    Decoration,
    DecorationTerm,
    HopfSpec,
    _core_sum,
    _core_weights,
    check_symmetries,
    homfly_decorated,
    homfly_general,
)
from hopflinks.meridian import (
    ccw_eigenvalue,
    ccw_power,
    cw_eigenvalue,
    plane_eval_single,
)
from hopflinks.partitions import BasisLabel, partitions_of, syt_count
from hopflinks.render import render_scalar
from hopflinks.ring import LaurentPoly, SkeinScalar, delta


H_PLUS = delta() ** 2 + mono(1, v=-2) - 1
H_MINUS = delta() ** 2 + mono(1, v=2) - 1


# -- spec objects ------------------------------------------------------------

def test_spec_validates():
    with pytest.raises(ValueError):
        HopfSpec(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        HopfSpec(1, 0, 0, True)  # bools are not string counts
    assert str(HopfSpec(2, 1, 1, 2)) == "H(2,1;1,2)"


# -- one-sided closed form ------------------------------------------------------

def homfly_positive(k1: int, k2: int, n: int) -> SkeinScalar:
    """The paper's positive-core formula: a core of n counterclockwise strings.

    Sum over shapes of size n of the tableau count times both eigenvalue
    powers times the hook-content evaluation.  Kept here as the reference
    that the two-sided pipeline is checked against.
    """
    out = SkeinScalar.zero()
    for lam in partitions_of(n):
        term = (
            same_sense_eigenvalue(lam) ** k1
            * opposite_sense_eigenvalue(lam) ** k2
            * plane_eval_single(lam)
            * syt_count(lam)
        )
        out = out + term
    return out


def test_unlink_core_only():
    for n in range(5):
        assert homfly_positive(0, 0, n) == delta() ** n


def test_positive_hopf_baseline():
    assert homfly_positive(1, 0, 1) == H_PLUS


def test_negative_hopf_baseline():
    assert homfly_positive(0, 1, 1) == H_MINUS


def test_positive_agrees_with_general_pipeline():
    for k1 in range(4):
        for k2 in range(4 - k1):
            for n in range(5):
                assert homfly_positive(k1, k2, n) == homfly_general(
                    HopfSpec(k1, k2, n, 0)
                ), (k1, k2, n)


# -- general closed form ----------------------------------------------------------

def test_unlink_law():
    for n1 in range(7):
        for n2 in range(7 - n1):
            assert homfly_general(HopfSpec(0, 0, n1, n2)) == delta() ** (n1 + n2)


def test_hopf_baselines_via_general():
    assert homfly_general(HopfSpec(1, 0, 1, 0)) == H_PLUS
    assert homfly_general(HopfSpec(0, 1, 1, 0)) == H_MINUS


def fold_terms(terms) -> SkeinScalar:
    """The reference sum: a left fold of `+`."""
    out = SkeinScalar.zero()
    for term in terms:
        out = out + term
    return out


def closed_form_terms(spec: HopfSpec) -> list[SkeinScalar]:
    return [
        ccw_eigenvalue(label) ** spec.k1 * cw_eigenvalue(label) ** spec.k2 * plane_eval_eigen(label) * mult
        for label, mult in monomial_to_eigen(spec.n1, spec.n2).items()
    ]


@given(st.sampled_from(_grid(4, 6)), st.randoms(use_true_random=False))
def test_summation_order_does_not_change_bytes(spec, rnd):
    terms = closed_form_terms(spec)
    rnd.shuffle(terms)
    total = SkeinScalar.zero()
    for term in terms:
        total = term + total if rnd.random() < 0.5 else total + term
    expected = homfly_general(spec)
    assert total.to_json() == expected.to_json()
    assert hash(total) == hash(expected)


def test_closed_form_bytes_match_the_fold():
    # The grouped sum gives the canonical bytes of the left fold of `+`
    # on every spec with k1 + k2 <= 3 and n1 + n2 <= 5.
    grid = _grid(3, 5)
    assert len(grid) == 210
    for spec in grid:
        assert homfly_general(spec).to_json() == fold_terms(closed_form_terms(spec)).to_json(), spec


def reference_core_sum(spec: HopfSpec) -> SkeinScalar:
    """The sum as `SkeinScalar.sum` of one scalar per label, each regrouped by denominator.

    This is the summation the closed form used before its per-core weight
    groups: it builds every term as a scalar, its eigenvalue powers by the
    ring's power loop, and finds the groups, their lcm and cofactors again
    on each call.
    """
    return SkeinScalar.sum(
        ccw_eigenvalue(label) ** spec.k1
        * cw_eigenvalue(label) ** spec.k2
        * (plane_eval_eigen(label) * mult)
        for label, mult in monomial_to_eigen(spec.n1, spec.n2).items()
    )


def test_core_sum_stores_the_canonical_value_of_the_scalar_sum():
    # The sum is stored as built in its canonical form over z^c: numerator
    # terms and denominator as stored equal the canonical ones the
    # reference's first read finds, and so does the JSON, on every spec
    # with k1 + k2 <= 4 and n1 + n2 <= 8.
    grid = _grid(4, 8)
    assert len(grid) == 675
    for spec in grid:
        value, reference = _core_sum(spec), reference_core_sum(spec)
        assert value._num.terms() == reference.num.terms(), spec
        assert value._den == reference.den, spec
        c = spec.k1 + spec.k2 + spec.n1 + spec.n2
        assert value._den == (((1, c),) if c else ()), spec
        assert value.to_json() == reference.to_json(), spec


def clear_caches():
    """Empty every module-level cache of the package, as a cold round starts."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hopflinks"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def test_closed_sweep_products_stay_at_the_base_width(monkeypatch):
    # From cold caches through the canonical form, every ring product of
    # the bench's closed-form strata (k1 + k2 in 1..5, n1 + n2 in 5..7)
    # carries bounds that keep it in base-width slots, with no mask-test
    # tightening on the way: a looser bound fails here instead of showing
    # only as a slowdown.
    specs = [
        HopfSpec(k1, k - k1, n1, n - n1) for k in range(1, 6) for k1 in range(k + 1) for n in (5, 6, 7)
        for n1 in range(n + 1)
    ]
    assert len(specs) == 420
    widths = Counter()
    product = LaurentPoly.__mul__

    def recorded(a, b):
        out = product(a, b)
        widths[out._w] += 1
        return out

    fits = []
    clear_caches()
    monkeypatch.setattr(LaurentPoly, "__mul__", recorded)
    monkeypatch.setattr(LaurentPoly, "__rmul__", recorded)
    monkeypatch.setattr(LaurentPoly, "_fit", lambda p: fits.append(p))
    for spec in specs:
        homfly_general(spec).to_json()
    assert sum(widths.values()) > 4000
    assert set(widths) == {ring._BASE_WIDTH}
    assert fits == []


def test_core_weights_is_a_functools_cache():
    # bench/run.py clears every module-level cache with `cache_clear`
    # before each cold round.
    _core_weights.cache_clear()
    assert _core_weights.cache_info().currsize == 0
    # Two sums over the one core (3, 2) build its weight groups once.
    _core_sum(HopfSpec(2, 1, 3, 2))
    _core_sum(HopfSpec(1, 0, 3, 2))
    info = _core_weights.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


# sha256 of render_scalar(homfly_general(spec), "json") for the heaviest
# sums that no other test or bench reference covers.
HEAVY_SUM_SHA256 = {
    HopfSpec(5, 5, 5, 5): "3785568550a403283285a4010d3f6c59a24db69490d4974a5594ddb8e789189b",
    HopfSpec(3, 2, 8, 8): "feabf3035b40420e74c72baf7e74f197be872f9970e111e70fd126e38a610d67",
    HopfSpec(4, 3, 6, 5): "9ad540a33050aa0787aa35fff7daab09ac561d25667c3707de535202c49033aa",
    # One label raised to a power of 140: a chain of 139 products.
    HopfSpec(140, 0, 1, 0): "c8f8a8f99a045629290fc9eb90438c2ecf8a537911f1363bb5d8f1b7be8d1759",
}


@pytest.mark.parametrize("spec", list(HEAVY_SUM_SHA256), ids=str)
def test_heavy_sums_keep_their_bytes(spec):
    text = render_scalar(homfly_general(spec), "json")
    assert hashlib.sha256(text.encode()).hexdigest() == HEAVY_SUM_SHA256[spec]


def test_repeated_sum_takes_no_new_power():
    ccw_power.cache_clear()
    spec = HopfSpec(2, 1, 3, 2)
    first = homfly_general(spec)
    misses = ccw_power.cache_info().misses
    assert misses
    assert homfly_general(spec).to_json() == first.to_json()
    assert ccw_power.cache_info().misses == misses


@pytest.fixture
def expanded_cores(monkeypatch):
    """The (n1, n2) of every core that hopf looks up, in order, cached or not."""
    expanded = []

    def recording(n1, n2):
        expanded.append((n1, n2))
        return _core_weights(n1, n2)

    monkeypatch.setattr(hopf, "_core_weights", recording)
    return expanded


def test_swapping_the_components_keeps_the_bytes():
    # H(k1,k2;n1,n2) = H(n1,n2;k1,k2): homfly_general relies on it to sum
    # over the family with fewer labels.
    for spec in _grid(3, 5):
        swapped = HopfSpec(spec.n1, spec.n2, spec.k1, spec.k2)
        assert _core_sum(spec).to_json() == _core_sum(swapped).to_json(), spec


@pytest.mark.parametrize(
    "spec, core",
    [
        (HopfSpec(1, 0, 60, 0), (1, 0)),  # p(60) = 966,467 labels against 1
        (HopfSpec(2, 1, 7, 6), (2, 1)),
        (HopfSpec(5, 0, 1, 1), (1, 1)),
        (HopfSpec(1, 2, 2, 1), (2, 1)),  # a tie keeps the given core
        (HopfSpec(0, 0, 3, 0), (0, 0)),
    ],
)
def test_sum_runs_over_the_family_with_fewer_labels(expanded_cores, spec, core):
    homfly_general(spec)
    assert expanded_cores == [core]


def test_reversed_core_gives_mirror_values():
    assert homfly_general(HopfSpec(1, 0, 0, 1)) == H_MINUS
    assert homfly_general(HopfSpec(0, 1, 0, 1)) == H_PLUS


# -- decorations --------------------------------------------------------------------

def test_decoration_special_case():
    dec = Decoration((DecorationTerm(SkeinScalar.one(), 1, 2),))
    assert homfly_decorated(1, 1, dec) == homfly_general(HopfSpec(1, 1, 1, 2))


def test_empty_decoration():
    assert homfly_decorated(2, 1, Decoration(())) == SkeinScalar.zero()


def test_decoration_linearity():
    dec = Decoration(
        (
            DecorationTerm(SkeinScalar.one(), 1, 0),
            DecorationTerm(SkeinScalar.one(), 0, 1),
        )
    )
    assert homfly_decorated(0, 0, dec) == delta() + delta()


def test_decoration_scalar_coefficients():
    dec = Decoration(
        (
            DecorationTerm(delta(), 1, 0),
            DecorationTerm(SkeinScalar(-3), 2, 1),
        )
    )
    expected = delta() * homfly_general(HopfSpec(1, 2, 1, 0)) + SkeinScalar(
        -3
    ) * homfly_general(HopfSpec(1, 2, 2, 1))
    assert homfly_decorated(1, 2, dec) == expected


def decoration_reference(k1: int, k2: int, dec: Decoration) -> SkeinScalar:
    """Linearity term by term: the sum of coeff * H(k1, k2; a, b)."""
    return fold_terms(coeff * homfly_general(HopfSpec(k1, k2, a, b)) for coeff, a, b in dec.terms)


decoration_coeffs = st.one_of(
    st.integers(-3, 3).map(SkeinScalar),
    st.integers(-2, 2).map(lambda c: delta() * c),
    st.just(delta() * delta()),
)
decorations = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), decoration_coeffs, max_size=4).map(
    lambda terms: Decoration(tuple(DecorationTerm(c, a, b) for (a, b), c in terms.items()))
)


@settings(deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), decorations)
def test_decoration_matches_term_by_term_sum(k1, k2, dec):
    assert homfly_decorated(k1, k2, dec).to_json() == decoration_reference(k1, k2, dec).to_json()


@pytest.mark.parametrize(
    "terms",
    [
        # Every label of (2,1) is also a label of (3,2).
        [(SkeinScalar(1), 2, 1), (delta(), 3, 2)],
        # Two winding classes, one of them shared by two terms.
        [(SkeinScalar(2), 1, 0), (SkeinScalar(-1), 2, 1), (delta(), 0, 2), (SkeinScalar(3), 1, 3)],
        # The label ((), (1,)) has multiplicity 1 in (1,0) and 2 in (2,1): its contributions cancel.
        [(SkeinScalar(2), 1, 0), (SkeinScalar(-1), 2, 1)],
    ],
)
def test_decoration_shared_labels(terms):
    dec = Decoration(tuple(DecorationTerm(*t) for t in terms))
    for k1, k2 in [(0, 0), (1, 0), (2, 1), (1, 3)]:
        assert homfly_decorated(k1, k2, dec).to_json() == decoration_reference(k1, k2, dec).to_json(), (k1, k2)


def test_decoration_rejects_duplicates_and_negatives():
    with pytest.raises(ValueError):
        Decoration(
            (
                DecorationTerm(SkeinScalar.one(), 1, 1),
                DecorationTerm(SkeinScalar.one(), 1, 1),
            )
        )
    with pytest.raises(ValueError):
        Decoration((DecorationTerm(SkeinScalar.one(), -1, 0),))


def test_decoration_json_round_trip():
    dec = Decoration(
        (
            DecorationTerm(delta(), 1, 2),
            DecorationTerm(SkeinScalar(2), 0, 0),
        )
    )
    assert Decoration.from_json(dec.to_json()) == dec


# -- symmetry identities ----------------------------------------------------------------

def test_symmetries_hopf():
    checks = check_symmetries(HopfSpec(1, 0, 1, 0))
    assert all(holds for _, holds in checks)
    assert len(checks) == 7


def test_symmetries_bigger_case():
    assert all(holds for _, holds in check_symmetries(HopfSpec(2, 1, 1, 2)))


def test_symmetries_unlink():
    assert all(holds for _, holds in check_symmetries(HopfSpec(0, 0, 3, 0)))


def test_symmetry_check_names():
    assert [name for name, _ in check_symmetries(HopfSpec(2, 1, 3, 0))] == [
        "P(H(3,0;2,1))",
        "P(H(1,2;0,3))",
        "P(H(0,3;1,2))",
        "mirror P(H(1,2;3,0))",
        "mirror P(H(3,0;1,2))",
        "mirror P(H(2,1;0,3))",
        "mirror P(H(0,3;2,1))",
    ]


def test_symmetries_sum_every_spec_over_its_own_core(expanded_cores):
    # No swap: both sides of H(2,1;3,0) = H(3,0;2,1) are summed, over
    # the cores (3,0) and (2,1).
    assert all(holds for _, holds in check_symmetries(HopfSpec(2, 1, 3, 0)))
    assert expanded_cores == [(3, 0), (2, 1), (0, 3), (1, 2), (3, 0), (1, 2), (0, 3), (2, 1)]


def test_symmetries_full_grid():
    for k1 in range(3):
        for k2 in range(3 - k1):
            for n1 in range(4):
                for n2 in range(4 - n1):
                    assert all(holds for _, holds in check_symmetries(HopfSpec(k1, k2, n1, n2)))
