import inspect
import sys

from hypothesis import given, strategies as st
from meridian_tools import ccw_eigenvalue_from_terms, opposite_sense_eigenvalue, same_sense_eigenvalue
from partition_tools import conjugate
from ring_tools import canonical_from_scratch, mono, raw, s_inverse

from hopflinks.meridian import (
    ccw_eigenvalue,
    ccw_power,
    cw_eigenvalue,
    plane_eval_product,
    plane_eval_single,
)
from hopflinks.partitions import BasisLabel, contents, partitions_of
from hopflinks.ring import LaurentPoly, SkeinScalar, all_distinct, delta


Z = LaurentPoly({(0, 1): 1, (0, -1): -1})


def scal(p):
    return SkeinScalar(p)


def all_labels(max_size):
    return [
        BasisLabel(lam, mu)
        for a in range(max_size + 1)
        for b in range(max_size + 1)
        for lam in partitions_of(a)
        for mu in partitions_of(b)
    ]


@st.composite
def label_strategy(draw, max_n=4):
    def side():
        n = draw(st.integers(0, max_n))
        opts = partitions_of(n)
        return opts[draw(st.integers(0, len(opts) - 1))]

    return BasisLabel(side(), side())


def ccw_eigenvalue_reference(label):
    """The eigenvalue through ring arithmetic: z times the content sums, plus delta."""
    lam, mu = label

    def content_sum(shape, direction):
        return LaurentPoly(((0, 2 * direction * c), 1) for c in contents(shape))

    body = Z * (-(mono(1, v=1) * content_sum(lam, -1)) + mono(1, v=-1) * content_sum(mu, +1))
    return SkeinScalar(body) + delta()


def test_eigenvalue_matches_the_ring_reference_to_size_6():
    # Equal raw numerators and denominators keep SkeinScalar.sum grouping
    # the closed form's terms as the ring-built values did.
    for label in all_labels(6):
        value, reference = ccw_eigenvalue(label), ccw_eigenvalue_reference(label)
        assert value == reference, label
        assert value._num == reference._num and value._den == reference._den, label


def test_eigenvalue_rows_match_the_term_build_to_size_6():
    # The rows built from the contents are the rows the term list packed:
    # the same keys, lows, packed integers, slot width and both bounds.
    for label in all_labels(6):
        assert raw(ccw_eigenvalue(label)) == raw(ccw_eigenvalue_from_terms(label)), label


def test_eigenvalue_is_canonical_as_built_to_size_6():
    # The stored canonical form is the one a fresh screen finds, and it
    # is the value as built.
    for label in all_labels(6):
        value = ccw_eigenvalue.__wrapped__(label)  # built afresh and never read
        assert value._canon is not None, label
        assert value._canon == canonical_from_scratch(value) == (value._num, value._den), label


# -- one-sided eigenvalues -----------------------------------------------------

def test_same_sense_on_empty_shape():
    assert same_sense_eigenvalue(()) == delta()


def test_same_sense_single_box():
    assert same_sense_eigenvalue((1,)) == scal(mono(1, v=-1) * Z) + delta()


def test_same_sense_two_box_row():
    expected = scal(Z * mono(1, v=-1) * (mono(1) + mono(1, s=2))) + delta()
    assert same_sense_eigenvalue((2,)) == expected


def test_opposite_sense_on_empty_shape():
    assert opposite_sense_eigenvalue(()) == delta()


def test_opposite_sense_single_box():
    assert opposite_sense_eigenvalue((1,)) == scal(mono(-1, v=1) * Z) + delta()


def test_opposite_sense_is_mirror_of_same_sense():
    for n in range(5):
        for lam in partitions_of(n):
            assert opposite_sense_eigenvalue(lam) == same_sense_eigenvalue(lam).mirror()


# -- paired eigenvalues ---------------------------------------------------------

def test_pair_values_from_worked_example():
    lab1 = BasisLabel((1,), ())
    lab21 = BasisLabel((2,), (1,))
    lab11 = BasisLabel((1, 1), (1,))

    assert ccw_eigenvalue(lab1) == scal(mono(-1, v=1) * Z) + delta()
    assert ccw_eigenvalue(lab21) == scal(
        Z * (-(mono(1, v=1) * (mono(1) + mono(1, s=-2))) + mono(1, v=-1))
    ) + delta()
    assert ccw_eigenvalue(lab11) == scal(
        Z * (-(mono(1, v=1) * (mono(1) + mono(1, s=2))) + mono(1, v=-1))
    ) + delta()

    assert cw_eigenvalue(lab1) == scal(mono(1, v=-1) * Z) + delta()
    assert cw_eigenvalue(lab21) == scal(
        Z * (mono(1, v=-1) * (mono(1) + mono(1, s=2)) - mono(1, v=1))
    ) + delta()
    assert cw_eigenvalue(lab11) == scal(
        Z * (mono(1, v=-1) * (mono(1) + mono(1, s=-2)) - mono(1, v=1))
    ) + delta()


@given(label_strategy())
def test_cw_is_ccw_of_swapped_label(label):
    assert cw_eigenvalue(label) == ccw_eigenvalue(BasisLabel(label.pos, label.neg))


@given(label_strategy())
def test_mirror_exchanges_the_two_eigenvalues(label):
    assert ccw_eigenvalue(label).mirror() == cw_eigenvalue(label)


def power_scalar(label, n):
    """The value `ccw_power(label, n)` stands for: its numerator over z^n."""
    return SkeinScalar(ccw_power(label, n), ((1, n),) if n else ())


def test_power_cache_matches_eigenvalue_powers():
    labels = [lab for lab in all_labels(4) if sum(lab.neg) + sum(lab.pos) <= 4]
    for label in labels:
        swapped = BasisLabel(label.pos, label.neg)
        for n in range(9):
            ccw, cw = ccw_eigenvalue(label) ** n, cw_eigenvalue(label) ** n
            assert power_scalar(label, n) == ccw
            assert power_scalar(label, n).to_json() == ccw.to_json()
            assert power_scalar(swapped, n).to_json() == cw.to_json()


def test_power_chain_has_the_raw_value_of_the_power_loop():
    # ccw_power multiplies the numerator below by the eigenvalue's; the
    # ring's binary power loop is the reference, its numerator as stored,
    # before any reduction, over exactly z^n.
    shapes = [lam for n in range(5) for lam in partitions_of(n)]
    cases = [(BasisLabel(lam, mu), n) for lam in shapes for mu in shapes for n in range(31)]
    assert len(cases) == 144 * 31
    cases += [(BasisLabel((), (1,)), 64), (BasisLabel((), (1,)), 77), (BasisLabel((1,), (2,)), 45)]
    for label, n in cases:
        power, reference = ccw_power(label, n), ccw_eigenvalue(label) ** n
        assert power == reference._num and reference._den == (((1, n),) if n else ()), (label, n)


def test_power_chain_stays_below_a_lowered_recursion_limit():
    # A cold power of 400 is a chain of 399 products, which must not nest
    # one call per step: the limit sits 50 frames above this test.
    label = BasisLabel((), ())
    ccw_power.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        power = ccw_power(label, 400)
    finally:
        sys.setrecursionlimit(limit)
    reference = delta() ** 400
    assert power == reference._num and reference._den == ((1, 400),)


def test_power_cache_is_a_functools_cache():
    # bench/run.py clears every module-level cache with `cache_clear`
    # before each cold round.
    ccw_power.cache_clear()
    assert ccw_power.cache_info().currsize == 0


def test_degeneration_to_one_sided_values():
    for n in range(5):
        for lam in partitions_of(n):
            assert ccw_eigenvalue(BasisLabel((), lam)) == same_sense_eigenvalue(lam)
            assert ccw_eigenvalue(BasisLabel(lam, ())) == opposite_sense_eigenvalue(lam)


# -- distinctness ------------------------------------------------------------------

def test_single_shape_eigenvalues_distinct_to_size_8():
    shapes = [lam for n in range(9) for lam in partitions_of(n)]
    assert all_distinct(same_sense_eigenvalue(lam) for lam in shapes)
    assert all_distinct(opposite_sense_eigenvalue(lam) for lam in shapes)


def test_pair_eigenvalues_distinct_to_size_4():
    labels = all_labels(4)
    assert all_distinct(ccw_eigenvalue(lab) for lab in labels)
    assert all_distinct(cw_eigenvalue(lab) for lab in labels)


# -- plane evaluations ----------------------------------------------------------------

def test_plane_eval_empty_is_one():
    assert plane_eval_single(()) == SkeinScalar.one()


def test_plane_eval_single_box_is_delta():
    assert plane_eval_single((1,)) == delta()


def test_plane_eval_two_box_row():
    expected = SkeinScalar(mono(1, v=-1) - mono(1, v=1), ((2, 1),)) * SkeinScalar(
        mono(1, v=-1, s=1) - mono(1, v=1, s=-1), ((1, 1),)
    )
    assert plane_eval_single((2,)) == expected


def test_plane_eval_product_factorizes():
    assert plane_eval_product(BasisLabel((1,), ())) == delta()
    lab = BasisLabel((2,), (1,))
    assert plane_eval_product(lab) == plane_eval_single((2,)) * plane_eval_single((1,))


def test_plane_eval_worked_example_values():
    base = SkeinScalar(mono(1, v=-1) - mono(1, v=1), ((2, 1),))
    assert plane_eval_product(BasisLabel((2,), (1,))) == base * SkeinScalar(
        mono(1, v=-1, s=1) - mono(1, v=1, s=-1), ((1, 1),)
    ) * delta()
    assert plane_eval_product(BasisLabel((1, 1), (1,))) == base * SkeinScalar(
        mono(1, v=-1, s=-1) - mono(1, v=1, s=1), ((1, 1),)
    ) * delta()


def test_plane_eval_conjugation_swaps_s():
    # Each hook factor s^h - s^{-h} is negated by s -> s^{-1}, so the
    # substitution matches the conjugate evaluation up to (-1)^{cells}.
    for n in range(7):
        for lam in partitions_of(n):
            sign = -1 if n % 2 else 1
            assert plane_eval_single(conjugate(lam)) == s_inverse(plane_eval_single(lam)) * sign
