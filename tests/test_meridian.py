from hypothesis import given, strategies as st

from hopflinks.meridian import (
    ccw_eigenvalue,
    cw_eigenvalue,
    opposite_sense_eigenvalue,
    plane_eval_product,
    plane_eval_single,
    same_sense_eigenvalue,
)
from hopflinks.partitions import BasisLabel, partitions_of
from hopflinks.ring import LaurentPoly, SkeinScalar, all_distinct, delta


def mono(c, v=0, s=0):
    return LaurentPoly.term(c, v, s)


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
    from hopflinks.partitions import conjugate

    for n in range(7):
        for lam in partitions_of(n):
            sign = -1 if n % 2 else 1
            assert plane_eval_single(conjugate(lam)) == plane_eval_single(lam).s_inverse() * sign
