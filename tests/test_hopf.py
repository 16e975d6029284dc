import pytest

from hopflinks.hopf import (
    Decoration,
    DecorationTerm,
    HopfSpec,
    check_symmetries,
    homfly_decorated,
    homfly_general,
)
from hopflinks.meridian import opposite_sense_eigenvalue, plane_eval_single, same_sense_eigenvalue
from hopflinks.partitions import partitions_of, syt_count
from hopflinks.ring import LaurentPoly, SkeinScalar, delta


def mono(c, v=0, s=0):
    return LaurentPoly.term(c, v, s)


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
    report = check_symmetries(HopfSpec(1, 0, 1, 0))
    assert report.passed
    assert len(report.checks) == 7


def test_symmetries_bigger_case():
    assert check_symmetries(HopfSpec(2, 1, 1, 2)).passed


def test_symmetries_unlink():
    assert check_symmetries(HopfSpec(0, 0, 3, 0)).passed


def test_symmetries_full_grid():
    for k1 in range(3):
        for k2 in range(3 - k1):
            for n1 in range(4):
                for n2 in range(4 - n1):
                    assert check_symmetries(HopfSpec(k1, k2, n1, n2)).passed
