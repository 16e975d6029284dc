import pytest

from hopflinks.basis import (
    BASIS_EIGEN,
    BASIS_PRODUCT,
    SkeinVector,
    eigen_to_product,
    monomial_to_eigen,
    pair_multiplicity,
    plane_eval_eigen,
    product_to_eigen,
)
from hopflinks.meridian import plane_eval_product, plane_eval_single
from hopflinks.partitions import BasisLabel, basis_labels, conjugate, partitions_of
from hopflinks.ring import SkeinScalar, delta


def all_labels(max_size):
    return [
        BasisLabel(lam, mu)
        for a in range(max_size + 1)
        for b in range(max_size + 1)
        for lam in partitions_of(a)
        for mu in partitions_of(b)
    ]


def as_int_dict(vec):
    return {lab: coeff for lab, coeff in vec.items()}


# -- multiplicities ---------------------------------------------------------

def test_pair_multiplicity_worked_example():
    assert pair_multiplicity(BasisLabel((1,), ()), 1, 2) == 2
    assert pair_multiplicity(BasisLabel((2,), (1,)), 1, 2) == 1
    assert pair_multiplicity(BasisLabel((1,), (1,)), 1, 1) == 1


def test_pair_multiplicity_constraint_errors():
    with pytest.raises(ValueError):
        pair_multiplicity(BasisLabel((3,), ()), 1, 2)  # shape too large
    with pytest.raises(ValueError):
        pair_multiplicity(BasisLabel((1,), (1,)), 1, 2)  # mismatched slack


# -- monomial expansion ---------------------------------------------------------

def test_monomial_expansion_worked_example():
    vec = monomial_to_eigen(1, 2)
    assert vec.basis == BASIS_EIGEN
    assert as_int_dict(vec) == {
        BasisLabel((2,), (1,)): SkeinScalar(1),
        BasisLabel((1,), ()): SkeinScalar(2),
        BasisLabel((1, 1), (1,)): SkeinScalar(1),
    }


def test_monomial_expansion_single_string():
    assert as_int_dict(monomial_to_eigen(1, 0)) == {
        BasisLabel((), (1,)): SkeinScalar(1)
    }


def test_monomial_expansion_empty():
    assert as_int_dict(monomial_to_eigen(0, 0)) == {
        BasisLabel((), ()): SkeinScalar(1)
    }


def test_monomial_expansion_rejects_negative():
    with pytest.raises(ValueError):
        monomial_to_eigen(-1, 0)


# -- product <-> eigen transitions -------------------------------------------------

def test_product_to_eigen_single_box():
    vec = product_to_eigen(BasisLabel((1,), ()))
    assert as_int_dict(vec) == {BasisLabel((1,), ()): SkeinScalar(1)}


def test_product_to_eigen_worked_examples():
    assert as_int_dict(product_to_eigen(BasisLabel((2,), (1,)))) == {
        BasisLabel((2,), (1,)): SkeinScalar(1),
        BasisLabel((1,), ()): SkeinScalar(1),
    }
    assert as_int_dict(product_to_eigen(BasisLabel((1, 1), (1,)))) == {
        BasisLabel((1, 1), (1,)): SkeinScalar(1),
        BasisLabel((1,), ()): SkeinScalar(1),
    }


def test_eigen_to_product_worked_examples():
    assert as_int_dict(eigen_to_product(BasisLabel((1,), ()))) == {
        BasisLabel((1,), ()): SkeinScalar(1)
    }
    assert as_int_dict(eigen_to_product(BasisLabel((2,), (1,)))) == {
        BasisLabel((2,), (1,)): SkeinScalar(1),
        BasisLabel((1,), ()): SkeinScalar(-1),
    }
    assert as_int_dict(eigen_to_product(BasisLabel((1, 1), (1,)))) == {
        BasisLabel((1, 1), (1,)): SkeinScalar(1),
        BasisLabel((1,), ()): SkeinScalar(-1),
    }


def test_transition_round_trip():
    one = SkeinScalar.one()
    for label in all_labels(4):
        acc: dict[BasisLabel, SkeinScalar] = {}
        for mid, c in eigen_to_product(label).items():
            for final, c2 in product_to_eigen(mid).items():
                acc[final] = acc.get(final, SkeinScalar.zero()) + c * c2
        acc = {k: v for k, v in acc.items() if not v.is_zero}
        assert acc == {label: one}, label


def test_unitriangularity():
    for label in all_labels(4):
        vec = product_to_eigen(label)
        coeffs = as_int_dict(vec)
        assert coeffs[label] == SkeinScalar(1)
        for other in coeffs:
            if other != label:
                assert sum(other.neg) < sum(label.neg)


def test_mixed_winding_classes_rejected():
    with pytest.raises(ValueError):
        SkeinVector(
            BASIS_EIGEN,
            {
                BasisLabel((1,), ()): SkeinScalar.one(),
                BasisLabel((), (1,)): SkeinScalar.one(),
            },
        )


def test_unknown_basis_tag_rejected():
    with pytest.raises(ValueError):
        SkeinVector("fourier", {})


# -- evaluations -----------------------------------------------------------------

def test_plane_eval_eigen_examples():
    assert plane_eval_eigen(BasisLabel((1,), ())) == delta()
    lab = BasisLabel((2,), (1,))
    assert plane_eval_eigen(lab) == plane_eval_product(lab) - delta()
    for n in range(4):
        for mu in partitions_of(n):
            assert plane_eval_eigen(BasisLabel((), mu)) == plane_eval_single(mu)
            assert plane_eval_eigen(BasisLabel(mu, ())) == plane_eval_single(mu)


def test_unlink_normalization_sum_rule():
    for n1 in range(6):
        for n2 in range(6 - n1):
            total = SkeinScalar.zero()
            for label, mult in monomial_to_eigen(n1, n2).items():
                total = total + mult * plane_eval_eigen(label)
            assert total == delta() ** (n1 + n2), (n1, n2)


def test_pair_conjugation_symmetry_with_sign():
    # Conjugating both shapes matches s -> s^{-1} up to (-1)^{total cells}.
    for label in all_labels(3):
        n = sum(label.neg) + sum(label.pos)
        sign = -1 if n % 2 else 1
        conj = BasisLabel(conjugate(label.neg), conjugate(label.pos))
        assert plane_eval_eigen(conj) == plane_eval_eigen(label).s_inverse() * sign


# -- serialization ------------------------------------------------------------------

def test_vector_json_round_trip():
    vec = monomial_to_eigen(1, 2)
    blob = vec.to_json()
    assert blob["basis"] == "Q"
    labels = [t["label"] for t in blob["terms"]]
    assert labels == [
        {"neg": [2], "pos": [1]},
        {"neg": [1, 1], "pos": [1]},
        {"neg": [1], "pos": []},
    ]
    assert SkeinVector.from_json(blob) == vec


def test_product_basis_tag_in_json():
    assert eigen_to_product(BasisLabel((1,), ())).to_json()["basis"] == "Qprime"
