from collections import Counter
from functools import cache

import pytest
from partition_tools import conjugate, hook_length
from ring_tools import canonical_from_scratch, raw, s_inverse

from hopflinks.basis import (
    SkeinVector,
    monomial_to_eigen,
    pair_multiplicity,
    plane_eval_eigen,
)
from hopflinks.meridian import plane_eval_product, plane_eval_single
from hopflinks.partitions import BasisLabel, cells, contents, hook_lengths, lr_coeff, partitions_of
from hopflinks.ring import LaurentPoly, SkeinScalar, delta


# -- reference: the juxtaposed product basis and its Littlewood-Richardson inverse ----

def label_sort_key(label: BasisLabel):
    """Global label order: |neg| descending, then reverse-lex on each side."""
    return (
        -sum(label.neg),
        tuple(-p for p in label.neg),
        tuple(-p for p in label.pos),
    )


@cache
def _product_to_eigen_int(label: BasisLabel) -> tuple[tuple[BasisLabel, int], ...]:
    lam, mu = label
    out: dict[BasisLabel, int] = {}
    for j in range(min(sum(lam), sum(mu)) + 1):
        for nu in partitions_of(j):
            alphas = [
                (alpha, c)
                for alpha in partitions_of(sum(lam) - j)
                if (c := lr_coeff(lam, nu, alpha))
            ]
            if not alphas:
                continue
            for beta in partitions_of(sum(mu) - j):
                cb = lr_coeff(mu, nu, beta)
                if not cb:
                    continue
                for alpha, ca in alphas:
                    key = BasisLabel(alpha, beta)
                    out[key] = out.get(key, 0) + ca * cb
    return tuple(sorted(out.items(), key=lambda kv: label_sort_key(kv[0])))


@cache
def _eigen_to_product_int(label: BasisLabel) -> tuple[tuple[BasisLabel, int], ...]:
    # The product expansion is unitriangular along decreasing |neg|, so
    # back-substitution inverts it over the integers.
    out: dict[BasisLabel, int] = {label: 1}
    for other, c in _product_to_eigen_int(label):
        if other == label:
            continue
        for deeper, c2 in _eigen_to_product_int(other):
            val = out.get(deeper, 0) - c * c2
            if val:
                out[deeper] = val
            else:
                out.pop(deeper, None)
    return tuple(sorted(out.items(), key=lambda kv: label_sort_key(kv[0])))


def product_to_eigen(label: BasisLabel) -> SkeinVector:
    """Expansion of one juxtaposed product element over the eigenbasis.

    The coefficient of (alpha, beta) is the convolution
    sum_nu c^neg_{nu, alpha} c^pos_{nu, beta}; the nu = () term gives the
    leading coefficient 1 on the label itself.
    """
    return SkeinVector(dict(_product_to_eigen_int(label)))


def eigen_to_product(label: BasisLabel) -> SkeinVector:
    """Expansion of one eigenbasis element over the product basis."""
    return SkeinVector(dict(_eigen_to_product_int(label)))


def plane_eval_eigen_lr(label: BasisLabel) -> SkeinScalar:
    """Plane evaluation of an eigenbasis element via its product expansion."""
    out = SkeinScalar.zero()
    for lab, c in _eigen_to_product_int(label):
        out = out + plane_eval_product(lab) * c
    return out


def plane_eval_eigen_ring(label: BasisLabel) -> SkeinScalar:
    """The hook-content product through ring arithmetic: a product of bracket powers."""
    lam, mu = label
    brackets = Counter(contents(lam) + contents(mu))
    for i, a in enumerate(lam, 1):
        for j, b in enumerate(mu, 1):
            brackets.update((a + b + 1 - i - j, 1 - i - j))
            brackets.subtract((a + 1 - i - j, b + 1 - i - j))
    num = LaurentPoly.one()
    for c, mult in sorted(brackets.items()):
        num = num * LaurentPoly({(-1, c): 1, (1, -c): -1}) ** mult
    hooks = Counter(hook_length(shape, i, j) for shape in label for i, j in cells(shape))
    return SkeinScalar(num, hooks.items())


def plane_eval_eigen_unshared(label: BasisLabel) -> SkeinScalar:
    """The hook-content product built for the label itself, as `plane_eval_eigen` once built every label.

    A label and its swap each count their brackets and multiply them out,
    and the value is screened on its first read.
    """
    lam, mu = label
    off = len(lam) + len(mu)
    counts = [0] * (off + (lam[0] if lam else 0) + (mu[0] if mu else 0))
    for c in contents(lam) + contents(mu):
        counts[c + off] += 1
    for i, a in enumerate(lam, 1):
        for j, b in enumerate(mu, 1):
            base = off + 1 - i - j
            counts[a + b + base] += 1
            counts[base] += 1
            counts[a + base] -= 1
            counts[b + base] -= 1
    num = LaurentPoly.brackets((c - off, mult) for c, mult in enumerate(counts))
    return SkeinScalar(num, [(h, 1) for h in hook_lengths(lam) + hook_lengths(mu)])

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
    assert all(type(c) is int for c in vec.coeffs.values())
    assert as_int_dict(vec) == {
        BasisLabel((2,), (1,)): 1,
        BasisLabel((1,), ()): 2,
        BasisLabel((1, 1), (1,)): 1,
    }


def test_monomial_expansion_single_string():
    assert as_int_dict(monomial_to_eigen(1, 0)) == {
        BasisLabel((), (1,)): 1
    }


def test_monomial_expansion_empty():
    assert as_int_dict(monomial_to_eigen(0, 0)) == {
        BasisLabel((), ()): 1
    }


def test_monomial_expansion_rejects_negative():
    with pytest.raises(ValueError):
        monomial_to_eigen(-1, 0)


# -- product <-> eigen transitions -------------------------------------------------

def test_product_to_eigen_single_box():
    vec = product_to_eigen(BasisLabel((1,), ()))
    assert as_int_dict(vec) == {BasisLabel((1,), ()): 1}


def test_product_to_eigen_worked_examples():
    assert as_int_dict(product_to_eigen(BasisLabel((2,), (1,)))) == {
        BasisLabel((2,), (1,)): 1,
        BasisLabel((1,), ()): 1,
    }
    assert as_int_dict(product_to_eigen(BasisLabel((1, 1), (1,)))) == {
        BasisLabel((1, 1), (1,)): 1,
        BasisLabel((1,), ()): 1,
    }


def test_eigen_to_product_worked_examples():
    assert as_int_dict(eigen_to_product(BasisLabel((1,), ()))) == {
        BasisLabel((1,), ()): 1
    }
    assert as_int_dict(eigen_to_product(BasisLabel((2,), (1,)))) == {
        BasisLabel((2,), (1,)): 1,
        BasisLabel((1,), ()): -1,
    }
    assert as_int_dict(eigen_to_product(BasisLabel((1, 1), (1,)))) == {
        BasisLabel((1, 1), (1,)): 1,
        BasisLabel((1,), ()): -1,
    }


def test_transition_round_trip():
    one = SkeinScalar.one()
    for label in all_labels(4):
        acc: dict[BasisLabel, SkeinScalar] = {}
        for mid, c in eigen_to_product(label).items():
            for final, c2 in product_to_eigen(mid).items():
                acc[final] = acc.get(final, SkeinScalar.zero()) + c * c2
        acc = {k: v for k, v in acc.items() if v}
        assert acc == {label: one}, label


def test_unitriangularity():
    for label in all_labels(4):
        vec = product_to_eigen(label)
        coeffs = as_int_dict(vec)
        assert coeffs[label] == 1
        for other in coeffs:
            if other != label:
                assert sum(other.neg) < sum(label.neg)


# -- evaluations -----------------------------------------------------------------

def test_plane_eval_eigen_examples():
    assert plane_eval_eigen(BasisLabel((1,), ())) == delta()
    lab = BasisLabel((2,), (1,))
    assert plane_eval_eigen(lab) == plane_eval_product(lab) - delta()
    for n in range(4):
        for mu in partitions_of(n):
            assert plane_eval_eigen(BasisLabel((), mu)) == plane_eval_single(mu)
            assert plane_eval_eigen(BasisLabel(mu, ())) == plane_eval_single(mu)


def test_closed_product_matches_lr_reference():
    # Every label with |neg|, |pos| <= 6: equal values and equal bytes.
    for label in all_labels(6):
        closed, reference = plane_eval_eigen(label), plane_eval_eigen_lr(label)
        assert closed == reference, label
        assert closed.to_json() == reference.to_json(), label


def test_plane_eval_matches_the_ring_reference_to_size_6():
    # Equal raw numerators and denominators keep SkeinScalar.sum grouping
    # the closed form's terms as the ring-built values did.
    for label in all_labels(6):
        value, reference = plane_eval_eigen(label), plane_eval_eigen_ring(label)
        assert value == reference, label
        assert value._num == reference._num and value._den == reference._den, label


def test_plane_eval_matches_the_unshared_build_to_size_6():
    # A label and its swap share one value, and that value has the raw
    # parts each label built for itself: rows, slot width, both bounds and
    # denominator.
    for label in all_labels(6):
        value = plane_eval_eigen(label)
        assert value is plane_eval_eigen(BasisLabel(label.pos, label.neg)), label
        assert raw(value) == raw(plane_eval_eigen_unshared(label)), label


def test_plane_eval_is_canonical_as_built_to_size_6():
    for label in all_labels(6):
        value = plane_eval_eigen.__wrapped__(label)  # built afresh, or the cached value of a smaller swap
        assert value._canon is not None, label
        assert value._canon == canonical_from_scratch(value) == (value._num, value._den), label


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
        assert plane_eval_eigen(conj) == s_inverse(plane_eval_eigen(label)) * sign

