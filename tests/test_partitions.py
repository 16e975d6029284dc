from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st
from partition_tools import conjugate, hook_length

from hopflinks.partitions import (
    BasisLabel,
    basis_labels,
    cells,
    contents,
    hook_lengths,
    label_count,
    lr_coeff,
    partitions_of,
    syt_count,
)

# Textbook partition numbers pi(0)..pi(8).
PI = [1, 1, 2, 3, 5, 7, 11, 15, 22]


@st.composite
def partition_strategy(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    opts = partitions_of(n)
    return opts[draw(st.integers(0, len(opts) - 1))]


# -- independent oracles -------------------------------------------------------

@lru_cache(maxsize=None)
def syt_by_chain_count(lam):
    """Count standard tableaux by removing outer corners one at a time."""
    if not lam:
        return 1
    total = 0
    for i in range(len(lam)):
        if i == len(lam) - 1 or lam[i] > lam[i + 1]:
            smaller = list(lam)
            smaller[i] -= 1
            if smaller[-1] == 0:
                smaller.pop()
            total += syt_by_chain_count(tuple(smaller))
    return total


def schur_polynomial(lam, nvars):
    """Monomial expansion of a Schur polynomial via semistandard fillings."""
    if not lam:
        return {(0,) * nvars: 1}
    order = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    out = Counter()
    filling = {}

    def place(pos):
        if pos == len(order):
            expo = [0] * nvars
            for value in filling.values():
                expo[value - 1] += 1
            out[tuple(expo)] += 1
            return
        i, j = order[pos]
        lo = filling.get((i, j - 1), 1)
        above = filling.get((i - 1, j), 0)
        lo = max(lo, above + 1)
        for value in range(lo, nvars + 1):
            filling[(i, j)] = value
            place(pos + 1)
        filling.pop((i, j), None)

    place(0)
    return dict(out)


def poly_mul(a, b):
    out = Counter()
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[tuple(x + y for x, y in zip(ka, kb))] += ca * cb
    return {k: c for k, c in out.items() if c}


def lr_by_schur_expansion(lam, mu, nu):
    """Coefficient of one Schur polynomial in a product of two others.

    Expands greedily along lexicographically decreasing leading shapes,
    which refines dominance, so the transition is unitriangular.
    """
    n = sum(mu) + sum(nu)
    nvars = max(n, 1)
    f = dict(poly_mul(schur_polynomial(mu, nvars), schur_polynomial(nu, nvars)))
    result = 0
    for shape in partitions_of(n):
        if len(shape) > nvars:
            continue
        key = tuple(shape) + (0,) * (nvars - len(shape))
        c = f.get(key, 0)
        if c:
            for mono, cc in schur_polynomial(shape, nvars).items():
                f[mono] = f.get(mono, 0) - c * cc
        if shape == lam:
            result = c
    assert all(v == 0 for v in f.values())
    return result


# -- cells / contents / hooks ----------------------------------------------------

def test_cells_empty():
    assert cells(()) == []


def test_cells_staircase():
    assert cells((2, 1)) == [(1, 1), (1, 2), (2, 1)]


def test_cells_row():
    assert cells((3,)) == [(1, 1), (1, 2), (1, 3)]


def test_contents_known():
    assert contents((1,)) == [0]
    assert sorted(contents((2, 1))) == [-1, 0, 1]
    assert contents((2,)) == [0, 1]


def test_hook_lengths_known():
    assert hook_length((1,), 1, 1) == 1
    assert {(i, j): hook_length((2, 1), i, j) for i, j in cells((2, 1))} == {
        (1, 1): 3,
        (1, 2): 1,
        (2, 1): 1,
    }
    assert hook_length((2,), 1, 1) == 2


@given(partition_strategy())
def test_hook_lengths_match_hook_length_per_cell(lam):
    assert hook_lengths(lam) == [hook_length(lam, i, j) for i, j in cells(lam)]


def test_hook_lengths_reject_invalid_partitions():
    for bad in ((1, 2), (2, 0), (1.0,)):
        with pytest.raises(ValueError):
            hook_lengths(bad)


def test_hook_length_outside_cell():
    with pytest.raises(ValueError):
        hook_length((2, 1), 2, 2)


def test_invalid_partition_rejected():
    with pytest.raises(ValueError):
        cells((1, 2))
    with pytest.raises(ValueError):
        cells((2, 0))


@given(partition_strategy())
def test_hook_multiset_invariant_under_conjugation(lam):
    own = sorted(hook_length(lam, i, j) for i, j in cells(lam))
    conj = conjugate(lam)
    other = sorted(hook_length(conj, i, j) for i, j in cells(conj))
    assert own == other


# -- conjugation ---------------------------------------------------------------

def test_conjugate_examples():
    assert conjugate((2,)) == (1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate(()) == ()


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam


# -- enumeration ------------------------------------------------------------------

def test_partitions_of_zero():
    assert partitions_of(0) == ((),)


def test_partitions_of_three_in_reverse_lex_order():
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_partition_counts():
    for n, expected in enumerate(PI):
        assert len(partitions_of(n)) == expected


def test_partitions_negative_rejected():
    with pytest.raises(ValueError):
        partitions_of(-1)


# -- basis labels --------------------------------------------------------------------

def test_basis_labels_3_2_count():
    assert len(basis_labels(3, 2)) == 9


def test_basis_labels_one_sided():
    for k in range(5):
        labels = basis_labels(0, k)
        assert len(labels) == PI[k]
        assert all(lab.neg == () for lab in labels)


def test_basis_labels_2_1_order():
    assert basis_labels(2, 1) == (
        BasisLabel((2,), (1,)),
        BasisLabel((1, 1), (1,)),
        BasisLabel((1,), ()),
    )


def test_basis_label_counts_match_convolution():
    for n in range(9):
        for p in range(9):
            expected = sum(
                PI[n - j] * PI[p - j] for j in range(min(n, p) + 1)
            )
            assert len(basis_labels(n, p)) == expected == label_count(n, p)


def test_basis_labels_winding_class():
    for lab in basis_labels(4, 2):
        assert sum(lab.neg) - sum(lab.pos) == 2


# -- standard tableau counts ------------------------------------------------------------

def test_syt_known_values():
    assert syt_count((1,)) == 1
    assert syt_count((2, 1)) == 2  # frozen from the chain-count oracle
    assert syt_count((2, 2)) == 2  # frozen from the chain-count oracle
    assert syt_count((3,)) == 1


def test_syt_matches_brute_force_up_to_8():
    for n in range(9):
        for lam in partitions_of(n):
            assert syt_count(lam) == syt_by_chain_count(lam)


# -- Littlewood-Richardson ----------------------------------------------------------------

def test_lr_single_box_squares():
    assert lr_coeff((2,), (1,), (1,)) == 1
    assert lr_coeff((1, 1), (1,), (1,)) == 1


def test_lr_identity():
    for lam in partitions_of(4):
        assert lr_coeff(lam, (), lam) == 1
        assert lr_coeff(lam, lam, ()) == 1


def test_lr_multiplicity_two():
    assert lr_coeff((3, 2, 1), (2, 1), (2, 1)) == 2  # frozen from the Schur oracle


def test_lr_size_mismatch_is_zero():
    assert lr_coeff((3,), (1,), (1,)) == 0
    assert lr_coeff((2, 2), (2, 1), (2,)) == 0


def test_lr_needs_containment():
    assert lr_coeff((2, 2), (3,), (1,)) == 0


def test_lr_matches_schur_expansion():
    for total in range(7):
        for a in range(total + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    for lam in partitions_of(total):
                        assert lr_coeff(lam, mu, nu) == lr_by_schur_expansion(
                            lam, mu, nu
                        ), (lam, mu, nu)


def test_lr_symmetry_exhaustive():
    for total in range(7):
        for a in range(total + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    for lam in partitions_of(total):
                        assert lr_coeff(lam, mu, nu) == lr_coeff(lam, nu, mu)


def test_lr_conjugation_equivariance_exhaustive():
    for total in range(7):
        for a in range(total + 1):
            for mu in partitions_of(a):
                for nu in partitions_of(total - a):
                    for lam in partitions_of(total):
                        assert lr_coeff(lam, mu, nu) == lr_coeff(
                            conjugate(lam), conjugate(mu), conjugate(nu)
                        )


def test_branching_identity():
    # Restricting one box: d_lam = sum over covered shapes of d_mu.
    for n in range(1, 9):
        for lam in partitions_of(n):
            total = sum(
                lr_coeff(lam, mu, (1,)) * syt_count(mu)
                for mu in partitions_of(n - 1)
            )
            assert total == syt_count(lam)


# -- serialization -----------------------------------------------------------------------

def test_label_json_round_trip():
    lab = BasisLabel((2, 1), (1,))
    assert lab.to_json() == {"neg": [2, 1], "pos": [1]}
