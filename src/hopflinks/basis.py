"""Change of basis inside one winding class of the annulus skein.

Three bases of the same span appear here: parallel-string monomials,
the eigenbasis of the encircling operators, and the juxtaposed products
of one-sided idempotent closures.  The monomial expansion has the
classical tableau-count multiplicities; product elements decompose over
the eigenbasis through pairs of Littlewood-Richardson coefficients, a
unitriangular rule that back-substitution inverts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import comb, factorial

from .meridian import plane_eval_product
from .partitions import (
    BasisLabel,
    basis_labels,
    label_sort_key,
    lr_coeff,
    partitions_of,
    syt_count,
)
from .ring import SkeinScalar

__all__ = [
    "BASIS_EIGEN",
    "BASIS_PRODUCT",
    "SkeinVector",
    "pair_multiplicity",
    "monomial_to_eigen",
    "product_to_eigen",
    "eigen_to_product",
    "plane_eval_eigen",
]

# Wire-format names of the two bases.
BASIS_EIGEN = "Q"
BASIS_PRODUCT = "Qprime"


@dataclass
class SkeinVector:
    """Finite combination of basis labels with scalar coefficients.

    All labels must share one winding class, i.e. one common value of
    |neg| - |pos|; zero coefficients are dropped on construction.
    """

    basis: str
    coeffs: dict[BasisLabel, SkeinScalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.basis not in (BASIS_EIGEN, BASIS_PRODUCT):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        cleaned = {}
        windings = set()
        for label, coeff in self.coeffs.items():
            if not isinstance(coeff, SkeinScalar):
                coeff = SkeinScalar(coeff)
            if coeff.is_zero:
                continue
            cleaned[label] = coeff
            windings.add(sum(label.neg) - sum(label.pos))
        if len(windings) > 1:
            raise ValueError(f"labels mix winding classes {sorted(windings)}")
        self.coeffs = cleaned

    def items(self) -> list[tuple[BasisLabel, SkeinScalar]]:
        return sorted(self.coeffs.items(), key=lambda kv: label_sort_key(kv[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkeinVector):
            return NotImplemented
        if self.basis != other.basis or set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[k] == other.coeffs[k] for k in self.coeffs)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"label": label.to_json(), "coeff": coeff.to_json()}
                for label, coeff in self.items()
            ],
        }


def pair_multiplicity(label: BasisLabel, n1: int, n2: int) -> int:
    """Coefficient of `label` in the expansion of n1 ccw + n2 cw strings.

    m! C(n2, m) C(n1, m) d_neg d_pos where m = n2 - |neg| = n1 - |pos|.
    """
    lam, mu = label
    m = n2 - sum(lam)
    if m < 0 or m != n1 - sum(mu):
        raise ValueError(
            f"label {label} is not admissible for string counts ({n1}, {n2})"
        )
    return factorial(m) * comb(n2, m) * comb(n1, m) * syt_count(lam) * syt_count(mu)


def monomial_to_eigen(n1: int, n2: int) -> SkeinVector:
    """Eigenbasis expansion of n1 counterclockwise and n2 clockwise strings."""
    if n1 < 0 or n2 < 0:
        raise ValueError("string counts must be nonnegative")
    coeffs = {
        label: SkeinScalar(pair_multiplicity(label, n1, n2))
        for label in basis_labels(n2, n1)
    }
    return SkeinVector(BASIS_EIGEN, coeffs)


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
    coeffs = {
        lab: SkeinScalar(c) for lab, c in _product_to_eigen_int(label)
    }
    return SkeinVector(BASIS_EIGEN, coeffs)


def eigen_to_product(label: BasisLabel) -> SkeinVector:
    """Expansion of one eigenbasis element over the product basis."""
    coeffs = {
        lab: SkeinScalar(c) for lab, c in _eigen_to_product_int(label)
    }
    return SkeinVector(BASIS_PRODUCT, coeffs)


@cache
def plane_eval_eigen(label: BasisLabel) -> SkeinScalar:
    """Plane evaluation of an eigenbasis element via its product expansion."""
    out = SkeinScalar.zero()
    for lab, c in _eigen_to_product_int(label):
        out = out + plane_eval_product(lab) * c
    return out
