"""Change of basis inside one winding class of the annulus skein, and the
plane evaluation of the eigenbasis.

Two bases of the same span appear here: parallel-string monomials and
the eigenbasis of the encircling operators.  The monomial expansion has
the classical tableau-count multiplicities; an eigenbasis element
evaluates in the plane to the Weyl dimension of a mixed GL(N) weight,
one closed hook-content product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb, factorial

from .partitions import BasisLabel, basis_labels, cells, contents, hook_length, syt_count
from .ring import LaurentPoly, SkeinScalar

__all__ = [
    "SkeinVector",
    "pair_multiplicity",
    "monomial_to_eigen",
    "plane_eval_eigen",
]


@dataclass
class SkeinVector:
    """Eigenbasis labels with their integer multiplicities.

    The labels share one winding class, one common value of
    |neg| - |pos|, as `basis_labels` builds them.
    """

    coeffs: dict[BasisLabel, int]

    def items(self):
        return self.coeffs.items()


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
    return SkeinVector({label: pair_multiplicity(label, n1, n2) for label in basis_labels(n2, n1)})


@cache
def _bracket_power(c: int, mult: int) -> LaurentPoly:
    """[N+c]^mult = (v^{-1} s^c - v s^{-c})^mult, shared by every label that holds it."""
    return LaurentPoly({(-1, c): 1, (1, -c): -1}) ** mult


@cache
def plane_eval_eigen(label: BasisLabel) -> SkeinScalar:
    """Plane evaluation of an eigenbasis element (Koike 1989; Hadji-Morton 2006).

    <Q_neg> <Q_pos> prod_{i <= l(neg), j <= l(pos)} [N+A][N+B] / ([N+C][N+D])
    with B = 1-i-j, A = neg_i+pos_j+B, C = neg_i+B and D = pos_j+B: the
    brackets [N+c] = v^{-1} s^c - v s^{-c} (v = s^{-N}) are counted by
    content, every C and D cancels against one, and the hook lengths of
    both shapes make the denominator.
    """
    lam, mu = label
    brackets = Counter(contents(lam) + contents(mu))
    for i, a in enumerate(lam, 1):
        for j, b in enumerate(mu, 1):
            brackets.update((a + b + 1 - i - j, 1 - i - j))
            brackets.subtract((a + 1 - i - j, b + 1 - i - j))
    if min(brackets.values(), default=0) < 0:
        raise ArithmeticError(f"a bracket [N+c] is left in the denominator of {label}")
    num = LaurentPoly.one()
    for c, mult in sorted(brackets.items()):
        if mult:
            num = num * _bracket_power(c, mult)
    hooks = Counter(hook_length(shape, i, j) for shape in label for i, j in cells(shape))
    return SkeinScalar(num, hooks.items())
