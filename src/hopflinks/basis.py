"""Change of basis inside one winding class of the annulus skein, and the
plane evaluation of the eigenbasis.

Two bases of the same span appear here: parallel-string monomials and
the eigenbasis of the encircling operators.  The monomial expansion has
the classical tableau-count multiplicities; an eigenbasis element
evaluates in the plane to the Weyl dimension of a mixed GL(N) weight,
one closed hook-content product, whose brackets [N+c] are counted by
content and multiplied out in one pass.  A label and its swap share one
value, which is canonical as built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, factorial

from .partitions import BasisLabel, basis_labels, contents, hook_lengths, syt_count
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
def plane_eval_eigen(label: BasisLabel) -> SkeinScalar:
    """Plane evaluation of an eigenbasis element (Koike 1989; Hadji-Morton 2006).

    <Q_neg> <Q_pos> prod_{i <= l(neg), j <= l(pos)} [N+A][N+B] / ([N+C][N+D])
    with B = 1-i-j, A = neg_i+pos_j+B, C = neg_i+B and D = pos_j+B: the
    brackets [N+c] = v^{-1} s^c - v s^{-c} (v = s^{-N}) are counted by
    content, every C and D cancels against one, and the numerator is built
    from the counts in one pass (`LaurentPoly.brackets`).  The hook lengths
    of both shapes make the denominator.

    Swapping the shapes keeps the contents, the hooks and each A and B and
    exchanges C with D, so a label and its swap build the same numerator
    and denominator: the larger of the two returns the value of the
    smaller.  The value is canonical as built: each bracket, a polynomial
    in v with unit coefficients s^c and -s^{-c}, is primitive over
    Z[s^{+-1}], so by Gauss's lemma their product is too, and no
    Phi_e(s^2) of the denominator divides all of its v-coefficients.
    """
    lam, mu = label
    if mu < lam:
        return plane_eval_eigen(BasisLabel(mu, lam))
    # counts[c + off] is the multiplicity of [N+c]; every c lies in [1 - off, neg_1 + pos_1 - 1].
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
    if min(counts, default=0) < 0:
        raise ArithmeticError(f"a bracket [N+c] is left in the denominator of {label}")
    num = LaurentPoly.brackets((c - off, mult) for c, mult in enumerate(counts))
    return SkeinScalar._reduced(num, [(h, 1) for h in hook_lengths(lam) + hook_lengths(mu)])
