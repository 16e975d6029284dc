"""Eigenvalues of the two encircling (meridian) operators and plane
evaluations of the annulus basis elements.

A single unknotted loop around the annulus core, oriented counter-
clockwise or clockwise, acts diagonally on the two-sided eigenbasis.
The eigenvalue attached to a label is a content sum over the two shapes
weighted by v^{-1} or -v, plus the unknot value.
"""

from __future__ import annotations

from functools import cache

from .partitions import BasisLabel, Partition, cells, contents, hook_length
from .ring import Z, LaurentPoly, SkeinScalar, delta

__all__ = [
    "ccw_eigenvalue",
    "cw_eigenvalue",
    "same_sense_eigenvalue",
    "opposite_sense_eigenvalue",
    "plane_eval_single",
    "plane_eval_product",
]

_V = LaurentPoly.term(1, v=1)
_V_INV = LaurentPoly.term(1, v=-1)


def _content_sum(lam: Partition, direction: int) -> LaurentPoly:
    """Sum of s^(2 * direction * content) over the cells of lam."""
    return LaurentPoly(((0, 2 * direction * c), 1) for c in contents(lam))


@cache
def ccw_eigenvalue(label: BasisLabel) -> SkeinScalar:
    """Eigenvalue of the counterclockwise encircling loop on `label`.

    (s - s^{-1}) (-v * sum_neg s^{-2c} + v^{-1} * sum_pos s^{2c}) + delta
    """
    lam, mu = label
    body = Z * (-(_V * _content_sum(lam, -1)) + _V_INV * _content_sum(mu, +1))
    return SkeinScalar(body) + delta()


@cache
def cw_eigenvalue(label: BasisLabel) -> SkeinScalar:
    """Eigenvalue of the clockwise encircling loop on `label`.

    Equals the counterclockwise eigenvalue of the swapped label.
    """
    lam, mu = label
    body = Z * (_V_INV * _content_sum(lam, +1) - _V * _content_sum(mu, -1))
    return SkeinScalar(body) + delta()


def same_sense_eigenvalue(lam: Partition) -> SkeinScalar:
    """Encircling loop oriented the same way as the strings it encircles."""
    return ccw_eigenvalue(BasisLabel((), tuple(lam)))


def opposite_sense_eigenvalue(lam: Partition) -> SkeinScalar:
    """Encircling loop oriented against the strings it encircles."""
    return ccw_eigenvalue(BasisLabel(tuple(lam), ()))


@cache
def plane_eval_single(lam: Partition) -> SkeinScalar:
    """Homfly value in the plane of the closed single-shape idempotent.

    Hook-content product over the cells:
    prod (v^{-1} s^{j-i} - v s^{i-j}) / (s^{hl} - s^{-hl}).
    """
    lam = tuple(lam)
    out = SkeinScalar.one()
    for i, j in cells(lam):
        num = LaurentPoly({(-1, j - i): 1, (1, i - j): -1})
        out = out * SkeinScalar(num, ((hook_length(lam, i, j), 1),))
    return out


@cache
def plane_eval_product(label: BasisLabel) -> SkeinScalar:
    """Plane evaluation of the juxtaposed pair of single-shape elements.

    Evaluation is multiplicative over nested annuli, so this is just the
    product of the two one-sided evaluations.
    """
    return plane_eval_single(label.neg) * plane_eval_single(label.pos)

