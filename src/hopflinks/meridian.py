"""Eigenvalues of the two encircling (meridian) operators and plane
evaluations of the annulus basis elements.

A single unknotted loop around the annulus core, oriented counter-
clockwise or clockwise, acts diagonally on the two-sided eigenbasis.
The eigenvalue attached to a label is a content sum over the two shapes
weighted by v^{-1} or -v, plus the unknot value; it is built as one
numerator over z = s - s^{-1}, the unknot value's denominator, its two
rows straight from the contents, and it is canonical as built.  The
closed form raises these eigenvalues to string counts; `ccw_power` keeps
the numerator of each (label, n) power it has made, over z^n, and builds
it as the numerator below times the eigenvalue's, one product by a
two-row value, so a sweep over string counts builds each power once and
with one product.
"""

from __future__ import annotations

from functools import cache

from .partitions import BasisLabel, Partition, cells, contents, hook_lengths
from .ring import LaurentPoly, SkeinScalar

__all__ = [
    "ccw_eigenvalue",
    "ccw_power",
    "cw_eigenvalue",
    "plane_eval_single",
    "plane_eval_product",
]

@cache
def ccw_eigenvalue(label: BasisLabel) -> SkeinScalar:
    """Eigenvalue of the counterclockwise encircling loop on `label`.

    z (-v * sum_neg s^{-2c} + v^{-1} * sum_pos s^{2c}) + delta, with
    z = s - s^{-1} and delta = (v^{-1} - v) / z, built over z at once:
    (v^{-1} (1 + z^2 sum_pos s^{2c}) - v (1 + z^2 sum_neg s^{-2c})) / z,
    its two rows in t = s^2 straight from the contents
    (`LaurentPoly.encircling`).  It is canonical as built: z is
    s^{-1} Phi_1(s^2), and z^2 vanishes at t = 1, where the rows are 1
    and -1, so Phi_1(t) = t - 1 divides neither.
    """
    lam, mu = label
    return SkeinScalar._reduced(LaurentPoly.encircling(contents(lam), contents(mu)), ((1, 1),))


@cache
def ccw_power(label: BasisLabel, n: int) -> LaurentPoly:
    """The numerator of ccw_eigenvalue(label) ** n over z^n, made once per (label, n).

    From n = 2 on it is `ccw_power(label, n - 1)` times `ccw_power(label, 1)`,
    the eigenvalue's numerator.  A miss first asks for the powers below it
    in increasing order, so each is a cache hit or one product over a hit,
    and no recursion deepens with n.  The clockwise power of a label is
    `ccw_power` of the swapped label, as in `cw_eigenvalue`.
    """
    if n < 2:
        return ccw_eigenvalue(label).num ** n
    for m in range(2, n):
        ccw_power(label, m)
    return ccw_power(label, n - 1) * ccw_power(label, 1)


def cw_eigenvalue(label: BasisLabel) -> SkeinScalar:
    """Eigenvalue of the clockwise encircling loop on `label`.

    Equals the counterclockwise eigenvalue of the swapped label.
    """
    return ccw_eigenvalue(BasisLabel(label.pos, label.neg))


@cache
def plane_eval_single(lam: Partition) -> SkeinScalar:
    """Homfly value in the plane of the closed single-shape idempotent.

    Hook-content product over the cells:
    prod (v^{-1} s^{j-i} - v s^{i-j}) / (s^{hl} - s^{-hl}).
    """
    lam = tuple(lam)
    out = SkeinScalar.one()
    for (i, j), hook in zip(cells(lam), hook_lengths(lam)):
        num = LaurentPoly({(-1, j - i): 1, (1, i - j): -1})
        out = out * SkeinScalar(num, ((hook, 1),))
    return out


@cache
def plane_eval_product(label: BasisLabel) -> SkeinScalar:
    """Plane evaluation of the juxtaposed pair of single-shape elements.

    Evaluation is multiplicative over nested annuli, so this is just the
    product of the two one-sided evaluations.
    """
    return plane_eval_single(label.neg) * plane_eval_single(label.pos)

