"""Eigenvalue helpers used only by the tests."""

from hopflinks.meridian import ccw_eigenvalue
from hopflinks.partitions import BasisLabel, Partition, contents
from hopflinks.ring import LaurentPoly, SkeinScalar


def same_sense_eigenvalue(lam: Partition) -> SkeinScalar:
    """Encircling loop oriented the same way as the strings it encircles."""
    return ccw_eigenvalue(BasisLabel((), tuple(lam)))


def opposite_sense_eigenvalue(lam: Partition) -> SkeinScalar:
    """Encircling loop oriented against the strings it encircles."""
    return ccw_eigenvalue(BasisLabel(tuple(lam), ()))


def ccw_eigenvalue_from_terms(label: BasisLabel) -> SkeinScalar:
    """The counterclockwise eigenvalue built from a list of terms, as `ccw_eigenvalue` once built it.

    Each cell of content c adds -ev v^ev z^2 s^(-2 ev c), with
    z^2 = s^2 - 2 + s^{-2}, as three terms; the terms are then grouped and
    packed, and the value is screened on its first read.
    """
    lam, mu = label
    terms = [((-1, 0), 1), ((1, 0), -1)]
    for ev, shape in ((-1, mu), (1, lam)):
        for c in contents(shape):
            es = -2 * ev * c
            terms += (((ev, es + 2), -ev), ((ev, es), 2 * ev), ((ev, es - 2), -ev))
    return SkeinScalar(LaurentPoly(terms), ((1, 1),))
