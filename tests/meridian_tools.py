"""One-sided eigenvalue helpers used only by the tests."""

from hopflinks.meridian import ccw_eigenvalue
from hopflinks.partitions import BasisLabel, Partition
from hopflinks.ring import SkeinScalar


def same_sense_eigenvalue(lam: Partition) -> SkeinScalar:
    """Encircling loop oriented the same way as the strings it encircles."""
    return ccw_eigenvalue(BasisLabel((), tuple(lam)))


def opposite_sense_eigenvalue(lam: Partition) -> SkeinScalar:
    """Encircling loop oriented against the strings it encircles."""
    return ccw_eigenvalue(BasisLabel(tuple(lam), ()))
