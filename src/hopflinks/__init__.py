"""Exact framed Homfly polynomials of generalized Hopf links.

Closed forms come from the eigenvalues of the two encircling operators
on the skein of the annulus; an independent skein-recursion oracle on
planar diagrams arbitrates every formula.  Every name not imported
here is imported from its submodule.
"""

from .hopf import (
    Decoration,
    DecorationTerm,
    HopfSpec,
    check_symmetries,
    homfly_decorated,
    homfly_general,
)
from .oracle import PlanarDiagram, build_diagram, homfly_of_diagram
from .render import parse_scalar, render_scalar
from .ring import LaurentPoly, SkeinScalar, delta

__version__ = "0.1.0"
