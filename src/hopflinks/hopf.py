"""Closed-form framed Homfly polynomials of the generalized Hopf
family H(k1, k2; n1, n2) and of arbitrary reverse-string decorations.

k1 encircling strings run counterclockwise and k2 clockwise around a
core of n1 counterclockwise plus n2 clockwise strings.  Each encircling
string acts on the eigenbasis by its eigenvalue, so the polynomial is a
finite sum of eigenvalue powers times plane evaluations.  Conventions
are pinned so that H(1,0;1,0) is the positive Hopf link with value
delta^2 + v^{-2} - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .basis import monomial_to_eigen, plane_eval_eigen
from .meridian import ccw_eigenvalue, cw_eigenvalue
from .ring import SkeinScalar

__all__ = [
    "HopfSpec",
    "DecorationTerm",
    "Decoration",
    "homfly_general",
    "homfly_decorated",
    "SymmetryReport",
    "check_symmetries",
]


@dataclass(frozen=True)
class HopfSpec:
    """String counts of one generalized Hopf link.

    k1/k2: counterclockwise/clockwise encircling strings.
    n1/n2: counterclockwise/clockwise core strings.
    """

    k1: int
    k2: int
    n1: int
    n2: int

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "n1", "n2"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")

    def __str__(self) -> str:
        return f"H({self.k1},{self.k2};{self.n1},{self.n2})"


def homfly_general(spec: HopfSpec) -> SkeinScalar:
    """Value of H(k1, k2; n1, n2) for any mix of string orientations."""
    out = SkeinScalar.zero()
    for label, mult in monomial_to_eigen(spec.n1, spec.n2).items():
        term = (
            ccw_eigenvalue(label) ** spec.k1
            * cw_eigenvalue(label) ** spec.k2
            * plane_eval_eigen(label)
            * mult
        )
        out = out + term
    return out


class DecorationTerm(NamedTuple):
    """One summand coeff * (a ccw strings, b cw strings)."""

    coeff: SkeinScalar
    a: int
    b: int


@dataclass(frozen=True)
class Decoration:
    """Linear combination of parallel-string monomials used as a core.

    The (a, b) pairs must be distinct; mixing winding classes is fine
    because evaluation is additive.
    """

    terms: tuple[DecorationTerm, ...]

    def __post_init__(self) -> None:
        seen = set()
        for term in self.terms:
            if term.a < 0 or term.b < 0:
                raise ValueError("string counts in a decoration must be nonnegative")
            if (term.a, term.b) in seen:
                raise ValueError(f"duplicate decoration term for strings ({term.a}, {term.b})")
            seen.add((term.a, term.b))

    @classmethod
    def from_json(cls, obj: list) -> "Decoration":
        terms = tuple(
            DecorationTerm(SkeinScalar.from_json(t["coeff"]), int(t["a"]), int(t["b"]))
            for t in obj
        )
        return cls(terms)

    def to_json(self) -> list:
        return [
            {"coeff": t.coeff.to_json(), "a": t.a, "b": t.b} for t in self.terms
        ]


def homfly_decorated(k1: int, k2: int, decoration: Decoration) -> SkeinScalar:
    """Evaluate a decorated Hopf satellite by linearity over the terms."""
    out = SkeinScalar.zero()
    for coeff, a, b in decoration.terms:
        out = out + coeff * homfly_general(HopfSpec(k1, k2, a, b))
    return out


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the equivalent-links identities for one spec."""

    spec: HopfSpec
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks if not ok]


def check_symmetries(spec: HopfSpec) -> SymmetryReport:
    """Verify the eight-link equivalence class of H(k1, k2; n1, n2).

    Swapping the encircling and core families, or reversing both string
    groups, yields the same link; exchanging the two orientation counts
    in one family yields the reflected link, whose value is the mirror
    substitution of the original.
    """
    k1, k2, n1, n2 = spec.k1, spec.k2, spec.n1, spec.n2
    base = homfly_general(spec)
    direct = [
        (f"P(H({n1},{n2};{k1},{k2}))", HopfSpec(n1, n2, k1, k2)),
        (f"P(H({k2},{k1};{n2},{n1}))", HopfSpec(k2, k1, n2, n1)),
        (f"P(H({n2},{n1};{k2},{k1}))", HopfSpec(n2, n1, k2, k1)),
    ]
    mirrored = [
        (f"mirror P(H({k2},{k1};{n1},{n2}))", HopfSpec(k2, k1, n1, n2)),
        (f"mirror P(H({n1},{n2};{k2},{k1}))", HopfSpec(n1, n2, k2, k1)),
        (f"mirror P(H({k1},{k2};{n2},{n1}))", HopfSpec(k1, k2, n2, n1)),
        (f"mirror P(H({n2},{n1};{k1},{k2}))", HopfSpec(n2, n1, k1, k2)),
    ]
    checks = []
    for name, other in direct:
        checks.append((name, base == homfly_general(other)))
    for name, other in mirrored:
        checks.append((name, base == homfly_general(other).mirror()))
    return SymmetryReport(spec, tuple(checks))
