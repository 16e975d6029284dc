"""Closed-form framed Homfly polynomials of the generalized Hopf
family H(k1, k2; n1, n2) and of arbitrary reverse-string decorations.

k1 encircling strings run counterclockwise and k2 clockwise around a
core of n1 counterclockwise plus n2 clockwise strings.  Each encircling
string acts on the eigenbasis by its eigenvalue, so the polynomial is a
finite sum of eigenvalue powers times plane evaluations.  The two
components of the Hopf link are interchangeable, H(k1,k2;n1,n2) =
H(n1,n2;k1,k2), so the sum runs over whichever family has fewer
eigenbasis labels and costs the smaller of the two label counts.

What a sum needs of its core alone is made once per core
(`_core_weights`): the labels, each with its multiplicity times the
numerator of its plane evaluation, grouped by that evaluation's
denominator, and the cofactor that raises each group to the lcm of them
all.  A request then adds numerators only: per group, the products of
the two eigenvalue powers and the weight, and each group sum times its
cofactor, over the lcm times z^(k1 + k2), and one exact division puts
that sum over z^c, c = k1 + k2 + n1 + n2, its canonical denominator.
Conventions are pinned so that H(1,0;1,0) is the positive Hopf link with
value delta^2 + v^{-2} - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from .basis import monomial_to_eigen, plane_eval_eigen
from .meridian import ccw_power
from .partitions import BasisLabel, label_count
from .ring import SkeinScalar, check_slots, common_denominator, json_int, json_item, json_list

__all__ = [
    "HopfSpec",
    "DecorationTerm",
    "Decoration",
    "homfly_general",
    "homfly_decorated",
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
    """Value of H(k1, k2; n1, n2) for any mix of string orientations.

    Sums over the eigenbasis labels of the (k1, k2) family instead of the
    (n1, n2) core when it has fewer, as H(k1,k2;n1,n2) = H(n1,n2;k1,k2);
    a tie keeps the core.  The labels are counted, not built, so the
    larger side is never enumerated.  The value comes back in its
    canonical form over z^(k1 + k2 + n1 + n2), checked as it is built;
    ArithmeticError means it is not over that power (see `_core_sum`).
    """
    if label_count(spec.k1, spec.k2) < label_count(spec.n1, spec.n2):
        spec = HopfSpec(spec.n1, spec.n2, spec.k1, spec.k2)
    return _core_sum(spec)


@cache
def _core_weights(n1: int, n2: int) -> tuple[tuple[tuple[int, int], ...], tuple]:
    """The common denominator `top` of the (n1, n2) core and its weight groups.

    The core's labels are grouped by the denominator of their plane
    evaluation, in order of first appearance.  A group holds one
    (label, swapped label, multiplicity times plane-evaluation numerator)
    entry per label and the cofactor that raises its denominator to `top`,
    the lcm of them all; None when it is `top` already.  `top` is fixed per
    core, even where a group's terms cancel; the canonical form, and so
    every output, does not depend on it.
    """
    groups: dict[tuple[tuple[int, int], ...], list] = {}
    for label, mult in monomial_to_eigen(n1, n2).items():
        weight = plane_eval_eigen(label)
        groups.setdefault(weight.den, []).append((label, BasisLabel(label.pos, label.neg), weight.num * mult))
    top, cofactors = common_denominator(tuple(groups))
    return top, tuple(zip(cofactors, map(tuple, groups.values())))


def _core_sum(spec: HopfSpec) -> SkeinScalar:
    """H(k1, k2; n1, n2) summed over the eigenbasis labels of the (n1, n2) core.

    The term of a label is its ccw power k1 times the ccw power k2 of the
    swapped label (its cw power, as in `cw_eigenvalue`) times its weight;
    `ccw_power` gives each power as its numerator over z^k, so the sum of
    the products is over `top` times z^(k1 + k2).  A power 0 is the
    constant 1 and is not multiplied in.  The link has c = k1 + k2 + n1 + n2
    components, so its canonical denominator is z^c (Lickorish and
    Millett), and the one scalar built is stored in that form at once: the
    sum divided once by every Phi_d(s^2) of its denominator less those of
    z^c (`SkeinScalar._over_z`), which raises ArithmeticError when that
    division is not exact.
    """
    k1, k2 = spec.k1, spec.k2
    top, groups = _core_weights(spec.n1, spec.n2)
    total = None
    for cofactor, entries in groups:
        part = None
        for label, swapped, weight in entries:
            if k1 and k2:
                term = ccw_power(label, k1) * ccw_power(swapped, k2) * weight
            elif k1 or k2:
                term = (ccw_power(label, k1) if k1 else ccw_power(swapped, k2)) * weight
            else:
                term = weight
            part = term if part is None else part + term
        part = part if cofactor is None else part * cofactor
        total = part if total is None else total + part
    return SkeinScalar._over_z(total, top + ((1, k1 + k2),) if k1 + k2 else top, k1 + k2 + spec.n1 + spec.n2)


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
        """Read `to_json` output; numerators packing more than MAX_SLOTS slots in all raise ValueError."""
        terms, slots = [], 0
        for t in json_list(obj):
            coeff = SkeinScalar.from_json(json_item(t, "coeff"))
            # The numerator as loaded, before any reduction, is what is stored.
            slots += sum(hi - lo + 1 for lo, hi in coeff._num.spans().values())
            check_slots(slots)
            terms.append(DecorationTerm(coeff, json_int(t, "a"), json_int(t, "b")))
        return cls(tuple(terms))

    def to_json(self) -> list:
        return [
            {"coeff": t.coeff.to_json(), "a": t.a, "b": t.b} for t in self.terms
        ]


def homfly_decorated(k1: int, k2: int, decoration: Decoration) -> SkeinScalar:
    """Evaluate a decorated Hopf satellite by linearity over the terms."""
    return SkeinScalar.sum(coeff * homfly_general(HopfSpec(k1, k2, a, b)) for coeff, a, b in decoration.terms)


def check_symmetries(spec: HopfSpec) -> list[tuple[str, bool]]:
    """Verify the eight-link equivalence class of H(k1, k2; n1, n2).

    Swapping the encircling and core families, or reversing both string
    groups, yields the same link; exchanging the two orientation counts
    in one family yields the reflected link, whose value is the mirror
    substitution of the original.  Every spec is summed over its own
    (n1, n2) core, never swapped, so each identity compares two
    independent label sums.  Returns the seven (identity, holds) pairs in
    order; a name repeats when a swap fixes the spec.
    """
    k1, k2, n1, n2 = spec.k1, spec.k2, spec.n1, spec.n2
    base = _core_sum(spec)
    direct = [HopfSpec(n1, n2, k1, k2), HopfSpec(k2, k1, n2, n1), HopfSpec(n2, n1, k2, k1)]
    mirrored = [
        HopfSpec(k2, k1, n1, n2), HopfSpec(n1, n2, k2, k1), HopfSpec(k1, k2, n2, n1), HopfSpec(n2, n1, k1, k2)
    ]
    checks = [(f"P({other})", base == _core_sum(other)) for other in direct]
    return checks + [(f"mirror P({other})", base == _core_sum(other).mirror()) for other in mirrored]
