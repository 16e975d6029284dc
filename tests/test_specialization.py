"""The gl(1) and gl(2) specializations of H(k1, k2; n1, n2).

Substituting v = s^{-N} in the framed Homfly polynomial gives the framed
gl(N) invariant, and for N = 1 and 2 it has a closed form of its own:

- N = 1: s to twice the total linking number, s^{2(k1-k2)(n1-n2)};
- N = 2: s^{(k1-k2)(n1-n2) - (k1+k2)(n1+n2)} times the value of
  H(k1+k2, 0; n1+n2, 0) there, since the fundamental sl(2) module is
  self-dual and reversing strings changes only the U(1) linking factor.

Each check reads the canonical (reduced) form and compares it with the
formula by cross-multiplication, which divides nothing.  The closed form
and the oracle share the canonical form, so their agreement cannot catch
a wrong quotient there; these identities would.  They also reach specs
with far too many core labels to expand, which the closed form sums over
the small encircling family instead.
"""

from hopflinks.hopf import HopfSpec, homfly_general
from hopflinks.oracle import build_diagram, homfly_of_diagram
from hopflinks.partitions import partition_counts, partitions_of
from hopflinks.ring import LaurentPoly, SkeinScalar

CLOSED_GRID = [
    HopfSpec(k1, k2, n1, n2)
    for k1 in range(4)
    for k2 in range(4 - k1)
    for n1 in range(6)
    for n2 in range(6 - n1)
]
# One or two encircling strings around a large core: H(1,0;40,0) has
# p(40) = 37,338 core labels, H(1,0;8,8) 919 and H(1,1;6,6) 210.
ONE_SIDED_GRID = (
    [HopfSpec(1, 0, n, 0) for n in range(41)]
    + [HopfSpec(1, 0, n1, n2) for n2 in range(1, 17) for n1 in range(17 - n2)]
    + [HopfSpec(1, 1, n1, n2) for n1 in range(13) for n2 in range(13 - n1)]
)
# The standard diagram of H(k1, k2; n1, n2) has 2(k1+k2)(n1+n2) crossings.
ORACLE_GRID = [
    HopfSpec(k1, k2, n1, n2)
    for k1 in range(7)
    for k2 in range(7 - k1)
    for n1 in range(7)
    for n2 in range(7 - n1)
    if 2 * (k1 + k2) * (n1 + n2) <= 12
]


def at_v(x: SkeinScalar, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The canonical form of x at v = s^{-n}: numerator and expanded denominator, in s alone."""
    num = LaurentPoly([((0, es - n * ev), c) for ev, es, c in x.num.terms()])
    den = LaurentPoly.one()
    for k, mult in x.den:
        den = den * LaurentPoly({(0, k): 1, (0, -k): -1}) ** mult
    return num, den


def gl1_holds(spec: HopfSpec, x: SkeinScalar) -> bool:
    num, den = at_v(x, 1)
    return num == LaurentPoly.term(1, s=2 * (spec.k1 - spec.k2) * (spec.n1 - spec.n2)) * den


def test_grids():
    assert len(CLOSED_GRID) == 210
    assert len(ONE_SIDED_GRID) == 41 + 136 + 91
    assert max(2 * (s.k1 + s.k2) * (s.n1 + s.n2) for s in ORACLE_GRID) == 12


def test_at_v_substitutes():
    # delta = (v^-1 - v) / (s - s^-1) is 1 at v = s^-1 and s + s^-1 at v = s^-2.
    delta_num = LaurentPoly({(-1, 0): 1, (1, 0): -1})
    num, den = at_v(SkeinScalar(delta_num, [(1, 1)]), 1)
    assert num == den == LaurentPoly({(0, 1): 1, (0, -1): -1})
    num, den = at_v(SkeinScalar(delta_num, [(1, 1)]), 2)
    assert num == LaurentPoly({(0, 2): 1, (0, -2): -1}) and den == LaurentPoly({(0, 1): 1, (0, -1): -1})


def gl2_holds(spec: HopfSpec) -> bool:
    num, den = at_v(homfly_general(spec), 2)
    k, n = spec.k1 + spec.k2, spec.n1 + spec.n2
    num0, den0 = at_v(homfly_general(HopfSpec(k, 0, n, 0)), 2)
    linking = (spec.k1 - spec.k2) * (spec.n1 - spec.n2)
    return num * den0 == LaurentPoly.term(1, s=linking - k * n) * num0 * den


def test_closed_form_gl1():
    assert [str(spec) for spec in CLOSED_GRID if not gl1_holds(spec, homfly_general(spec))] == []


def test_closed_form_gl2():
    assert [str(spec) for spec in CLOSED_GRID if not gl2_holds(spec)] == []


def test_partition_counts():
    assert partition_counts(30) == tuple(len(partitions_of(n)) for n in range(31))
    assert partition_counts(60)[60] == 966_467


def test_one_sided_closed_form_gl1():
    assert [str(spec) for spec in ONE_SIDED_GRID if not gl1_holds(spec, homfly_general(spec))] == []


def test_one_sided_closed_form_gl2():
    # For H(1,0;n,0) the identity compares the value with itself; the
    # reversed strings of H(1,0;n1,n2) and H(1,1;n1,n2) make it a check.
    assert [str(spec) for spec in ONE_SIDED_GRID if not gl2_holds(spec)] == []


def test_oracle_gl1():
    memo: dict = {}
    failed = [
        str(spec)
        for spec in ORACLE_GRID
        if not gl1_holds(spec, homfly_of_diagram(build_diagram(spec), memo=memo))
    ]
    assert failed == []
