import json

import pytest
from diagram_tools import add_curl, braid_closure, reverse_all

from hopflinks.hopf import HopfSpec, homfly_general
from hopflinks.oracle import (
    Crossing,
    CrossingLimitError,
    MalformedDiagramError,
    PlanarDiagram,
    build_diagram,
    canonical_key,
    homfly_of_diagram,
    mirror_diagram,
)
from hopflinks.ring import LaurentPoly, SkeinScalar, delta


def mono(c, v=0, s=0):
    return LaurentPoly.term(c, v, s)


Z_SCALAR = SkeinScalar(LaurentPoly({(0, 1): 1, (0, -1): -1}))
H_PLUS = delta() ** 2 + mono(1, v=-2) - 1
H_MINUS = delta() ** 2 + mono(1, v=2) - 1

HOPF = build_diagram(HopfSpec(1, 0, 1, 0))


def grid_specs(max_encircling=2, max_core=3):
    return [
        HopfSpec(k1, k2, n1, n2)
        for k1 in range(max_encircling + 1)
        for k2 in range(max_encircling + 1 - k1)
        for n1 in range(max_core + 1)
        for n2 in range(max_core + 1 - n1)
    ]


# -- diagram construction -------------------------------------------------------

def test_build_hopf_diagram_shape():
    assert len(HOPF.crossings) == 2
    assert all(cr.sign == 1 for cr in HOPF.crossings)
    assert HOPF.free_loops == 0
    assert HOPF.component_count() == 2
    assert HOPF.writhe() == 2
    HOPF.validate()


def test_build_no_encircling_strings():
    d = build_diagram(HopfSpec(0, 0, 2, 1))
    assert d.crossings == ()
    assert d.free_loops == 3


def test_build_crossing_count():
    d = build_diagram(HopfSpec(1, 1, 1, 2))
    assert len(d.crossings) == 12
    d.validate()
    assert d.component_count() == 5


def test_build_zero_curls():
    # no arc may meet the same crossing twice in the standard family
    for spec in grid_specs():
        d = build_diagram(spec)
        for cr in d.crossings:
            assert len(set(cr.ends)) == 4


def test_build_signs_follow_orientations():
    d = build_diagram(HopfSpec(1, 1, 1, 1))
    signs = sorted(cr.sign for cr in d.crossings)
    assert signs == [-1] * 4 + [1] * 4


# -- validation ---------------------------------------------------------------------

def test_validate_rejects_bad_sign():
    bad = PlanarDiagram((Crossing(2, (0, 1, 2, 3)),))
    with pytest.raises(MalformedDiagramError):
        bad.validate()


def test_validate_rejects_unmatched_arcs():
    bad = PlanarDiagram((Crossing(1, (0, 1, 2, 3)),))
    with pytest.raises(MalformedDiagramError):
        bad.validate()


def test_validate_rejects_double_in_arc():
    a, b = HOPF.crossings
    bad = PlanarDiagram((a, Crossing(b.sign, (b.ends[0],) * 4)))
    with pytest.raises(MalformedDiagramError):
        bad.validate()


def test_validate_rejects_nonplanar_rotation():
    # under-strand closing straight back onto itself: impossible in the plane
    bad = PlanarDiagram((Crossing(1, (0, 1, 0, 1)),))
    with pytest.raises(MalformedDiagramError):
        bad.validate()


def test_negative_free_loops_rejected():
    with pytest.raises(MalformedDiagramError):
        PlanarDiagram((), -1).validate()


# -- base values -----------------------------------------------------------------------

def test_unknot_value():
    assert homfly_of_diagram(PlanarDiagram((), 1)) == delta()


def test_unlink_values():
    for m in range(5):
        assert homfly_of_diagram(PlanarDiagram((), m)) == delta() ** m


def test_hopf_values():
    assert homfly_of_diagram(HOPF) == H_PLUS
    assert homfly_of_diagram(mirror_diagram(HOPF)) == H_MINUS


def test_positive_kink_value():
    kinked = braid_closure(2, [1])  # one-crossing unknot diagram, writhe +1
    assert homfly_of_diagram(kinked) == SkeinScalar(mono(1, v=-1)) * delta()


def test_trefoil_value_from_one_skein_step():
    # switching one crossing of the closed 3-braid leaves a reducible
    # clasp, smoothing it leaves the Hopf diagram; frozen accordingly
    trefoil = braid_closure(2, [1, 1, 1])
    expected = SkeinScalar(mono(1, v=-1)) * delta() + Z_SCALAR * H_PLUS
    assert homfly_of_diagram(trefoil) == expected


# -- curl behaviour ----------------------------------------------------------------------

def test_added_curls_multiply_by_v_powers():
    v = SkeinScalar(mono(1, v=1))
    v_inv = SkeinScalar(mono(1, v=-1))
    for base in [HOPF, build_diagram(HopfSpec(1, 0, 1, 1)), braid_closure(2, [1, 1, 1])]:
        value = homfly_of_diagram(base)
        arc = base.crossings[0].ends[0]
        assert homfly_of_diagram(add_curl(base, arc, +1)) == v_inv * value
        assert homfly_of_diagram(add_curl(base, arc, -1)) == v * value


def test_antiparallel_clasp_is_split():
    # an encircling string passing over the core twice: opposite-sign
    # crossings, removable, so the value is the 2-component unlink
    clasp = PlanarDiagram(
        (Crossing(1, (0, 2, 1, 3)), Crossing(-1, (1, 2, 0, 3)))
    )
    clasp.validate()
    assert homfly_of_diagram(clasp) == delta() ** 2


# -- mirror --------------------------------------------------------------------------------

def test_mirror_is_involution():
    for spec in grid_specs():
        d = build_diagram(spec)
        assert mirror_diagram(mirror_diagram(d)) == d


def test_mirror_fixes_crossing_free_diagrams():
    d = PlanarDiagram((), 2)
    assert mirror_diagram(d) == d


def test_mirror_value_property_on_grid():
    memo: dict = {}
    for spec in grid_specs():
        d = build_diagram(spec)
        lhs = homfly_of_diagram(mirror_diagram(d), memo=memo)
        rhs = homfly_of_diagram(d, memo=memo).mirror()
        assert lhs == rhs, spec


# -- canonical keys ---------------------------------------------------------------------------

def test_canonical_key_ignores_relabeling():
    def relabel(d, offset, scale):
        out = tuple(
            Crossing(cr.sign, tuple(scale * e + offset for e in cr.ends))
            for cr in d.crossings
        )
        return PlanarDiagram(tuple(reversed(out)), d.free_loops)

    for spec in grid_specs(1, 2):
        d = build_diagram(spec)
        assert canonical_key(d) == canonical_key(relabel(d, 1000, 7)), spec


def test_canonical_key_separates_crossing_counts():
    assert canonical_key(build_diagram(HopfSpec(1, 0, 1, 0))) != canonical_key(
        build_diagram(HopfSpec(1, 0, 2, 0))
    )


def test_canonical_key_separates_mirrors():
    assert canonical_key(HOPF) != canonical_key(mirror_diagram(HOPF))


def test_canonical_key_counts_free_loops():
    assert canonical_key(PlanarDiagram((), 1)) != canonical_key(PlanarDiagram((), 2))


# -- invariance corpus ----------------------------------------------------------------------

R2_PAIRS = [
    (2, [1, -1], []),
    (2, [-1, 1], []),
    (2, [1, 1, -1], [1]),
    (3, [1, 2, -2, 1], [1, 1]),
    (3, [2, -1, 1, 2], [2, 2]),
    (4, [1, 3, -3, 2, 1], [1, 2, 1]),
]


@pytest.mark.parametrize("strands,word,reduced", R2_PAIRS)
def test_r2_invariance(strands, word, reduced):
    assert homfly_of_diagram(braid_closure(strands, word)) == homfly_of_diagram(
        braid_closure(strands, reduced)
    )


R3_PAIRS = [
    (3, [1, 2, 1], [2, 1, 2]),
    (3, [-1, -2, -1], [-2, -1, -2]),
    (3, [1, 2, 1, 1], [2, 1, 2, 1]),
    (3, [-1, 2, 1], [2, 1, -2]),
    (4, [1, 2, 3, 1, 2, 1], [1, 2, 3, 2, 1, 2]),
    (3, [2, 2, 1, 2, 2], [2, 1, 2, 1, 2]),
]


@pytest.mark.parametrize("strands,left,right", R3_PAIRS)
def test_r3_invariance(strands, left, right):
    assert homfly_of_diagram(braid_closure(strands, left)) == homfly_of_diagram(
        braid_closure(strands, right)
    )


def test_orientation_reversal_on_grid():
    memo: dict = {}
    for spec in grid_specs():
        d = build_diagram(spec)
        reversed_d = reverse_all(d)
        reversed_d.validate()
        assert homfly_of_diagram(reversed_d, memo=memo) == homfly_of_diagram(
            d, memo=memo
        ), spec


# -- determinism and memoization -----------------------------------------------------------------

def test_results_independent_of_memo_population():
    fresh = homfly_of_diagram(build_diagram(HopfSpec(1, 1, 1, 1)))
    warm: dict = {}
    for spec in grid_specs(1, 2):
        homfly_of_diagram(build_diagram(spec), memo=warm)
    warmed = homfly_of_diagram(build_diagram(HopfSpec(1, 1, 1, 1)), memo=warm)
    assert fresh.to_json() == warmed.to_json()


def test_repeat_evaluation_is_bit_identical():
    d = build_diagram(HopfSpec(2, 0, 1, 1))
    assert homfly_of_diagram(d).to_json() == homfly_of_diagram(d).to_json()


# -- resource cap ------------------------------------------------------------------------------

def test_crossing_cap_default():
    big = build_diagram(HopfSpec(2, 1, 1, 2))  # 18 crossings
    with pytest.raises(CrossingLimitError):
        homfly_of_diagram(big)


def test_crossing_cap_override():
    big = build_diagram(HopfSpec(2, 1, 1, 2))
    assert homfly_of_diagram(big, max_crossings=18) == homfly_general(
        HopfSpec(2, 1, 1, 2)
    )


# -- closed form vs oracle (the decisive grid) ---------------------------------------------------

def test_closed_form_matches_oracle_on_grid():
    memo: dict = {}
    for spec in grid_specs():
        assert homfly_general(spec) == homfly_of_diagram(
            build_diagram(spec), memo=memo
        ), spec


def test_closed_form_matches_oracle_beyond_default_cap():
    memo: dict = {}
    for spec in grid_specs(3, 3):
        crossings = 2 * (spec.k1 + spec.k2) * (spec.n1 + spec.n2)
        if crossings <= 18:
            assert homfly_general(spec) == homfly_of_diagram(
                build_diagram(spec), max_crossings=18, memo=memo
            ), spec


# -- serialization --------------------------------------------------------------------------------

def test_diagram_json_round_trip():
    blob = HOPF.to_json()
    assert blob["arcs"] == 4 and blob["loops"] == 0
    again = PlanarDiagram.from_json(json.loads(json.dumps(blob)))
    assert again == HOPF


def test_diagram_json_rejects_garbage():
    with pytest.raises(MalformedDiagramError):
        PlanarDiagram.from_json({"crossings": [{"sign": 1}]})
