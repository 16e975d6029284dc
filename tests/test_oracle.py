import ast
import hashlib
import itertools
import json
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest
from diagram_tools import (
    add_curl,
    braid_closure,
    canonical_key,
    component_count,
    connected_sum,
    enters,
    face_orbits,
    in_ends,
    key_diagram,
    mirror_diagram,
    parallel_twist_runs,
    reverse_all,
    reverse_component,
    smooth as _smooth,
    switch as _switch,
    walk_strands,
    writhe,
)
from hypothesis import example, given, strategies as st
from ring_tools import mono

from hopflinks.hopf import HopfSpec, homfly_general
from hopflinks.oracle import (
    Crossing,
    CrossingLimitError,
    MalformedDiagramError,
    PlanarDiagram,
    build_diagram,
    check_family_cap,
    homfly_of_diagram,
)
from hopflinks.oracle import (
    _arc_table,
    _children,
    _simplify,
    _split_crossing,
    _strands,
    _summands,
    _trace_faces,
    _twist_region,
)
import hopflinks.oracle as oracle_module
import hopflinks.ring as ring_module
from hopflinks.ring import LaurentPoly, SkeinScalar, delta


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
    assert component_count(HOPF) == 2
    assert writhe(HOPF) == 2
    HOPF.validate()


def test_build_no_encircling_strings():
    d = build_diagram(HopfSpec(0, 0, 2, 1))
    assert d.crossings == ()
    assert d.free_loops == 3


def test_build_crossing_count():
    d = build_diagram(HopfSpec(1, 1, 1, 2))
    assert len(d.crossings) == 12
    d.validate()
    assert component_count(d) == 5


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


# sha256 of the JSON of every family diagram with each count in 0..4 (625
# specs): pins every arc id and crossing position, which the memo's
# insertion order and every oracle output follow from.
BUILD_DIGEST = "d407b5a3a26295e8ce4d4040a7d68f96ef681b05fd1a02202dccfa254f70d626"


def test_build_diagrams_pinned():
    diagrams = [build_diagram(HopfSpec(*c)).to_json() for c in itertools.product(range(5), repeat=4)]
    text = json.dumps(diagrams, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_DIGEST


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


@pytest.mark.parametrize("field,value", [
    ("sign", 1.9), ("sign", True), ("sign", "1"), ("end", 0.5), ("end", False), ("loops", 2.7), ("loops", True),
])
def test_diagram_json_fields_are_strict_integers(field, value):
    blob = HOPF.to_json()
    if field == "loops":
        blob["loops"] = value
    elif field == "sign":
        blob["crossings"][0]["sign"] = value
    else:
        blob["crossings"][0]["ends"][0] = value
    with pytest.raises(MalformedDiagramError):
        PlanarDiagram.from_json(blob)


def test_free_loops_count_against_the_cap():
    with pytest.raises(CrossingLimitError):
        homfly_of_diagram(PlanarDiagram((), 17))
    assert homfly_of_diagram(PlanarDiagram((), 3), max_crossings=3) == delta() ** 3
    with pytest.raises(CrossingLimitError):
        homfly_of_diagram(PlanarDiagram((), 4), max_crossings=3)


# -- planarity: one Euler count against the per-piece check ------------------------------------

def reference_accepts(d):
    """Per-piece planarity: union-find pieces, F = V + 2 in each; the reference for validate."""
    if d.free_loops < 0:
        return False
    ins, outs = {}, {}
    for ci, cr in enumerate(d.crossings):
        if cr.sign not in (1, -1) or len(cr.ends) != 4:
            return False
        for pos, arc in enumerate(cr.ends):
            bucket = ins if pos == 0 or pos == (3 if cr.sign > 0 else 1) else outs
            if arc in bucket:
                return False
            bucket[arc] = ci
    if set(ins) != set(outs):
        return False
    parent = list(range(len(d.crossings)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for arc in ins:
        parent[find(ins[arc])] = find(outs[arc])
    ends = {}
    for ci, cr in enumerate(d.crossings):
        for pos, arc in enumerate(cr.ends):
            ends.setdefault(arc, []).append((ci, pos))
    faces, sizes, visited = {}, {}, set()
    for ci in range(len(d.crossings)):
        sizes[find(ci)] = sizes.get(find(ci), 0) + 1
        for pos in range(4):
            if (ci, pos) in visited:
                continue
            faces[find(ci)] = faces.get(find(ci), 0) + 1
            cur = (ci, pos)
            while cur not in visited:
                visited.add(cur)
                occ = ends[d.crossings[cur[0]].ends[cur[1]]]
                other = occ[1] if occ[0] == cur else occ[0]
                cur = (other[0], (other[1] + 1) % 4)
    return all(faces[root] == v + 2 for root, v in sizes.items())


def accepts(d):
    try:
        d.validate()
    except MalformedDiagramError:
        return False
    return True


@st.composite
def rotation_systems(draw, max_crossings=4):
    """Random crossings whose outgoing ends are matched to incoming ends at random."""
    n = draw(st.integers(1, max_crossings))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    in_slots = [(ci, p) for ci in range(n) for p in (0, 3 if signs[ci] > 0 else 1)]
    out_slots = [(ci, p) for ci in range(n) for p in (2, 1 if signs[ci] > 0 else 3)]
    targets = draw(st.permutations(in_slots))
    ends = [[None] * 4 for _ in range(n)]
    for arc, ((co, po), (ci, pi)) in enumerate(zip(out_slots, targets)):
        ends[co][po] = ends[ci][pi] = arc
    return PlanarDiagram(tuple(Crossing(s, tuple(e)) for s, e in zip(signs, ends)))


braids = st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6).map(
    lambda word: braid_closure(3, word)
)
pieces = st.one_of(rotation_systems(), braids)


def disjoint_union(parts, order):
    crossings, offset = [], 0
    for d in parts:
        crossings += [Crossing(cr.sign, tuple(e + offset for e in cr.ends)) for cr in d.crossings]
        offset += max(d.arcs(), default=-1) + 1
    return PlanarDiagram(tuple(crossings[i] for i in order))


@st.composite
def diagrams_for_planarity(draw):
    parts = draw(st.lists(pieces, min_size=1, max_size=3))
    total = sum(len(d.crossings) for d in parts)
    d = disjoint_union(parts, draw(st.permutations(range(total))))
    if draw(st.booleans()):  # rewrite one end and sign: often breaks the arc matching
        i, j = draw(st.integers(0, total - 1)), draw(st.integers(0, 3))
        ends = list(d.crossings[i].ends)
        ends[j] = draw(st.integers(0, 2 * total))
        new = Crossing(draw(st.sampled_from([1, -1, 2])), tuple(ends))
        d = PlanarDiagram(d.crossings[:i] + (new,) + d.crossings[i + 1 :])
    return d


@given(diagrams_for_planarity())
def test_validate_agrees_with_per_piece_euler_check(d):
    assert accepts(d) == reference_accepts(d)


def test_validate_rejects_nonplanar_piece_beside_planar_ones():
    planar = braid_closure(3, [1, -2, 1])
    nonplanar = PlanarDiagram((Crossing(1, (0, 1, 0, 1)),))
    assert accepts(planar) and not reference_accepts(nonplanar)
    for parts in ([planar, nonplanar], [nonplanar, planar], [planar, planar, nonplanar]):
        d = disjoint_union(parts, range(sum(len(p.crossings) for p in parts)))
        assert not accepts(d) and not reference_accepts(d)
    assert accepts(disjoint_union([planar, HOPF], range(5)))


# -- canonical key: pruned search against the brute-force minimum -------------------------

def _canonical_reference(d):
    """canonical_key by brute force: per piece, the least traversal encoding
    over every start arc; the pieces' encodings sorted, then the free loops."""
    in_end = {}
    for ci, cr in enumerate(d.crossings):
        for pos in (0, 3 if cr.sign > 0 else 1):
            in_end[cr.ends[pos]] = (ci, pos)

    def encode(start):
        label, order, visited = {start: 0}, [start], []
        for arc in order:
            ci, pos = in_end[arc]
            if ci in visited:
                continue
            visited.append(ci)
            for off in range(4):
                e = d.crossings[ci].ends[(pos + off) % 4]
                if e not in label:
                    label[e] = len(order)
                    order.append(e)
        items = tuple((d.crossings[ci].sign, tuple(label[e] for e in d.crossings[ci].ends)) for ci in visited)
        return items, frozenset(order)

    least = {}
    for start in in_end:
        items, piece = encode(start)
        least[piece] = min(items, least.get(piece, items))
    return tuple(sorted(least.values())), d.free_loops


@st.composite
def kinked(draw, base):
    """A diagram from `base` with up to three curls added at random arcs."""
    d = draw(base)
    for _ in range(draw(st.integers(0, 3))):
        if d.crossings:
            d = add_curl(d, draw(st.sampled_from(d.arcs())), draw(st.sampled_from([1, -1])))
    return d


specs = st.builds(HopfSpec, st.integers(0, 2), st.integers(0, 1), st.integers(0, 2), st.integers(0, 1))
accepted_pieces = st.one_of(rotation_systems().filter(accepts), braids)


@st.composite
def unions(draw):
    parts = draw(st.lists(accepted_pieces, min_size=1, max_size=3))
    d = disjoint_union(parts, draw(st.permutations(range(sum(len(p.crossings) for p in parts)))))
    return PlanarDiagram(d.crossings, draw(st.integers(0, 3)))


@st.composite
def periodic_braids(draw):
    """The closure of a short braid word repeated 2 to 6 times."""
    strands = draw(st.integers(2, 3))
    letters = [1, -1] if strands == 2 else [1, -1, 2, -2]
    word = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3))
    return braid_closure(strands, word * draw(st.integers(2, 6)))


# Diagrams with nontrivial automorphisms, where the canonical key skips
# starts by orbit; random words above rarely have any.
symmetric = st.one_of(
    periodic_braids(),
    st.integers(1, 30).map(lambda n: braid_closure(2, [1] * n)),
    st.builds(HopfSpec, st.integers(1, 3), st.just(0), st.integers(1, 3), st.just(0)).map(build_diagram),
)

key_corpus = st.one_of(
    kinked(unions()),
    kinked(specs.map(build_diagram)),
    kinked(braids),
    st.integers(0, 5).map(lambda loops: PlanarDiagram((), loops)),
    symmetric,
)


@given(key_corpus)
# Split: an all-positive twist piece listed before a piece of both signs,
# and after it.  Each piece takes its starts from its own least sign.
@example(disjoint_union([braid_closure(2, [1] * 3), build_diagram(HopfSpec(1, 1, 1, 0))], range(7)))
@example(disjoint_union([build_diagram(HopfSpec(1, 1, 1, 0)), braid_closure(2, [1] * 3)], range(7)))
@example(PlanarDiagram((), 3))  # no crossing: the key is () and the loops
def test_canonical_key_is_the_brute_force_minimum(d):
    d.validate()
    assert canonical_key(d) == _canonical_reference(d)


def test_symmetric_twists_take_a_fixed_number_of_encodings(monkeypatch):
    real = oracle_module._encode_from
    calls = []
    monkeypatch.setattr(oracle_module, "_encode_from", lambda *args: calls.append(args) or real(*args))
    counts = []
    for n in (10, 60):
        calls.clear()
        canonical_key(braid_closure(2, [1] * n))
        counts.append(len(calls))
    assert counts == [2, 2], counts


def _table_diagram(table):
    """The crossings and the in-end map (each arc to the crossing and
    position it enters) of an arc table, checked against the table's own
    reading of each entry."""
    crossings, in_end = {}, {}
    for arc, (ci, sign, entered, ends) in table.items():
        crossings[ci] = Crossing(sign, ends)
        pos = 0 if arc == ends[0] else (3 if sign > 0 else 1)
        assert entered == ends[pos:] + ends[:pos]
        in_end[arc] = (ci, pos)
    crossings = tuple(crossings[ci] for ci in range(len(crossings)))
    assert in_end == in_ends(crossings)
    return crossings, in_end


def _piece_of(crossings, arc):
    """The arcs of the connected piece that holds `arc`: every end of a
    crossing that meets the piece joins it."""
    piece = {arc}
    grew = True
    while grew:
        grew = False
        for cr in crossings:
            if not piece.isdisjoint(cr.ends) and not piece.issuperset(cr.ends):
                piece.update(cr.ends)
                grew = True
    return piece


@given(key_corpus)
def test_reduced_diagrams_encode_in_full_only_from_least_under_strand_starts(d):
    # Every crossing that _simplify leaves has four distinct ends, so an
    # encoding that is not dropped at its first item starts on the
    # under-strand in-arc of a least-sign crossing of its piece, at every
    # node of the skein tree.
    real = oracle_module._encode_from
    kept = []

    def recording(table, start, best):
        found = real(table, start, best)
        if found is not None:
            kept.append((*_table_diagram(table), start))
        return found

    oracle_module._encode_from = recording
    try:
        homfly_of_diagram(PlanarDiagram(d.crossings), max_crossings=len(d.crossings))
    finally:
        oracle_module._encode_from = real
    for crossings, in_end, start in kept:
        assert all(len(set(cr.ends)) == 4 for cr in crossings)
        piece = _piece_of(crossings, start)
        ci, pos = in_end[start]
        assert pos == 0
        assert crossings[ci].sign == min(crossings[in_end[a][0]].sign for a in piece)


def _first_item_reference(crossings, in_end, start):
    """The first item of an encoding from `start`: the entered crossing's sign
    and its ends labeled in order of first appearance from the entry position."""
    ci, pos = in_end[start]
    sign, ends = crossings[ci]
    label = {}
    for off in range(4):
        label.setdefault(ends[(pos + off) % 4], len(label))
    return sign, tuple(label[e] for e in ends)


def _start_rule(crossings, in_end, piece):
    """The under-strand in-arcs of the least-sign crossings of `piece`."""
    least = min(crossings[in_end[a][0]].sign for a in piece)
    return {a for a in piece if in_end[a][1] == 0 and crossings[in_end[a][0]].sign == least}


@given(key_corpus)
def test_encodings_start_by_the_rule_and_it_holds_every_least_first_item(d):
    # Through canonical_key on the diagram as drawn (kinks included), and at
    # every node of the skein tree the oracle walks: every encoding starts at
    # an under-strand in-arc of a least-sign crossing of its piece, and those
    # arcs hold every arc whose first item is the piece's least.
    real = oracle_module._encode_from
    calls = []

    def recording(table, start, best):
        calls.append((table, start))
        return real(table, start, best)

    oracle_module._encode_from = recording
    try:
        canonical_key(d)
        homfly_of_diagram(PlanarDiagram(d.crossings), max_crossings=len(d.crossings))
    finally:
        oracle_module._encode_from = real
    assert bool(calls) == bool(d.crossings)
    for table, start in calls:
        crossings, in_end = _table_diagram(table)
        piece = _piece_of(crossings, start)
        rule = _start_rule(crossings, in_end, piece)
        assert start in rule
        assert real(table, start, None)[0][0] == _first_item_reference(crossings, in_end, start)
        items = {a: _first_item_reference(crossings, in_end, a) for a in piece}
        least = min(items.values())
        assert {a for a, item in items.items() if item == least} <= rule


def test_nodes_make_no_product_by_one(monkeypatch):
    # None of these diagrams has a free loop.  Skein steps and frames run on
    # the packed rows, so no numerator product is made at all.
    real = LaurentPoly.__mul__
    products, by_one = [], []

    def counting(a, b):
        products.append((a, b))
        if a == 1 or b == 1:
            by_one.append((a, b))
        return real(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    for d in (braid_closure(2, [1] * 12), build_diagram(HopfSpec(2, 0, 2, 0)), build_diagram(HopfSpec(1, 1, 2, 1))):
        assert not d.free_loops
        homfly_of_diagram(d)
    assert products == []
    assert by_one == []


def test_crossing_free_diagrams_make_no_product_by_one(monkeypatch):
    real = LaurentPoly.__mul__
    calls = []
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append((a, b)) or real(a, b))
    # Each value is built once and then shared, so start with none built.
    oracle_module._v_delta.cache_clear()
    for m in (1, 2, 3):
        calls.clear()
        value = homfly_of_diagram(PlanarDiagram((), m))
        products = list(calls)
        assert products == [], m  # the numerator of delta ** m is expanded, not multiplied
        assert value == delta() ** m


@given(st.one_of(kinked(unions()), kinked(braids)))
def test_free_loops_beside_crossings_multiply_by_delta(d):
    cap = max(len(d.crossings), 3)
    bare = homfly_of_diagram(PlanarDiagram(d.crossings), max_crossings=cap)
    for m in (1, 2, 3):
        assert homfly_of_diagram(PlanarDiagram(d.crossings, m), max_crossings=cap) == bare * delta() ** m


def test_free_loops_are_framed_at_the_root_with_no_product(monkeypatch):
    # The root node frames its memo value by v^v_exp and every loop, the
    # diagram's free loops included, with row moves and passes of the ring's
    # addition loop.  The framed value is the reference product by
    # _v_delta(v_exp, m), and the tree makes no product.
    real = LaurentPoly.__mul__
    calls = []
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append((a, b)) or real(a, b))
    kinked_hopf = add_curl(HOPF, 0, 1)  # the root strips the kink: v^-1
    key, _ = canonical_key(HOPF)  # the memo key of the root's reduced core
    for d, v_exp in ((HOPF, 0), (kinked_hopf, -1)):
        for m in range(4):
            memo: dict = {}
            value = homfly_of_diagram(PlanarDiagram(d.crossings, m), memo=memo)
            assert calls == [], (v_exp, m)
            num, c = memo[key]
            assert value.num == real(num, oracle_module._v_delta(v_exp, m)), (v_exp, m)
            assert value.den == ((1, c + m),)


# -- simplification: moves near the split crossing against the full face rescan -------------

def _splice_reference(crossings, skip, pairs):
    """Drop the crossings in `skip`, splice the arc pairs, count loops; every crossing rebuilt."""
    rename = {}

    def find(a):
        while a in rename:
            a = rename[a]
        return a

    loops = 0
    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx == ry:
            loops += 1
        else:
            rename[ry] = rx
    out = [Crossing(cr.sign, tuple(find(e) for e in cr.ends)) for i, cr in enumerate(crossings) if i not in skip]
    return out, loops


def _simplify_reference(crossings):
    """_simplify by tracing every face of the diagram after every move: the
    first monogon in order of its least corner, else the first reducible bigon."""
    v_exp = 0
    loops = 0
    work = list(crossings)
    while work:
        move = None
        bigon = None
        for orbit in face_orbits(tuple(work)):
            if len(orbit) == 1:
                move = orbit
                break
            if len(orbit) == 2 and bigon is None:
                (c1, p1), (c2, p2) = orbit
                if c1 == c2:
                    continue
                if work[c1].sign == work[c2].sign:
                    continue
                # The shared strand must be over (or under) at both ends.
                if p1 % 2 != (p2 - 1) % 2:
                    continue
                bigon = orbit
        if move is not None:
            (ci, pos) = move[0]
            cr = work[ci]
            v_exp -= cr.sign
            pairs = [(cr.ends[(pos + 1) % 4], cr.ends[(pos + 2) % 4])]
            work, new_loops = _splice_reference(work, {ci}, pairs)
            loops += new_loops
            continue
        if bigon is not None:
            (c1, p1), (c2, p2) = bigon
            crA, crB = work[c1], work[c2]
            pairs = [
                (crA.ends[(p1 + 2) % 4], crB.ends[(p2 + 1) % 4]),
                (crA.ends[(p1 + 1) % 4], crB.ends[(p2 + 2) % 4]),
            ]
            work, new_loops = _splice_reference(work, {c1, c2}, pairs)
            loops += new_loops
            continue
        break
    return v_exp, loops, tuple(work)


@given(key_corpus)
def test_simplify_near_the_split_crossing_matches_the_full_rescan(d):
    # Same v exponent, loop count and crossing tuple with its arc ids: for both
    # children of every crossing of the reduced diagram, and at every node of
    # the skein tree the oracle walks, the root (every arc near) included.
    core = _simplify_reference(d.crossings)[2]
    for i, cr in enumerate(core):
        for child in (_switch(core, i), _smooth(core, i)):
            assert _simplify(child, cr.ends) == _simplify_reference(child)
    calls = []

    def recording(crossings, near):
        calls.append((crossings, near))
        return _simplify(crossings, near)

    oracle_module._simplify = recording
    try:
        homfly_of_diagram(PlanarDiagram(d.crossings), max_crossings=len(d.crossings))
    finally:
        oracle_module._simplify = _simplify
    for crossings, near in calls:
        assert _simplify(crossings, near) == _simplify_reference(crossings)


def test_faces_are_traced_only_by_validate_and_the_root(monkeypatch):
    # Two traces per diagram: validate's Euler count and the root's search
    # for cuts; no node below the root traces faces, a composite root's
    # summands included.
    real = _trace_faces
    calls = []

    def tracing(in_end, out_end):
        calls.append(sys._getframe(1).f_code.co_name)
        return real(in_end, out_end)

    monkeypatch.setattr(oracle_module, "_trace_faces", tracing)
    diagrams = [build_diagram(HopfSpec(2, 0, 2, 0)), braid_closure(2, [1] * 12), add_curl(HOPF, 0, 1)]
    for d in diagrams + [build_diagram(HopfSpec(3, 0, 1, 0))]:
        calls.clear()
        homfly_of_diagram(d)
        assert calls == ["validate", "_summands"], d


def end_maps(crossings):
    """Each arc to the (crossing, position) it enters, and to the one it leaves."""
    ins, outs = {}, {}
    for ci, cr in enumerate(crossings):
        for pos, arc in enumerate(cr.ends):
            (ins if enters(cr, pos) else outs)[arc] = ci, pos
    return ins, outs


@given(st.one_of(key_corpus, kinked(unions()), rotation_systems()))
@example(add_curl(HOPF, 0, 1))
@example(PlanarDiagram((Crossing(1, (0, 1, 0, 1)),)))  # one crossing, one face: not planar
def test_trace_faces_matches_the_face_orbits(d):
    face, count = _trace_faces(*end_maps(d.crossings))
    orbits = list(face_orbits(d.crossings))
    assert count == len(orbits)
    # The same partition of the corners: each orbit is one face.
    assert sorted(sorted(4 * ci + p for ci, p in orbit) for orbit in orbits) == sorted(
        [corner for corner, f in enumerate(face) if f == g] for g in range(1, count + 1)
    )


def antiparallel_twist(n):
    """The (2, n) torus link, n even, with its two components antiparallel:
    every bigon of the twist has arcs that run opposite ways, so it holds no
    parallel twist region.  Each node switches a twist crossing, whose clasp
    is then stripped, and smooths it into a chain of kinks, so the tree is
    n/2 + 1 nodes deep."""
    d = braid_closure(2, [1] * n)
    return reverse_component(d, d.crossings[0].ends[0])


def test_pending_nodes_keep_no_diagram_but_the_switched_child():
    # The tree of antiparallel_twist(200) is 101 nodes deep (measured by
    # wrapping _node).  A node that also kept its input, its reduced core,
    # traversal maps and smoothed child peaked at 5.5 MiB here; keeping only
    # its key, switched child and scalars, at 1.5 MiB.
    d = antiparallel_twist(200)
    assert parallel_twist_runs(d.crossings) == []
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        homfly_of_diagram(d, max_crossings=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 2**20, peak


# Crossings 0 and 1 are nugatory: two arcs join them, held the same way round
# at both, with a trefoil tangle beyond each.  Smoothing crossing 0 kinks
# crossing 1 at a corner that is no bigon face, and crossing 2 at a bigon.
NUGATORY_PAIR = PlanarDiagram(tuple(Crossing(sign, ends) for sign, ends in (
    (1, (2, 1, 3, 4)), (-1, (1, 6, 5, 2)), (1, (8, 7, 4, 3)),
    (1, (7, 103, 102, 106)), (1, (103, 105, 104, 102)), (1, (105, 8, 106, 104)),
    (1, (5, 203, 202, 206)), (1, (203, 205, 204, 202)), (1, (205, 6, 206, 204)),
)))


def _first_move(crossings, near):
    """`_simplify` stopped after its first move."""
    real, scans = oracle_module._reducible_face, []

    def once(work, near):
        scans.append(1)
        return real(work, near) if len(scans) == 1 else None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_module, "_reducible_face", once)
        return _simplify(crossings, near)


@given(st.one_of(key_corpus, st.sampled_from([build_diagram(spec) for spec in grid_specs()])))
@example(HOPF)  # two clasps at one neighbour; two kinks at one neighbour
@example(braid_closure(2, [1] * 3))  # two clasps at two neighbours
@example(antiparallel_twist(4))  # two kinks at two neighbours
@example(NUGATORY_PAIR)
def test_children_are_made_with_the_first_move_of_simplify(d):
    # For every crossing of the reduced diagram, each child is the child
    # switched or smoothed with no move made, after the first move of
    # `_simplify` near the crossing when that move strips a clasp of the
    # switched child or a kink of the smoothed one.  Once simplified, it has
    # the v exponent, loop count and crossing tuple with its arc ids that
    # child has once simplified.
    core = _simplify_reference(d.crossings)[2]
    _, in_end, out_end, _ = _strands(_arc_table(core)[0])
    for i, cr in enumerate(core):
        built = _children(core, i, in_end, out_end)
        for (child, loops, v_exp, near), plain, corners in zip(built, (_switch(core, i), _smooth(core, i)), (2, 1)):
            face = oracle_module._reducible_face(plain, set(cr.ends))
            made = face is not None and len(face) == corners
            assert (v_exp, loops, tuple(child)) == (_first_move(plain, cr.ends) if made else (0, 0, plain)), i
            v, more, reduced = _simplify(child, near)
            assert (v_exp + v, loops + more, reduced) == _simplify(plain, cr.ends), i


def test_nugatory_pair_is_reduced_and_planar():
    NUGATORY_PAIR.validate()
    assert _simplify_reference(NUGATORY_PAIR.crossings)[2] == NUGATORY_PAIR.crossings


@given(key_corpus)
def test_strands_walk_the_arc_table_as_the_in_end_walk_does(d):
    # Kinked crossings included: the walk reads each crossing's entry from
    # the arc table.
    under_first, in_end, out_end, count = _strands(_arc_table(d.crossings)[0])
    assert in_end == in_ends(d.crossings)
    assert (under_first, out_end, count) == walk_strands(d.crossings, in_end)


@st.composite
def relabeled_pairs(draw):
    d = draw(st.one_of(st.sampled_from([build_diagram(spec) for spec in grid_specs(1, 2)]), key_corpus))
    arcs = d.arcs()
    images = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(arcs), max_size=len(arcs), unique=True))
    rename = dict(zip(arcs, images))
    order = draw(st.permutations(range(len(d.crossings))))
    out = tuple(Crossing(d.crossings[i].sign, tuple(rename[e] for e in d.crossings[i].ends)) for i in order)
    return d, PlanarDiagram(out, d.free_loops)


@given(relabeled_pairs())
def test_canonical_key_ignores_relabeling(pair):
    d, relabeled = pair
    relabeled.validate()
    assert canonical_key(d) == canonical_key(relabeled)


# -- independence ------------------------------------------------------------------------------

def test_oracle_imports_no_eigenvalue_machinery():
    source = Path(__file__).resolve().parents[1] / "src" / "hopflinks" / "oracle.py"
    imported = {}
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update({alias.name: None for alias in node.names})
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.setdefault(module, set()).update(alias.name for alias in node.names)
    ring_names = set(vars(ring_module))
    assert imported.pop(".hopf") == {"HopfSpec"}
    assert imported.pop(".ring") <= ring_names
    assert all(not module.startswith(".") for module in imported), imported
    assert not any(m.split(".")[-1] in ("meridian", "basis", "partitions") for m in imported)


# -- the family's size is known before it is built ---------------------------------------------

def test_family_cap_check_matches_the_built_diagram():
    memo: dict = {}

    def refusal(check):
        try:
            check()
        except CrossingLimitError as exc:
            return str(exc)
        return None

    for spec in grid_specs(2, 3):
        for cap in (0, 2, 3, 4, 8, 12):
            built = refusal(lambda: homfly_of_diagram(build_diagram(spec), max_crossings=cap, memo=memo))
            assert refusal(lambda: check_family_cap(spec, cap)) == built, (spec, cap)


# -- the split crossing -----------------------------------------------------------------------

def _under_first_reference(crossings):
    """Crossings met first on their under-strand, walking each strand from its
    least arc id in order of those ids."""
    in_end = in_ends(crossings)
    seen_arcs, seen, out = set(), set(), []
    for start in sorted(in_end):
        arc = start
        while arc not in seen_arcs:
            seen_arcs.add(arc)
            ci, pos = in_end[arc]
            if ci not in seen:
                seen.add(ci)
                if pos == 0:
                    out.append(ci)
            sign, ends = crossings[ci]
            arc = ends[2] if pos == 0 else ends[1 if sign > 0 else 3]
    return out


def _split_reference(crossings):
    """The split rule on the children themselves: the first candidate whose
    switched child has a reducible clasp and whose smoothed child a kink,
    else the first whose switched child has a reducible clasp, else the first."""
    candidates = _under_first_reference(crossings)
    clasps = []
    for ci in candidates:
        switched = list(_switch(crossings, ci))
        if oracle_module._reducible_face(switched, {e for cr in switched for e in cr.ends}) is None:
            continue
        smoothed = _smooth(crossings, ci)
        if any(cr.ends[p] == cr.ends[p - 1] for cr in smoothed for p in range(4)):
            return ci
        clasps.append(ci)
    return (clasps or candidates)[0]


@contextmanager
def root_summands(mp):
    """Record, in the list yielded, how many prime summands each root cut
    into more than one yields as its children (`_summands`)."""
    counts = []
    real = oracle_module._summands

    def cutting(core, in_end, out_end):
        summands = real(core, in_end, out_end)
        if len(summands) > 1:
            counts.append(len(summands))
        return summands

    mp.setattr(oracle_module, "_summands", cutting)
    yield counts


def _splits(d):
    """(reduced diagram, split crossing) at every node of the skein tree
    that splits one crossing, as `_split_crossing` picks it.

    Each node that has children yields two, but a composite root, which
    yields one per prime summand, and each child is one more `_node`, so
    the tree has (nodes - 1 - summands) / 2 nodes that split.  Each of
    them makes one pick, a crossing or a twist region: the picks recorded
    must be exactly as many, so that no split node goes unchecked.
    """
    picks, nodes = [], []
    real_node = oracle_module._node

    def recording(crossings, in_end, out_end, candidates):
        region = _split_crossing(crossings, in_end, out_end, candidates)
        picks.append((crossings, region))
        return region

    with pytest.MonkeyPatch.context() as mp, root_summands(mp) as summands:
        mp.setattr(oracle_module, "_split_crossing", recording)
        mp.setattr(oracle_module, "_node", lambda *args: nodes.append(1) or real_node(*args))
        homfly_of_diagram(PlanarDiagram(d.crossings), max_crossings=max(len(d.crossings), 1))
    assert 2 * len(picks) + 1 + sum(summands) == len(nodes), (len(picks), sum(summands), len(nodes))
    return [(crossings, region[0]) for crossings, region in picks if len(region) == 1]


def _check_splits(d):
    splits = _splits(d)
    for crossings, idx in splits:
        # The property that makes every branch end.
        assert idx in _under_first_reference(crossings)
        assert idx == _split_reference(crossings)
    return len(splits)


def test_split_crossings_on_families_and_twists():
    corpus = [build_diagram(spec) for spec in grid_specs()]
    corpus += [braid_closure(2, [1] * n) for n in range(1, 13)]
    # The tree splits one crossing at 279 nodes over this corpus (299 when
    # the roots of its 20 connected sums were split like any other node).
    assert sum(_check_splits(d) for d in corpus) == 279


@given(key_corpus)
def test_split_crossings_on_random_diagrams(d):
    _check_splits(d)


@pytest.mark.parametrize("spec,bound", [(HopfSpec(4, 0, 4, 0), 1600), (HopfSpec(2, 2, 2, 2), 1900)])
def test_split_rule_keeps_the_memo_small(spec, bound):
    # With the first candidate always, these took 6,288 and 6,924 entries.
    memo: dict = {}
    homfly_of_diagram(build_diagram(spec), max_crossings=32, memo=memo)
    assert len(memo) <= bound, len(memo)


# -- pinned memo contents ---------------------------------------------------------------------

# sha256 over canonical_key, memo keys and values in insertion order, and
# the value JSON, on the family diagrams with k1+k2 <= 2 and n1+n2 <= 3
# and the sigma1^n closures for n = 1..12; captured when the root of a
# connected sum began to evaluate its prime summands as its children,
# which changed which diagrams the trees of the 20 connected sums among
# them visit (the 72 values' JSON stayed byte-identical).  A memo value is
# hashed as the JSON of the scalar it stands for.
MEMO_DIGEST = "a58f0d7278b26b9979deaec573b1317a047ccfb1f65ae5b3a456b09f6e3292ca"


def memo_scalar(entry):
    """The value a memo entry (numerator, c) stands for: the numerator over z^c."""
    num, c = entry
    return SkeinScalar(num, ((1, c),) if c else ())


def memo_corpus():
    return [build_diagram(spec) for spec in grid_specs()] + [braid_closure(2, [1] * n) for n in range(1, 13)]


def memo_digest():
    h = hashlib.sha256()
    for d in memo_corpus():
        memo: dict = {}
        value = homfly_of_diagram(d, memo=memo)
        h.update(repr(canonical_key(d)).encode())
        for key, entry in memo.items():
            h.update(repr(key).encode())
            h.update(json.dumps(memo_scalar(entry).to_json(), sort_keys=True).encode())
        h.update(json.dumps(value.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def test_oracle_memo_keys_pinned():
    assert memo_digest() == MEMO_DIGEST


def test_skein_trees_make_no_product(monkeypatch):
    # Skein steps add numerators, lifted by z^2 where the smoothed child has
    # one component fewer, and frames move rows and add: over the MEMO_DIGEST
    # corpus, sigma1^n for n <= 40 and the antiparallel (2, 100) pin diagram,
    # the tree of a prime diagram makes no LaurentPoly product, and that of a
    # connected sum of m prime summands makes the m - 1 of its root.
    pinned = json.loads((Path(__file__).parent / "pins-antiparallel-100.json").read_text(encoding="utf-8"))
    corpus = memo_corpus() + [braid_closure(2, [1] * n) for n in range(1, 41)] + [PlanarDiagram.from_json(pinned)]
    real = LaurentPoly.__mul__
    calls = []
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append((a, b)) or real(a, b))
    composite = 0
    with root_summands(monkeypatch) as summands:
        for d in corpus:
            calls.clear()
            summands.clear()
            homfly_of_diagram(d, max_crossings=len(d.crossings) + d.free_loops)
            assert len(calls) == sum(m - 1 for m in summands), (d, summands)
            composite += bool(summands)
    # H(k1,k2;n1,n2) with one encircling string and two or three core
    # strings, or two encircling strings and one core string.
    assert composite == 20


# -- every value over exactly z^c -------------------------------------------------------------

def check_over_z_to_the_components(d):
    """The value of `d` and every memo entry its tree stores are over
    exactly z^c, c the components of the diagram evaluated (free loops
    included) or that its key encodes, and that is their canonical form:
    no value of c components is over a lower power of z (Lickorish and
    Millett), so none has a spare z.  A memo entry is the pair
    (numerator, c) of a numerator over z^c."""
    memo: dict = {}
    value = homfly_of_diagram(d, max_crossings=len(d.crossings) + d.free_loops, memo=memo)
    entries = [(value, component_count(d))]
    for key, entry in memo.items():
        c = component_count(key_diagram(key))
        assert entry[1] == c, (entry[1], c)
        entries.append((memo_scalar(entry), c))
    for x, c in entries:
        assert x._den == (((1, c),) if c else ()), (x._den, c)
        # The root value is stored as canonical, so its own `den` would
        # compare it with itself: a generic scalar finds the form again.
        assert x._den == SkeinScalar(x._num, x._den).den, (x._den, x.den)


def test_memo_values_are_over_z_to_the_components():
    for d in memo_corpus():
        check_over_z_to_the_components(d)


@given(key_corpus)
def test_memo_values_are_over_z_to_the_components_on_random_diagrams(d):
    check_over_z_to_the_components(d)


def test_root_values_are_stored_in_their_canonical_form(monkeypatch):
    # The root builds its value over z^c as the canonical form it is, so
    # reading it divides nothing, and its JSON is the one the generic
    # scalar's first read finds by dividing, over the MEMO_DIGEST corpus.
    values = [homfly_of_diagram(d) for d in memo_corpus()]
    calls = []
    divide = LaurentPoly.exact_div_phis
    monkeypatch.setattr(LaurentPoly, "exact_div_phis", lambda p, factors: calls.append(factors) or divide(p, factors))
    texts = [x.to_json() for x in values]
    assert calls == []
    for x, text in zip(values, texts):
        assert SkeinScalar(x._num, x._den).to_json() == text
    assert calls


# -- deep skein trees --------------------------------------------------------------------------

def sigma1_powers(n):
    """The values of the closures of sigma1^k for k = 0..n by the skein
    step at one crossing: P(k) = P(k-2) + z P(k-1)."""
    expected = [delta() ** 2, SkeinScalar(mono(1, v=-1)) * delta()]
    for _ in range(2, n + 1):
        expected.append(expected[-2] + Z_SCALAR * expected[-1])
    return expected


def find_no_twist_region(monkeypatch):
    """Make every node split one crossing, one skein step per node."""
    monkeypatch.setattr(oracle_module, "_twist_region", lambda crossings, in_end, out_end, ci: [ci])


def test_deep_skein_tree_ignores_the_recursion_limit(monkeypatch):
    # With no twist region found, a skein step on sigma1^n smooths to
    # sigma1^(n-1), so the tree is n deep.  No diagram without a parallel
    # twist region was found whose tree is as deep at a comparable cost: the
    # tree of antiparallel_twist(600) is 301 deep but takes about 20 s on a
    # 2-vCPU host, as each smoothed child strips a chain of n kinks.
    n = 300
    find_no_twist_region(monkeypatch)
    real_node, depth = oracle_module._node, [0, 0]

    def tracking(*args):
        depth[0] += 1
        depth[1] = max(depth[1], depth[0])
        try:
            return (yield from real_node(*args))
        finally:
            depth[0] -= 1

    monkeypatch.setattr(oracle_module, "_node", tracking)
    frame, frames = sys._getframe(), 0
    while frame is not None:
        frame, frames = frame.f_back, frames + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 150)
    try:
        value = homfly_of_diagram(braid_closure(2, [1] * n), max_crossings=n)
    finally:
        sys.setrecursionlimit(limit)
    assert depth[1] >= n, depth
    assert value == sigma1_powers(n)[n]


def test_twist_step_follows_the_recurrence():
    # sigma1^n switched at one crossing is sigma1^(n-2) and smoothed there is
    # sigma1^(n-1): P(n) = P(n-2) + z P(n-1).  The root resolves all but one
    # crossing of the cycle in one twist step, so the memo holds the root and
    # its two children at most.
    n = 300
    memo: dict = {}
    assert homfly_of_diagram(braid_closure(2, [1] * n), max_crossings=n, memo=memo) == sigma1_powers(n)[n]
    assert len(memo) <= 3, len(memo)


# -- parallel twist regions -------------------------------------------------------------------

@st.composite
def braids_with_runs(draw):
    """Closures of braid words of runs sigma_i^(+-r), r <= 6, on 2 to 4 strands."""
    strands = draw(st.integers(2, 4))
    runs = draw(
        st.lists(st.tuples(st.integers(1, strands - 1), st.sampled_from([1, -1]), st.integers(1, 6)), min_size=1, max_size=4)
    )
    return braid_closure(strands, [i * sign for i, sign, r in runs for _ in range(r)])


def evaluate(d):
    return homfly_of_diagram(d, max_crossings=max(len(d.crossings), d.free_loops))


@given(st.one_of(braids_with_runs(), key_corpus))
# A run whose strand closes straight back onto it: smoothing it away closes a loop.
@example(braid_closure(3, [1, 1, 1, 1, 2, 2]))
@example(braid_closure(4, [1, 1, 1, -3, -3, -3, 2, -2, -2, -2]))
def test_twist_regions_give_the_one_crossing_tree_value(d):
    value = evaluate(d)
    with pytest.MonkeyPatch.context() as mp:
        find_no_twist_region(mp)
        reference = evaluate(d)
    assert value == reference
    assert json.dumps(value.to_json()) == json.dumps(reference.to_json())


def _check_twist_regions(crossings, in_end, out_end, candidates):
    """Every crossing's region against the run of bigon faces that holds it,
    and the node's choice: a region of three or more crossings whenever
    there is one, and a candidate is in it."""
    runs = parallel_twist_runs(crossings)
    for ci in range(len(crossings)):
        region = _twist_region(crossings, in_end, out_end, ci)
        run, cycle = next(((run, cycle) for run, cycle in runs if ci in run), ({ci}, False))
        assert region[0] == ci and len(set(region)) == len(region)
        if cycle:
            assert set(region) < run and len(region) == len(run) - 1, (ci, region, run)
        else:
            assert set(region) == run, (ci, region, run)
    chosen = _split_crossing(crossings, in_end, out_end, candidates)
    if any(len(run) - cycle >= 3 for run, cycle in runs):
        assert len(chosen) >= 3 and chosen[0] in candidates
        assert chosen == _twist_region(crossings, in_end, out_end, chosen[0])
    else:
        assert len(chosen) == 1


@given(st.one_of(braids_with_runs(), key_corpus))
@example(braid_closure(2, [1] * 8))  # a cycle
@example(braid_closure(3, [1, 1, 1, 1, 2, 2]))
def test_twist_regions_are_the_maximal_parallel_runs(d):
    # At the root of the reduced diagram, and at every split of its tree.
    core = _simplify(d.crossings, {e for cr in d.crossings for e in cr.ends})[2]
    candidates, in_end, out_end, _ = _strands(_arc_table(core)[0])
    # A parallel run of three or more holds a crossing met first on its under-strand.
    assert candidates or all(len(run) - cycle < 3 for run, cycle in parallel_twist_runs(core))
    if candidates:
        _check_twist_regions(core, in_end, out_end, candidates)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle_module, "_split_crossing", lambda *args: calls.append(args) or _split_crossing(*args))
        evaluate(d)
    for args in calls:
        _check_twist_regions(*args)


# -- connected sums ---------------------------------------------------------------------------

summable = st.one_of(kinked(unions()), kinked(braids)).filter(lambda d: d.crossings)


@given(summable, summable, st.data())
def test_connected_sum_is_the_product_over_delta(d1, d2, data):
    # P(D1 # D2) delta = P(D1) P(D2), the reference in generic SkeinScalar
    # products, which never divide by v^{-1} - v.
    d = connected_sum(d1, d2, data.draw(st.sampled_from(d1.arcs())), data.draw(st.sampled_from(d2.arcs())))
    d.validate()
    assert evaluate(d) * delta() == evaluate(d1) * evaluate(d2)


H2121 = build_diagram(HopfSpec(2, 1, 2, 1))


def spliced_triple():
    """Three copies of H(2,1;2,1) spliced in a chain: tests/pins-composite.json."""
    h = H2121
    return connected_sum(connected_sum(h, h, 0, 0), h, 41, 0)


def test_spliced_triple_is_the_product_of_its_three_summands(monkeypatch):
    d = spliced_triple()
    pinned = json.loads((Path(__file__).parent / "pins-composite.json").read_text(encoding="utf-8"))
    assert PlanarDiagram.from_json(pinned) == d
    memo: dict = {}
    with root_summands(monkeypatch) as summands:
        value = homfly_of_diagram(d, max_crossings=54, memo=memo)
    assert summands == [3]
    assert value * delta() ** 2 == evaluate(H2121) ** 3
    # The tree that splits the whole diagram one crossing at a time stores
    # 14,268 entries.
    assert len(memo) <= 100, len(memo)


def root_cut(d):
    """The crossings of each summand `_summands` cuts the reduced core of d into."""
    core = _simplify(d.crossings, {e for cr in d.crossings for e in cr.ends})[2]
    _, in_end, out_end, _ = _strands(_arc_table(core)[0])
    return [tuple(part) for part, *_ in _summands(core, in_end, out_end)]


def test_prime_diagrams_are_not_cut():
    primes = [HOPF, build_diagram(HopfSpec(2, 2, 2, 2)), build_diagram(HopfSpec(4, 0, 5, 0))]
    primes += [braid_closure(2, [1] * n) for n in range(3, 13)]
    for d in primes:
        assert len(root_cut(d)) == 1, d


@pytest.mark.parametrize("spec", [HopfSpec(k, 0, 1, 0) for k in range(2, 8)] + [HopfSpec(0, 1, 3, 4)])
def test_a_chain_of_hopf_links_is_cut_into_hopf_links(spec):
    k = spec.k1 + spec.k2 + spec.n1 + spec.n2 - 1
    parts = root_cut(build_diagram(spec))
    assert len(parts) == k
    assert {len(part) for part in parts} == {2}
    if spec.k2 == spec.n2 == 0:
        assert all(canonical_key(PlanarDiagram(part)) == canonical_key(HOPF) for part in parts)


def summands_reference(crossings):
    """The prime summands of a connected diagram one cut at a time, on the
    traced faces: a cut is two distinct arcs e1 and e2 that border the
    same two distinct faces; one side is the crossings reached from e1's
    tail along every arc but e1 and e2, both sides give e2 the id e1, and
    each side is cut again until no cut is left."""
    parts, out = [tuple(crossings)], []
    while parts:
        part = parts.pop()
        faces: dict = {}
        for f, orbit in enumerate(face_orbits(part)):
            for ci, pos in orbit:
                faces.setdefault(part[ci].ends[pos], set()).add(f)
        first, cut = {}, None
        for arc in sorted(faces):
            pair = frozenset(faces[arc])
            if len(pair) == 2:
                if pair in first:
                    cut = first[pair], arc
                    break
                first[pair] = arc
        if cut is None:
            out.append(part)
            continue
        e1, e2 = cut
        tail = next(ci for ci, cr in enumerate(part) for pos, e in enumerate(cr.ends) if e == e1 and not enters(cr, pos))
        side, todo = {tail}, [tail]
        while todo:
            for e in set(part[todo.pop()].ends) - {e1, e2}:
                for cj, cr in enumerate(part):
                    if e in cr.ends and cj not in side:
                        side.add(cj)
                        todo.append(cj)
        renamed = [Crossing(cr.sign, tuple(e1 if e == e2 else e for e in cr.ends)) for cr in part]
        parts.append(tuple(cr for ci, cr in enumerate(renamed) if ci in side))
        parts.append(tuple(cr for ci, cr in enumerate(renamed) if ci not in side))
    return out


connected_pieces = st.one_of(braids, rotation_systems().filter(accepts), specs.map(build_diagram)).filter(
    lambda d: d.crossings and len(canonical_key(d)[0]) == 1
)


@st.composite
def connected_sums(draw):
    """Two to four connected diagrams, each spliced to the sum so far at a
    random arc: a chain, a star, or several sums across one pair of faces."""
    parts = draw(st.lists(connected_pieces, min_size=2, max_size=4))
    d = parts[0]
    for part in parts[1:]:
        d = connected_sum(d, part, draw(st.sampled_from(d.arcs())), draw(st.sampled_from(part.arcs())))
    return PlanarDiagram(d.crossings)


def _four_hopf_links_at_one_crossing():
    """The figure-eight knot with a Hopf link spliced into each arc of one
    crossing: the four arcs cut the knot's diagram in two, but that cut
    crosses four faces, so the knot stays one prime summand."""
    d = braid_closure(3, [1, -2, 1, -2])
    for arc in d.crossings[0].ends:
        d = connected_sum(d, HOPF, arc, 0)
    return d


@given(connected_sums())
@example(_four_hopf_links_at_one_crossing())
@example(spliced_triple())
def test_summands_match_one_cut_at_a_time(d):
    core = _simplify(d.crossings, {e for cr in d.crossings for e in cr.ends})[2]
    if not core or len(canonical_key(PlanarDiagram(core))[0]) > 1:
        return
    found = root_cut(PlanarDiagram(core))
    expected = summands_reference(core)
    assert sorted(canonical_key(PlanarDiagram(part)) for part in found) == sorted(
        canonical_key(PlanarDiagram(part)) for part in expected
    )
    for part in found:
        PlanarDiagram(part).validate()


def test_four_hopf_links_at_one_crossing_are_five_summands():
    parts = root_cut(_four_hopf_links_at_one_crossing())
    assert sorted(len(part) for part in parts) == [2, 2, 2, 2, 4]


@pytest.mark.parametrize("loops", range(4))
@pytest.mark.parametrize("sign", [1, -1])
def test_composite_root_frames_kinks_and_loops_by_row_moves(monkeypatch, loops, sign):
    # The root strips the kink, cuts its core into three Hopf links, and
    # frames their product by v^-sign and the loops with row moves: the two
    # products of the summands are the only ones.
    bare = build_diagram(HopfSpec(3, 0, 1, 0))
    d = PlanarDiagram(add_curl(bare, 0, sign).crossings, loops)
    expected = evaluate(bare) * SkeinScalar(mono(1, v=-sign)) * delta() ** loops
    real = LaurentPoly.__mul__
    calls = []
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda a, b: calls.append((a, b)) or real(a, b))
    with root_summands(monkeypatch) as summands:
        value = homfly_of_diagram(d, max_crossings=len(d.crossings))
    assert summands == [3]
    assert len(calls) == 2
    monkeypatch.undo()
    assert value == expected
    assert json.dumps(value.to_json()) == json.dumps(expected.to_json())
