"""Brute-force framed Homfly evaluation of oriented planar link
diagrams by memoized skein-tree recursion, plus a generator of the
standard generalized-Hopf diagrams.  This path never touches the
eigenvalue machinery, so it can arbitrate every closed-form result.

Diagram encoding
----------------
A crossing stores its sign and the four incident arc ids listed
counterclockwise starting from the incoming under-strand:

    position 0: incoming under-strand
    position 2: outgoing under-strand
    positions 1/3: over-strand; for sign +1 the over-strand enters at 3
    and leaves at 1, for sign -1 it enters at 1 and leaves at 3.

Each arc id appears exactly twice, once entering a crossing and once
leaving one.  Closed curves that meet no crossing are tracked by the
`free_loops` count.  The cyclic end order is a rotation system, so
faces (and hence planarity) are derived, not assumed.

Evaluation uses only the two defining relations: switching a crossing
costs (s - s^{-1}) times the oriented smoothing, and a kink contributes
v^{-sign}.  Curls, reducible clasps, and crossing-free loops are
stripped eagerly; what remains recurses on a crossing met first on its
under-strand along a fixed traversal, preferring one whose switch
leaves a reducible clasp and whose smoothing leaves a kink, and
traversal-descending diagrams are unlinks weighted by v^{-writhe}.  A
node that splits one crossing builds both children with the move its
split rule found already made (`_children`), and `_simplify` makes
every later move.  A
parallel twist region of t >= 3 crossings (a run of one sign whose
neighbours share bigons with arcs that run the same way) is resolved in
one node by the closed form of its t skein steps: two children, the
region smoothed down to one crossing and smoothed away, folded by t - 1
skein steps (`_node`).

The root evaluates a connected sum as the product of its prime summands:
P(D1 # D2) = P(D1) P(D2) / delta (Freyd, Yetter, Hoste, Lickorish,
Millett and Ocneanu, Bull. AMS 12, 1985; Lickorish and Millett, Topology
26, 1987).  The lemma follows from the same two relations.  Run D1's
skein tree inside D1 # D2: each step and each kink is local to D1, so
P(D1 # D2) sums the leaves of D1's tree with D2 attached, each weighted
as in P(D1).  A leaf is a descending unlink of c components, one of
which carries D2; D2 slides along that component into a small ball, off
every crossing of the leaf, so the leaf is v^{-writhe} delta^(c-1) P(D2)
where alone it is v^{-writhe} delta^c.  The root's reduced core is cut
at every pair of arcs that border the same two faces (`_summands`), and
each prime summand is a child.  Inner nodes do not look for cuts: a face
pass at every node costs more than the few composite ones save.

Every value the tree builds is a numerator over z^c, where z = s - s^{-1}
and c counts the components of its diagram, free loops included: the
unlink delta^c is, a kink's v^{-sign} keeps it, and so does a skein step,
which adds numerators (`_skein_step`).  So the tree carries, and its memo
stores, each value as the pair (numerator, c), and only the root builds
a SkeinScalar.  Lickorish and Millett ("A polynomial invariant of
oriented links", Topology 26, 1987) show that the polynomial of a
c-component link with the unknot at 1 has a nonzero term in z^{1-c} and
none lower; the value here is delta times it, so its lowest power is
z^{-c}.  No numerator holds a spare z, and every value is canonical as
built.  A skein step is one pass of the ring's addition loop over the
packed rows, and a node frames its value by kinks and loops with row
moves and passes of the same loop (`_node`): the tree makes no product
of polynomials but the m - 1 of the root of a connected sum of m prime
summands, which multiplies their values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Generator, Iterable, NamedTuple, Sequence

from .hopf import HopfSpec
from .ring import LaurentPoly, SkeinScalar, json_int, json_item, json_list

__all__ = [
    "MalformedDiagramError",
    "CrossingLimitError",
    "Crossing",
    "PlanarDiagram",
    "build_diagram",
    "check_family_cap",
    "homfly_of_diagram",
    "DEFAULT_MAX_CROSSINGS",
]

DEFAULT_MAX_CROSSINGS = 16


class MalformedDiagramError(ValueError):
    """The diagram data is not a valid oriented planar link diagram."""


class CrossingLimitError(RuntimeError):
    """The diagram exceeds the configured crossing cap."""


class Crossing(NamedTuple):
    sign: int
    ends: tuple[int, int, int, int]


def _over_in(sign: int) -> int:
    return 3 if sign > 0 else 1


_TURN = (1, 1, 1, -3)  # corner 4 c + p -> 4 c + (p + 1) % 4


@dataclass(frozen=True)
class PlanarDiagram:
    """An oriented link diagram: crossings plus crossing-free loops."""

    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    def validate(self) -> None:
        """Raise MalformedDiagramError unless this is a planar diagram.

        Checks arc matching (each arc has exactly one entering and one
        leaving end) and the genus-zero Euler count of the rotation
        system, on the faces `_trace_faces` traces on the end maps the
        matching builds.
        """
        if self.free_loops < 0:
            raise MalformedDiagramError("free_loops must be nonnegative")
        ins: InEnd = {}
        outs: OutEnd = {}
        for ci, cr in enumerate(self.crossings):
            if cr.sign not in (1, -1):
                raise MalformedDiagramError(f"crossing {ci} has sign {cr.sign!r}")
            if len(cr.ends) != 4:
                raise MalformedDiagramError(f"crossing {ci} does not have 4 ends")
            for pos, arc in enumerate(cr.ends):
                bucket = ins if pos in (0, _over_in(cr.sign)) else outs
                if arc in bucket:
                    raise MalformedDiagramError(
                        f"arc {arc} {'enters' if bucket is ins else 'leaves'} two crossings"
                    )
                bucket[arc] = ci, pos
        if set(ins) != set(outs):
            raise MalformedDiagramError("every arc needs one entering and one leaving end")
        # Each link joins two pieces of arcs, so pieces = arcs - links.
        links: dict[int, int] = {}
        for cr in self.crossings:
            root = _root(links, cr.ends[0])
            for e in cr.ends[1:]:
                if (other := _root(links, e)) != root:
                    links[other] = root
        # E = 2V in a 4-valent piece, so F <= V + 2 with equality iff its genus
        # is zero: the totals agree iff every piece is planar.
        if _trace_faces(ins, outs)[1] != len(self.crossings) + 2 * (len(ins) - len(links)):
            raise MalformedDiagramError("rotation system is not planar")

    def arcs(self) -> list[int]:
        seen = set()
        for cr in self.crossings:
            seen.update(cr.ends)
        return sorted(seen)

    def to_json(self) -> dict:
        return {
            "crossings": [
                {"id": i, "sign": cr.sign, "ends": list(cr.ends)}
                for i, cr in enumerate(self.crossings)
            ],
            "arcs": len(self.arcs()),
            "loops": self.free_loops,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PlanarDiagram":
        try:
            crossings = []
            for c in json_list(json_item(obj, "crossings")):
                ends = json_list(json_item(c, "ends"))
                ends = tuple(json_int(ends, i) for i in range(len(ends)))
                crossings.append(Crossing(json_int(c, "sign"), ends))
            loops = json_int(obj, "loops") if "loops" in obj else 0
        except ValueError as exc:
            raise MalformedDiagramError(f"bad diagram JSON: {exc}") from exc
        diagram = cls(tuple(crossings), loops)
        diagram.validate()
        return diagram


# ---------------------------------------------------------------------------
# structural helpers


InEnd = dict[int, tuple[int, int]]  # arc -> (crossing, position) it enters
OutEnd = dict[int, tuple[int, int]]  # arc -> (crossing, position) it leaves
Corner = tuple[int, int]  # (crossing, position)


def _trace_faces(in_end: InEnd, out_end: OutEnd) -> tuple[list[int], int]:
    """Each corner's face, numbered from 1, and the number of faces of the
    rotation system whose arcs enter and leave at the ends of the two maps.

    Corner (c, p) is 4 c + p.  Its face runs along arc p to the arc's other
    end (x, q) and turns to x's end q + 1, so the faces are the orbits of
    that turn: each arc gives two of its steps, one from each end.
    """
    turn = [0] * (2 * len(in_end))  # corner -> the next corner of its face
    for arc, (ci, p) in in_end.items():
        x, q = out_end[arc]
        a = 4 * ci + p
        b = 4 * x + q
        turn[a] = b + _TURN[q]
        turn[b] = a + _TURN[p]
    face = [0] * len(turn)
    count = 0
    for corner in range(len(turn)):
        if not face[corner]:
            count += 1
            while not face[corner]:
                face[corner] = count
                corner = turn[corner]
    return face, count


def _strands(table: ArcTable) -> tuple[list[int], InEnd, OutEnd, int]:
    """Walk every strand from its smallest arc id, in order of those ids,
    on the entries of the crossings' `_arc_table`.

    Returns the crossings met first on their under-strand, in the order
    the walk meets them (none for a descending diagram, hence an
    unlink), the in-end and out-end maps (each arc to the crossing and
    position it enters and leaves) and the number of strands.  A strand
    leaves a crossing opposite the end it entered by, the third of the
    entry's ends read from the entry position.

    Any of them is a split that ends.  Smoothing removes a crossing.
    Switching keeps every arc and every strand's arc sequence, so the
    same walk then meets the split crossing first on its over-strand:
    the list loses it and keeps the others, unless `_simplify` removes
    crossings.  Each child has fewer crossings, or as many and a
    shorter list.
    """
    in_end: InEnd = {}
    out_end: OutEnd = {}
    seen_crossings: set[int] = set()
    under_first: list[int] = []
    count = 0
    for start in sorted(table):
        if start in out_end:
            continue
        count += 1
        arc = start
        # The walk stops where it would leave along an arc left before: one
        # step past `start`, or anywhere in a diagram that is malformed.
        while True:
            ci, sign, entered, ends = table[arc]
            pos = 0 if arc == ends[0] else 3 if sign > 0 else 1
            in_end[arc] = ci, pos
            if ci not in seen_crossings:
                seen_crossings.add(ci)
                if pos == 0:
                    under_first.append(ci)
            arc = entered[2]
            if arc in out_end:
                break
            out_end[arc] = ci, (pos + 2) % 4
    return under_first, in_end, out_end, count


def _corners(
    crossings: tuple[Crossing, ...], in_end: InEnd, out_end: OutEnd, ci: int, full: bool = True
) -> tuple[tuple[Corner, Corner] | None, Corner | None, bool]:
    """What switching and smoothing crossing ci of a reduced diagram leave
    at its corners: the switched child's reducible clasp of least corner
    pair, or None; the smoothed child's least kink (crossing, position), or
    None; and whether a clasp is at a corner where a twist is parallel.
    Unless `full`, only those two corners are read.

    A reduced diagram has no kink and no reducible clasp, so a child's new
    one is next to ci.  The face at corner (ci, p) runs along arc p to its
    other end (x, q) and turns to x's end q + 1; it is a bigon when that
    end is ci's arc p - 1.  Switching flips ci's sign and moves its end at
    p to p + sign, so the bigon is then a reducible clasp when x has ci's
    sign and the shared strand alternates at it now: the bigon is a twist,
    whose corners in the switched child are (ci, p + sign) and (x, q + 1),
    ordered as `_reducible_face` orders them.  Smoothing splices ci's arcs
    p - 1 and p at its odd corners for sign +1 and at its even corners for
    sign -1 (`_splices`), which kinks x where it holds both next to each
    other: at the bigon, or at q when ci and x are nugatory and x holds
    them the other way round.  At the other two corners both arcs enter ci
    or both leave it, so a twist there is parallel.  Each corner reads
    four ends: no child is built.
    """
    sign, ends = crossings[ci]
    # Where each arc of ci has its other end, by ci's sign: arcs that enter
    # ci leave x, the others enter it.
    maps = (out_end, in_end, in_end, out_end) if sign > 0 else (out_end, out_end, in_end, in_end)
    clasp = kink = None
    parallel = False
    spliced = sign > 0  # the parity of the corners the smoothing splices
    for p in range(4) if full else (0, 2) if spliced else (1, 3):
        x, q = maps[p][ends[p]]
        x_sign, x_ends = crossings[x]
        q2 = (q + 1) % 4
        if x_ends[q2] == ends[p - 1]:
            if x_sign == sign and p % 2 != (q2 - 1) % 2:
                pair = ((ci, (p + sign) % 4), (x, q2)) if ci < x else ((x, q2), (ci, (p + sign) % 4))
                if clasp is None or pair < clasp:
                    clasp = pair
                if p % 2 != spliced:
                    parallel = True
            pos = q2
        elif x_ends[q - 1] == ends[p - 1]:
            pos = q
        else:
            continue
        if p % 2 == spliced and (kink is None or (x, pos) < kink):
            kink = x, pos
    return clasp, kink, parallel


def _split_crossing(
    crossings: tuple[Crossing, ...], in_end: InEnd, out_end: OutEnd, candidates: list[int]
) -> list[int]:
    """The crossings a node resolves, from the `_strands` list `candidates`:
    the parallel twist region (`_twist_region`) of the first candidate in
    one of three or more crossings, else the one crossing to split.

    The crossing to split is the first candidate whose switch leaves a
    reducible clasp and whose smoothing leaves a kink, else the first whose
    switch leaves a reducible clasp, else the first, as each candidate's
    corners read (`_corners`).  `_children` reads the chosen crossing's
    corners again and builds each child with that clasp or that kink
    already stripped; `_simplify` makes the moves after it.

    A kink at a nugatory corner counts, but it never changes the pick: a
    candidate with a clasp and a nugatory kink also has a kink at a bigon.
    Its nugatory neighbour x holds two of its arcs, on a loop that x's
    other two ends lie inside and the candidate's outside.  A clasp at a
    corner where a twist is parallel would be a bigon with x, since that
    corner shares an arc with each spliced one, and x would hold a third
    arc from outside the loop, which no planar diagram allows.  So the
    clasp is at a spliced corner, and its bigon kinks its neighbour.

    Every parallel twist region of three or more crossings holds a
    candidate.  The walk meets the region first along one strand, or, when
    a strand's walk starts inside it, the part past the start along that
    strand and the rest along the other.  Each strand alternates over and
    under through the region, so one of those parts has two neighbouring
    crossings, and one of them is met first on its under-strand.
    """
    first_both = first_clasp = None
    for ci in candidates:
        # Once a crossing with both collapses is found, only a region can
        # replace it: read just the two corners where a twist is parallel.
        clasp, kink, parallel = _corners(crossings, in_end, out_end, ci, first_both is None)
        if parallel and len(region := _twist_region(crossings, in_end, out_end, ci)) >= 3:
            return region
        if clasp is not None:
            if kink is not None and first_both is None:
                first_both = ci
            if first_clasp is None:
                first_clasp = ci
    if first_both is not None:
        return [first_both]
    return [candidates[0] if first_clasp is None else first_clasp]


def _twist_region(crossings: tuple[Crossing, ...], in_end: InEnd, out_end: OutEnd, ci: int) -> list[int]:
    """The maximal parallel twist region through crossing ci of a reduced
    diagram, with ci first, or a cycle of them less one crossing.

    A parallel twist region is a run of crossings of one sign in which
    each neighbouring pair shares a twist bigon whose two arcs run the same
    way (`_split_crossing`).  The next crossing is across the corner whose
    arcs both leave, the one before across the opposite corner, whose arcs
    both enter.  The walk goes forward and then back from ci, and a walk
    that comes back to ci, as around the closure of sigma1^n, leaves the
    last crossing it met outside.
    """
    sign = crossings[ci].sign
    region = [ci]
    for p, other_end in ((2, in_end), (0, out_end)) if sign > 0 else ((3, in_end), (1, out_end)):
        x = ci
        while True:
            ends = crossings[x].ends
            y, q = other_end[ends[p]]
            y_sign, y_ends = crossings[y]
            q2 = (q + 1) % 4
            if y_sign != sign or y_ends[q2] != ends[p - 1] or p % 2 == (q2 - 1) % 2:
                break
            if y == ci:
                return region[:-1]
            region.append(y)
            x = y
    return region


def _summands(core: tuple[Crossing, ...], in_end: InEnd, out_end: OutEnd) -> list[Child]:
    """The prime connected summands of a connected reduced diagram, as
    children of its node: the core alone when it is prime.

    A cut is two distinct arcs that border the same two distinct faces F
    and G.  A closed curve through F and G that crosses both meets the
    diagram nowhere else, so it cuts the diagram in two, and each side
    closed up is a connected summand.  When k >= 2 arcs border F and G,
    the two faces glued along them leave k regions, each with two of the
    arcs on its boundary and one strand through it, which runs in by one
    and out by the other.  So the k arcs lie on one strand, and the region
    an arc runs into is closed by giving that arc's head the id of the
    next of them along the strand.  Every other face lies in one region,
    so an arc that borders no cut has its two ends in one summand, and so
    has each such splice: the prime summands are the classes of crossings
    those two join.

    The faces are traced once, on the end maps (`_trace_faces`): the face
    of corner (c, p) runs along arc p, so an arc's two faces are those of
    its two ends' corners.  A summand's new kinks and clasps lie on the
    faces a splice closed, which a cut arc bounds: the cut arcs are its
    `near`.
    """
    face, count = _trace_faces(in_end, out_end)
    pairs = []  # each arc's two faces f < g as the one int f (count + 1) + g
    for arc, (ci, p) in in_end.items():
        x, q = out_end[arc]
        f, g = sorted((face[4 * ci + p], face[4 * x + q]))
        pairs.append(f * (count + 1) + g)
    if len(set(pairs)) == len(pairs):
        return [(core, 0, 0, ())]
    counts = Counter(pairs)
    cuts = {arc: pair for arc, pair in zip(in_end, pairs) if counts[pair] > 1}
    # Each cut's arcs in the order their strand meets them: the region each
    # runs into is closed by the next, and the last one's by the first.
    spliced: dict[tuple[int, int], int] = {}  # an arc's in-end -> the id it takes
    first: dict[int, int] = {}  # cut -> its first arc met
    last: dict[int, int] = {}  # cut -> its last arc met
    for start in cuts:
        if cuts[start] in first:
            continue
        arc = start
        while True:
            pair = cuts.get(arc)
            if pair is not None:
                if pair in last:
                    spliced[in_end[last[pair]]] = arc
                else:
                    first[pair] = arc
                last[pair] = arc
            ci, pos = in_end[arc]
            arc = core[ci].ends[(pos + 2) % 4]
            if arc == start:
                break
    for pair, arc in first.items():
        spliced[in_end[last[pair]]] = arc
    # The summands' arcs, each as the crossing it enters and its id: those
    # that border no cut, and the splices.
    arcs = [(ci, arc) for arc, (ci, _) in in_end.items() if arc not in cuts]
    arcs += [(ci, arc) for (ci, _), arc in spliced.items()]
    links: dict[int, int] = {}
    for ci, arc in arcs:
        if (x := _root(links, ci)) != (y := _root(links, out_end[arc][0])):
            links[y] = x
    parts: dict[int, list[Crossing]] = {}
    for ci, cr in enumerate(core):
        if (ci, 0) in spliced or (ci, _over_in(cr.sign)) in spliced:
            cr = Crossing(cr.sign, tuple(spliced.get((ci, p), e) for p, e in enumerate(cr.ends)))
        parts.setdefault(_root(links, ci), []).append(cr)
    return [(part, 0, 0, cuts.keys()) for part in parts.values()]


# ---------------------------------------------------------------------------
# local moves


def _root(links: dict[int, int], a: int) -> int:
    """The root of `a` in a union-find forest of child -> parent `links`
    (a root has none); the path walked is pointed at the root."""
    root = a
    while root in links:
        root = links[root]
    while a != root:
        links[a], a = root, links[a]
    return root


def _apply_renames(
    crossings: Sequence[Crossing], skip: set[int], pairs: list[tuple[int, int]]
) -> tuple[list[Crossing], int]:
    """Drop the crossings in `skip`, splice the arc pairs, count loops.

    Only the crossings that hold a renamed arc are rebuilt; the others
    are kept as they are.
    """
    rename: dict[int, int] = {}
    loops = 0
    for x, y in pairs:
        rx, ry = _root(rename, x), _root(rename, y)
        if rx == ry:
            loops += 1
        else:
            rename[ry] = rx
    renamed = rename.keys()
    out = [
        cr if renamed.isdisjoint(cr.ends) else Crossing(cr.sign, tuple(_root(rename, e) for e in cr.ends))
        for i, cr in enumerate(crossings)
        if i not in skip
    ]
    return out, loops


def _splices(sign: int, ends: tuple[int, ...]) -> list[tuple[int, int]]:
    """The arc pairs the oriented smoothing of a crossing splices."""
    a, b, c, d = ends
    return [(a, b), (d, c)] if sign > 0 else [(a, d), (b, c)]


def _kink_pair(ends: tuple[int, ...], pos: int) -> tuple[int, int]:
    """The arcs that stripping the kink at a crossing's position pos splices."""
    return ends[(pos + 1) % 4], ends[(pos + 2) % 4]


def _clasp_pairs(ends1: tuple[int, ...], p1: int, ends2: tuple[int, ...], p2: int) -> list[tuple[int, int]]:
    """The arc pairs that stripping a reducible clasp splices, from the
    ends of its two crossings and the positions of its two corners."""
    return [(ends1[(p1 + 2) % 4], ends2[(p2 + 1) % 4]), (ends1[(p1 + 1) % 4], ends2[(p2 + 2) % 4])]


def _smooth_all(crossings: tuple[Crossing, ...], indices: list[int]) -> tuple[list[Crossing], int]:
    """Oriented smoothing of several crossings: the diagram and the number
    of loops the splices close."""
    pairs = [pair for idx in indices for pair in _splices(*crossings[idx])]
    return _apply_renames(crossings, set(indices), pairs)


Child = tuple[Sequence[Crossing], int, int, Iterable[int]]  # (crossings, loops, v_exp, near)


def _children(crossings: tuple[Crossing, ...], ci: int, in_end: InEnd, out_end: OutEnd) -> list[Child]:
    """The switched and the smoothed child of crossing ci of a reduced
    diagram, each built with the first move `_simplify` would make on it.

    Each child is (crossings, loops, v exponent, near), `near` as
    `_simplify` would hold it after that move: ci's arcs and those of the
    crossing x the move removes.  A reduced diagram has no kink and no
    reducible clasp, so a child's new ones are next to ci, where ci's
    corners read them (`_corners`).  The switched child's first move strips
    the reducible clasp whose least corner is least, as `_reducible_face`
    orders them.  A kink comes before any clasp, so the smoothed child's
    first move strips the kink at the least such x, at its least position,
    for v^{-sign of x}.  Either child is then one `_apply_renames` of the
    diagram, which drops ci and x; a child with no such move is the
    switched or the smoothed diagram itself.
    """
    sign, ends = crossings[ci]
    a, b, c, d = ends
    switched = (d, a, b, c) if sign > 0 else (b, c, d, a)
    clasp, kink, _ = _corners(crossings, in_end, out_end, ci)
    if clasp is None:
        switched_child = crossings[:ci] + (Crossing(-sign, switched),) + crossings[ci + 1 :], 0, 0, ends
    else:
        (c1, p1), (c2, p2) = clasp
        x = c2 if c1 == ci else c1
        ends1, ends2 = (switched if k == ci else crossings[k].ends for k in (c1, c2))
        out, loops = _apply_renames(crossings, {ci, x}, _clasp_pairs(ends1, p1, ends2, p2))
        switched_child = out, loops, 0, ends + crossings[x].ends
    if kink is None:
        out, loops = _apply_renames(crossings, {ci}, _splices(sign, ends))
        smoothed_child = out, loops, 0, ends
    else:
        # x's kink pair is read on its ids before the splices, which
        # `_apply_renames` takes to the same roots as the spliced ids
        # `_simplify` would read.
        x, pos = kink
        x_sign, x_ends = crossings[x]
        out, loops = _apply_renames(crossings, {ci, x}, _splices(sign, ends) + [_kink_pair(x_ends, pos)])
        smoothed_child = out, loops, -x_sign, ends + x_ends
    return [switched_child, smoothed_child]


def _reducible_face(work: Sequence[Crossing], near: set[int]) -> tuple[Corner, ...] | None:
    """The corner of a kink, else the two corners of a reducible clasp, or
    None; only crossings that meet an arc in `near` are examined.

    The pick is the first such face in order of its least corner, as
    tracing every face from the least unvisited corner would meet it:
    the least kink corner (a crossing with two cyclically adjacent equal
    ends), else the bigon of the least corner whose crossings have
    opposite signs and whose one strand stays on top at both.  One pass
    in crossing order finds the examined crossings and tests each for a
    kink, so the first kink it meets is the least.  The same pass meets
    each arc's second end after its first: the face from the first end's
    corner (c1, p1) runs along the arc to (c2, q) and turns to c2's end
    q + 1, and it is a bigon when that end is c1's end p1 - 1.
    """
    first: dict[int, Corner] = {}  # arc -> the corner of its first examined end
    clasp = None
    for c2, (sign, ends) in enumerate(work):
        if near.isdisjoint(ends):
            continue
        a, b, c, d = ends
        if a == d or a == b or b == c or c == d:
            return ((c2, next(pos for pos in range(4) if ends[pos] == ends[pos - 1])),)
        for q, arc in enumerate(ends):
            corner = first.get(arc)
            if corner is None:
                first[arc] = (c2, q)
                continue
            c1, p1 = corner
            sign1, ends1 = work[c1]
            p2 = (q + 1) % 4
            # A bigon of opposite signs whose shared strand is over (or
            # under) at both ends.
            if ends[p2] == ends1[p1 - 1] and sign != sign1 and p1 % 2 == (p2 - 1) % 2:
                if clasp is None or corner < clasp[0]:
                    clasp = corner, (c2, p2)
    return clasp


def _simplify(crossings: Sequence[Crossing], near: Iterable[int]) -> tuple[int, int, tuple[Crossing, ...]]:
    """Strip kinks, reducible clasps and the loops they close.

    Returns (exponent of v, number of removed loops, reduced diagram).
    A kink of sign e contributes v^{-e}; a clasp of two opposite-sign
    crossings in which one strand stays on top is removed for free.

    Every kink and every reducible clasp of `crossings` must have a
    boundary arc in `near`.  A move changes only the faces around the
    crossings it removes, and each of those faces keeps a spliced arc,
    whose id is one of their ends, so `near` stays sufficient once it
    takes those ends.  The ids a splice renames away stay in `near` but
    are held by no crossing.  A tuple with no move to make is returned
    as it is.
    """
    v_exp = 0
    loops = 0
    work = crossings
    near = set(near)
    while (face := _reducible_face(work, near)) is not None:
        if len(face) == 1:
            ((ci, pos),) = face
            sign, ends = work[ci]
            v_exp -= sign
            skip = {ci}
            pairs = [_kink_pair(ends, pos)]
        else:
            (c1, p1), (c2, p2) = face
            skip = {c1, c2}
            pairs = _clasp_pairs(work[c1].ends, p1, work[c2].ends, p2)
        for ci in skip:
            near.update(work[ci].ends)
        work, new_loops = _apply_renames(work, skip, pairs)
        loops += new_loops
    return v_exp, loops, tuple(work)


# ---------------------------------------------------------------------------
# canonical form


# arc -> (crossing it enters, that crossing's sign, its ends read from the
# entry position, its ends)
ArcTable = dict[int, tuple[int, int, tuple[int, int, int, int], tuple[int, int, int, int]]]


def _arc_table(crossings: tuple[Crossing, ...]) -> tuple[ArcTable, list[int]]:
    """The arc table of a crossing set and the starts of its key, in one pass.

    The starts are the under-strand in-arcs of the crossings of sign -1 and
    then of those of sign +1, each run in crossing order (`_canonical`).
    """
    table: ArcTable = {}
    negative: list[int] = []
    positive: list[int] = []
    for ci, (sign, ends) in enumerate(crossings):
        a, b, c, d = ends
        table[a] = (ci, sign, ends, ends)
        if sign > 0:
            table[d] = (ci, sign, (d, a, b, c), ends)
            positive.append(a)
        else:
            table[b] = (ci, sign, (b, c, d, a), ends)
            negative.append(a)
    return table, negative + positive


def _encode_from(table: ArcTable, start: int, best: tuple | None) -> tuple[tuple, list[int]] | None:
    """Traversal encoding from `start` and the under-strand in-arc of each
    crossing in visit order, or None once the encoding exceeds `best`.

    Arcs are labeled in breadth-first order from `start`; each visited
    crossing emits (sign, labels of its ends).  Every end is labeled when
    its crossing is visited, so each item is final once emitted and the
    encoding can be compared with `best` item by item as it grows.  The
    first item is the sign of the crossing `start` enters and its ends
    labeled in order of first appearance from the entry position.  The
    traversal visits exactly the piece that holds `start`.
    """
    arc_label: dict[int, int] = {start: 0}
    order = [start]
    items: list[tuple] = []
    under: list[int] = []
    visited: set[int] = set()
    tied = best is not None
    for arc in order:
        ci, sign, entered, ends = table[arc]
        if ci in visited:
            continue
        visited.add(ci)
        for e in entered:
            if e not in arc_label:
                arc_label[e] = len(order)
                order.append(e)
        e0, e1, e2, e3 = ends
        item = (sign, (arc_label[e0], arc_label[e1], arc_label[e2], arc_label[e3]))
        if tied:
            rival = best[len(items)]
            if item > rival:
                return None
            tied = item == rival
        items.append(item)
        under.append(e0)
    return tuple(items), under


def _canonical(table: ArcTable, starts: list[int]) -> tuple:
    """Relabeling-invariant encoding of a crossing set, from its
    `_arc_table`.

    Per connected piece, the key is the minimum traversal encoding over
    all starting arcs; split pieces commute, so their encodings are
    sorted.  Three shortcuts leave the minimum unchanged.

    Only the under-strand in-arcs of the piece's least-sign crossings
    are encoded.  An encoding's first item is the sign of the crossing
    its start enters and that crossing's ends labeled in order of first
    appearance from the entry position.  From position 0 the ends are
    labeled in reading order, so the first label is 0 and no other
    labeling of the same ends is smaller.  From the over-strand in-arc
    the first label is above 0, because the end at position 0 is
    another arc: an arc enters only once.  So every start whose first
    item is the piece's least is picked, kinked crossings included.  On
    a reduced diagram, where every crossing has four distinct ends, the
    picked starts are exactly those whose first item is
    `(sign, (0, 1, 2, 3))` for the least sign.  A piece is learned from
    its first encoding, from the first of `starts` that no piece keyed
    so far holds: `starts` lists every crossing of sign -1 before any of
    sign +1, so that start's sign is its piece's least.

    Every encoding of a piece has one item per crossing, so the minimum
    is decided item by item: an encoding is dropped at its first item
    above the best one so far.  And when an encoding ties the best one,
    mapping the best's crossings onto its own in visit order is an
    automorphism of the piece, which maps starts to starts; the starts
    in one orbit of the automorphisms found so far all give one
    encoding, so a start is skipped once its orbit holds an encoded
    start (automorphism pruning, as in nauty).  Orbits of the
    under-strand in-arcs are kept by union-find.
    """
    keys = []
    keyed: set[int] = set()  # the starts of the pieces keyed so far
    for first in starts:
        if first in keyed:
            continue
        # The piece's under-strand in-arcs, in visit order, every sign included.
        best, piece = _encode_from(table, first, None)
        best_under = piece
        keyed.update(piece)
        least = table[first][1]
        links: dict[int, int] = {}
        encoded = {first}  # roots of orbits holding an encoded start
        for a in piece:
            if table[a][1] != least:
                continue
            root = _root(links, a)
            if root in encoded:
                continue
            encoded.add(root)
            found = _encode_from(table, a, best)
            if found is None:
                continue
            items, under = found
            if items != best:
                best, best_under = items, under
                continue
            for x, y in zip(best_under, under):
                rx, ry = _root(links, x), _root(links, y)
                if rx != ry:
                    links[ry] = rx
                    if ry in encoded:
                        encoded.add(rx)
        keys.append(best)
    return tuple(sorted(keys))


# ---------------------------------------------------------------------------
# evaluation


_Value = tuple[LaurentPoly, int]  # (numerator, c): the numerator over z^c


@cache
def _v_delta(v_exp: int, loops: int) -> LaurentPoly:
    """The numerator of v^v_exp * delta^loops over z^loops, which is
    v^v_exp (v^{-1} - v)^loops expanded by the binomial theorem, with no
    product.  It is the value of a leaf of the tree, an unlink or the
    empty diagram, as one shared immutable value per pair; frames run on
    the rows (`_node`)."""
    return LaurentPoly({(v_exp - loops + 2 * j, 0): (-1) ** j * comb(loops, j) for j in range(loops + 1)})


def _skein_step(sign: int, switched: _Value, smoothed: _Value) -> _Value:
    """switched + sign * z * smoothed, added as numerators over z^c.

    The switched child has the node's c components and is over z^c; the
    smoothed child has c + 1 or c - 1 and is over z^(c+1) or z^(c-1).
    The factor z cancels one z of the smoothed child's denominator, so
    its numerator is added as it is or, over z^(c-1), lifted by z^2, in
    one pass over the packed rows (`LaurentPoly.plus`).
    """
    (num, c), (b, c_smoothed) = switched, smoothed
    return num.plus(b, sign, c_smoothed < c), c


def _node(
    crossings: Sequence[Crossing], free_loops: int, v_exp: int, near: Iterable[int], memo: dict, root: bool = False
) -> Generator:
    """One skein-tree node: yields each child to evaluate as (diagram, its
    free loops, its v exponent, arcs next to the moves made on it), is sent
    its value, and returns the node's value (see `_eval`).  `free_loops`
    are loops beside the diagram and `v_exp` the v power of kinks already
    stripped from it: they join the loops and the kinks `_simplify`
    strips, so the node frames its memo value by v^v_exp and all its m
    loops, and adds the loops to its c.  The frame's numerator is
    v^v_exp (v^{-1} - v)^m = v^(v_exp - m) (1 - v^2)^m: one move of the
    numerator's rows (`times_v`), then m passes x - x v^2 of the ring's
    addition loop (`LaurentPoly.plus`), and no product.

    A node splits one crossing: P(D) = P(switched) + sign z P(smoothed),
    one skein step.  It builds each child with the move its split rule
    found already made, the clasp the switch leaves or the kink the
    smoothing leaves (`_children`), and `_simplify` makes every later
    move in the child's node.  A node whose reduced core holds a parallel twist
    region of t >= 3 crossings (`_split_crossing`) resolves the region
    instead, by the closed form of the t steps the tree would take
    through it.  Let D_k be the core with the region cut down to k
    crossings, so D_t is the core.  For k >= 2, D_k switched at a region
    crossing is D_{k-2} once `_simplify` strips the clasp this leaves, and
    smoothed there it is D_{k-1}: P(D_k) = P(D_{k-2}) + sign z P(D_{k-1}).
    So the node evaluates only D_1, the region smoothed down to its first
    crossing, and D_0, the region smoothed away, and folds them with
    t - 1 skein steps, each on numerators over z^c.  A split is the same
    fold with one step from D_{-1}, the switched child, and D_0.
    Smoothing a whole region may close loops, which D_0 carries as free
    loops.

    Every crossing of the reduced core has four distinct ends: `_simplify`
    strips the kinks, whose ends repeat next to each other, and a
    crossing whose opposite ends repeat is not planar.  So every arc of
    the split crossing has its other end at another crossing
    (`_split_crossing`), and smoothing it closes no loop.

    The root node (`root`) of a connected core cuts it first into its
    prime connected summands (`_summands`), one face pass over the end
    maps of its strand walk.  With m >= 2 of them it splits no crossing:
    the summands are its children, and with delta = (v^{-1} - v) / z their
    product over delta^(m-1) is N_1 prod_{i>=2} (N_i / (v^{-1} - v)) over
    z^c, c = sum c_i - (m - 1), as each cut joins two components in one.
    Each quotient is exact (`LaurentPoly.div_v_delta`): a summand's value
    is delta times a polynomial.  So the memo holds each summand and its
    tree, and the root's own value.  A core of several pieces, and every
    node below the root, is split at one crossing as above.

    The node walks the strands on the arc table its key was read from
    (`_strands`), and drops the table, the key's starts and both end
    maps before it yields: while its children run, it keeps only its key,
    the child it has yet to start and its values.
    """
    v, loops, core = _simplify(crossings, near)
    v_exp += v
    loops += free_loops
    del crossings
    if not core:
        return _v_delta(v_exp, loops), loops  # the empty diagram is 1
    table, starts = _arc_table(core)
    key = _canonical(table, starts)
    result = memo.get(key)
    if result is None:
        candidates, in_end, out_end, strands = _strands(table)
        if not candidates:
            result = _v_delta(-sum(cr.sign for cr in core), strands), strands
        elif root and len(key) == 1 and len(summands := _summands(core, in_end, out_end)) > 1:
            del core, table, starts, in_end, out_end, candidates
            num, c = yield summands.pop()
            while summands:
                b, c_b = yield summands.pop()
                num, c = num * b.div_v_delta(), c + c_b - 1
            result = num, c
        else:
            region = _split_crossing(core, in_end, out_end, candidates)
            sign = core[region[0]].sign
            if len(region) == 1:
                children = _children(core, region[0], in_end, out_end)
                steps = 1
            else:
                # Smoothing splices only the arcs of the crossings it removes,
                # so a child's new kinks and clasps all have a boundary arc
                # among them.
                near = [e for ci in region for e in core[ci].ends]
                children = [(*_smooth_all(core, region), 0, near), (*_smooth_all(core, region[1:]), 0, near)]
                steps = len(region) - 1
            del core, table, starts, in_end, out_end, candidates, region
            second = yield children.pop()
            first = yield children.pop()
            for _ in range(steps):
                first, second = second, _skein_step(sign, first, second)
            result = second
        memo[key] = result
    num, c = result
    if v_exp != loops:
        num = num.times_v(v_exp - loops)
    for _ in range(loops):
        num = num - num.times_v(2)
    return num, c + loops


def _eval(crossings: tuple[Crossing, ...], free_loops: int, memo: dict) -> SkeinScalar:
    """Evaluate the skein tree depth-first on an explicit stack of nodes,
    with the diagram's free loops applied at its root node, and build the
    one SkeinScalar of the root's (numerator, c) value, stored as the
    canonical form it is as built (`SkeinScalar._over_z`, with nothing to
    divide).

    A node's second child (the smoothed one, or the twist region smoothed
    down to one crossing) is finished before its first starts and the
    parent is stored last, so memo entries go in as a recursion would put
    them, and the tree's depth is not bounded by Python's recursion limit.
    """
    stack = [_node(crossings, free_loops, 0, {e for cr in crossings for e in cr.ends}, memo, True)]
    value = None
    while True:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
            if not stack:
                num, c = value
                return SkeinScalar._over_z(num, ((1, c),) if c else (), c)
        else:
            stack.append(_node(*child, memo))
            value = None


def _check_cap(crossings: int, free_loops: int, max_crossings: int) -> None:
    if crossings > max_crossings:
        raise CrossingLimitError(f"{crossings} crossings exceed cap {max_crossings}")
    # Each free loop raises the power of delta that frames the root, as a
    # crossing costs a skein step.
    if free_loops > max_crossings:
        raise CrossingLimitError(f"{free_loops} free loops exceed cap {max_crossings}")


def homfly_of_diagram(
    diagram: PlanarDiagram,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    memo: dict | None = None,
) -> SkeinScalar:
    """Framed Homfly value of a diagram, with the empty diagram at 1.

    `memo` may be shared across calls; it is keyed by canonical form and
    only ever maps a key to one exact value, the pair (numerator, c) of a
    numerator over z^c, so concurrent or repeated population cannot change
    results.  A connected sum is evaluated as the product of its prime
    summands, so its memo holds each summand's tree and the sum's value.

    The cap is checked before validation traces the faces, so a diagram
    above it raises CrossingLimitError even when it is malformed.
    """
    _check_cap(len(diagram.crossings), diagram.free_loops, max_crossings)
    diagram.validate()
    return _eval(diagram.crossings, diagram.free_loops, {} if memo is None else memo)


# ---------------------------------------------------------------------------
# the generalized Hopf family


def check_family_cap(spec: HopfSpec, max_crossings: int) -> None:
    """Raise CrossingLimitError as `homfly_of_diagram(build_diagram(spec))`
    would, without building the diagram.

    The standard diagram has 2(k1+k2)(n1+n2) crossings, or k1+k2+n1+n2
    free loops when either sum is zero.
    """
    n = spec.n1 + spec.n2
    k = spec.k1 + spec.k2
    _check_cap(2 * k * n, 0 if k and n else n + k, max_crossings)


def build_diagram(spec: HopfSpec) -> PlanarDiagram:
    """Standard zero-curl diagram of H(k1, k2; n1, n2).

    The core strings are parallel closed strands; each encircling string
    (ring) crosses every core strand twice, once passing over it (their
    upper crossing, where the core is under) and once under it (their
    lower crossing).  Crossing (j, i, upper|lower) of ring j and core i
    sits at position 2(j*n + i) or 2(j*n + i) + 1, with sign a_j * b_i
    where a and b are the two orientation signs.

    Strand rule: each strand lists the crossings it meets in walk order.
    A counterclockwise core i meets (j, i, lower), (j, i, upper) for
    j = 0..k-1, and a clockwise one walks that path reversed.  A
    counterclockwise ring j meets its upper crossings for i = 0..n-1 and
    then its lower ones for i = n-1..0; a clockwise ring meets the upper
    ones for i = n-1..0 and then the lower ones for i = 0..n-1.  Core
    strands and then rings take the next run of arc ids, the t-th arc
    leaving the t-th crossing.  A crossing's ends are (under-in,
    over-out, under-out, over-in) for sign +1 and (under-in, over-in,
    under-out, over-out) for sign -1.  With k or n zero there are no
    crossings and every strand is a free loop.
    """
    n = spec.n1 + spec.n2
    k = spec.k1 + spec.k2
    if n == 0 or k == 0:
        return PlanarDiagram((), free_loops=n + k)
    # walks[s]: the crossings (j, i, lower) that strand s meets, in walk order
    walks = []
    for i in range(n):
        walk = [(j, i, lower) for j in range(k) for lower in (True, False)]
        walks.append(walk if i < spec.n1 else walk[::-1])
    for j in range(k):
        upper = [(j, i, False) for i in range(n)]
        lower = [(j, i, True) for i in range(n)]
        walks.append(upper + lower[::-1] if j < spec.k1 else upper[::-1] + lower)
    under: dict[tuple, tuple[int, int]] = {}
    over: dict[tuple, tuple[int, int]] = {}
    arc = 0
    for s, walk in enumerate(walks):
        for t, x in enumerate(walk):
            # the core is under at the upper crossing, the ring at the lower
            (under if (s < n) != x[2] else over)[x] = (arc + (t - 1) % len(walk), arc + t)
        arc += len(walk)
    crossings = []
    for j, i, lower in sorted(under):
        sign = 1 if (i < spec.n1) == (j < spec.k1) else -1
        (u_in, u_out), (o_in, o_out) = under[j, i, lower], over[j, i, lower]
        ends = (u_in, o_out, u_out, o_in) if sign > 0 else (u_in, o_in, u_out, o_out)
        crossings.append(Crossing(sign, ends))
    return PlanarDiagram(tuple(crossings))
