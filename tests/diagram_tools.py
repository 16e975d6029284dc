"""Diagram builders and readings used only by the tests: braid closures
for the R2/R3 corpus, kink insertion, connected sums, global and one-component orientation
reversal and mirroring, the memo key of a whole diagram and the diagram a
key encodes, writhe, component count and the parallel twist runs.  Also
the references the skein tree's own walks are checked against: the
in-end map, the strand walk on it, the faces traced one orbit at a time,
and a crossing switched or smoothed with no move made after it."""

from __future__ import annotations

import itertools
from typing import Iterator

from hopflinks.oracle import Crossing, PlanarDiagram, _arc_table, _canonical


def face_orbits(crossings: tuple[Crossing, ...]) -> Iterator[list[tuple[int, int]]]:
    """Orbits of the face-tracing map of the rotation system: from corner
    (c, p) along arc p to its other end (x, q), then on to x's end q + 1."""
    ends: dict[int, list[tuple[int, int]]] = {}
    for ci, cr in enumerate(crossings):
        for pos, arc in enumerate(cr.ends):
            ends.setdefault(arc, []).append((ci, pos))
    visited: set[tuple[int, int]] = set()
    for ci in range(len(crossings)):
        for pos in range(4):
            if (ci, pos) in visited:
                continue
            orbit = []
            cur = (ci, pos)
            while cur not in visited:
                visited.add(cur)
                orbit.append(cur)
                arc = crossings[cur[0]].ends[cur[1]]
                occ = ends[arc]
                other = occ[1] if occ[0] == cur else occ[0]
                cur = (other[0], (other[1] + 1) % 4)
            yield orbit


def in_ends(crossings: tuple[Crossing, ...]) -> dict[int, tuple[int, int]]:
    """Traversal map: each arc to the (crossing, position) it enters."""
    in_end = {}
    for ci, cr in enumerate(crossings):
        in_end[cr.ends[0]] = (ci, 0)
        oi = 3 if cr.sign > 0 else 1
        in_end[cr.ends[oi]] = (ci, oi)
    return in_end


def walk_strands(crossings: tuple[Crossing, ...], in_end: dict) -> tuple[list[int], dict, int]:
    """Walk every strand from its smallest arc id, in order of those ids:
    the crossings met first on their under-strand in walk order, the
    out-end map (each arc to the crossing and position it leaves) and the
    number of strands."""
    out_end = {}
    seen_crossings: set[int] = set()
    under_first = []
    count = 0
    for start in sorted(in_end):
        if start in out_end:
            continue
        count += 1
        arc = start
        while True:
            ci, pos = in_end[arc]
            if ci not in seen_crossings:
                seen_crossings.add(ci)
                if pos == 0:
                    under_first.append(ci)
            sign, ends = crossings[ci]
            out = 2 if pos == 0 else (1 if sign > 0 else 3)
            arc = ends[out]
            if arc in out_end:
                break
            out_end[arc] = (ci, out)
    return under_first, out_end, count


def switch(crossings: tuple[Crossing, ...], idx: int) -> tuple[Crossing, ...]:
    """Exchange over- and under-strand at one crossing.  The incoming
    under-strand changes, so the rotation of the end list changes with
    the sign."""
    sign, (a, b, c, d) = crossings[idx]
    new = Crossing(-1, (d, a, b, c)) if sign > 0 else Crossing(1, (b, c, d, a))
    return crossings[:idx] + (new,) + crossings[idx + 1 :]


def smooth(crossings: tuple[Crossing, ...], idx: int) -> tuple[Crossing, ...]:
    """Oriented smoothing of a crossing with four distinct ends, which
    splices two pairs of distinct arcs and so closes no loop; the other
    crossings keep their order and every arc id but the spliced ones."""
    sign, (a, b, c, d) = crossings[idx]
    rename = {b: a, c: d} if sign > 0 else {d: a, c: b}
    return tuple(
        Crossing(cr.sign, tuple(rename.get(e, e) for e in cr.ends)) for i, cr in enumerate(crossings) if i != idx
    )


def braid_closure(strands: int, word: list[int]) -> PlanarDiagram:
    """Trace closure of a braid word; letter i means the strand at
    position i crosses over position i+1, negative letters invert."""
    counter = itertools.count()
    cur = [next(counter) for _ in range(strands)]
    first = list(cur)
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        if not 0 <= i < strands - 1:
            raise ValueError(f"letter {letter} out of range for {strands} strands")
        new_l, new_r = next(counter), next(counter)
        left, right = cur[i], cur[i + 1]
        if letter > 0:
            crossings.append(Crossing(1, (right, new_r, new_l, left)))
        else:
            crossings.append(Crossing(-1, (left, right, new_r, new_l)))
        cur[i], cur[i + 1] = new_l, new_r
    rename: dict[int, int] = {}

    def find(a: int) -> int:
        while a in rename:
            a = rename[a]
        return a

    loops = 0
    for top, bottom in zip(cur, first):
        rt, rb = find(top), find(bottom)
        if rt == rb:
            loops += 1
        else:
            rename[rb] = rt
    closed = tuple(
        Crossing(c.sign, tuple(find(e) for e in c.ends)) for c in crossings
    )
    return PlanarDiagram(closed, loops)


def enters(cr: Crossing, pos: int) -> bool:
    """Whether the end at `pos` of a crossing is one its strands enter by."""
    return pos == 0 or pos == (3 if cr.sign > 0 else 1)


def connected_sum(d1: PlanarDiagram, d2: PlanarDiagram, a: int, b: int) -> PlanarDiagram:
    """d1 # d2 at arc a of d1 and arc b of d2: both arcs are cut, and each
    runs on into the other's head.  d2's arcs are renumbered past d1's
    first, b with them, and the free loops of both are kept.  Any two arcs
    give a planar diagram: the two faces on each side of a merge with two
    faces of b, so the face count is the sum of both less two."""
    shift = max(d1.arcs()) + 1
    b += shift

    def cross(cr: Crossing, arc: int, into: int) -> Crossing:
        return Crossing(cr.sign, tuple(into if e == arc and enters(cr, pos) else e for pos, e in enumerate(cr.ends)))

    first = [cross(cr, a, b) for cr in d1.crossings]
    second = [cross(Crossing(cr.sign, tuple(e + shift for e in cr.ends)), b, a) for cr in d2.crossings]
    return PlanarDiagram(tuple(first + second), d1.free_loops + d2.free_loops)


def add_curl(diagram: PlanarDiagram, arc: int, sign: int) -> PlanarDiagram:
    """Insert a kink of the given sign into the middle of an arc."""
    fresh = max(diagram.arcs(), default=-1) + 1
    y, c = fresh, fresh + 1
    kink = Crossing(1, (arc, y, c, c)) if sign > 0 else Crossing(-1, (arc, c, c, y))
    out = []
    patched = False
    for cr in diagram.crossings:
        ends = list(cr.ends)
        for pos, e in enumerate(ends):
            is_in = pos == 0 or pos == (3 if cr.sign > 0 else 1)
            if e == arc and is_in:
                ends[pos] = y
                patched = True
        out.append(Crossing(cr.sign, tuple(ends)))
    if not patched:
        raise ValueError(f"arc {arc} does not enter any crossing")
    return PlanarDiagram(tuple(out) + (kink,), diagram.free_loops)


def reverse_all(diagram: PlanarDiagram) -> PlanarDiagram:
    """Reverse the orientation of every component; the rotation shifts
    by two positions and signs are unchanged."""
    flipped = tuple(
        Crossing(c.sign, (c.ends[2], c.ends[3], c.ends[0], c.ends[1]))
        for c in diagram.crossings
    )
    return PlanarDiagram(flipped, diagram.free_loops)


def reverse_component(diagram: PlanarDiagram, arc: int) -> PlanarDiagram:
    """Reverse the orientation of the component through `arc`.  Where it is
    the under-strand the rotation shifts by two positions; where exactly one
    strand is reversed the sign flips."""
    in_end = in_ends(diagram.crossings)
    arcs: set[int] = set()
    while arc not in arcs:
        arcs.add(arc)
        ci, pos = in_end[arc]
        sign, ends = diagram.crossings[ci]
        arc = ends[2] if pos == 0 else ends[1 if sign > 0 else 3]
    out = []
    for sign, ends in diagram.crossings:
        under, over = ends[0] in arcs, ends[1] in arcs
        out.append(Crossing(sign if under == over else -sign, ends[2:] + ends[:2] if under else ends))
    return PlanarDiagram(tuple(out), diagram.free_loops)


def mirror_diagram(diagram: PlanarDiagram) -> PlanarDiagram:
    """Reflect the diagram: signs flip and each rotation reverses."""
    flipped = tuple(
        Crossing(-cr.sign, (cr.ends[0], cr.ends[3], cr.ends[2], cr.ends[1]))
        for cr in diagram.crossings
    )
    return PlanarDiagram(flipped, diagram.free_loops)


def canonical_key(diagram: PlanarDiagram) -> tuple:
    """Memoization key, equal for diagrams that differ only by labeling."""
    return (_canonical(*_arc_table(diagram.crossings)), diagram.free_loops)


def key_diagram(pieces: tuple) -> PlanarDiagram:
    """The diagram a memo key (the per-piece encodings) encodes: each
    piece's arc labels shifted past those of the pieces before it."""
    crossings, offset = [], 0
    for items in pieces:
        labels = [label for _, ends in items for label in ends]
        crossings += [Crossing(sign, tuple(label + offset for label in ends)) for sign, ends in items]
        offset += max(labels) + 1
    return PlanarDiagram(tuple(crossings))


def writhe(diagram: PlanarDiagram) -> int:
    return sum(cr.sign for cr in diagram.crossings)


def component_count(diagram: PlanarDiagram) -> int:
    return walk_strands(diagram.crossings, in_ends(diagram.crossings))[2] + diagram.free_loops


def parallel_twist_runs(crossings: tuple[Crossing, ...]) -> list[tuple[set[int], bool]]:
    """The maximal runs of crossings of one sign in which each neighbouring
    pair bounds a bigon face whose two arcs run the same way, from the
    traced faces: each as its crossings and whether it closes into a cycle.
    A crossing in no such bigon is in no run."""

    def enters(ci: int, pos: int) -> bool:
        return pos == 0 or pos == (3 if crossings[ci].sign > 0 else 1)

    links: dict[int, list[int]] = {}
    for orbit in face_orbits(crossings):
        if len(orbit) != 2:
            continue
        (c1, p1), (c2, p2) = orbit
        # The face runs from c1 along c1's arc p1 and back along c2's arc p2:
        # the arcs run the same way when the first leaves c1 as the second
        # enters c2 (both from c1 to c2), or neither does.
        if c1 != c2 and crossings[c1].sign == crossings[c2].sign and enters(c1, p1) != enters(c2, p2):
            links.setdefault(c1, []).append(c2)
            links.setdefault(c2, []).append(c1)
    runs, seen = [], set()
    for start in links:
        if start in seen:
            continue
        run, stack, edges = set(), [start], 0
        while stack:
            ci = stack.pop()
            if ci in run:
                continue
            run.add(ci)
            edges += len(links[ci])
            stack.extend(links[ci])
        seen |= run
        # Each crossing has at most two such neighbours: a run of k crossings
        # is a path with k - 1 bigons or a cycle with k.
        runs.append((run, edges // 2 == len(run)))
    return runs
