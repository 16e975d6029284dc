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
stripped eagerly; what remains recurses on the first crossing met on
its under-strand along a fixed traversal, and traversal-descending
diagrams are unlinks weighted by v^{-writhe}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .hopf import HopfSpec
from .ring import Z, LaurentPoly, SkeinScalar, delta

__all__ = [
    "MalformedDiagramError",
    "CrossingLimitError",
    "Crossing",
    "PlanarDiagram",
    "build_diagram",
    "mirror_diagram",
    "canonical_key",
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


def _over_out(sign: int) -> int:
    return 1 if sign > 0 else 3


def _is_in_position(sign: int, pos: int) -> bool:
    return pos == 0 or pos == _over_in(sign)


def _next_arc(cr: Crossing, pos: int) -> int:
    """The arc leaving `cr` along the strand that entered at `pos`."""
    return cr.ends[2] if pos == 0 else cr.ends[_over_out(cr.sign)]


@dataclass(frozen=True)
class PlanarDiagram:
    """An oriented link diagram: crossings plus crossing-free loops."""

    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    def validate(self) -> None:
        """Raise MalformedDiagramError unless this is a planar diagram.

        Checks arc matching (each arc has exactly one entering and one
        leaving end) and the genus-zero Euler count per connected
        component of the rotation system.
        """
        if self.free_loops < 0:
            raise MalformedDiagramError("free_loops must be nonnegative")
        ins: dict[int, int] = {}
        outs: dict[int, int] = {}
        for ci, cr in enumerate(self.crossings):
            if cr.sign not in (1, -1):
                raise MalformedDiagramError(f"crossing {ci} has sign {cr.sign!r}")
            if len(cr.ends) != 4:
                raise MalformedDiagramError(f"crossing {ci} does not have 4 ends")
            for pos, arc in enumerate(cr.ends):
                bucket = ins if _is_in_position(cr.sign, pos) else outs
                if arc in bucket:
                    raise MalformedDiagramError(
                        f"arc {arc} {'enters' if bucket is ins else 'leaves'} two crossings"
                    )
                bucket[arc] = ci
        if set(ins) != set(outs):
            raise MalformedDiagramError("every arc needs one entering and one leaving end")
        # Euler characteristic 2 per connected component means genus zero.
        comp = _components_of_crossings(self.crossings)
        face_count: dict[int, int] = {}
        for orbit in _faces(self.crossings):
            root = comp[orbit[0][0]]
            face_count[root] = face_count.get(root, 0) + 1
        sizes: dict[int, int] = {}
        for ci in range(len(self.crossings)):
            root = comp[ci]
            sizes[root] = sizes.get(root, 0) + 1
        for root, v in sizes.items():
            # E = 2V for a 4-valent diagram piece, so planarity is F = V + 2.
            if face_count.get(root, 0) != v + 2:
                raise MalformedDiagramError("rotation system is not planar")

    def arcs(self) -> list[int]:
        seen = set()
        for cr in self.crossings:
            seen.update(cr.ends)
        return sorted(seen)

    def writhe(self) -> int:
        return sum(cr.sign for cr in self.crossings)

    def component_count(self) -> int:
        return _strand_components(self.crossings) + self.free_loops

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
            crossings = tuple(
                Crossing(int(c["sign"]), tuple(int(e) for e in c["ends"]))
                for c in obj["crossings"]
            )
            loops = int(obj.get("loops", 0))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedDiagramError(f"bad diagram JSON: {exc}") from exc
        diagram = cls(crossings, loops)
        diagram.validate()
        return diagram


# ---------------------------------------------------------------------------
# structural helpers


def _arc_ends(crossings: tuple[Crossing, ...]) -> dict[int, list[tuple[int, int]]]:
    out: dict[int, list[tuple[int, int]]] = {}
    for ci, cr in enumerate(crossings):
        for pos, arc in enumerate(cr.ends):
            out.setdefault(arc, []).append((ci, pos))
    return out


def _faces(crossings: tuple[Crossing, ...]) -> Iterator[list[tuple[int, int]]]:
    """Orbits of the face-tracing map of the rotation system."""
    ends = _arc_ends(crossings)
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


def _components_of_crossings(crossings: tuple[Crossing, ...]) -> dict[int, int]:
    """Union-find roots of crossings linked by shared arcs."""
    parent = list(range(len(crossings)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_arc: dict[int, int] = {}
    for ci, cr in enumerate(crossings):
        for arc in cr.ends:
            if arc in by_arc:
                ra, rb = find(by_arc[arc]), find(ci)
                if ra != rb:
                    parent[rb] = ra
            else:
                by_arc[arc] = ci
    return {ci: find(ci) for ci in range(len(crossings))}


def _in_ends(crossings: tuple[Crossing, ...]) -> dict[int, tuple[int, int]]:
    """Traversal map: each arc to the (crossing, position) it enters."""
    in_end: dict[int, tuple[int, int]] = {}
    for ci, cr in enumerate(crossings):
        in_end[cr.ends[0]] = (ci, 0)
        oi = _over_in(cr.sign)
        in_end[cr.ends[oi]] = (ci, oi)
    return in_end


def _strand_components(crossings: tuple[Crossing, ...]) -> int:
    in_end = _in_ends(crossings)
    seen: set[int] = set()
    count = 0
    for start in sorted(in_end):
        if start in seen:
            continue
        count += 1
        arc = start
        while arc not in seen:
            seen.add(arc)
            ci, pos = in_end[arc]
            arc = _next_arc(crossings[ci], pos)
    return count


# ---------------------------------------------------------------------------
# local moves


def _apply_renames(
    crossings: list[Crossing], skip: set[int], pairs: list[tuple[int, int]]
) -> tuple[list[Crossing], int]:
    """Drop the crossings in `skip`, splice the arc pairs, count loops."""
    rename: dict[int, int] = {}

    def find(a: int) -> int:
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
    out = [
        Crossing(cr.sign, tuple(find(e) for e in cr.ends))
        for i, cr in enumerate(crossings)
        if i not in skip
    ]
    return out, loops


def _switch(crossings: tuple[Crossing, ...], idx: int) -> tuple[Crossing, ...]:
    """Exchange over- and under-strand at one crossing.

    The incoming under-strand changes, so the canonical rotation of the
    end list changes with the sign.
    """
    sign, (a, b, c, d) = crossings[idx]
    if sign > 0:
        new = Crossing(-1, (d, a, b, c))
    else:
        new = Crossing(1, (b, c, d, a))
    return crossings[:idx] + (new,) + crossings[idx + 1 :]


def _smooth(crossings: tuple[Crossing, ...], idx: int) -> tuple[tuple[Crossing, ...], int]:
    """Oriented smoothing of one crossing; returns (diagram, new loops)."""
    sign, (a, b, c, d) = crossings[idx]
    pairs = [(a, b), (d, c)] if sign > 0 else [(a, d), (b, c)]
    out, loops = _apply_renames(list(crossings), {idx}, pairs)
    return tuple(out), loops


def _simplify(
    crossings: tuple[Crossing, ...],
) -> tuple[int, int, tuple[Crossing, ...]]:
    """Strip kinks, reducible clasps and the loops they close.

    Returns (exponent of v, number of removed loops, reduced diagram).
    A kink of sign e contributes v^{-e}; a clasp of two opposite-sign
    crossings in which one strand stays on top is removed for free.
    """
    v_exp = 0
    loops = 0
    work = list(crossings)
    while work:
        move = None
        bigon = None
        for orbit in _faces(tuple(work)):
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
            work, new_loops = _apply_renames(work, {ci}, pairs)
            loops += new_loops
            continue
        if bigon is not None:
            (c1, p1), (c2, p2) = bigon
            crA, crB = work[c1], work[c2]
            pairs = [
                (crA.ends[(p1 + 2) % 4], crB.ends[(p2 + 1) % 4]),
                (crA.ends[(p1 + 1) % 4], crB.ends[(p2 + 2) % 4]),
            ]
            work, new_loops = _apply_renames(work, {c1, c2}, pairs)
            loops += new_loops
            continue
        break
    return v_exp, loops, tuple(work)


# ---------------------------------------------------------------------------
# canonical form


def _encode_from(
    crossings: tuple[Crossing, ...],
    in_end: dict[int, tuple[int, int]],
    start: int,
) -> tuple:
    arc_label: dict[int, int] = {start: 0}
    order = [start]
    cr_list: list[int] = []
    visited: set[int] = set()
    pointer = 0
    while pointer < len(order):
        arc = order[pointer]
        pointer += 1
        ci, pos = in_end[arc]
        if ci in visited:
            continue
        visited.add(ci)
        cr_list.append(ci)
        ends = crossings[ci].ends
        for off in range(4):
            e = ends[(pos + off) % 4]
            if e not in arc_label:
                arc_label[e] = len(order)
                order.append(e)
    return tuple(
        (crossings[ci].sign, tuple(arc_label[e] for e in crossings[ci].ends))
        for ci in cr_list
    )


def _canonical(crossings: tuple[Crossing, ...]) -> tuple:
    """Relabeling-invariant encoding of a crossing set.

    Per connected component, take the minimum traversal encoding over
    all starting arcs; split components commute, so their encodings are
    sorted.
    """
    in_end = _in_ends(crossings)
    comp = _components_of_crossings(crossings)
    arcs_by_comp: dict[int, list[int]] = {}
    for arc, (ci, _) in in_end.items():
        arcs_by_comp.setdefault(comp[ci], []).append(arc)
    keys = []
    for root, arcs in arcs_by_comp.items():
        keys.append(min(_encode_from(crossings, in_end, a) for a in sorted(arcs)))
    return tuple(sorted(keys))


def canonical_key(diagram: PlanarDiagram) -> tuple:
    """Memoization key, equal for diagrams that differ only by labeling."""
    return (_canonical(diagram.crossings), diagram.free_loops)


# ---------------------------------------------------------------------------
# evaluation


def _first_bad_crossing(crossings: tuple[Crossing, ...]) -> int | None:
    """First crossing met on its under-strand along the fixed traversal.

    Components are walked in order of their smallest arc id; a diagram
    with no such crossing is descending, hence an unlink.
    """
    in_end = _in_ends(crossings)
    seen_arcs: set[int] = set()
    seen_crossings: set[int] = set()
    for start in sorted(in_end):
        if start in seen_arcs:
            continue
        arc = start
        while arc not in seen_arcs:
            seen_arcs.add(arc)
            ci, pos = in_end[arc]
            if ci not in seen_crossings:
                if pos == 0:
                    return ci
                seen_crossings.add(ci)
            arc = _next_arc(crossings[ci], pos)
    return None


def _v_power(n: int) -> SkeinScalar:
    return SkeinScalar(LaurentPoly.term(1, v=n))


def _eval(crossings: tuple[Crossing, ...], memo: dict) -> SkeinScalar:
    v_exp, loops, core = _simplify(crossings)
    if not core:
        result = SkeinScalar.one()
    else:
        key = _canonical(core)
        result = memo.get(key)
        if result is None:
            bad = _first_bad_crossing(core)
            if bad is None:
                result = _v_power(-sum(cr.sign for cr in core)) * delta() ** _strand_components(core)
            else:
                sign = core[bad].sign
                switched = _switch(core, bad)
                smoothed, sm_loops = _smooth(core, bad)
                z_term = SkeinScalar(Z if sign > 0 else -Z)
                smooth_val = _eval(smoothed, memo) * delta() ** sm_loops
                result = _eval(switched, memo) + z_term * smooth_val
            memo[key] = result
    if v_exp:
        result = result * _v_power(v_exp)
    if loops:
        result = result * delta() ** loops
    return result


def homfly_of_diagram(
    diagram: PlanarDiagram,
    *,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
    memo: dict | None = None,
) -> SkeinScalar:
    """Framed Homfly value of a diagram, with the empty diagram at 1.

    `memo` may be shared across calls; it is keyed by canonical form and
    only ever maps a key to one exact value, so concurrent or repeated
    population cannot change results.
    """
    diagram.validate()
    if len(diagram.crossings) > max_crossings:
        raise CrossingLimitError(
            f"{len(diagram.crossings)} crossings exceed the cap {max_crossings}"
        )
    if memo is None:
        memo = {}
    value = _eval(diagram.crossings, memo)
    if diagram.free_loops:
        value = value * delta() ** diagram.free_loops
    return value


# ---------------------------------------------------------------------------
# the generalized Hopf family


def mirror_diagram(diagram: PlanarDiagram) -> PlanarDiagram:
    """Reflect the diagram: signs flip and each rotation reverses."""
    flipped = tuple(
        Crossing(-cr.sign, (cr.ends[0], cr.ends[3], cr.ends[2], cr.ends[1]))
        for cr in diagram.crossings
    )
    return PlanarDiagram(flipped, diagram.free_loops)


def build_diagram(spec: HopfSpec) -> PlanarDiagram:
    """Standard zero-curl diagram of H(k1, k2; n1, n2).

    The core strings are parallel closed strands; each encircling string
    crosses every core strand twice, once passing over (its upper arc)
    and once under.  Counterclockwise core strands and counterclockwise
    encircling strands are listed first; a crossing between core strand
    i and encircling strand j has sign a_j * b_i where a and b are the
    two orientation signs.  With k or n zero there are no crossings and
    every strand is a free loop.
    """
    n = spec.n1 + spec.n2
    k = spec.k1 + spec.k2
    if n == 0 or k == 0:
        return PlanarDiagram((), free_loops=n + k)

    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    # upper[i][j] / lower[i][j]: the two crossings of core i with ring j
    upper = [[("U", i, j) for j in range(k)] for i in range(n)]
    lower = [[("L", i, j) for j in range(k)] for i in range(n)]
    core_sign = [1 if i < spec.n1 else -1 for i in range(n)]
    ring_sign = [1 if j < spec.k1 else -1 for j in range(k)]

    core_in: dict[tuple, int] = {}
    core_out: dict[tuple, int] = {}
    ring_in: dict[tuple, int] = {}
    ring_out: dict[tuple, int] = {}

    for i in range(n):
        if core_sign[i] > 0:
            path = [x for j in range(k) for x in (lower[i][j], upper[i][j])]
        else:
            path = [x for j in reversed(range(k)) for x in (upper[i][j], lower[i][j])]
        arcs = [fresh() for _ in path]
        for t, node in enumerate(path):
            core_in[node] = arcs[t - 1]
            core_out[node] = arcs[t]

    for j in range(k):
        if ring_sign[j] > 0:
            path = [upper[i][j] for i in range(n)] + [lower[i][j] for i in reversed(range(n))]
        else:
            path = [upper[i][j] for i in reversed(range(n))] + [lower[i][j] for i in range(n)]
        arcs = [fresh() for _ in path]
        for t, node in enumerate(path):
            ring_in[node] = arcs[t - 1]
            ring_out[node] = arcs[t]

    crossings = []
    for j in range(k):
        for i in range(n):
            sign = ring_sign[j] * core_sign[i]
            u = upper[i][j]
            if sign > 0:
                ends_u = (core_in[u], ring_out[u], core_out[u], ring_in[u])
            else:
                ends_u = (core_in[u], ring_in[u], core_out[u], ring_out[u])
            crossings.append(Crossing(sign, ends_u))
            low = lower[i][j]
            if sign > 0:
                ends_l = (ring_in[low], core_out[low], ring_out[low], core_in[low])
            else:
                ends_l = (ring_in[low], core_in[low], ring_out[low], core_out[low])
            crossings.append(Crossing(sign, ends_l))
    return PlanarDiagram(tuple(crossings))
