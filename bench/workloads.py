"""Seeded request rounds for the three workloads, one request, and its check.

A request enters one level below `hopflinks.cli`, through the library
calls that `_cmd_eval`, `_cmd_table` and `_cmd_oracle` make.  Functions
are looked up on their modules at call time, so the tracing wrappers that
`tracing.py` installs there see every call.

A round is the unit of work that starts with every `functools` cache of
hopflinks empty.  Each round of a workload holds the same strata (core
sizes, diagram shapes, twist ranges); the seed picks the orientation
splits, output formats, twist lengths and order inside them.  The choices
in a stratum cycle through seeded permutations of all its options, so a
run of many rounds sees each option about equally often.  Seeds thus vary
the links while the mix of a run stays fixed, which keeps input sampling
from widening the run-to-run spread.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path
from typing import NamedTuple

import fingerprint

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).resolve().parent / "references.json"

WORKLOADS = ("closed_sweep", "table", "oracle")
FORMATS = ("plain", "json", "latex")
ROUNDS = 32  # rounds generated at set-up; a long run cycles through them

SWEEP_CORES = (5, 6, 7)  # n1 + n2
SWEEP_ENCIRCLING = range(1, 6)  # k1 + k2
TABLE_MAX_SIZE = 6
# (k1 + k2, n1 + n2) of the family diagrams: 2kn is 10 to 20 crossings.
ORACLE_SHAPES = tuple((k, n) for k in range(1, 11) for n in range(1, 11) if 5 <= k * n <= 10)
TWIST_BINS = ((16, 19), (20, 23), (24, 27), (28, 31), (32, 35), (36, 40))
ORACLE_CAP = 40  # as `hopflinks oracle --max-crossings 40`
# Seconds one round took at the seed commit, scaled to the reference speed
# of run.py.  A run of --seconds is that many seconds' worth of whole
# rounds, so every run of a workload does the same amount of work: a stop
# on the clock would keep the rounds that happened to be cheap.
ROUND_SECONDS = {"closed_sweep": 5.8, "table": 5.7, "oracle": 1.3}


class Request(NamedTuple):
    kind: str  # "closed", "row", "family" or "twist"
    args: tuple  # (k1, k2, n1, n2), (neg, pos) or (n,)
    fmt: str  # output format; unused by "row"
    diagram: object = None  # the prebuilt twist diagram


def loaded_modules() -> list:
    """The hopflinks package and its submodules imported so far."""
    return [m for n, m in list(sys.modules.items()) if n == "hopflinks" or n.startswith("hopflinks.")]


def import_checkout():
    """Import hopflinks afresh from this checkout's src/, with empty caches.

    Raises ImportError when the import resolves anywhere else.
    """
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for module in loaded_modules():
        del sys.modules[module.__name__]
    hl = importlib.import_module("hopflinks")
    where = Path(hl.__file__).resolve()
    if not where.is_relative_to(src):
        raise ImportError(f"hopflinks resolved to {where}, outside {src}")
    return hl


def git_sha() -> str:
    """HEAD of the checkout, read without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, largest part first."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(first,) + rest for first in range(top, 0, -1) for rest in partitions(n - first, first)]


def table_labels() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    sizes = range(TABLE_MAX_SIZE + 1)
    return [(lam, mu) for a in sizes for b in sizes for lam in partitions(a) for mu in partitions(b)]


def twist_diagram(hl, n: int):
    """Closure of sigma_1^n on two strands, through the public constructors.

    Arc 2i enters crossing i on the left (over) and arc 2i+1 on the right
    (under); the over-strand leaves to the right, the under-strand to the left.
    """
    Crossing, PlanarDiagram = hl.oracle.Crossing, hl.oracle.PlanarDiagram
    left = [2 * i for i in range(n)]
    right = [2 * i + 1 for i in range(n)]
    return PlanarDiagram(tuple(
        Crossing(1, (right[i], right[(i + 1) % n], left[(i + 1) % n], left[i]))
        for i in range(n)
    ))


def _cycle(rng: random.Random, options: list):
    """Endless seeded permutations of `options`: over len(options) draws
    each option comes up once, so long runs see every option equally."""
    while True:
        options = list(options)
        rng.shuffle(options)
        yield from options


def _closed_rounds(hl, rng: random.Random):
    fmt = _cycle(rng, FORMATS)
    split = {
        (n1, n, k): _cycle(rng, range(k + 1))
        for n in SWEEP_CORES for n1 in range(n + 1) for k in SWEEP_ENCIRCLING
    }
    while True:
        out = []
        for (n1, n, k), k1s in split.items():
            k1 = next(k1s)
            out.append(Request("closed", (k1, k - k1, n1, n - n1), next(fmt)))
        yield out


def _table_rounds(hl, rng: random.Random):
    labels = table_labels()
    while True:
        yield [Request("row", label, "json") for label in labels]


def _oracle_rounds(hl, rng: random.Random):
    fmt = _cycle(rng, FORMATS)
    split = {
        (k, n): _cycle(rng, [(k1, n1) for k1 in range(k + 1) for n1 in range(n + 1)])
        for k, n in ORACLE_SHAPES
    }
    lengths = [_cycle(rng, range(lo, hi + 1)) for lo, hi in TWIST_BINS]
    while True:
        out = []
        for (k, n), splits in split.items():
            k1, n1 = next(splits)
            out.append(Request("family", (k1, k - k1, n1, n - n1), next(fmt)))
        for twist_lengths in lengths:
            n = next(twist_lengths)
            out.append(Request("twist", (n,), next(fmt), twist_diagram(hl, n)))
        yield out


_ROUND_MAKERS = {"closed_sweep": _closed_rounds, "table": _table_rounds, "oracle": _oracle_rounds}


def make_rounds(hl, workload: str, seed: int) -> list[list[Request]]:
    """ROUNDS seeded rounds; the same seed gives the same requests."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for requests in _ROUND_MAKERS[workload](hl, rng):
        rng.shuffle(requests)
        rounds.append(requests)
        if len(rounds) == ROUNDS:
            return rounds


def execute(hl, req: Request, memo=None) -> str:
    """One request; returns the text the matching subcommand would print."""
    if req.kind == "closed":
        value = hl.hopf.homfly_general(hl.hopf.HopfSpec(*req.args))
        return hl.render.render_scalar(value, req.fmt)
    if req.kind == "row":
        label = hl.partitions.BasisLabel(*req.args)
        row = {
            "label": label.to_json(),
            "t": hl.meridian.ccw_eigenvalue(label).to_json(),
            "tbar": hl.meridian.cw_eigenvalue(label).to_json(),
            "evalQ": hl.basis.plane_eval_eigen(label).to_json(),
        }
        return json.dumps(row, separators=(",", ":"))
    if req.kind == "family":
        diagram = hl.oracle.build_diagram(hl.hopf.HopfSpec(*req.args))
    else:
        diagram = req.diagram
    value = hl.oracle.homfly_of_diagram(diagram, max_crossings=ORACLE_CAP, memo=memo)
    return hl.render.render_scalar(value, req.fmt)


def spec_key(args: tuple) -> str:
    return ",".join(map(str, args))


def label_key(neg: tuple, pos: tuple) -> str:
    return ".".join(map(str, neg)) + "|" + ".".join(map(str, pos))


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(refs: dict, req: Request, out: str) -> bool:
    """True when the output's ring value equals the stored reference."""
    try:
        if req.kind == "row":
            neg, pos = req.args
            row = json.loads(out)
            values = [fingerprint.scalar_json(row[name]) for name in ("t", "tbar", "evalQ")]
            return row["label"] == {"neg": list(neg), "pos": list(pos)} and (
                values == refs["table"][label_key(neg, pos)]
            )
        if req.kind == "twist":
            expected = refs["twist"][str(req.args[0])]
        else:
            expected = refs["hopf"][spec_key(req.args)]
        return fingerprint.rendered(out, req.fmt) == expected
    except (KeyError, TypeError, ValueError):
        return False
