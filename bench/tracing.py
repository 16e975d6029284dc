"""Spans and counts around the public functions of each hopflinks layer.

Everything here acts from outside the program: `install` replaces each
traced function on its class, or on every hopflinks module that holds it
(the defining module and each module that imported the name), by a
wrapper that records a span and updates counts.  Spans live in flat
arrays until the run ends.  A span's self time is its duration minus the
time its direct children cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (span name, module, attribute) of each traced function.  Names that
# appear twice aggregate both functions.
TARGETS = (
    ("ring.mul", "ring", "LaurentPoly.__mul__"),
    ("ring.div", "ring", "LaurentPoly.exact_div_factor"),
    ("ring.scalar_init", "ring", "SkeinScalar.__init__"),
    ("ring.scalar_add", "ring", "SkeinScalar.__add__"),
    ("partitions.lr_coeff", "partitions", "lr_coeff"),
    ("meridian.eigenvalue", "meridian", "ccw_eigenvalue"),
    ("meridian.eigenvalue", "meridian", "cw_eigenvalue"),
    ("meridian.plane_eval", "meridian", "plane_eval_single"),
    ("meridian.plane_eval", "meridian", "plane_eval_product"),
    ("basis.plane_eval_eigen", "basis", "plane_eval_eigen"),
    ("basis.monomial_to_eigen", "basis", "monomial_to_eigen"),
    ("hopf.homfly_general", "hopf", "homfly_general"),
    ("oracle.homfly_of_diagram", "oracle", "homfly_of_diagram"),
    ("oracle.build_diagram", "oracle", "build_diagram"),
    ("render.render_scalar", "render", "render_scalar"),
)
REQUEST = "request"
SPAN_NAMES = (REQUEST,) + tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# Per-layer metrics in report order: (metric, unit).
METRICS = (
    ("ring.mul.calls", "count"),
    ("ring.mul.self_s", "s"),
    ("ring.mul.term_products", "count"),
    ("ring.div.calls", "count"),
    ("ring.div.self_s", "s"),
    ("ring.div.useful_ratio", "ratio"),
    ("ring.scalar_init.calls", "count"),
    ("ring.scalar_init.self_s", "s"),
    ("ring.scalar_add.calls", "count"),
    ("ring.scalar_add.self_s", "s"),
    ("partitions.lr_coeff.calls", "count"),
    ("partitions.lr_coeff.self_s", "s"),
    ("partitions.lr_coeff.hit_ratio", "ratio"),
    ("meridian.eigenvalue.calls", "count"),
    ("meridian.eigenvalue.self_s", "s"),
    ("meridian.eigenvalue.hit_ratio", "ratio"),
    ("meridian.plane_eval.self_s", "s"),
    ("meridian.plane_eval.hit_ratio", "ratio"),
    ("basis.plane_eval_eigen.calls", "count"),
    ("basis.plane_eval_eigen.self_s", "s"),
    ("basis.plane_eval_eigen.hit_ratio", "ratio"),
    ("basis.labels_expanded", "count"),
    ("hopf.homfly_general.calls", "count"),
    ("hopf.homfly_general.total_s", "s"),
    ("hopf.result.num_terms", "count"),
    ("oracle.homfly_of_diagram.calls", "count"),
    ("oracle.homfly_of_diagram.self_s", "s"),
    ("oracle.build_diagram.self_s", "s"),
    ("oracle.crossings", "count"),
    ("oracle.memo.lookups", "count"),
    ("oracle.memo.hit_ratio", "ratio"),
    ("oracle.memo.entries", "count"),
    ("render.render_scalar.calls", "count"),
    ("render.render_scalar.self_s", "s"),
    ("render.output_bytes", "B"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


def _terms(poly) -> int:
    """Stored term count of a LaurentPoly operand (1 for an int).

    Reads the private term dict, which costs nothing; the public terms()
    sorts, and is used only if a new representation drops the dict.
    """
    if isinstance(poly, int):
        return 1
    terms = getattr(poly, "_terms", None)
    return len(terms) if terms is not None else len(poly.terms())


class Recorder:
    """Spans as parallel arrays: name id, parent span, request, start, end (ns).

    A parent of -1 marks a root; spans nest because the run is one thread
    calling synchronously.
    """

    COLUMNS = (("name", "H"), ("parent", "i"), ("request", "i"), ("start", "q"), ("end", "q"))

    def __init__(self, names=SPAN_NAMES):
        self.names = tuple(names)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.cols = {col: array(code) for col, code in self.COLUMNS}
        self.stack = [-1]
        self.request = -1
        self.counts: dict[str, int] = {}

    def open(self, name_id: int, start: int) -> int:
        i = len(self.cols["start"])
        self.cols["name"].append(name_id)
        self.cols["parent"].append(self.stack[-1])
        self.cols["request"].append(self.request)
        self.cols["start"].append(start)
        self.cols["end"].append(start)
        self.stack.append(i)
        return i

    def close(self, i: int, end: int) -> None:
        self.cols["end"][i] = end
        self.stack.pop()

    def add(self, counter: str, n: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def __len__(self) -> int:
        return len(self.cols["start"])

    def detach(self) -> "Recorder":
        """Hand the spans and counts so far to a new recorder and start empty."""
        done = Recorder(self.names)
        done.cols, done.counts = self.cols, self.counts
        self.cols = {col: array(code) for col, code in self.COLUMNS}
        self.counts = {}
        return done

    def times(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        name, parent = self.cols["name"], self.cols["parent"]
        start, end = self.cols["start"], self.cols["end"]
        dur = [e - s for s, e in zip(start, end)]
        own = list(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= dur[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, n in enumerate(name):
            calls[n] += 1
            total[n] += dur[i]
            self_ns[n] += own[i]
        return (
            dict(zip(self.names, calls)),
            {k: v / 1e9 for k, v in zip(self.names, total)},
            {k: v / 1e9 for k, v in zip(self.names, self_ns)},
        )

    def write(self, path: Path, meta: dict) -> None:
        """Columns as raw arrays in `path`, their layout in `path`.json."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for col in self.cols.values():
                col.tofile(fh)
        layout = {
            "spans": len(self),
            "names": list(self.names),
            "columns": [
                {"name": col, "typecode": code, "itemsize": array(code).itemsize}
                for col, code in self.COLUMNS
            ],
            "byteorder": sys.byteorder,
            **meta,
        }
        with open(path.with_name(path.name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(layout, fh, indent=1)


def _after_hooks(rec: Recorder) -> dict[str, object]:
    """Counts taken from a traced call's arguments and result."""

    def mul(args, result):
        rec.add("ring.mul.term_products", _terms(args[0]) * _terms(args[1]))

    def div(args, result):
        rec.add("ring.div.useful", result is not None)

    def labels(args, result):
        rec.add("basis.labels_expanded", len(result.coeffs))

    def num_terms(args, result):
        rec.add("hopf.result.num_terms", len(result.num.terms()))

    def crossings(args, result):
        rec.add("oracle.crossings", len(args[0].crossings))

    def output(args, result):
        rec.add("render.output_bytes", len(result.encode()))

    return {
        "ring.mul": mul,
        "ring.div": div,
        "basis.monomial_to_eigen": labels,
        "hopf.homfly_general": num_terms,
        "oracle.homfly_of_diagram": crossings,
        "render.render_scalar": output,
    }


def _wrap(rec: Recorder, name: str, fn, after):
    name_id = rec.ids[name]
    clock = time.perf_counter_ns

    def traced(*args, **kwargs):
        i = rec.open(name_id, clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i, clock())
        if after is not None:
            after(args, result)
        return result

    return traced


def install(modules: list, rec: Recorder) -> dict[str, list]:
    """Wrap every target in the hopflinks `modules` in place.

    Returns the cached originals by span name, for their cache_info().
    """
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    hooks = _after_hooks(rec)
    cached: dict[str, list] = {}
    for name, module, attr in TARGETS:
        owner = by_name[module]
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        original = getattr(owner, method)
        wrapper = _wrap(rec, name, original, hooks.get(name))
        holders = [owner] if owner_name else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
        if hasattr(original, "cache_info"):
            cached.setdefault(name, []).append(original)
    return cached


class CountingMemo(dict):
    """The oracle's memo table, counting lookups and hits through `get`."""

    def __init__(self, rec: Recorder):
        super().__init__()
        self.rec = rec

    def get(self, key, default=None):
        self.rec.add("oracle.memo.lookups")
        if key in self:
            self.rec.add("oracle.memo.hits")
            return self[key]
        return default


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def counts(rec: Recorder, cached: dict[str, list]) -> dict[str, int]:
    """Every count of the round: span calls, hook counts and cache hits."""
    calls, _, _ = rec.times()
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update(rec.counts)
    for name, fns in cached.items():
        infos = [fn.cache_info() for fn in fns]
        out[f"{name}.hits"] = sum(i.hits for i in infos)
        out[f"{name}.misses"] = sum(i.misses for i in infos)
    out["trace.spans"] = len(rec)
    return dict(sorted(out.items()))


def layer_metrics(rec: Recorder, count: dict[str, int], overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of METRICS from one traced round."""
    _, total, own = rec.times()
    c = count.get
    values = {f"{name}.calls": c(f"{name}.calls", 0) for name in SPAN_NAMES}
    values.update({f"{name}.self_s": own[name] for name in SPAN_NAMES})
    for name in SPAN_NAMES:
        if f"{name}.hits" in count:
            hits = count[f"{name}.hits"]
            values[f"{name}.hit_ratio"] = _ratio(hits, hits + count[f"{name}.misses"])
    values.update({
        "ring.mul.term_products": c("ring.mul.term_products", 0),
        "ring.div.useful_ratio": _ratio(c("ring.div.useful", 0), c("ring.div.calls", 0)),
        "basis.labels_expanded": c("basis.labels_expanded", 0),
        "hopf.homfly_general.total_s": total["hopf.homfly_general"],
        "hopf.result.num_terms": c("hopf.result.num_terms", 0),
        "oracle.crossings": c("oracle.crossings", 0),
        "oracle.memo.lookups": c("oracle.memo.lookups", 0),
        "oracle.memo.hit_ratio": _ratio(c("oracle.memo.hits", 0), c("oracle.memo.lookups", 0)),
        "oracle.memo.entries": c("oracle.memo.entries", 0),
        "render.output_bytes": c("render.output_bytes", 0),
        "trace.overhead_s": overhead_s,
        "trace.spans": c("trace.spans", 0),
    })
    return {metric: values[metric] for metric, _ in METRICS}
