"""Layered benchmark of hopflinks: one workload per process, closed loop.

    python3 bench/run.py --workload closed_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload oracle --seed 1 --seconds 25 --trace 1

One client sends requests one after another from this single thread; the
next goes out only when the previous one has returned.  The workload runs
in rounds, each starting with every functools cache of hopflinks empty.
Untraced (--trace 0), the run is a fixed number of whole rounds: as many
as took --seconds at the seed commit (workloads.ROUND_SECONDS), and at
least MIN_SAMPLES requests; the end-to-end metrics are printed.
Traced (--trace 1), the first round runs once untraced and twice traced;
the per-layer metrics come from the first traced round, the counts of the
two traced rounds must be identical, and the spans are written to
bench/out/ when the run ends.

Every output is checked against references.json.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}.  Exit
code 0 means every output was correct (and, traced, the counts repeated);
1 means a check failed; 2 means the benchmark could not start, such as
when hopflinks does not import from this checkout's src/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

MIN_SAMPLES = 100  # so that p90 has at least ten samples beyond it
SETUPS = 9  # set-ups per run; setup_s is the median of their scaled times
# Times are scaled to a reference speed of the host.  The host this was
# tuned on (2 shared vCPUs) switches between speeds up to 1.8x apart within
# fractions of a second, and its share of slow time changes from minute to
# minute, for _kernel and hopflinks alike.  A run's times are multiplied by
# CAL_REFERENCE_S, the kernel's time at the reference speed, over the mean
# of the kernel timings taken through the run.
CAL_REFERENCE_S = 0.0018
CAL_EVERY_S = 0.05  # seconds of requests between two kernel timings
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)


def percentile(samples: list[float], q: int) -> float:
    """Nearest rank: the smallest sample with at least q% of all at or below it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = -(-q * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def find_caches() -> list:
    """Every functools cache in the hopflinks modules (originals, before tracing)."""
    found = {}
    for module in wl.loaded_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                found[id(value)] = value
    return list(found.values())


def _kernel() -> int:
    """Fixed pure-Python work shaped like the ring's hot loop: products of
    dict-of-exponent-pair polynomials.  It never touches hopflinks."""
    poly = {(i % 7, i): i + 1 for i in range(40)}
    size = 0
    for _ in range(3):
        out: dict[tuple[int, int], int] = {}
        for (av, as_), ac in poly.items():
            for (bv, bs), bc in poly.items():
                key = (av + bv, as_ + bs)
                c = out.pop(key, 0) + ac * bc
                if c:
                    out[key] = c
        size += len(out)
    return size


def kernel_seconds() -> float:
    """One timed run of the kernel, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        _kernel()
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


def run_round(hl, caches, requests, refs, latencies, kernels, errors, rec=None) -> tuple[float, int]:
    """One cold round in a closed loop; returns (timed seconds, failed).

    Appends each request's latency to `latencies`, a kernel timing to
    `kernels` before the round and after every CAL_EVERY_S of requests, and
    a line per failed request to `errors`.  Outputs are checked after the
    round, outside the timed loop.
    """
    for fn in caches:
        fn.cache_clear()
    gc.collect()
    clock = time.perf_counter
    outputs = []
    timed = 0.0
    kernels.append(kernel_seconds())
    began = clock()
    for i, req in enumerate(requests):
        memo = None
        if rec is not None:
            rec.request = i
            span = rec.open(rec.ids[tracing.REQUEST], time.perf_counter_ns())
            if req.kind in ("family", "twist"):
                memo = tracing.CountingMemo(rec)
        t0 = clock()
        try:
            out = wl.execute(hl, req, memo)
        except Exception as exc:  # a failed request is counted, the loop goes on
            out = None
            errors.append(f"{req.kind}{req.args}: {type(exc).__name__}: {exc}")
        t1 = clock()
        latencies.append(t1 - t0)
        if rec is not None:
            rec.close(span, time.perf_counter_ns())
            if memo is not None:
                rec.add("oracle.memo.entries", len(memo))
        outputs.append(out)
        if t1 - began >= CAL_EVERY_S:
            timed += clock() - began
            kernels.append(kernel_seconds())
            began = clock()
    timed += clock() - began
    failed = 0
    for req, out in zip(requests, outputs):
        if out is None:
            failed += 1
        elif not wl.check(refs, req, out):
            failed += 1
            errors.append(f"{req.kind}{req.args}: output differs from the reference")
    return timed, failed


def _timed(args, hl, caches, rounds, refs, setup_s, errors) -> tuple[int, int, dict]:
    latencies: list[float] = []
    kernels: list[float] = []
    timed = 0.0
    failed = 0
    count = max(round(args.seconds / wl.ROUND_SECONDS[args.workload]), -(-MIN_SAMPLES // len(rounds[0])))
    for done in range(count):
        t, f = run_round(hl, caches, rounds[done % len(rounds)], refs, latencies, kernels, errors)
        timed += t
        failed += f
    scale = CAL_REFERENCE_S / statistics.fmean(kernels)
    attempted = len(latencies)
    rps = (attempted - failed) / timed
    p50, p90 = percentile(latencies, 50) * 1e3, percentile(latencies, 90) * 1e3
    print(f"# {count} rounds, {attempted} requests ({attempted} latency samples), {timed:.3f} s timed")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"# unscaled: requests_per_s {rps:.6g}, latency_p50_ms {p50:.6g}, latency_p90_ms {p90:.6g},"
          f" {len(kernels)} kernel timings, scale {scale:.4f}")
    values = {
        "requests_per_s": rps / scale,
        "latency_p50_ms": p50 * scale,
        "latency_p90_ms": p90 * scale,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return attempted, failed, {name: (values[name], unit) for name, unit in END_TO_END}


def _traced(args, hl, caches, rounds, refs, meta, errors) -> tuple[int, int, dict, bool]:
    requests = rounds[0]
    untraced_lat: list[float] = []
    traced_lat: list[float] = []
    untraced, failed = run_round(hl, caches, requests, refs, untraced_lat, [], errors)
    rec = tracing.Recorder()
    cached = tracing.install(wl.loaded_modules(), rec)
    traced_s, f = run_round(hl, caches, requests, refs, traced_lat, [], errors, rec=rec)
    failed += f
    first = rec.detach()
    counts = tracing.counts(first, cached)
    _, f = run_round(hl, caches, requests, refs, [], [], errors, rec=rec)
    failed += f
    repeated = tracing.counts(rec, cached) == counts
    # Paired by request, so that the host's changes of speed between the
    # two rounds cancel out of the overhead.
    ratio = statistics.median(t / u for t, u in zip(traced_lat, untraced_lat))
    overhead = untraced * (ratio - 1)
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]
    print(f"# one round of {len(requests)} requests: untraced {untraced:.3f} s, traced {traced_s:.3f} s;"
          f" overhead {overhead:.3f} s ({ratio - 1:+.1%} per request, median of traced/untraced),"
          f" {len(first)} spans")
    print(f"# counts of two traced rounds {'identical' if repeated else 'DIFFER'} (sha256 {digest})")
    values = tracing.layer_metrics(first, counts, overhead)
    path = OUT / f"spans-{args.workload}"  # the latest traced run of the workload
    first.write(path, {**meta, "untraced_s": untraced, "traced_s": traced_s, "counts": counts})
    print(f"# spans written to {path.relative_to(wl.ROOT)}")
    metrics = {name: (values[name], unit) for name, unit in tracing.METRICS}
    return 3 * len(requests), failed, metrics, repeated


def main(argv: list[str] | None = None, references: Path = wl.REFERENCES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        refs = wl.load_references(references)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read references: {exc}", file=sys.stderr)
        return 2
    setups = []
    kernel_before = kernel_seconds()
    for _ in range(SETUPS):
        began = time.perf_counter()
        try:
            hl = wl.import_checkout()
        except ImportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rounds = wl.make_rounds(hl, args.workload, args.seed)
        elapsed = time.perf_counter() - began
        kernel_after = kernel_seconds()
        setups.append(elapsed * CAL_REFERENCE_S * 2 / (kernel_before + kernel_after))
        kernel_before = kernel_after
    caches = find_caches()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": wl.git_sha(),
        "python": platform.python_version(),
        "hopflinks": str(Path(hl.__file__).resolve().relative_to(wl.ROOT)),
    }
    print("# " + " ".join(f"{k} {v}" for k, v in meta.items()))

    errors: list[str] = []
    if args.trace:
        attempted, failed, metrics, repeated = _traced(args, hl, caches, rounds, refs, meta, errors)
    else:
        attempted, failed, metrics = _timed(args, hl, caches, rounds, refs, statistics.median(setups), errors)
        repeated = True
    for line in errors[:5]:
        print(f"error: {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    correct = failed == 0 and repeated
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
