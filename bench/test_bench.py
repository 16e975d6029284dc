"""Tests of the benchmark itself:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fingerprint  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def hl():
    return wl.import_checkout()


def _describe(rounds):
    return [[(req.kind, req.args, req.fmt) for req in requests] for requests in rounds]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_fixes_the_request_list(hl, workload):
    first = _describe(wl.make_rounds(hl, workload, 7))
    assert first == _describe(wl.make_rounds(hl, workload, 7))
    assert first != _describe(wl.make_rounds(hl, workload, 8))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_round_holds_the_same_strata(hl, workload):
    def strata(requests):
        out = []
        for req in requests:
            if req.kind == "twist":
                n = req.args[0]
                out.append(next(i for i, (lo, hi) in enumerate(wl.TWIST_BINS) if lo <= n <= hi))
            elif req.kind == "row":
                out.append(req.args)
            else:
                k1, k2, n1, n2 = req.args
                out.append((k1 + k2, n1 + n2) if req.kind == "family" else (k1 + k2, n1, n2))
        return sorted(out, key=repr)

    rounds = wl.make_rounds(hl, workload, 3) + wl.make_rounds(hl, workload, 4)
    assert all(strata(r) == strata(rounds[0]) for r in rounds)


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 90) == 90
    assert sum(x > run.percentile(samples, 90) for x in samples) == 10
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert run.percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_self_time_subtracts_direct_children():
    rec = tracing.Recorder(("request", "a", "b"))
    root = rec.open(0, 0)
    a = rec.open(1, 10)
    for start, end in ((20, 30), (40, 45)):
        rec.close(rec.open(2, start), end)
    rec.close(a, 60)
    rec.close(rec.open(2, 70), 90)
    rec.close(root, 100)
    calls, total, own = rec.times()
    assert calls == {"request": 1, "a": 1, "b": 3}
    assert total == pytest.approx({"request": 100e-9, "a": 50e-9, "b": 35e-9})
    assert own == pytest.approx({"request": 30e-9, "a": 35e-9, "b": 35e-9})
    assert list(rec.cols["parent"]) == [-1, 0, 1, 1, 0]


def test_fingerprints_compare_values_not_text(hl):
    # Equal values whose serializations differ (s + s^-1 over s^2 - s^-2 is
    # 1 over s - s^-1): the fingerprint must not tell them apart.
    ring = hl.ring
    a = ring.SkeinScalar(ring.LaurentPoly({(0, 1): 1, (0, -1): 1}), [(2, 1)])
    b = ring.SkeinScalar(1, [(1, 1)])
    assert a == b and a.to_json() != b.to_json()
    expected = fingerprint.scalar_json(b.to_json())
    assert fingerprint.scalar_json(a.to_json()) == expected
    for fmt in wl.FORMATS:
        assert fingerprint.rendered(hl.render.render_scalar(a, fmt), fmt) == expected


def test_rendered_formats_give_one_fingerprint(hl):
    value = hl.hopf.homfly_general(hl.hopf.HopfSpec(2, 1, 1, 2))
    expected = fingerprint.scalar_json(value.to_json())
    for fmt in wl.FORMATS:
        assert fingerprint.rendered(hl.render.render_scalar(value, fmt), fmt) == expected
    assert fingerprint.rendered("-v^-1*s + 2", "plain") != fingerprint.rendered("-v^-1*s + 3", "plain")


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_twist_recurrence_matches_oracle(hl, n):
    value = hl.oracle.homfly_of_diagram(wl.twist_diagram(hl, n), max_crossings=n)
    assert fingerprint.scalar_json(value.to_json()) == fingerprint.twist(n)


def test_import_outside_the_checkout_is_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(wl, "ROOT", tmp_path)
    with pytest.raises(ImportError):
        wl.import_checkout()


def test_corrupted_reference_fails_the_run(hl, tmp_path, capsys):
    refs = wl.load_references()
    first = wl.make_rounds(hl, "oracle", 1)[0][0]
    table, key = ("twist", str(first.args[0])) if first.kind == "twist" else ("hopf", wl.spec_key(first.args))
    refs[table][key] = (refs[table][key] + 1) % fingerprint.P
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))
    code = run.main(["--workload", "oracle", "--seed", "1", "--seconds", "0"], references=path)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
