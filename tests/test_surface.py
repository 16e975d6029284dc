"""The package surface the benchmark in bench/ relies on.

bench/ imports `hopflinks` alone, reaches each layer as an attribute of
the package and wraps the functions listed in bench/tracing.py TARGETS.
Its own tests sit outside testpaths, so this guards the contract here.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from hopflinks.hopf import HopfSpec, homfly_general
from hopflinks.ring import Z, LaurentPoly, SkeinScalar, delta

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("ring", "partitions", "meridian", "basis", "hopf", "oracle", "render")

PROBE = """
import json, sys
from functools import reduce
import hopflinks

layers, targets = json.loads(sys.argv[1])
missing = [m for m in layers if not hasattr(hopflinks, m)]
for module, attr in targets:
    try:
        reduce(getattr, attr.split("."), getattr(hopflinks, module))
    except AttributeError:
        missing.append(f"{module}.{attr}")
if not hasattr(hopflinks.basis.monomial_to_eigen(1, 1), "coeffs"):
    missing.append("monomial_to_eigen(...).coeffs")
print(json.dumps(missing))
"""


def bench_targets():
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(module, attr) for _, module, attr in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py defines no TARGETS")


def test_import_alone_exposes_every_traced_layer():
    targets = bench_targets()
    assert targets
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([LAYERS, targets])],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == []


def test_bench_term_count_matches_packed_terms():
    # bench/tracing.py counts ring.mul.term_products with _terms(p), which
    # reads p._terms when it exists: a rows dict under that name would turn
    # the count into a row count.
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    polys = [
        LaurentPoly.zero(),
        LaurentPoly.term(-5, v=2, s=-3),
        Z**5 * (LaurentPoly.term(1, v=1) - 7),
        homfly_general(HopfSpec(2, 1, 2, 1)).num,
    ]
    for p in polys:
        assert tracing._terms(p) == len(p.terms())
    assert tracing._terms(3) == 1


def test_scalar_work_goes_through_traced_kernel(monkeypatch):
    # The ring.mul and ring.div spans wrap these two methods; SkeinScalar
    # arithmetic must reach the kernel through them.
    calls = Counter()
    for name in ("__mul__", "exact_div_phi"):
        original = getattr(LaurentPoly, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(LaurentPoly, name, counted)
    assert delta() * SkeinScalar(Z) == SkeinScalar(LaurentPoly.term(1, v=-1) - LaurentPoly.term(1, v=1))
    assert calls["__mul__"] >= 1 and calls["exact_div_phi"] >= 1
    calls.clear()
    # Arithmetic never divides; the sum divides once it is read: one
    # test of Phi_1(s^2) = (s - 1)(s + 1), which does not divide, and no product.
    (delta() + delta()).to_json()
    assert calls == Counter(exact_div_phi=1)
