"""The package surface the benchmark in bench/ relies on.

bench/ imports `hopflinks` alone, reaches each layer as an attribute of
the package and wraps the functions listed in bench/tracing.py TARGETS.
Its own tests sit outside testpaths, so this guards the contract here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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
