"""The boundary of the ring's scalar type.

Outside ring.py the package reads a SkeinScalar only through its public
surface, and the two evaluation paths carry bare numerators until their
result: each builds one SkeinScalar per value it returns.
"""

import ast
from pathlib import Path

from hopflinks.hopf import HopfSpec, homfly_general
from hopflinks.meridian import ccw_eigenvalue, ccw_power
from hopflinks.oracle import build_diagram, homfly_of_diagram
from hopflinks.partitions import BasisLabel
from hopflinks.ring import SkeinScalar

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopflinks"
PRIVATE = {"_num", "_den", "_canon"}

# (module, enclosing function, field) -> why the read is allowed.
ALLOWED = {
    ("hopf.py", "Decoration.from_json", "_num"): (
        "the slot budget counts the numerator as loaded, before any reduction"
    ),
}


def private_reads(path: Path) -> list[tuple[str, str, int]]:
    """(enclosing qualified name, field, line) of each private scalar field read in `path`."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE and isinstance(node.ctx, ast.Load):
            found.append((".".join(scope), node.attr, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_the_ring_reads_private_scalar_fields():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "ring.py")
    assert {p.name for p in modules} >= {"hopf.py", "meridian.py", "oracle.py", "basis.py"}
    reads = [(p.name, scope, field, line) for p in modules for scope, field, line in private_reads(p)]
    unexpected = [r for r in reads if r[:3] not in ALLOWED]
    assert unexpected == []
    # Every allow-listed read is still there, so the list cannot go stale.
    assert {r[:3] for r in reads} == set(ALLOWED)


def count_scalars(monkeypatch) -> list:
    made = []
    real = SkeinScalar.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SkeinScalar, "__init__", counting)
    return made


def test_each_path_builds_one_scalar_per_result(monkeypatch):
    # With every cache warm, a skein tree on a fresh memo and a closed-form
    # sum each build the scalar they return and no other.
    diagram = build_diagram(HopfSpec(1, 1, 2, 1))
    spec = HopfSpec(2, 1, 2, 1)
    oracle_value, closed_value = homfly_of_diagram(diagram), homfly_general(spec)
    made = count_scalars(monkeypatch)
    assert homfly_of_diagram(diagram) == oracle_value
    assert len(made) == 1
    made.clear()
    assert homfly_general(spec) == closed_value
    assert len(made) == 1


def test_cold_power_chain_builds_no_scalar(monkeypatch):
    # The chain carries numerators over z^n: after the eigenvalue is made,
    # its 29 products build no scalar.
    label = BasisLabel((2, 1), (1,))
    ccw_eigenvalue(label)
    ccw_power.cache_clear()
    made = count_scalars(monkeypatch)
    ccw_power(label, 30)
    assert made == []
