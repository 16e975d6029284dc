"""Acceptance suite: one test per criterion, each printing a PASS line.

Every comparison is exact symbolic equality in the scalar ring; the
stated per-criterion wall-clock budgets are asserted as upper bounds.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import pytest
from diagram_tools import add_curl, braid_closure, mirror_diagram, reverse_all
from meridian_tools import opposite_sense_eigenvalue, same_sense_eigenvalue
from ring_tools import mono

import hopflinks.cli as cli
from hopflinks.hopf import HopfSpec, check_symmetries, homfly_general
from hopflinks.meridian import ccw_eigenvalue, cw_eigenvalue
from hopflinks.oracle import build_diagram, homfly_of_diagram
from hopflinks.partitions import BasisLabel, basis_labels, partitions_of
from hopflinks.ring import LaurentPoly, SkeinScalar, all_distinct, delta
from hopflinks.basis import monomial_to_eigen


Z = LaurentPoly({(0, 1): 1, (0, -1): -1})
GRID = [
    HopfSpec(k1, k2, n1, n2)
    for k1 in range(3)
    for k2 in range(3 - k1)
    for n1 in range(4)
    for n2 in range(4 - n1)
]

_shared_memo: dict = {}


class Budget:
    def __init__(self, seconds, name):
        self.limit = seconds
        self.name = name

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.name}: PASS  ({self.elapsed:.2f}s / {self.limit}s budget)")
            assert self.elapsed < self.limit, f"{self.name} exceeded its runtime budget"
        return False


def test_criterion_1_hopf_baselines():
    with Budget(1.0, "1 Hopf baselines"):
        h_plus = delta() ** 2 + mono(1, v=-2) - 1
        h_minus = delta() ** 2 + mono(1, v=2) - 1
        assert homfly_general(HopfSpec(1, 0, 1, 0)) == h_plus
        assert homfly_general(HopfSpec(0, 1, 1, 0)) == h_minus
        assert homfly_of_diagram(build_diagram(HopfSpec(1, 0, 1, 0)), memo=_shared_memo) == h_plus
        assert homfly_of_diagram(build_diagram(HopfSpec(0, 1, 1, 0)), memo=_shared_memo) == h_minus


def test_criterion_2_unlink_law():
    with Budget(1.0, "2 unlink law"):
        for n1 in range(7):
            for n2 in range(7 - n1):
                assert homfly_general(HopfSpec(0, 0, n1, n2)) == delta() ** (n1 + n2)


def test_criterion_3_worked_example():
    with Budget(5.0, "3 worked example"):
        d = delta()
        # the six eigenvalues, transcribed by hand
        t1 = SkeinScalar(mono(-1, v=1) * Z) + d
        t21 = SkeinScalar(Z * (-(mono(1, v=1) * (mono(1) + mono(1, s=-2))) + mono(1, v=-1))) + d
        t11 = SkeinScalar(Z * (-(mono(1, v=1) * (mono(1) + mono(1, s=2))) + mono(1, v=-1))) + d
        tb1 = SkeinScalar(mono(1, v=-1) * Z) + d
        tb21 = SkeinScalar(Z * (mono(1, v=-1) * (mono(1) + mono(1, s=2)) - mono(1, v=1))) + d
        tb11 = SkeinScalar(Z * (mono(1, v=-1) * (mono(1) + mono(1, s=-2)) - mono(1, v=1))) + d
        # the three plane evaluations, transcribed by hand
        pq1 = d
        head = SkeinScalar(mono(1, v=-1) - mono(1, v=1), ((2, 1),))
        pq21 = head * SkeinScalar(mono(1, v=-1, s=1) - mono(1, v=1, s=-1), ((1, 1),)) * d
        pq11 = head * SkeinScalar(mono(1, v=-1, s=-1) - mono(1, v=1, s=1), ((1, 1),)) * d

        def hand_value(k1, k2):
            a = t21 ** k1 * tb21 ** k2
            b = t1 ** k1 * tb1 ** k2
            c = t11 ** k1 * tb11 ** k2
            return a * pq21 + (2 * b - a - c) * pq1 + c * pq11

        for k1 in range(4):
            for k2 in range(4):
                assert homfly_general(HopfSpec(k1, k2, 1, 2)) == hand_value(k1, k2), (k1, k2)


def test_criterion_4_oracle_grid(capsys):
    # `verify` with default flags runs exactly this grid plus the other
    # suites; its exit code is the verdict.
    start = time.monotonic()
    code = cli.main(["verify"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0, out
    assert "FAIL" not in out
    with capsys.disabled():
        print(f"\nACCEPTANCE 4 oracle cross-check grid: PASS  ({elapsed:.2f}s / 600s budget)")
    assert elapsed < 600


def test_criterion_5_distinctness():
    with Budget(30.0, "5 eigenvalue distinctness"):
        singles = [lam for n in range(9) for lam in partitions_of(n)]
        assert all_distinct(same_sense_eigenvalue(lam) for lam in singles)
        assert all_distinct(opposite_sense_eigenvalue(lam) for lam in singles)
        pairs = [
            BasisLabel(lam, mu)
            for a in range(5)
            for b in range(5)
            for lam in partitions_of(a)
            for mu in partitions_of(b)
        ]
        assert all_distinct(ccw_eigenvalue(lab) for lab in pairs)
        assert all_distinct(cw_eigenvalue(lab) for lab in pairs)


def test_criterion_6_observation_symmetries():
    with Budget(60.0, "6 observation symmetries"):
        for spec in GRID:
            failed = [name for name, holds in check_symmetries(spec) if not holds]
            assert not failed, (spec, failed)


def test_criterion_7_counting():
    with Budget(1.0, "7 counting"):
        assert len(basis_labels(3, 2)) == 9
        expansion = {lab: c for lab, c in monomial_to_eigen(1, 2).items()}
        assert expansion == {
            BasisLabel((2,), (1,)): SkeinScalar(1),
            BasisLabel((1,), ()): SkeinScalar(2),
            BasisLabel((1, 1), (1,)): SkeinScalar(1),
        }


def test_criterion_8_oracle_soundness():
    with Budget(300.0, "8 oracle soundness"):
        # Reidemeister II / III invariance corpus
        r2_cases = [
            (2, [1, -1], []),
            (3, [1, 2, -2, 1], [1, 1]),
            (3, [2, -1, 1, 2], [2, 2]),
        ]
        for strands, word, reduced in r2_cases:
            assert homfly_of_diagram(braid_closure(strands, word)) == homfly_of_diagram(
                braid_closure(strands, reduced)
            )
        r3_cases = [
            (3, [1, 2, 1], [2, 1, 2]),
            (3, [-1, -2, -1], [-2, -1, -2]),
            (4, [1, 2, 3, 1, 2, 1], [1, 2, 3, 2, 1, 2]),
        ]
        for strands, left, right in r3_cases:
            assert homfly_of_diagram(braid_closure(strands, left)) == homfly_of_diagram(
                braid_closure(strands, right)
            )
        # curl factors
        v = SkeinScalar(mono(1, v=1))
        v_inv = SkeinScalar(mono(1, v=-1))
        base = build_diagram(HopfSpec(1, 0, 1, 1))
        value = homfly_of_diagram(base, memo=_shared_memo)
        arc = base.crossings[0].ends[0]
        assert homfly_of_diagram(add_curl(base, arc, +1)) == v_inv * value
        assert homfly_of_diagram(add_curl(base, arc, -1)) == v * value
        # mirror property across the criterion-4 grid
        for spec in GRID:
            d = build_diagram(spec)
            assert homfly_of_diagram(mirror_diagram(d), memo=_shared_memo) == homfly_of_diagram(
                d, memo=_shared_memo
            ).mirror(), spec
        # orientation reversal leaves values unchanged
        for spec in GRID:
            d = build_diagram(spec)
            assert homfly_of_diagram(reverse_all(d), memo=_shared_memo) == homfly_of_diagram(
                d, memo=_shared_memo
            ), spec
