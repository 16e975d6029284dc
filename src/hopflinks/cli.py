"""Command-line interface: evaluate, tabulate, and verify.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 crossing cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .basis import plane_eval_eigen
from .hopf import Decoration, HopfSpec, check_symmetries, homfly_decorated, homfly_general
from .meridian import (
    ccw_eigenvalue,
    cw_eigenvalue,
    opposite_sense_eigenvalue,
    same_sense_eigenvalue,
)
from .oracle import (
    DEFAULT_MAX_CROSSINGS,
    CrossingLimitError,
    MalformedDiagramError,
    PlanarDiagram,
    build_diagram,
    homfly_of_diagram,
)
from .partitions import BasisLabel, partitions_of
from .render import FORMATS, render_scalar
from .ring import all_distinct

__all__ = ["main", "run"]


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopflinks",
        description="Exact framed Homfly polynomials of generalized Hopf links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="plain")

    p_eval = sub.add_parser("eval", help="evaluate H(k1,k2;n1,n2) in closed form")
    for flag in ("--k1", "--k2", "--n1", "--n2"):
        p_eval.add_argument(flag, type=_nonneg, required=True)
    add_format(p_eval)
    p_eval.add_argument("--convention", choices=("paper", "swapped"), default="paper")

    p_dec = sub.add_parser("eval-decoration", help="evaluate a decorated Hopf satellite")
    p_dec.add_argument("--k1", type=_nonneg, required=True)
    p_dec.add_argument("--k2", type=_nonneg, required=True)
    p_dec.add_argument("--decoration", required=True, metavar="FILE")
    add_format(p_dec)

    p_oracle = sub.add_parser("oracle", help="evaluate a diagram by skein recursion")
    src = p_oracle.add_mutually_exclusive_group(required=True)
    src.add_argument("--pd", metavar="FILE", help="planar-diagram JSON file")
    src.add_argument("--family", metavar="K1,K2,N1,N2", help="build the standard diagram")
    p_oracle.add_argument("--max-crossings", type=_nonneg, default=None)
    add_format(p_oracle)

    p_verify = sub.add_parser("verify", help="closed form vs oracle plus invariants")
    p_verify.add_argument("--max-encircling", type=_nonneg, default=2)
    p_verify.add_argument("--max-core", type=_nonneg, default=3)
    p_verify.add_argument("--max-crossings", type=_nonneg, default=None)

    p_table = sub.add_parser("table", help="eigenvalue and evaluation table")
    p_table.add_argument("--max-size", type=_nonneg, required=True)

    return parser


def _cmd_eval(args: argparse.Namespace) -> int:
    spec = HopfSpec(args.k1, args.k2, args.n1, args.n2)
    if args.convention == "swapped":
        value = homfly_general(HopfSpec(spec.k2, spec.k1, spec.n2, spec.n1)).mirror()
    else:
        value = homfly_general(spec)
    print(render_scalar(value, args.format))
    return 0


def _cmd_eval_decoration(args: argparse.Namespace) -> int:
    try:
        with open(args.decoration, encoding="utf-8") as fh:
            payload = json.load(fh)
        decoration = Decoration.from_json(payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: bad decoration file: {exc}", file=sys.stderr)
        return 2
    value = homfly_decorated(args.k1, args.k2, decoration)
    print(render_scalar(value, args.format))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        if args.pd is not None:
            with open(args.pd, encoding="utf-8") as fh:
                diagram = PlanarDiagram.from_json(json.load(fh))
        else:
            pieces = args.family.split(",")
            if len(pieces) != 4:
                raise ValueError(f"--family wants K1,K2,N1,N2, got {args.family!r}")
            k1, k2, n1, n2 = (int(x) for x in pieces)
            diagram = build_diagram(HopfSpec(k1, k2, n1, n2))
    except (OSError, ValueError, MalformedDiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        value = homfly_of_diagram(diagram, max_crossings=args.max_crossings)
    except CrossingLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(render_scalar(value, args.format))
    return 0


def _grid(max_encircling: int, max_core: int) -> list[HopfSpec]:
    out = []
    for k1 in range(max_encircling + 1):
        for k2 in range(max_encircling + 1 - k1):
            for n1 in range(max_core + 1):
                for n2 in range(max_core + 1 - n1):
                    out.append(HopfSpec(k1, k2, n1, n2))
    return out


def _cmd_verify(args: argparse.Namespace) -> int:
    cap = args.max_crossings
    failures = 0
    memo: dict = {}
    specs = _grid(args.max_encircling, args.max_core)

    for spec in specs:
        crossings = 2 * (spec.k1 + spec.k2) * (spec.n1 + spec.n2)
        if crossings > cap:
            print(f"SKIP  {spec}: {crossings} crossings exceed cap {cap}")
            continue
        closed = homfly_general(spec)
        brute = homfly_of_diagram(build_diagram(spec), max_crossings=cap, memo=memo)
        if closed == brute:
            print(f"PASS  {spec}: closed form matches oracle")
        else:
            failures += 1
            print(f"FAIL  {spec}: closed form {closed} != oracle {brute}")

    for spec in specs:
        report = check_symmetries(spec)
        if report.passed:
            print(f"PASS  {spec}: equivalent-link symmetries")
        else:
            failures += 1
            print(f"FAIL  {spec}: symmetry identities failed: {', '.join(report.failures())}")

    singles = [
        lam for size in range(9) for lam in partitions_of(size)
    ]
    if all_distinct(same_sense_eigenvalue(lam) for lam in singles) and all_distinct(
        opposite_sense_eigenvalue(lam) for lam in singles
    ):
        print("PASS  eigenvalues distinct across single shapes of size <= 8")
    else:
        failures += 1
        print("FAIL  eigenvalue collision among single shapes of size <= 8")

    pair_labels = [
        BasisLabel(lam, mu)
        for a in range(5)
        for b in range(5)
        for lam in partitions_of(a)
        for mu in partitions_of(b)
    ]
    if all_distinct(ccw_eigenvalue(lab) for lab in pair_labels) and all_distinct(
        cw_eigenvalue(lab) for lab in pair_labels
    ):
        print("PASS  eigenvalues distinct across shape pairs of size <= 4")
    else:
        failures += 1
        print("FAIL  eigenvalue collision among shape pairs of size <= 4")

    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    for a in range(args.max_size + 1):
        for b in range(args.max_size + 1):
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    label = BasisLabel(lam, mu)
                    row = {
                        "label": label.to_json(),
                        "t": ccw_eigenvalue(label).to_json(),
                        "tbar": cw_eigenvalue(label).to_json(),
                        "evalQ": plane_eval_eigen(label).to_json(),
                    }
                    print(json.dumps(row, separators=(",", ":")))
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "eval-decoration": _cmd_eval_decoration,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # An absent --max-crossings falls back to HOPF_MAX_CROSSINGS, then to the default.
    if getattr(args, "max_crossings", 0) is None:
        env = os.environ.get("HOPF_MAX_CROSSINGS")
        try:
            args.max_crossings = DEFAULT_MAX_CROSSINGS if env is None else _nonneg(env)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"error: HOPF_MAX_CROSSINGS={env!r} is not a nonnegative integer", file=sys.stderr)
            return 2
    return _COMMANDS[args.command](args)


def run() -> None:
    sys.exit(main())
