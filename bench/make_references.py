"""Regenerate references.json: the fingerprint of every value the workloads ask for.

    python3 bench/make_references.py

Run it on the commit whose values are the reference, never to make a
failing run pass.  Every stored value is cross-checked before it is
written, and any mismatch aborts without writing:

- closed forms against the skein-tree oracle wherever the diagram has at
  most CHECK_CAP crossings (every oracle-workload family diagram);
- twist closures: the recurrence against the oracle;
- table rows: the plane evaluations summed with the monomial
  multiplicities give delta^(n1+n2), and with eigenvalue powers give the
  oracle value of H(k1,k2;n1,n2) for k1+k2 <= 2.
"""

from __future__ import annotations

import json
import sys
import time
from math import comb, factorial, prod

import fingerprint as fp
import workloads as wl

CHECK_CAP = 20


def syt(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of a shape, by the hook-length formula."""
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    hooks = prod(shape[i] - j + cols[j] - i - 1 for i in range(len(shape)) for j in range(shape[i]))
    return factorial(sum(shape)) // hooks


def main() -> int:
    started = time.perf_counter()
    if any(fp.binomial(k) == 0 for k in range(1, 65)):
        raise SystemExit("the fingerprint point is a root of some s^k - s^-k")
    hl = wl.import_checkout()
    oracle_fp: dict[tuple, int] = {}

    def oracle(spec: tuple) -> int:
        if spec not in oracle_fp:
            diagram = hl.oracle.build_diagram(hl.hopf.HopfSpec(*spec))
            value = hl.oracle.homfly_of_diagram(diagram, max_crossings=CHECK_CAP)
            oracle_fp[spec] = fp.scalar_json(value.to_json())
        return oracle_fp[spec]

    def crossings(spec: tuple) -> int:
        return 2 * (spec[0] + spec[1]) * (spec[2] + spec[3])

    specs = {
        (k1, k - k1, n1, n - n1)
        for n in wl.SWEEP_CORES for n1 in range(n + 1)
        for k in wl.SWEEP_ENCIRCLING for k1 in range(k + 1)
    } | {
        (k1, k - k1, n1, n - n1)
        for k, n in wl.ORACLE_SHAPES for k1 in range(k + 1) for n1 in range(n + 1)
    }
    hopf = {}
    for spec in sorted(specs):
        hopf[spec] = fp.scalar_json(hl.hopf.homfly_general(hl.hopf.HopfSpec(*spec)).to_json())
        if crossings(spec) <= CHECK_CAP and hopf[spec] != oracle(spec):
            raise SystemExit(f"closed form and oracle disagree on {spec}")
    print(f"hopf: {len(hopf)} values, {len(oracle_fp)} checked against the oracle", flush=True)

    twist = {}
    for n in (1, 2, 5, 12, *range(wl.TWIST_BINS[0][0], wl.TWIST_BINS[-1][1] + 1)):
        value = hl.oracle.homfly_of_diagram(wl.twist_diagram(hl, n), max_crossings=n)
        if fp.scalar_json(value.to_json()) != fp.twist(n):
            raise SystemExit(f"recurrence and oracle disagree on the twist of length {n}")
        twist[n] = fp.twist(n)
    print(f"twist: {len(twist)} values checked against the oracle", flush=True)

    table = {}
    for neg, pos in wl.table_labels():
        label = hl.partitions.BasisLabel(neg, pos)
        table[(neg, pos)] = [
            fp.scalar_json(hl.meridian.ccw_eigenvalue(label).to_json()),
            fp.scalar_json(hl.meridian.cw_eigenvalue(label).to_json()),
            fp.scalar_json(hl.basis.plane_eval_eigen(label).to_json()),
        ]
    sums = 0
    for n1 in range(wl.TABLE_MAX_SIZE + 1):
        for n2 in range(wl.TABLE_MAX_SIZE + 1):
            for k in range(3):
                for k1 in range(k + 1):
                    spec = (k1, k - k1, n1, n2)
                    if k and crossings(spec) > CHECK_CAP:
                        continue
                    total = 0
                    for (neg, pos), (t, tbar, ev) in table.items():
                        m = n2 - sum(neg)
                        if m < 0 or m != n1 - sum(pos):
                            continue
                        mult = factorial(m) * comb(n2, m) * comb(n1, m) * syt(neg) * syt(pos)
                        total += mult * pow(t, k1, fp.P) * pow(tbar, k - k1, fp.P) * ev
                    expected = pow(fp.delta(), n1 + n2, fp.P) if not k else oracle(spec)
                    if total % fp.P != expected:
                        raise SystemExit(f"table rows do not sum to H{spec}")
                    sums += 1
    print(f"table: {len(table)} rows, {sums} sums checked", flush=True)

    refs = {
        "commit": wl.git_sha(),
        "point": {"p": fp.P, "v": fp.V0, "s": fp.S0},
        "hopf": {wl.spec_key(s): v for s, v in sorted(hopf.items())},
        "twist": {str(n): v for n, v in sorted(twist.items())},
        "table": {wl.label_key(*lab): v for lab, v in table.items()},
    }
    with open(wl.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0)
        fh.write("\n")
    print(f"wrote {wl.REFERENCES.name} in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
