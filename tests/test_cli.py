import hashlib
import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hopflinks.cli as cli
import hopflinks.hopf as hopf_module
import hopflinks.oracle as oracle_module
from hopflinks.hopf import HopfSpec, homfly_general
from hopflinks.oracle import build_diagram
from hopflinks.partitions import BasisLabel
from hopflinks.render import parse_scalar, render_scalar
from hopflinks.ring import LaurentPoly, SkeinScalar, delta
from test_hopf import clear_caches


H_PLUS = delta() ** 2 + LaurentPoly.term(1, v=-2) - 1


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- eval ---------------------------------------------------------------------

def test_eval_hopf_plain(capsys):
    code, out, _ = run_cli(capsys, "eval", "--k1", "1", "--k2", "0", "--n1", "1", "--n2", "0")
    assert code == 0
    assert parse_scalar(out.strip()) == H_PLUS


def test_eval_unlink(capsys):
    code, out, _ = run_cli(capsys, "eval", "--k1", "0", "--k2", "0", "--n1", "2", "--n2", "1")
    assert code == 0
    assert parse_scalar(out.strip()) == delta() ** 3


def test_eval_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--k1", "2", "--k2", "1", "--n1", "1", "--n2", "2", "--format", "json"
    )
    assert code == 0
    expected = homfly_general(HopfSpec(2, 1, 1, 2))
    assert json.loads(out) == expected.to_json()


def test_eval_latex_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--k1", "1", "--k2", "1", "--n1", "1", "--n2", "1", "--format", "latex"
    )
    assert code == 0
    assert parse_scalar(out.strip()) == homfly_general(HopfSpec(1, 1, 1, 1))


def test_eval_swapped_convention(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--k1", "2", "--k2", "1", "--n1", "1", "--n2", "2", "--convention", "swapped",
    )
    assert code == 0
    expected = homfly_general(HopfSpec(1, 2, 2, 1)).mirror()
    assert parse_scalar(out.strip()) == expected


def test_eval_rejects_negative(capsys):
    code, _, _ = run_cli(capsys, "eval", "--k1", "-1", "--k2", "0", "--n1", "1", "--n2", "0")
    assert code == 2


def test_eval_rejects_missing_flag(capsys):
    code, _, _ = run_cli(capsys, "eval", "--k1", "1", "--k2", "0", "--n1", "1")
    assert code == 2


# -- eval-decoration -----------------------------------------------------------

def one_json():
    return SkeinScalar.one().to_json()


def test_decoration_special_case(tmp_path, capsys):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps([{"coeff": one_json(), "a": 1, "b": 2}]))
    code, out, _ = run_cli(capsys, "eval-decoration", "--k1", "1", "--k2", "1", "--decoration", str(path))
    assert code == 0
    assert parse_scalar(out.strip()) == homfly_general(HopfSpec(1, 1, 1, 2))


def test_decoration_repeated_numerator_terms_add(tmp_path, capsys):
    outputs = []
    for num in ([{"v": 0, "s": 0, "c": 1}, {"v": 0, "s": 0, "c": 2}], [{"v": 0, "s": 0, "c": 3}]):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps([{"coeff": {"num": num, "den": []}, "a": 1, "b": 1}]))
        code, out, _ = run_cli(capsys, "eval-decoration", "--k1", "2", "--k2", "0", "--decoration", str(path))
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_decoration_empty_file(tmp_path, capsys):
    path = tmp_path / "dec.json"
    path.write_text("[]")
    code, out, _ = run_cli(capsys, "eval-decoration", "--k1", "2", "--k2", "0", "--decoration", str(path))
    assert code == 0
    assert out.strip() == "0"


def test_decoration_linearity(tmp_path, capsys):
    path = tmp_path / "dec.json"
    path.write_text(
        json.dumps(
            [
                {"coeff": one_json(), "a": 1, "b": 0},
                {"coeff": one_json(), "a": 0, "b": 1},
            ]
        )
    )
    code, out, _ = run_cli(capsys, "eval-decoration", "--k1", "1", "--k2", "0", "--decoration", str(path))
    assert code == 0
    expected = homfly_general(HopfSpec(1, 0, 1, 0)) + homfly_general(HopfSpec(1, 0, 0, 1))
    assert parse_scalar(out.strip()) == expected


def test_decoration_duplicate_pairs_rejected(tmp_path, capsys):
    path = tmp_path / "dec.json"
    path.write_text(
        json.dumps(
            [
                {"coeff": one_json(), "a": 1, "b": 1},
                {"coeff": one_json(), "a": 1, "b": 1},
            ]
        )
    )
    code, _, err = run_cli(capsys, "eval-decoration", "--k1", "0", "--k2", "0", "--decoration", str(path))
    assert code == 2
    assert "decoration" in err


def test_decoration_malformed_file(tmp_path, capsys):
    path = tmp_path / "dec.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "eval-decoration", "--k1", "0", "--k2", "0", "--decoration", str(path))
    assert code == 2


def test_decoration_missing_file(capsys):
    code, _, _ = run_cli(capsys, "eval-decoration", "--k1", "0", "--k2", "0", "--decoration", "/nope.json")
    assert code == 2


def coeff_json(num, den=()):
    return {"num": [dict(zip("vsc", t)) for t in num], "den": [{"k": k, "mult": m} for k, m in den]}


@pytest.mark.parametrize(
    "term",
    [
        {"coeff": coeff_json([(0.9, 1, 2)]), "a": 1, "b": 0},  # float exponent
        {"coeff": coeff_json([(0, 1, 2.7)]), "a": 1, "b": 0},  # float coefficient
        {"coeff": coeff_json([(0, 1, True)]), "a": 1, "b": 0},  # JSON true
        {"coeff": coeff_json([(0, 1, 2)], [(1.9, 1)]), "a": 1, "b": 0},  # float k
        {"coeff": coeff_json([(0, 1, 2)], [(1, True)]), "a": 1, "b": 0},  # JSON true mult
        {"coeff": one_json(), "a": 1.5, "b": 0},  # float string count
        {"coeff": one_json(), "a": True, "b": 0},  # JSON true string count
    ],
)
def test_decoration_non_integer_field_rejected(tmp_path, capsys, term):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps([term]))
    code, out, err = run_cli(capsys, "eval-decoration", "--k1", "1", "--k2", "0", "--decoration", str(path))
    assert code == 2
    assert out == "" and "integer" in err


@pytest.mark.parametrize(
    "coeff",
    [
        coeff_json([(0, 10_000_000, 1), (0, 0, 1)], [(1, 1)]),  # (s^10000000 + 1) / (s - s^-1)
        coeff_json([(0, 0, 1)], [(4097, 1)]),
        coeff_json([(0, 0, 1)], [(1, 2048), (2, 1025)]),
    ],
)
def test_decoration_exponent_beyond_bound_exits_fast(tmp_path, capsys, coeff):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps([{"coeff": coeff, "a": 1, "b": 0}]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval-decoration", "--k1", "1", "--k2", "0", "--decoration", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == "" and "bound 4096" in err


def test_decoration_beyond_slot_bound_exits_fast(tmp_path, capsys):
    # 1,000 terms over 500 v-rows at s = +-4096 (31 KB) would pack 4 million slots.
    num = [{"v": v, "s": s, "c": 1} for v in range(500) for s in (-4096, 4096)]
    path = tmp_path / "dec.json"
    path.write_text(json.dumps([{"coeff": {"num": num, "den": []}, "a": 1, "b": 0}]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval-decoration", "--k1", "1", "--k2", "0", "--decoration", str(path))
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert out == "" and "bound 65536" in err


def test_decoration_beyond_file_slot_budget_exits_fast(tmp_path, capsys):
    # 40 terms, each numerator 7 v-rows at s = +-4096: 57,351 slots apiece.
    num = [{"v": v, "s": s, "c": 1} for v in range(7) for s in (-4096, 4096)]
    path = tmp_path / "dec.json"
    path.write_text(json.dumps([{"coeff": {"num": num, "den": []}, "a": a, "b": 0} for a in range(40)]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "eval-decoration", "--k1", "1", "--k2", "0", "--decoration", str(path))
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert out == "" and "bound 65536" in err


# -- oracle ----------------------------------------------------------------------

def test_oracle_family(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--family", "1,0,1,0")
    assert code == 0
    assert parse_scalar(out.strip()) == H_PLUS


def test_oracle_pd_file(tmp_path, capsys):
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps({"crossings": [], "arcs": 0, "loops": 1}))
    code, out, _ = run_cli(capsys, "oracle", "--pd", str(path))
    assert code == 0
    assert parse_scalar(out.strip()) == delta()


def test_oracle_matches_eval(capsys):
    code, out_oracle, _ = run_cli(capsys, "oracle", "--family", "1,1,1,1", "--format", "json")
    assert code == 0
    code, out_eval, _ = run_cli(
        capsys, "eval", "--k1", "1", "--k2", "1", "--n1", "1", "--n2", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out_oracle) == json.loads(out_eval)


@pytest.mark.parametrize("family", ["2,1,1,3", "1,2,3,1", "2,1,4,0", "1,0,6,1"])
def test_oracle_prints_the_bytes_eval_prints_on_ci_families(capsys, family):
    # The CI families past verify's default grid that take under a second
    # here; CI compares all eight with cmp.
    k1, k2, n1, n2 = family.split(",")
    code, out_oracle, _ = run_cli(capsys, "oracle", "--family", family, "--max-crossings", "40", "--format", "json")
    assert code == 0
    code, out_eval, _ = run_cli(capsys, "eval", "--k1", k1, "--k2", k2, "--n1", n1, "--n2", n2, "--format", "json")
    assert code == 0
    assert out_oracle == out_eval


def test_oracle_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "oracle", "--family", "2,1,1,2")
    assert code == 3
    assert "exceed" in err


def test_oracle_cap_override(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--family", "2,1,1,2", "--max-crossings", "18")
    assert code == 0
    assert parse_scalar(out.strip()) == homfly_general(HopfSpec(2, 1, 1, 2))


def test_oracle_malformed_family(capsys):
    for family in ("1,2", "1,1,1,1,1", "1,a,1,1", "1,,1,1"):
        code, out, err = run_cli(capsys, "oracle", "--family", family)
        assert (code, out) == (2, "")
        assert err == f"error: --family wants four integers K1,K2,N1,N2, got {family!r}\n"


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*argv):
    """`python -m hopflinks argv...` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "hopflinks", *argv], env=env, capture_output=True)


def test_python_m_reports_a_malformed_family():
    result = run_module("oracle", "--family", "1,a,1,1")
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == b"error: --family wants four integers K1,K2,N1,N2, got '1,a,1,1'\n"


def test_python_m_prints_what_main_prints(capsys):
    argv = ("eval", "--k1", "2", "--k2", "1", "--n1", "1", "--n2", "2", "--format", "json")
    result = run_module(*argv)
    code, out, _ = run_cli(capsys, *argv)
    assert (result.returncode, code) == (0, 0)
    assert result.stdout == out.encode()


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_python_m_ends_quietly_when_stdout_closes():
    # `hopflinks table --max-size 6 | head -n 1`: about 3 MB of rows meet a
    # closed pipe, and the process ends by SIGPIPE, as `cat` does.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen(
        [sys.executable, "-m", "hopflinks", "table", "--max-size", "6"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first.startswith(b'{"label":')
    assert (err, code) == (b"", -signal.SIGPIPE)


def test_oracle_malformed_pd(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"crossings": [{"id": 0, "sign": 1, "ends": [0, 1, 2, 3]}]}))
    code, _, _ = run_cli(capsys, "oracle", "--pd", str(path))
    assert code == 2


def test_oracle_free_loops_beyond_cap_exit_fast(tmp_path, capsys):
    # 100000 loops used to run for hours: each costs a product by delta.
    path = tmp_path / "loops.json"
    path.write_text(json.dumps({"crossings": [], "loops": 100000}))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "oracle", "--pd", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "100000 free loops exceed cap 16" in err


def test_oracle_pd_beyond_cap_traces_faces_once(tmp_path, capsys, monkeypatch):
    # Only reading the file validates it; the library call checks the cap
    # before it would validate the diagram a second time.
    path = tmp_path / "big.json"
    path.write_text(json.dumps(build_diagram(HopfSpec(3, 0, 6, 0)).to_json()))
    real = oracle_module._trace_faces
    traces = []  # the crossings of each traced diagram: its in-end map holds two arcs per crossing

    def tracing(in_end, out_end):
        traces.append(len(in_end) // 2)
        return real(in_end, out_end)

    monkeypatch.setattr(oracle_module, "_trace_faces", tracing)
    code, _, err = run_cli(capsys, "oracle", "--pd", str(path), "--max-crossings", "16")
    assert code == 3
    assert err == "error: 36 crossings exceed cap 16\n"
    assert traces == [36]


@pytest.mark.parametrize("family,message", [
    ("300,0,300,0", "180000 crossings exceed cap 16"),
    ("0,0,100000,0", "100000 free loops exceed cap 16"),
])
def test_oracle_oversized_family_exits_fast(capsys, family, message):
    # 300,0,300,0 used to build and validate all 180000 crossings first.
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "oracle", "--family", family)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("blob", [
    {"crossings": [{"id": 0, "sign": 1.9, "ends": [0, 1, 1, 0]}]},
    {"crossings": [{"id": 0, "sign": True, "ends": [0, 1, 1, 0]}]},
    {"crossings": [{"id": 0, "sign": 1, "ends": [0.5, 1, 1, 0]}]},
    {"crossings": [], "loops": 2.7},
    {"crossings": [], "loops": True},
])
def test_oracle_pd_non_integer_field_exits_2(tmp_path, capsys, blob):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, _, err = run_cli(capsys, "oracle", "--pd", str(path))
    assert code == 2
    assert "must be an integer" in err


@pytest.mark.parametrize("crossings,message", [
    ([{"sign": 1, "ends": [0, 1, 2, 3]}, {"sign": 1, "ends": [0, 3, 2, 1]}], "arc 0 enters two crossings"),
    ([{"sign": 1, "ends": [0, 1, 2, 3]}], "every arc needs one entering and one leaving end"),
    ([{"sign": 1, "ends": [0, 1, 0, 1]}], "rotation system is not planar"),
])
def test_oracle_pd_structurally_malformed_exits_2(tmp_path, capsys, crossings, message):
    # Arcs matched wrongly, or matched on a rotation system of genus one.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"crossings": crossings}))
    assert run_cli(capsys, "oracle", "--pd", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["oracle --pd", "eval-decoration --k1 1 --k2 0 --decoration"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run_cli(capsys, *command.split(), str(path))
    assert code == 2
    assert "error:" in err


# -- verify ------------------------------------------------------------------------

# sha256 of the stdout of `verify` with default flags (183 lines).
VERIFY_STDOUT_SHA256 = "4102500803da54e2f8748c7a3b2a06c3dabac045aa1078251a529d0cf56bdc54"


def test_verify_default_output_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert out.count("\n") == 183
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_STDOUT_SHA256


# sha256 of the stdout of `table --max-size 6` (900 lines).
TABLE_STDOUT_SHA256 = "b591450e4dfe4555ebaf819eb437a483aed94c8bfb99ba41d32a02f30aef05d5"


def test_table_default_grid_output_pinned(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-size", "6")
    assert code == 0
    assert out.count("\n") == 900
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_STDOUT_SHA256


def test_table_from_cold_caches_never_divides(capsys, monkeypatch):
    # The eigenvalues and plane evaluations a table prints are canonical
    # as built, so writing them screens no Phi_e(s^2).
    calls = []
    plain_div = LaurentPoly.exact_div_phi
    monkeypatch.setattr(LaurentPoly, "exact_div_phi", lambda p, d: calls.append(d) or plain_div(p, d))
    clear_caches()
    code, out, _ = run_cli(capsys, "table", "--max-size", "6")
    assert code == 0
    assert out.count("\n") == 900
    assert calls == []


def test_verify_small_grid_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-encircling", "1", "--max-core", "2")
    assert code == 0
    assert "FAIL" not in out
    assert "all checks passed" in out


def test_verify_degenerate_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-encircling", "0", "--max-core", "2")
    assert code == 0
    assert "PASS" in out


def test_verify_skips_over_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-encircling", "3", "--max-core", "3")
    assert code == 0
    assert "SKIP  H(2,1;1,2): 18 crossings exceed cap 16" in out


def test_verify_skips_free_loops_over_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-encircling", "0", "--max-core", "3", "--max-crossings", "2")
    assert code == 0
    assert "SKIP  H(0,0;1,2): 3 free loops exceed cap 2" in out
    assert "PASS  H(0,0;1,1): closed form matches oracle" in out


def test_verify_rejects_negative_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-crossings", "-1")
    assert code == 2
    assert "all checks passed" not in out
    assert "--max-crossings" in err


def test_verify_detects_injected_eigenvalue_error(capsys, monkeypatch):
    # The closed form reads its eigenvalue powers through `ccw_power`.  The
    # wrapper returns the powers (-t)^n of the negated eigenvalue of every
    # nonempty label and leaves the cache underneath intact.
    healthy = hopf_module.ccw_power

    def broken(label, n):
        value = healthy(label, n)
        if sum(label.neg) + sum(label.pos) > 0 and n % 2:
            return -value
        return value

    monkeypatch.setattr(hopf_module, "ccw_power", broken)
    code, out, _ = run_cli(capsys, "verify", "--max-encircling", "1", "--max-core", "1")
    assert code == 1
    assert "FAIL" in out


def test_verify_reports_a_closed_form_not_over_z_to_the_components(capsys, monkeypatch):
    # Doubling the powers of one label's eigenvalue leaves the Phi_2(s^2)
    # of its hook lengths undivided: the sum over the (2, 0) core is no
    # longer over z^c, and the division that stores it fails.  H(2,0;2,0)
    # sums that core against the oracle, and H(1,0;2,0)'s symmetry class
    # sums it too; each gets a FAIL line, and verify ends with exit 1.
    healthy = hopf_module.ccw_power

    def broken(label, n):
        value = healthy(label, n)
        return value * 2 if label == BasisLabel((), (2,)) else value

    monkeypatch.setattr(hopf_module, "ccw_power", broken)
    code, out, _ = run_cli(capsys, "verify", "--max-encircling", "2", "--max-core", "2")
    assert code == 1
    off = "not over z^{}: no exact quotient by Phi_d(s^2)^m for (d, m) in ((2, 1),)\n"
    assert "FAIL  H(2,0;2,0): closed form " + off.format(4) in out
    assert "FAIL  H(1,0;2,0): symmetry identities: closed form " + off.format(3) in out
    assert "PASS  H(1,0;1,0): closed form matches oracle\n" in out


def test_verify_reports_eigenvalue_collisions(capsys, monkeypatch):
    # With every clockwise eigenvalue equal, both distinctness checks fail.
    monkeypatch.setattr(cli, "cw_eigenvalue", lambda label: delta())
    code, out, _ = run_cli(capsys, "verify", "--max-encircling", "0", "--max-core", "0")
    assert code == 1
    assert "FAIL  eigenvalue collision among single shapes of size <= 8\n" in out
    assert "FAIL  eigenvalue collision among shape pairs of size <= 8\n" in out


def test_verify_reports_failed_symmetry_identities(capsys, monkeypatch):
    # Break the sum of H(0,1;0,0) alone: the grid's closed-form checks never
    # sum it, and each core's symmetry line names the identities it breaks.
    healthy = hopf_module._core_sum

    def broken(spec):
        value = healthy(spec)
        return value + 1 if spec == HopfSpec(0, 1, 0, 0) else value

    monkeypatch.setattr(hopf_module, "_core_sum", broken)
    code, out, _ = run_cli(capsys, "verify", "--max-encircling", "0", "--max-core", "1")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  H(0,0;0,1): symmetry identities failed: P(H(0,1;0,0)), mirror P(H(0,1;0,0))",
        "FAIL  H(0,0;1,0): symmetry identities failed: P(H(0,1;0,0)), mirror P(H(0,1;0,0))",
    ]
    assert "PASS  H(0,0;0,0): equivalent-link symmetries\n" in out
    assert out.endswith("2 check(s) failed\n")


# -- table --------------------------------------------------------------------------

def test_table_smallest(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-size", "0")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 1
    assert rows[0]["label"] == {"neg": [], "pos": []}
    assert SkeinScalar.from_json(rows[0]["t"]) == delta()


def test_table_single_box_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-size", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4
    by_label = {(tuple(r["label"]["neg"]), tuple(r["label"]["pos"])): r for r in rows}
    row = by_label[((1,), ())]
    expected_t = SkeinScalar(
        LaurentPoly.term(-1, v=1) * LaurentPoly({(0, 1): 1, (0, -1): -1})
    ) + delta()
    assert SkeinScalar.from_json(row["t"]) == expected_t


def test_table_contains_worked_example_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-size", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    by_label = {(tuple(r["label"]["neg"]), tuple(r["label"]["pos"])): r for r in rows}
    row = by_label[((2,), (1,))]
    from hopflinks.meridian import ccw_eigenvalue, cw_eigenvalue

    lab = BasisLabel((2,), (1,))
    assert SkeinScalar.from_json(row["t"]) == ccw_eigenvalue(lab)
    assert SkeinScalar.from_json(row["tbar"]) == cw_eigenvalue(lab)


def test_table_requires_max_size(capsys):
    code, _, _ = run_cli(capsys, "table")
    assert code == 2


# -- output invariants -----------------------------------------------------------------

def test_json_output_reparses_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--k1", "2", "--k2", "0", "--n1", "2", "--n2", "1", "--format", "json"
    )
    assert code == 0
    value = SkeinScalar.from_json(json.loads(out))
    assert render_scalar(value, "json") + "\n" == out


def test_plain_and_latex_parse_to_same_value(capsys):
    args = ["--k1", "1", "--k2", "2", "--n1", "2", "--n2", "0"]
    _, plain, _ = run_cli(capsys, "eval", *args)
    _, latex, _ = run_cli(capsys, "eval", *args, "--format", "latex")
    _, blob, _ = run_cli(capsys, "eval", *args, "--format", "json")
    target = json.loads(blob)
    assert parse_scalar(plain.strip()).to_json() == target
    assert parse_scalar(latex.strip()).to_json() == target


# -- console script ------------------------------------------------------------------

def test_console_script_runs_main(capsys, monkeypatch):
    # The [project.scripts] target, read as text: tomllib is missing on 3.10.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    module, attr = re.search(r'^hopflinks\s*=\s*"([\w.]+):(\w+)"', scripts, re.M).groups()
    script = getattr(importlib.import_module(module), attr)
    argv = ["eval", "--k1", "1", "--k2", "0", "--n1", "1", "--n2", "0"]
    _, expected, _ = run_cli(capsys, *argv)
    for args, code, out in [(argv, 0, expected), (["eval", "--no-such-flag"], 2, "")]:
        monkeypatch.setattr(sys, "argv", ["hopflinks", *args])
        with pytest.raises(SystemExit) as exc:
            script()
        assert exc.value.code == code
        assert capsys.readouterr().out == out
