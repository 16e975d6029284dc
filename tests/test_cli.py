import json

import pytest

import hopflinks.cli as cli
import hopflinks.hopf as hopf_module
from hopflinks.hopf import HopfSpec, homfly_general
from hopflinks.oracle import build_diagram
from hopflinks.render import parse_scalar, render_scalar
from hopflinks.ring import LaurentPoly, SkeinScalar, delta


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


def test_oracle_cap_exceeded(capsys):
    code, _, err = run_cli(capsys, "oracle", "--family", "2,1,1,2")
    assert code == 3
    assert "exceed" in err


def test_oracle_cap_override(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--family", "2,1,1,2", "--max-crossings", "18")
    assert code == 0
    assert parse_scalar(out.strip()) == homfly_general(HopfSpec(2, 1, 1, 2))


def test_oracle_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HOPF_MAX_CROSSINGS", "18")
    code, _, _ = run_cli(capsys, "oracle", "--family", "2,1,1,2")
    assert code == 0


def test_oracle_malformed_family(capsys):
    code, _, _ = run_cli(capsys, "oracle", "--family", "1,2")
    assert code == 2


def test_oracle_malformed_pd(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"crossings": [{"id": 0, "sign": 1, "ends": [0, 1, 2, 3]}]}))
    code, _, _ = run_cli(capsys, "oracle", "--pd", str(path))
    assert code == 2


# -- verify ------------------------------------------------------------------------

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


def test_verify_rejects_negative_cap(capsys):
    code, out, err = run_cli(capsys, "verify", "--max-crossings", "-1")
    assert code == 2
    assert "all checks passed" not in out
    assert "--max-crossings" in err


@pytest.mark.parametrize("env", ["-3", "abc"])
def test_verify_rejects_bad_cap_env_var(capsys, monkeypatch, env):
    monkeypatch.setenv("HOPF_MAX_CROSSINGS", env)
    code, out, err = run_cli(capsys, "verify")
    assert code == 2
    assert out == ""
    assert err.startswith("error: HOPF_MAX_CROSSINGS")


def test_verify_detects_injected_eigenvalue_error(capsys, monkeypatch):
    healthy = hopf_module.ccw_eigenvalue

    def broken(label):
        value = healthy(label)
        if sum(label.neg) + sum(label.pos) > 0:
            return -value
        return value

    monkeypatch.setattr(hopf_module, "ccw_eigenvalue", broken)
    code, out, _ = run_cli(capsys, "verify", "--max-encircling", "1", "--max-core", "1")
    assert code == 1
    assert "FAIL" in out


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
    from hopflinks.partitions import BasisLabel

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
