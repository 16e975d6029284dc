"""The outputs CI pins, checked in process.

Each entry of tests/pins.json is an argv of `hopflinks`, the sha256 of its
stdout, a timeout and a note.  CI runs every argv through the installed
script; here `cli.main` runs it, from the repository root, where the
argv's paths are relative.
"""

import hashlib
import json
from pathlib import Path

import pytest

import hopflinks.cli as cli
from test_hopf import clear_caches

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "tests" / "pins.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def _drop_caches_after():
    # The pins share their caches; `eval --k1 200` alone fills ~150 MiB of them.
    yield
    clear_caches()


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: " ".join(pin["argv"]))
def test_pinned_output(pin, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(list(pin["argv"]))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == pin["sha256"], pin["note"]


def test_pins_are_distinct_and_complete():
    # CI reads each entry's argv, timeout and sha256.
    argvs = [tuple(pin["argv"]) for pin in PINS]
    assert len(argvs) == len(set(argvs))
    assert all(set(pin) == {"note", "argv", "timeout", "sha256"} for pin in PINS)
