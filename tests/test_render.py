import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from hopflinks.cli import main
from hopflinks.hopf import HopfSpec, homfly_general
from hopflinks.render import parse_scalar, render_scalar
from hopflinks.ring import LaurentPoly, SkeinScalar, delta

exponents = st.integers(min_value=-3, max_value=3)
polys = st.dictionaries(
    st.tuples(exponents, exponents), st.integers(-5, 5), max_size=4
).map(LaurentPoly)
scalars = st.builds(
    SkeinScalar, polys, st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), max_size=2)
)


def test_plain_rendering_examples():
    assert render_scalar(SkeinScalar.zero()) == "0"
    assert render_scalar(SkeinScalar(7)) == "7"
    assert render_scalar(delta()) == "(v^-1 - v) / ((s - s^-1))"
    assert render_scalar(delta() ** 2) == "(v^-2 - 2 + v^2) / ((s - s^-1)^2)"


def test_latex_rendering_examples():
    assert render_scalar(delta(), "latex") == "\\frac{v^{-1} - v}{(s - s^{-1})}"
    assert render_scalar(SkeinScalar.zero(), "latex") == "0"
    assert "\\frac" in render_scalar(delta() ** 2, "latex")


def test_exact_notation_bytes():
    # The parser accepts either notation, so the round trips below cannot
    # pin a joiner or a brace; these exact strings do.
    num = LaurentPoly({(-1, 2): -1, (0, -1): 3, (0, 0): -2, (1, 0): 1})
    cases = [
        (
            SkeinScalar(num, [(1, 2), (3, 1)]),
            "(-v^-1*s^2 + 3*s^-1 - 2 + v) / ((s - s^-1)^2 * (s^3 - s^-3))",
            "\\frac{-v^{-1} s^{2} + 3 s^{-1} - 2 + v}{(s - s^{-1})^{2} (s^{3} - s^{-3})}",
        ),
        (SkeinScalar.zero(), "0", "0"),
        (SkeinScalar(-7), "-7", "-7"),
        (
            SkeinScalar(LaurentPoly({(-2, 0): 1, (0, 0): -1, (1, -3): 2})),
            "v^-2 - 1 + 2*v*s^-3",
            "v^{-2} - 1 + 2 v s^{-3}",
        ),
    ]
    for value, plain, latex in cases:
        assert render_scalar(value, "plain") == plain == str(value)
        assert render_scalar(value, "latex") == latex


# sha256 of the bytes below, taken before LaurentPoly stored packed rows.
PINNED_OUTPUT_SHA256 = "ce85e205b10bca0524c4ff39de960116cc1e5b645803751691bcefec7c91c275"


def test_canonical_output_bytes_pinned(capsys):
    # Canonical JSON of H(k1,k2;n1,n2) for k1+k2 <= 3, n1+n2 <= 5, one line
    # each, then the rows of `table --max-size 3`.
    digest = hashlib.sha256()
    for k1 in range(4):
        for k2 in range(4 - k1):
            for n1 in range(6):
                for n2 in range(6 - n1):
                    value = homfly_general(HopfSpec(k1, k2, n1, n2))
                    digest.update(render_scalar(value, "json").encode() + b"\n")
    capsys.readouterr()
    assert main(["table", "--max-size", "3"]) == 0
    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PINNED_OUTPUT_SHA256


def test_parse_plain_basics():
    assert parse_scalar("0") == SkeinScalar.zero()
    assert parse_scalar("1") == SkeinScalar.one()
    assert parse_scalar("v^-1 - v") == SkeinScalar(
        LaurentPoly.term(1, v=-1) - LaurentPoly.term(1, v=1)
    )
    assert parse_scalar("(v^-1 - v) / ((s - s^-1))") == delta()
    assert parse_scalar("2*v^-1*s^3") == SkeinScalar(LaurentPoly.term(2, v=-1, s=3))


def test_parse_rejects_garbage():
    for text in ["v^", "(v", "v / (w - 1)", "1 / ((s - s^-2))", "1 @ 2"]:
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_parse_exponent_bound():
    assert parse_scalar("s^4096 - v^-4096") == SkeinScalar(
        LaurentPoly.term(1, s=4096) - LaurentPoly.term(1, v=-4096)
    )
    assert parse_scalar("1 / ((s^2 - s^-2)^2048)").den == ((2, 2048),)
    for text in [
        "s^4097",
        "v^-4097",
        "(s + 1)^4097",
        "(s^100 + 1)^41",  # exponents of the power reach 4100
        "((2)^2048)^3",  # coefficient bits of the power reach 6147
        "1 / ((s^2 - s^-2)^2049)",
    ]:
        with pytest.raises(ValueError, match="bound 4096"):
            parse_scalar(text)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_scalar(delta(), "yaml")


@given(scalars)
def test_plain_round_trip(x):
    assert parse_scalar(render_scalar(x, "plain")).to_json() == x.to_json()


@given(scalars)
def test_latex_round_trip(x):
    assert parse_scalar(render_scalar(x, "latex")).to_json() == x.to_json()


def test_round_trip_on_pipeline_output():
    value = homfly_general(HopfSpec(2, 1, 1, 2))
    blob = render_scalar(value, "json")
    assert json.loads(blob) == value.to_json()
    assert parse_scalar(render_scalar(value, "plain")).to_json() == value.to_json()
    assert parse_scalar(render_scalar(value, "latex")).to_json() == value.to_json()
