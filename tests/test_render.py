import hashlib
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from hopflinks import ring
from hopflinks.cli import main
from hopflinks.hopf import HopfSpec, homfly_general
from hopflinks.render import parse_scalar, render_scalar
from hopflinks.ring import LaurentPoly, SkeinScalar, delta
from ring_tools import reference_format

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


# sha256 of the bytes below, re-taken once when scalars got one canonical
# form (was ce85e205..., the greedy-cancellation bytes); the values are
# held by PINNED_VALUE_SHA256.
PINNED_OUTPUT_SHA256 = "338a9c19a11d2d06490651a0362de521eca03b805fb5c273c85feed19efb150b"


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


# sha256 of the plain and LaTeX renderings of the same H(k1,k2;n1,n2) and of
# their negations (whose numerators lead with a minus sign), one line each,
# taken while `format` still read each slot on its own.
PINNED_NOTATION_SHA256 = {
    "plain": "f1bfcbc546db968c7707aeb82c9c696d136817cf5df8a6f4520968b7e1f3a832",
    "latex": "e0a5db4fa108b5f1c9c4356ed1bf4b07b39d8556ec8325c2f5908bc0f9c3708c",
}


@pytest.mark.parametrize("fmt", sorted(PINNED_NOTATION_SHA256))
def test_notation_output_bytes_pinned(fmt):
    digest = hashlib.sha256()
    for k1 in range(4):
        for k2 in range(4 - k1):
            for n1 in range(6):
                for n2 in range(6 - n1):
                    value = homfly_general(HopfSpec(k1, k2, n1, n2))
                    for x in (value, -value):
                        digest.update(render_scalar(x, fmt).encode() + b"\n")
    assert digest.hexdigest() == PINNED_NOTATION_SHA256[fmt]


def _bench_fingerprint():
    path = Path(__file__).resolve().parents[1] / "bench" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("bench_fingerprint", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of the value residues below, taken before scalars had one canonical form.
PINNED_VALUE_SHA256 = "f0749d35f2488daf179fa309d4f649847871f66b43a2ecd4e43c0b52efe03315"


def test_canonical_output_values_pinned(capsys):
    # The output set of test_canonical_output_bytes_pinned, read as ring
    # values: each scalar's residue at the fixed point of bench/fingerprint.py,
    # so any representative of the same value gives the same digest.
    scalar_json = _bench_fingerprint().scalar_json
    digest = hashlib.sha256()
    for k1 in range(4):
        for k2 in range(4 - k1):
            for n1 in range(6):
                for n2 in range(6 - n1):
                    value = homfly_general(HopfSpec(k1, k2, n1, n2))
                    digest.update(f"{scalar_json(json.loads(render_scalar(value, 'json')))}\n".encode())
    capsys.readouterr()
    assert main(["table", "--max-size", "3"]) == 0
    for line in capsys.readouterr().out.splitlines():
        row = json.loads(line)
        residues = [scalar_json(row[name]) for name in ("t", "tbar", "evalQ")]
        digest.update(f"{row['label']} {residues}\n".encode())
    assert digest.hexdigest() == PINNED_VALUE_SHA256


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


def test_parse_term_bound():
    # Powers and products whose exponent box holds more than MAX_EXPONENT
    # terms are refused before they are computed; each of these exponents
    # and coefficients is inside the other bounds.
    assert len(parse_scalar("(1+s+v)^63").num.terms()) == 2080
    assert parse_scalar("(1+s+v)" * 63) == parse_scalar("(1+s+v)^63")
    for text in ["(1+s+v)^4096", "(1+s+v)^300", "(1+s+v)^64", "(1+s+v)" * 64, "(1+s+v)" * 300,
                 "(1 + s^4096)(1 + v^4096)", "(1 + s^2048) * (1 + s^2048)"]:
        with pytest.raises(ValueError, match="term bound 4096"):
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


@pytest.mark.parametrize("value", [
    LaurentPoly.zero(), SkeinScalar.zero(), SkeinScalar(7), LaurentPoly.term(7),
    LaurentPoly({(1, 2): 3, (0, -1): -1}), delta(),
])
def test_unknown_style_rejected_for_every_value(value):
    # Zero is checked like every other value, by both `format`s and by
    # render_scalar.
    with pytest.raises(ValueError, match="unknown output format 'yaml'"):
        value.format("yaml")
    if isinstance(value, SkeinScalar):
        with pytest.raises(ValueError, match="unknown output format 'yaml'"):
            render_scalar(value, "yaml")


@given(scalars)
def test_plain_round_trip(x):
    assert parse_scalar(render_scalar(x, "plain")).to_json() == x.to_json()


@given(scalars)
def test_latex_round_trip(x):
    assert parse_scalar(render_scalar(x, "latex")).to_json() == x.to_json()


@given(scalars, st.lists(st.integers(1, 5), max_size=3), st.sampled_from(["plain", "latex"]))
def test_round_trip_keeps_the_form_of_a_binomial_multiple(x, ks, style):
    # x written over extra binomials reads back to x's own bytes and hash.
    product = LaurentPoly.one()
    for k in ks:
        product = product * LaurentPoly({(0, k): 1, (0, -k): -1})
    wide = SkeinScalar(x.num * product, list(x.den) + [(k, 1) for k in ks])
    again = parse_scalar(render_scalar(wide, style))
    assert again.to_json() == x.to_json() == wide.to_json()
    assert hash(again) == hash(x)


def test_round_trip_on_pipeline_output():
    value = homfly_general(HopfSpec(2, 1, 1, 2))
    blob = render_scalar(value, "json")
    assert json.loads(blob) == value.to_json()
    assert parse_scalar(render_scalar(value, "plain")).to_json() == value.to_json()
    assert parse_scalar(render_scalar(value, "latex")).to_json() == value.to_json()


# -- the row writers against the term-by-term renderings ------------------------

# Coefficients from 2^31 up put a polynomial in slots wider than the base
# width, where `_decode` reads every row through `_unpack`; v in -3..3 and s in
# -4..4 reach ev = +-1, es = +-1 and v-rows holding both s-parities.
text_coeffs = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**47, -(2**47), 2**47 - 1, 2**95, -(10**30)]),
    st.integers(-(2**100), 2**100),
)
constants = st.integers(-3, 3) | st.sampled_from([2**47, -(2**60)])
text_polys = st.one_of(
    st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), text_coeffs, max_size=8),
    constants.map(lambda c: {(0, 0): c}),  # zero, +-1 and other constants
).map(LaurentPoly)
dens = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)), max_size=3)

# Cases each property must see whatever hypothesis draws: zero, the
# constants +-1 and 7, a slot twice the base width, v^+-1 and s^+-1 with both s-parities
# in one v-row, and unit coefficients beside and away from the factors.
TEXT_EXAMPLES = [
    {},
    {(0, 0): 1},
    {(0, 0): -1},
    {(0, 0): 7},
    {(0, 0): -(2**47)},
    {(1, 1): 1, (1, 0): -1, (1, -1): 2**47, (-1, 1): -1, (-1, -2): 3, (0, 1): 1, (0, -1): -5},
    {(-1, 0): 1, (1, 0): -1, (2, 3): -2, (2, 4): 1},
]


def with_text_examples(*extra):
    """Run a test on each of TEXT_EXAMPLES, with `extra` as its further arguments."""
    def decorate(test):
        for terms in TEXT_EXAMPLES:
            test = example(LaurentPoly(terms), *extra)(test)
        return test
    return decorate


@with_text_examples([(1, 1), (3, 2)])
@given(text_polys, dens)
def test_json_writer_matches_json_dumps_of_to_json(p, den):
    assert p.json_text() == json.dumps(p.to_json(), separators=(",", ":"))
    x = SkeinScalar(p, den)
    assert render_scalar(x, "json") == json.dumps(x.to_json(), separators=(",", ":"))


@with_text_examples()
@given(text_polys)
def test_row_formatter_matches_the_term_by_term_reference(p):
    for style in ("plain", "latex"):
        assert p.format(style) == reference_format(p, style)
        assert (-p).format(style) == reference_format(-p, style)


def test_text_examples_reach_wide_slots_and_mixed_parity_rows():
    # The fixed cases above hold what the strategies must reach.
    polys = [LaurentPoly(terms) for terms in TEXT_EXAMPLES]
    assert any(p._w == 2 * ring._BASE_WIDTH for p in polys)
    assert any(step == 1 for p in polys for _, _, step, _ in p._decoded())
    assert any({-1, 1} <= {ev for ev, _, _ in p.terms()} for p in polys)
    assert any({-1, 1} <= {es for _, es, _ in p.terms()} for p in polys)


# sha256 of the JSON, LaTeX and plain renderings of H(k1,k2;n1,n2) for
# k1+k2 <= 4, n1+n2 <= 8, one line each, taken while every rendering was
# still put together term by term.
PINNED_GRID_SHA256 = {
    "json": "9417b821f64a229335b656a1af15aaa5a05b1d45672b7bf40809acb6ff3c3a79",
    "latex": "b2706e6f87126142034078f7a6fc3c2bba0f7af64fa4c59b4578f3dc6290767c",
    "plain": "4cd4c13abadcd7b140090fa4ddf2ca761be37fd4267de0afb6ede2b904bca5cb",
}


def test_renderings_of_the_675_spec_grid():
    digests = {fmt: hashlib.sha256() for fmt in PINNED_GRID_SHA256}
    specs = 0
    for k1 in range(5):
        for k2 in range(5 - k1):
            for n1 in range(9):
                for n2 in range(9 - n1):
                    value = homfly_general(HopfSpec(k1, k2, n1, n2))
                    specs += 1
                    text = render_scalar(value, "json")
                    assert text == json.dumps(value.to_json(), separators=(",", ":"))
                    for style in ("plain", "latex"):
                        assert value.num.format(style) == reference_format(value.num, style)
                    for fmt, digest in digests.items():
                        digest.update((text if fmt == "json" else render_scalar(value, fmt)).encode() + b"\n")
    assert specs == 675
    assert {fmt: digest.hexdigest() for fmt, digest in digests.items()} == PINNED_GRID_SHA256


def test_sum_calls_add_a_constant_number_of_times(monkeypatch):
    # A sum is built once from its summands, not by one `+` per summand.
    calls = []
    add = LaurentPoly.__add__
    monkeypatch.setattr(LaurentPoly, "__add__", lambda self, other: calls.append(1) or add(self, other))

    def adds(rows):
        calls.clear()
        value = parse_scalar(" + ".join(f"v^{v}" for v in range(-4096, -4096 + rows)))
        assert len(value.num.terms()) == rows
        return len(calls)

    assert adds(8000) == adds(2)


def test_latex_exponent_braces_delimit_the_exponent():
    assert parse_scalar("s^{2}2") == parse_scalar("2*s^2")
    assert parse_scalar("v^{-3} s^{12}") == parse_scalar("v^-3*s^12")
    # The braces hold the exponent alone, as the renderer writes it.
    for text in ["s^{ 2}", "s^ {2}", "s^{2 }", "s^{+2}", "s^{{2}}", "{s}"]:
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_frac_is_the_whole_scalar():
    assert parse_scalar("\\frac{1}{(s - s^{-1})}") == parse_scalar("1 / ((s - s^-1))")
    for text in [
        "-\\frac{1}{(s - s^{-1})}",
        "2 \\frac{1}{(s - s^{-1})}",
        "\\frac{1}{(s - s^{-1})} + 1",
        "(\\frac{1}{(s - s^{-1})})",
        "\\frac {1}{(s - s^{-1})}",
        "\\frac{1} {(s - s^{-1})}",
        "\\frac{1}{(s - s^{-1})}{2}",
        "\\frac{1}{2}",
        "\\frac{1}",
    ]:
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_product_bounds_are_checked_before_multiplying(monkeypatch):
    calls = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    for text, bound in [("s^4096 * s", "exponent"), ("v^-4000 v^-97", "exponent"),
                        ("(1 + s^2048) * (1 + s^2048)", "term"), ("(1 + s^4096)(1 + v^4096)", "term")]:
        with pytest.raises(ValueError, match=f"^product exceeds the {bound} bound 4096$"):
            parse_scalar(text)
    assert calls == []


def test_both_readers_share_the_denominator_degree_message():
    readers = [
        lambda: parse_scalar("1 / ((s^2 - s^-2)^2049)"),
        lambda: parse_scalar("\\frac{1}{(s^{2} - s^{-2})^{2049}}"),
        lambda: SkeinScalar.from_json({"num": [{"v": 0, "s": 0, "c": 1}], "den": [{"k": 2, "mult": 2049}]}),
    ]
    for read in readers:
        with pytest.raises(ValueError, match="^denominator degree exceeds the bound 4096$"):
            read()
