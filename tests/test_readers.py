"""The readers of outside input raise only ValueError (MalformedDiagramError
for diagrams), whatever shape the input has."""

import time

import pytest
from hypothesis import given, strategies as st

from hopflinks.hopf import Decoration
from hopflinks.oracle import MalformedDiagramError, PlanarDiagram
from hopflinks.render import parse_scalar
from hopflinks.ring import MAX_EXPONENT, MAX_SLOTS, LaurentPoly, SkeinScalar

KEYS = ["crossings", "sign", "ends", "loops", "id", "num", "den", "v", "s", "c", "k", "mult", "coeff", "a", "b"]

json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(allow_nan=False), st.text(max_size=3)
)
json_values = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=25,
)
small_ints = st.integers(-2, 6)
terms = st.fixed_dictionaries({"v": small_ints, "s": small_ints, "c": small_ints}) | json_values
scalar_blobs = st.fixed_dictionaries({
    "num": st.lists(terms, max_size=3) | json_values,
    "den": st.lists(st.fixed_dictionaries({"k": small_ints, "mult": small_ints}) | json_values, max_size=2)
    | json_values,
})
decoration_blobs = st.lists(
    st.fixed_dictionaries({"coeff": scalar_blobs | json_values, "a": small_ints | json_values, "b": small_ints}),
    max_size=3,
)
diagram_blobs = st.fixed_dictionaries(
    {"crossings": st.lists(
        st.fixed_dictionaries({"sign": st.sampled_from([1, -1]) | json_values,
                               "ends": st.lists(small_ints | json_values, max_size=5) | json_values}),
        max_size=3,
    )},
    optional={"loops": small_ints | json_values},
)


@given(diagram_blobs | json_values)
def test_diagram_json_fuzz(blob):
    try:
        PlanarDiagram.from_json(blob)
    except MalformedDiagramError:
        pass


@given(decoration_blobs | json_values)
def test_decoration_json_fuzz(blob):
    try:
        Decoration.from_json(blob)
    except ValueError:
        pass


@given(scalar_blobs | json_values)
def test_scalar_json_fuzz(blob):
    try:
        SkeinScalar.from_json(blob)
    except ValueError:
        pass


@pytest.mark.parametrize("blob", [[[1]], 5, {}, "ab", [{"coeff": {}, "a": 1, "b": 0}], [{"a": 1, "b": 0}]])
def test_decoration_shape_errors_are_value_errors(blob):
    with pytest.raises(ValueError):
        Decoration.from_json(blob)


@pytest.mark.parametrize("blob", [{}, [], 5, {"num": 5, "den": []}, {"num": [], "den": {}}, {"num": [[1]], "den": []}])
def test_scalar_shape_errors_are_value_errors(blob):
    with pytest.raises(ValueError):
        SkeinScalar.from_json(blob)


TOKENS = ["v", "s", "^", "-", "+", "*", "/", "(", ")", " ", "1", "2", "4096", "4097", "\\frac", "{", "}", "^{-2}"]


@given(st.lists(st.sampled_from(TOKENS), max_size=30).map("".join) | st.text(max_size=20))
def test_parse_scalar_fuzz(text):
    try:
        parse_scalar(text)
    except ValueError:
        pass


def test_parse_scalar_bounds_nesting():
    assert parse_scalar("(" * 100 + "s" + ")" * 100) == parse_scalar("s")
    for depth in (101, 3000):
        with pytest.raises(ValueError):
            parse_scalar("(" * depth + "1" + ")" * depth)


def test_parse_scalar_bounds_juxtaposed_products():
    edge = f"s^{MAX_EXPONENT} v^-{MAX_EXPONENT} * 7"
    assert parse_scalar(edge).num.terms() == [(-MAX_EXPONENT, MAX_EXPONENT, 7)]
    for text in ("(1+s^4096)(1+s^4096)(1+s^4096)", "s^4096 s", "(1 + s^4096)(1 - s^4096)", "v^-4000 * v^-97"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def sparse_terms(rows: int) -> list[dict]:
    """Two terms per v-row at s = -4096 and 4096: 8,193 packed slots per row."""
    return [{"v": v, "s": s, "c": 1} for v in range(rows) for s in (-MAX_EXPONENT, MAX_EXPONENT)]


def test_slot_bound_refuses_sparse_json_fast():
    terms = sparse_terms(500)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"bound {MAX_SLOTS}"):
        LaurentPoly.from_json(terms)
    with pytest.raises(ValueError, match=f"bound {MAX_SLOTS}"):
        SkeinScalar.from_json({"num": terms, "den": []})
    assert time.perf_counter() - start < 0.1


def test_slot_bound_edge():
    # 8 rows of 8,193 slots pass 2^16; 7 rows, or 8 rows whose ends cancel, do not.
    assert len(LaurentPoly.from_json(sparse_terms(7)).terms()) == 14
    cancelled = sparse_terms(8) + [{"v": 7, "s": MAX_EXPONENT, "c": -1}]
    assert len(LaurentPoly.from_json(cancelled).terms()) == 15
    with pytest.raises(ValueError):
        LaurentPoly.from_json(sparse_terms(8))


def test_slot_bound_refuses_sparse_sums_fast():
    text = " + ".join(f"v^{v}*s^{s}" for v in range(500) for s in (-MAX_EXPONENT, MAX_EXPONENT))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"bound {MAX_SLOTS}"):
        parse_scalar(text)
    assert time.perf_counter() - start < 0.1
    # Within the bound the same shape parses.
    seven = " + ".join(f"v^{v}*s^{s}" for v in range(7) for s in (-MAX_EXPONENT, MAX_EXPONENT))
    assert len(parse_scalar(seven).num.terms()) == 14


def one_row_coeff(lo: int, hi: int) -> dict:
    """A coefficient whose numerator packs the s-span lo..hi in one row."""
    return {"num": [{"v": 0, "s": lo, "c": 1}, {"v": 0, "s": hi, "c": 1}], "den": []}


def test_decoration_slot_budget_refuses_many_terms_fast():
    # 40 terms whose numerators each pack 57,351 slots: every one is inside
    # MAX_SLOTS, the file is not.
    blob = [{"coeff": {"num": sparse_terms(7), "den": []}, "a": a, "b": 0} for a in range(40)]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"bound {MAX_SLOTS}"):
        Decoration.from_json(blob)
    assert time.perf_counter() - start < 0.1


def test_decoration_slot_budget_edge():
    # Seven rows of 8,193 slots and one of 8,185 pack exactly 2^16 slots.
    blob = [{"coeff": one_row_coeff(-MAX_EXPONENT, MAX_EXPONENT), "a": a, "b": 0} for a in range(7)]
    inside = blob + [{"coeff": one_row_coeff(-4092, 4092), "a": 7, "b": 0}]
    assert len(Decoration.from_json(inside).terms) == 8
    with pytest.raises(ValueError, match=f"packs {MAX_SLOTS + 1} slots"):
        Decoration.from_json(blob + [{"coeff": one_row_coeff(-4092, 4093), "a": 7, "b": 0}])
