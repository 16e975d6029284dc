"""Text renderings of scalars (plain, LaTeX, canonical JSON) and a
parser that reads the plain and LaTeX forms back.

The plain and LaTeX notations are written by `SkeinScalar.format` and the
numerator's JSON text by `LaurentPoly.json_text`, both straight from the
packed rows; this module puts the JSON numerator and denominator
together, dispatches on the format, and holds the parser.  The JSON
bytes are those of `json.dumps(x.to_json(), separators=(",", ":"))`.
The three renderings describe the same canonical value: terms sorted by
(v-exponent, s-exponent), denominator factors sorted by k.  Parsing a
rendering therefore reproduces the canonical JSON exactly.

One recursive-descent grammar reads both notations.  The tokenizer turns
the LaTeX exponent `^{n}` into the plain `^n` and keeps `\\frac{`, `}{` and
`}` as tokens, so `\\frac{num}{den}`, which is only ever the whole scalar,
and `num / (den)` share one denominator loop.  A sum adds its summands
once, at its end, so it is linear in its length.  The least and greatest
exponents of a product or power follow from its factors' (leading rows
multiply to a nonzero row), so the exponent and term bounds are checked
before anything is multiplied.
"""

from __future__ import annotations

import re

from .ring import MAX_EXPONENT, LaurentPoly, SkeinScalar, check_degree, check_slots

__all__ = ["FORMATS", "render_scalar", "parse_scalar"]

FORMATS = ("plain", "json", "latex")


def render_scalar(x: SkeinScalar, fmt: str = "plain") -> str:
    """`x` in one of FORMATS; ValueError for any other format."""
    if fmt == "json":
        den = ",".join(f'{{"k":{k},"mult":{mult}}}' for k, mult in x.den)
        return f'{{"num":{x.num.json_text()},"den":[{den}]}}'
    return x.format(fmt)


# ---------------------------------------------------------------------------
# parsing


# A LaTeX exponent ^{n} or ^{-n} with no space inside the braces (sign and
# digits in groups 1 and 2), or one token (group 3).
_TOKEN = re.compile(r"\s*(?:\^\{(-?)(\d+)\}|(\d+|[vs]|\\frac\{|\}\{?|[-+*/^()]))")

# Deepest nesting of parenthesized groups.  Renderings nest one deep; the
# bound keeps the recursive parser well inside Python's recursion limit.
_MAX_DEPTH = 100


def _extremes(p: LaurentPoly) -> tuple[int, int, int, int]:
    """Least and greatest v-exponent, then s-exponent, of p's terms; all 0 for zero."""
    rows = p.spans()
    if not rows:
        return 0, 0, 0, 0
    return min(rows), max(rows), min(lo for lo, _ in rows.values()), max(hi for _, hi in rows.values())


def _check_box(extremes: list[int], what: str) -> None:
    """Refuse a result whose exponent box, given by its extremes, holds more than MAX_EXPONENT terms."""
    v_lo, v_hi, s_lo, s_hi = extremes
    if (v_hi - v_lo + 1) * (s_hi - s_lo + 1) > MAX_EXPONENT:
        raise ValueError(f"{what} exceeds the term bound {MAX_EXPONENT}")


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected or 'a token'}, found {tok!r}")
        self.pos += 1
        return tok

    def group(self, opening: str, closing: str) -> LaurentPoly:
        """The sum between the two tokens, one nesting level deeper."""
        self.take(opening)
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ValueError(f"groups nest deeper than {_MAX_DEPTH}")
        inner = self.parse_sum()
        self.take(closing)
        self.depth -= 1
        return inner

    def parse_sum(self) -> LaurentPoly:
        # Summands are added once, at the end.  One coefficient per exponent
        # pair keeps memory within the slot bound however often a term
        # repeats; the summands' rows, merged, span at least what the sum packs.
        coeffs: dict[tuple[int, int], int] = {}
        spans: dict[int, tuple[int, int]] = {}
        slots = 0
        op = self.take() if self.peek() in ("+", "-") else "+"
        while True:
            term = self.parse_product()
            for ev, (lo, hi) in term.spans().items():
                if ev in spans:
                    lo0, hi0 = spans[ev]
                    slots -= hi0 - lo0 + 1
                    lo, hi = min(lo, lo0), max(hi, hi0)
                spans[ev] = lo, hi
                slots += hi - lo + 1
            check_slots(slots)
            for ev, es, c in term.terms():
                coeffs[ev, es] = coeffs.get((ev, es), 0) + (c if op == "+" else -c)
            if self.peek() not in ("+", "-"):
                return LaurentPoly(coeffs)
            op = self.take()

    def parse_product(self) -> LaurentPoly:
        out = self.parse_factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
            elif tok is None or not (tok.isdigit() or tok in ("v", "s", "(")):
                return out
            factor = self.parse_factor()
            # Leading rows multiply to a nonzero row, so the extremes add.
            extremes = [a + b for a, b in zip(_extremes(out), _extremes(factor))]
            _check_box(extremes, "product")
            if max(map(abs, extremes)) > MAX_EXPONENT:
                raise ValueError(f"product exceeds the exponent bound {MAX_EXPONENT}")
            out = out * factor

    def parse_factor(self) -> LaurentPoly:
        tok = self.peek()
        if tok == "(":
            inner = self.group("(", ")")
            if self.peek() == "^":
                n = self._exponent()
                # The power's exponents and coefficient bits grow n-fold.
                extremes = _extremes(inner)
                bits = max((c.bit_length() for _, _, c in inner.terms()), default=0)
                if n * max(bits, *map(abs, extremes)) > MAX_EXPONENT:
                    raise ValueError(f"power of a group exceeds the exponent bound {MAX_EXPONENT}")
                _check_box([n * e for e in extremes], "power of a group")
                inner = inner ** n
            return inner
        if tok in ("v", "s"):
            self.take()
            exp = self._exponent() if self.peek() == "^" else 1
            return LaurentPoly.term(1, v=exp if tok == "v" else 0, s=exp if tok == "s" else 0)
        if tok is not None and tok.isdigit():
            self.take()
            return LaurentPoly.term(int(tok))
        raise ValueError(f"unexpected token {tok!r}")

    def _exponent(self) -> int:
        self.take("^")
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        value = int(self.take())
        if value > MAX_EXPONENT:
            raise ValueError(f"exponent {value} exceeds the bound {MAX_EXPONENT}")
        return sign * value


def _extract_factor(p: LaurentPoly) -> int:
    """Read a polynomial of the exact shape s^k - s^{-k}, returning k."""
    terms = p.terms()
    if len(terms) == 2:
        (ev1, es1, c1), (ev2, es2, c2) = terms
        if ev1 == ev2 == 0 and es1 == -es2 and es2 > 0 and c1 == -1 and c2 == 1:
            return es2
    raise ValueError(f"denominator factor {p} is not of the form s^k - s^-k")


def parse_scalar(text: str) -> SkeinScalar:
    """Parse the plain rendering `num / (den)` or the LaTeX `\\frac{num}{den}`."""
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens += [m[3]] if m[3] else ["^", *m[1], m[2]]
        pos = m.end()
    parser = _Parser(tokens)
    if parser.peek() == "\\frac{":
        num, closing = parser.group("\\frac{", "}{"), "}"
    else:
        num, closing = parser.parse_sum(), ")" if parser.peek() == "/" else None
        if closing:
            parser.take("/")
            parser.take("(")  # the whole factored denominator is one group
    factors: list[tuple[int, int]] = []
    if closing:
        while True:
            parser.take("(")
            base = parser.parse_sum()
            parser.take(")")
            mult = parser._exponent() if parser.peek() == "^" else 1
            factors.append((_extract_factor(base), mult))
            if parser.peek() == "*":
                parser.take()
            elif parser.peek() != "(":
                break
        parser.take(closing)
        check_degree(factors)
    if parser.peek() is not None:
        raise ValueError(f"trailing input near {parser.peek()!r}")
    return SkeinScalar(num, factors)
