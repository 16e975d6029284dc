"""Text renderings of scalars (plain, LaTeX, canonical JSON) and a
parser that reads the plain and LaTeX forms back.

The plain and LaTeX notations are written by `SkeinScalar.format`; this
module adds the JSON form and the parser.  The three renderings describe
the same canonical value: terms sorted by (v-exponent, s-exponent),
denominator factors sorted by k.  Parsing a rendering therefore
reproduces the canonical JSON exactly.
"""

from __future__ import annotations

import json
import re

from .ring import MAX_EXPONENT, LaurentPoly, SkeinScalar, check_slots

__all__ = ["FORMATS", "render_scalar", "parse_scalar"]

FORMATS = ("plain", "json", "latex")


def render_scalar(x: SkeinScalar, fmt: str = "plain") -> str:
    """`x` in one of FORMATS; ValueError for any other format."""
    if fmt == "json":
        return json.dumps(x.to_json(), separators=(",", ":"))
    return x.format(fmt)


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(r"\s*(\d+|[vs]|\^|\+|-|\*|/|\(|\))")

# Deepest nesting of parenthesized groups.  Renderings nest one deep; the
# bound keeps the recursive parser well inside Python's recursion limit.
_MAX_DEPTH = 100


def _check_box(dv: int, ds: int, what: str) -> None:
    """Refuse a result whose exponent box, spans dv in v and ds in s, holds more than MAX_EXPONENT terms."""
    if (dv + 1) * (ds + 1) > MAX_EXPONENT:
        raise ValueError(f"{what} exceeds the term bound {MAX_EXPONENT}")


def _spans(p: LaurentPoly) -> tuple[int, int]:
    """Spans of the v- and s-exponents of p's terms; (0, 0) for zero."""
    rows = p.spans()
    if not rows:
        return 0, 0
    return max(rows) - min(rows), max(hi for _, hi in rows.values()) - min(lo for lo, _ in rows.values())


def _normalize_latex(text: str) -> str:
    """Rewrite the LaTeX rendering into the plain grammar."""
    while True:
        start = text.find("\\frac")
        if start < 0:
            break
        pos = start + len("\\frac")
        groups = []
        for _ in range(2):
            if pos >= len(text) or text[pos] != "{":
                raise ValueError("malformed \\frac")
            depth = 0
            for end in range(pos, len(text)):
                if text[end] == "{":
                    depth += 1
                elif text[end] == "}":
                    depth -= 1
                    if depth == 0:
                        groups.append(text[pos + 1 : end])
                        pos = end + 1
                        break
            else:
                raise ValueError("unbalanced braces in \\frac")
        text = text[:start] + f"({groups[0]}) / ({groups[1]})" + text[pos:]
    text = re.sub(r"\^\{(-?\d+)\}", r"^\1", text)
    if "{" in text or "}" in text or "\\" in text:
        raise ValueError("unsupported LaTeX markup")
    return text


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

    def parse_sum(self) -> LaurentPoly:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        elif self.peek() == "+":
            self.take()
        total = self.parse_product() * sign
        # The summands' rows, merged, span at least what the sum packs.
        spans = total.spans()
        slots = sum(hi - lo + 1 for lo, hi in spans.values())
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.parse_product()
            for ev, (lo, hi) in term.spans().items():
                if ev in spans:
                    lo0, hi0 = spans[ev]
                    slots -= hi0 - lo0 + 1
                    lo, hi = min(lo, lo0), max(hi, hi0)
                spans[ev] = lo, hi
                slots += hi - lo + 1
            check_slots(slots)
            total = total + (term if op == "+" else -term)
        return total

    def parse_product(self) -> LaurentPoly:
        out = self.parse_factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
            elif tok is None or not (tok.isdigit() or tok in ("v", "s", "(")):
                return out
            factor = self.parse_factor()
            (v1, s1), (v2, s2) = _spans(out), _spans(factor)
            _check_box(v1 + v2, s1 + s2, "product")
            out = out * factor
            if any(max(abs(ev), abs(es)) > MAX_EXPONENT for ev, es, _ in out.terms()):
                raise ValueError(f"product exceeds the exponent bound {MAX_EXPONENT}")

    def parse_factor(self) -> LaurentPoly:
        tok = self.peek()
        if tok == "(":
            self.take()
            self.depth += 1
            if self.depth > _MAX_DEPTH:
                raise ValueError(f"groups nest deeper than {_MAX_DEPTH}")
            inner = self.parse_sum()
            self.take(")")
            self.depth -= 1
            if self.peek() == "^":
                n = self._exponent()
                # The power's exponents and coefficient bits grow n-fold.
                size = max((max(abs(ev), abs(es), c.bit_length()) for ev, es, c in inner.terms()), default=0)
                if n * size > MAX_EXPONENT:
                    raise ValueError(f"power of a group exceeds the exponent bound {MAX_EXPONENT}")
                dv, ds = _spans(inner)
                _check_box(n * dv, n * ds, "power of a group")
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
    """Parse the plain or LaTeX rendering of a scalar."""
    if "\\" in text or "{" in text:
        text = _normalize_latex(text)
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    parser = _Parser(tokens)
    num = parser.parse_sum()
    factors: list[tuple[int, int]] = []
    if parser.peek() == "/":
        parser.take()
        parser.take("(")  # the whole factored denominator is one group
        while True:
            parser.take("(")
            base = parser.parse_sum()
            parser.take(")")
            mult = parser._exponent() if parser.peek() == "^" else 1
            factors.append((_extract_factor(base), mult))
            if parser.peek() == "*":
                parser.take()
                continue
            if parser.peek() == "(":
                continue
            break
        parser.take(")")
        if sum(k * mult for k, mult in factors) > MAX_EXPONENT:
            raise ValueError(f"denominator degree exceeds the bound {MAX_EXPONENT}")
    if parser.peek() is not None:
        raise ValueError(f"trailing input near {parser.peek()!r}")
    return SkeinScalar(num, factors)
