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

from .ring import LaurentPoly, SkeinScalar

__all__ = ["FORMATS", "render_scalar", "parse_scalar"]

FORMATS = ("plain", "json", "latex")


def render_scalar(x: SkeinScalar, fmt: str = "plain") -> str:
    if fmt == "json":
        return json.dumps(x.to_json(), separators=(",", ":"))
    if fmt in FORMATS:
        return x.format(fmt)
    raise ValueError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(r"\s*(\d+|[vs]|\^|\+|-|\*|/|\(|\))")


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
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.parse_product()
            total = total + (term if op == "+" else -term)
        return total

    def parse_product(self) -> LaurentPoly:
        out = self.parse_factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.take()
                out = out * self.parse_factor()
            elif tok is not None and (tok.isdigit() or tok in ("v", "s", "(")):
                out = out * self.parse_factor()
            else:
                return out

    def parse_factor(self) -> LaurentPoly:
        tok = self.peek()
        if tok == "(":
            self.take()
            inner = self.parse_sum()
            self.take(")")
            if self.peek() == "^":
                inner = inner ** self._exponent()
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
        return sign * int(self.take())


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
    if parser.peek() is not None:
        raise ValueError(f"trailing input near {parser.peek()!r}")
    return SkeinScalar(num, factors)
