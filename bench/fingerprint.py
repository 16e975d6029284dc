"""Exact value fingerprints: a scalar evaluated at a fixed point modulo a prime.

Two representations of the same ring value (different denominators,
uncancelled factors, plain versus LaTeX versus JSON text) give the same
fingerprint, so outputs are compared as values, not as text.  This module
never imports hopflinks: it reads the program's outputs as text.
"""

from __future__ import annotations

import json
import re

P = (1 << 61) - 1  # Mersenne prime
V0 = 1_234_567_891_011
S0 = 987_654_321_987


def binomial(k: int) -> int:
    """s^k - s^{-k} at the point; nonzero for every k the program uses."""
    return (pow(S0, k, P) - pow(S0, -k, P)) % P


def scalar_json(obj: dict) -> int:
    """Fingerprint of a scalar in the canonical JSON wire format."""
    num = sum(t["c"] * pow(V0, t["v"], P) * pow(S0, t["s"], P) for t in obj["num"]) % P
    den = 1
    for f in obj["den"]:
        den = den * pow(binomial(f["k"]), f["mult"], P) % P
    return num * pow(den, -1, P) % P


def delta() -> int:
    """The unknot (v^{-1} - v) / (s - s^{-1})."""
    return (pow(V0, -1, P) - V0) * pow(binomial(1), -1, P) % P


def twist(n: int) -> int:
    """Closure of the two-strand braid sigma_1^n with positive crossings.

    T_n = (s - s^{-1}) T_{n-1} + T_{n-2}, T_0 = delta^2, T_1 = v^{-1} delta.
    """
    d = delta()
    prev, cur = d * d % P, pow(V0, -1, P) * d % P
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, (binomial(1) * cur + prev) % P
    return cur


_TOKEN = re.compile(r"\s*(\d+|[vs]|[-+*/^()])")


def _tokens(text: str) -> list[str]:
    out, pos, text = [], 0, text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected character at {pos} in {text[pos:pos + 20]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Expr:
    """Recursive-descent evaluator of the plain grammar, modulo P.

    expr   := ['-'] term (('+' | '-') term)*
    term   := power (['*' | '/'] power)*      juxtaposition multiplies
    power  := atom ['^' ['('] ['-'] int [')']]
    atom   := int | 'v' | 's' | '(' expr ')'
    """

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want or 'a token'} at token {self.i}, got {tok!r}")
        self.i += 1
        return tok

    def skip(self, tok: str) -> bool:
        """Consume `tok` if it is next."""
        if self.peek() != tok:
            return False
        self.i += 1
        return True

    def run(self) -> int:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.i}: {self.peek()!r}")
        return value

    def expr(self) -> int:
        value = -self.term() if self.skip("-") else self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value % P

    def term(self) -> int:
        value = self.power()
        while True:
            if self.skip("/"):
                value = value * pow(self.power(), -1, P) % P
            elif self.skip("*") or self.peek() in ("v", "s", "(") or (self.peek() or "").isdigit():
                value = value * self.power() % P
            else:
                return value

    def power(self) -> int:
        base = self.atom()
        if not self.skip("^"):
            return base
        braced = self.skip("(")
        exp = -int(self.take()) if self.skip("-") else int(self.take())
        if braced:
            self.take(")")
        return pow(base, exp, P)

    def atom(self) -> int:
        tok = self.take()
        if tok == "v":
            return V0
        if tok == "s":
            return S0
        if tok == "(":
            value = self.expr()
            self.take(")")
            return value
        if tok.isdigit():
            return int(tok) % P
        raise ValueError(f"unexpected token {tok!r}")


def _latex_to_plain(text: str) -> str:
    text = text.strip()
    if text.startswith("\\frac{"):
        num, sep, den = text[len("\\frac{") :].partition("}{(")
        if not sep or not den.endswith("}"):
            raise ValueError(f"malformed \\frac: {text[:40]!r}")
        text = f"({num}) / (({den[:-1]})"
    return text.replace("{", "(").replace("}", ")")


def rendered(text: str, fmt: str) -> int:
    """Fingerprint of a scalar rendered by `hopflinks eval --format fmt`."""
    if fmt == "json":
        return scalar_json(json.loads(text))
    if fmt == "latex":
        text = _latex_to_plain(text)
    elif fmt != "plain":
        raise ValueError(f"unknown format {fmt!r}")
    return _Expr(text).run()
