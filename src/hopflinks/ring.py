"""Exact arithmetic for the two-variable Homfly coefficient ring.

Everything downstream works in Z[v^{+-1}, s^{+-1}] localized at the
binomials s^k - s^{-k}.  A scalar is stored as a Laurent-polynomial
numerator over a *factored* denominator, so equality is decidable by
cross-multiplication and no multivariate gcd is ever needed.  Every
denominator produced by the eigenvalue pipeline (the unknot value, the
hook-content evaluations) has this shape.

All values are immutable; operations are pure functions and safe to
share between threads without locking.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, NamedTuple

__all__ = [
    "LaurentPoly",
    "DenomFactor",
    "SkeinScalar",
    "Z",
    "delta",
    "all_distinct",
]

ExponentPair = tuple[int, int]  # (exponent of v, exponent of s)

# Per style: exponent, factor joiner, fraction, denominator joiner.
_STYLES = {
    "plain": ("^{}", "*", "({}) / ({})", " * "),
    "latex": ("^{{{}}}", " ", "\\frac{{{}}}{{{}}}", " "),
}


def _power(base: str, exp: int, style: str) -> str:
    return base if exp == 1 else base + _STYLES[style][0].format(exp)


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in the variables v and s.

    Canonical form: at most one stored term per exponent pair, never with
    coefficient zero.  Coefficients are plain Python ints, so they grow
    without overflow.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[ExponentPair, int] | Iterable[tuple[ExponentPair, int]] | None = None):
        data: dict[ExponentPair, int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (ev, es), c in items:
                c = int(c)
                if not c:
                    continue
                key = (int(ev), int(es))
                c += data.pop(key, 0)
                if c:
                    data[key] = c
        self._terms = data

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.term(1)

    @classmethod
    def term(cls, coeff: int, v: int = 0, s: int = 0) -> "LaurentPoly":
        """The single term coeff * v^v * s^s."""
        return cls({(v, s): coeff})

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted (ev, es, coeff) triples; the canonical serialization order."""
        return [(ev, es, c) for (ev, es), c in sorted(self._terms.items())]

    def coefficient(self, v: int = 0, s: int = 0) -> int:
        return self._terms.get((v, s), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            c += out.pop(key, 0)
            if c:
                out[key] = c
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = {k: -c for k, c in self._terms.items()}
        return res

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self + (-other if isinstance(other, LaurentPoly) else -LaurentPoly.term(other))

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.term(other) - self

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[ExponentPair, int] = {}
        for (av, as_), ac in self._terms.items():
            for (bv, bs), bc in other._terms.items():
                key = (av + bv, as_ + bs)
                c = out.pop(key, 0) + ac * bc
                if c:
                    out[key] = c
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in the Laurent ring")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- substitutions -----------------------------------------------

    def mirror(self) -> "LaurentPoly":
        """Substitute v -> v^{-1}, s -> s^{-1} (reflection of links)."""
        return LaurentPoly({(-ev, -es): c for (ev, es), c in self._terms.items()})

    def s_inverse(self) -> "LaurentPoly":
        """Substitute s -> s^{-1} only, leaving v untouched."""
        return LaurentPoly({(ev, -es): c for (ev, es), c in self._terms.items()})

    # -- division by a denominator factor -----------------------------

    def exact_div_factor(self, k: int) -> "LaurentPoly | None":
        """Quotient by s^k - s^{-k} when exact, else None.

        Grouping by the v-exponent reduces the problem to univariate
        division by the monic polynomial s^{2k} - 1, which stays in Z.
        """
        if k < 1:
            raise ValueError("factor index k must be >= 1")
        if self.is_zero:
            return LaurentPoly.zero()
        groups: dict[int, dict[int, int]] = {}
        for (ev, es), c in self._terms.items():
            groups.setdefault(ev, {})[es] = c
        out: dict[ExponentPair, int] = {}
        for ev, g in groups.items():
            lo = min(g)
            deg = max(g) - lo
            if deg < 2 * k:
                return None
            f = [0] * (deg + 1)
            for es, c in g.items():
                f[es - lo] = c
            q = [0] * (deg - 2 * k + 1)
            for d in range(deg, 2 * k - 1, -1):
                c = f[d]
                if c:
                    q[d - 2 * k] = c
                    f[d - 2 * k] += c
                    f[d] = 0
            if any(f[: 2 * k]):
                return None
            for j, c in enumerate(q):
                if c:
                    out[(ev, j + lo + k)] = c
        return LaurentPoly(out)

    # -- serialization -------------------------------------------------

    def to_json(self) -> list[dict[str, int]]:
        return [{"v": ev, "s": es, "c": c} for ev, es, c in self.terms()]

    @classmethod
    def from_json(cls, obj: Iterable[dict[str, int]]) -> "LaurentPoly":
        return cls({(int(t["v"]), int(t["s"])): int(t["c"]) for t in obj})

    def format(self, style: str = "plain") -> str:
        """Terms in canonical order, in `plain` or `latex` notation."""
        if self.is_zero:
            return "0"
        chunks: list[str] = []
        for ev, es, c in self.terms():
            factors: list[str] = []
            if ev:
                factors.append(_power("v", ev, style))
            if es:
                factors.append(_power("s", es, style))
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = _STYLES[style][1].join(factors)
            if not chunks:
                chunks.append(f"-{body}" if c < 0 else body)
            else:
                chunks.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(chunks)

    __str__ = __repr__ = format


def _s_binomial(k: int) -> LaurentPoly:
    """The denominator factor s^k - s^{-k}."""
    return LaurentPoly({(0, k): 1, (0, -k): -1})


Z = _s_binomial(1)  # z = s - s^{-1}, the factor of the crossing exchange


class DenomFactor(NamedTuple):
    """One denominator factor (s^k - s^{-k})^mult."""

    k: int
    mult: int


@cache
def _den_poly(den: tuple[DenomFactor, ...]) -> LaurentPoly:
    """Expanded product of a factored denominator."""
    out = LaurentPoly.one()
    for k, mult in den:
        out = out * _s_binomial(k) ** mult
    return out


class SkeinScalar:
    """A fraction num / prod (s^k - s^{-k})^mult over the Laurent ring.

    Construction cancels every denominator factor that divides the
    numerator exactly, so stored values are always reduced; zero is the
    zero numerator with an empty denominator.  Equality compares values
    (cross-multiplication), not representatives.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: LaurentPoly | int, den: Iterable[tuple[int, int]] = ()):
        if isinstance(num, int):
            num = LaurentPoly.term(num)
        merged: dict[int, int] = {}
        for k, mult in den:
            k, mult = int(k), int(mult)
            if k < 1 or mult < 1:
                raise ValueError("denominator factors need k >= 1 and mult >= 1")
            merged[k] = merged.get(k, 0) + mult
        if num.is_zero:
            merged = {}
        else:
            for k in sorted(merged, reverse=True):
                while merged[k]:
                    q = num.exact_div_factor(k)
                    if q is None:
                        break
                    num = q
                    merged[k] -= 1
                if not merged[k]:
                    del merged[k]
        self._num = num
        self._den = tuple(DenomFactor(k, merged[k]) for k in sorted(merged))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "SkeinScalar":
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> "SkeinScalar":
        return cls(LaurentPoly.one())

    # -- queries -------------------------------------------------------

    @property
    def num(self) -> LaurentPoly:
        return self._num

    @property
    def den(self) -> tuple[DenomFactor, ...]:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value: "SkeinScalar | LaurentPoly | int") -> "SkeinScalar":
        if isinstance(value, SkeinScalar):
            return value
        if isinstance(value, (int, LaurentPoly)):
            return SkeinScalar(value)
        raise TypeError(f"cannot interpret {value!r} as a SkeinScalar")

    def __add__(self, other: "SkeinScalar | LaurentPoly | int") -> "SkeinScalar":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        da = dict(self._den)
        db = dict(other._den)
        lcm = {k: max(da.get(k, 0), db.get(k, 0)) for k in set(da) | set(db)}
        comp_a = tuple(DenomFactor(k, lcm[k] - da.get(k, 0)) for k in sorted(lcm) if lcm[k] > da.get(k, 0))
        comp_b = tuple(DenomFactor(k, lcm[k] - db.get(k, 0)) for k in sorted(lcm) if lcm[k] > db.get(k, 0))
        num = self._num * _den_poly(comp_a) + other._num * _den_poly(comp_b)
        return SkeinScalar(num, lcm.items())

    __radd__ = __add__

    def __neg__(self) -> "SkeinScalar":
        return SkeinScalar(-self._num, self._den)

    def __sub__(self, other: "SkeinScalar | LaurentPoly | int") -> "SkeinScalar":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "LaurentPoly | int") -> "SkeinScalar":
        return self._coerce(other) - self

    def __mul__(self, other: "SkeinScalar | LaurentPoly | int") -> "SkeinScalar":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        merged: dict[int, int] = dict(self._den)
        for k, mult in other._den:
            merged[k] = merged.get(k, 0) + mult
        return SkeinScalar(self._num * other._num, merged.items())

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SkeinScalar":
        if n < 0:
            raise ValueError("negative powers are not available on SkeinScalar")
        result = SkeinScalar.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- substitutions ---------------------------------------------------

    def mirror(self) -> "SkeinScalar":
        # Each factor s^k - s^{-k} is negated by the substitution; the
        # accumulated sign moves into the numerator.
        sign = -1 if sum(m for _, m in self._den) % 2 else 1
        return SkeinScalar(self._num.mirror() * sign, self._den)

    def s_inverse(self) -> "SkeinScalar":
        sign = -1 if sum(m for _, m in self._den) % 2 else 1
        return SkeinScalar(self._num.s_inverse() * sign, self._den)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly)):
            other = SkeinScalar(other)
        if not isinstance(other, SkeinScalar):
            return NotImplemented
        return self._num * _den_poly(other._den) == other._num * _den_poly(self._den)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict[str, list]:
        return {
            "num": self._num.to_json(),
            "den": [{"k": k, "mult": m} for k, m in self._den],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SkeinScalar":
        num = LaurentPoly.from_json(obj["num"])
        den = [(int(f["k"]), int(f["mult"])) for f in obj["den"]]
        return cls(num, den)

    def format(self, style: str = "plain") -> str:
        """Numerator over the factored denominator, in `plain` or `latex` notation."""
        num = self._num.format(style)
        if not self._den:
            return num
        _, _, fraction, joiner = _STYLES[style]
        parts = []
        for k, mult in self._den:
            base = f"({_power('s', k, style)} - {_power('s', -k, style)})"
            parts.append(_power(base, mult, style))
        return fraction.format(num, joiner.join(parts))

    __str__ = __repr__ = format


def delta() -> SkeinScalar:
    """Value of one null-homotopic loop: (v^{-1} - v) / (s - s^{-1})."""
    return SkeinScalar(LaurentPoly({(-1, 0): 1, (1, 0): -1}), ((1, 1),))


def all_distinct(values: Iterable[SkeinScalar]) -> bool:
    """True when no two of the given scalars are equal as ring values.

    Uses the stored reduced representation as a fast path: scalars with
    the same denominator are equal exactly when their numerators agree.
    Mixed denominators fall back to pairwise cross-multiplication.
    """
    vals = list(values)
    reps = [(v.den, tuple(v.num.terms())) for v in vals]
    if len(set(reps)) != len(reps):
        return False
    if len({v.den for v in vals}) == 1:
        return True
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] == vals[j]:
                return False
    return True
