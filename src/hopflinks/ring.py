"""Exact arithmetic for the two-variable Homfly coefficient ring.

Everything downstream works in Z[v^{+-1}, s^{+-1}] localized at the
binomials s^k - s^{-k}.  A scalar is stored as a Laurent-polynomial
numerator over a *factored* denominator, and no multivariate gcd is ever
needed: since s^k - s^{-k} = s^{-k} prod_{e | k} Phi_e(s^2), a value has
one canonical form, found by dividing out cyclotomic factors in t = s^2
alone, so equal values compare, hash and serialize alike.  Arithmetic
never divides; that canonical form is the only reduction, and it runs
once, when a value is first read.  Every denominator produced by the
eigenvalue pipeline (the unknot value, the hook-content evaluations)
has this shape.  Those two values are canonical as built, and their
builders store that form at once (`SkeinScalar._reduced`), each with
its proof that no Phi_e(s^2) divides.  A link's value, from the closed
form or the skein tree, is canonical over z^c, c its components, by
theorem: `SkeinScalar._over_z` puts it over z^c with one division and
stores that form at once.

A polynomial is packed as rows in t = s^2, one per v-exponent and parity
of the s-exponent: every value the skein theory builds from z = s - s^{-1},
delta and the bracket factors has s-exponents of one parity in each
v-degree, so a row in s would hold a zero in every other slot.
A product of brackets [N+c] = v^{-1} s^c - v s^{-c}, the numerator of a
plane evaluation, is built straight into rows (`LaurentPoly.brackets`),
as is an eigenvalue's numerator from the contents of its two shapes
(`LaurentPoly.encircling`), and a product by an int scales each row
and one by a power of v moves the rows to other keys (`times_v`): none
runs a row-pair product.  A sum or difference is one pass over the rows
(`LaurentPoly.plus`), which can lift its second operand by z^2 on the
way: z^2 = t^{-1} (t - 1)^2 takes a row R to R X^2 - 2 R X + R, X one
slot, in shifts and adds.
Each value sits in the narrowest slot width above its carried coefficient
bound, and the widths are the multiples of 32 bits (`_width`).

A sum of scalars brings its factored denominators to their lcm with
`common_denominator`, cached by the tuple of denominators; the closed
form's per-core weight groups take theirs from it too.

A product of cyclotomic factors prod Phi_d(t)^m is divided out on the
packed rows (`LaurentPoly.exact_div_phis`): one integer remainder per
row screens it, and one integer quotient per row, certified by a mask
test against the product's L1 norm, divides it; a quotient the test
cannot certify is screened and certified again at the next wider slot.
It is the one division by factors in s: the canonical form divides one
Phi_e(t) at a time, s^k - s^{-k} is divided out as the product of its
Phi_e(t), e | k, and `_over_z` divides by all the known factors at once.
The skein tree's connected sums divide by v^{-1} - v, a running sum of
the rows two v-exponents apart (`LaurentPoly.div_v_delta`).

Terms are read out of the rows only to serialize, format or substitute
(`_decode`).  At the base slot width of 32 bits on a little-endian host
the rows of a polynomial are decoded in one pass: they are joined into
one integer, each shifted past the slots of the rows below it, and read
back with one bias, one `to_bytes` and one `memoryview.cast("i")`.
Wider slots and big-endian hosts take `_unpack`, one `int.from_bytes`
per slot.
Text is written straight from the decoded rows, with no object per term:
`json_text` writes each v-row's `{"v":ev,"s":` head once, and `format`
each v-row's factor text once, so a term is one f-string of its exponent
and coefficient.

All values are immutable; operations are pure functions and safe to
share between threads without locking (a cached canonical form is only
ever written with the one value it can have).
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from functools import cache, reduce
from itertools import accumulate
from math import comb
from typing import Iterable

__all__ = [
    "LaurentPoly",
    "SkeinScalar",
    "Z",
    "MAX_EXPONENT",
    "MAX_SLOTS",
    "delta",
    "all_distinct",
]

ExponentPair = tuple[int, int]  # (exponent of v, exponent of s)

# Largest |exponent| accepted from outside: in a loaded or parsed
# polynomial and in the expansion of a loaded denominator.  A packed row
# stores every slot of its span, so the bound caps its length.
MAX_EXPONENT = 4096

# Most slots a loaded or parsed polynomial may span, summed over the
# s-spans of its v-rows: the two parity rows of a v-row pack at most its
# s-span, so sparse input within MAX_EXPONENT could otherwise pack 8,193
# slots per v-row.
MAX_SLOTS = 1 << 16

# Slot widths are the multiples of the base width (`_width`).
# The closed-form products of up to 7 core and 5 encircling strings have
# coefficients below 2^17 and carry bounds below 2^28.
_BASE_WIDTH = 32

# Per style: the text before and after an exponent, factor joiner,
# fraction, denominator joiner.
_STYLES = {
    "plain": (("^", ""), "*", "({}) / ({})", " * "),
    "latex": (("^{", "}"), " ", "\\frac{{{}}}{{{}}}", " "),
}


def _style(style: str) -> tuple[tuple[str, str], str, str, str]:
    """The notation of a style; ValueError for an unknown one."""
    if style not in _STYLES:
        raise ValueError(f"unknown output format {style!r}")
    return _STYLES[style]


def _power(base: str, exp: int, power: tuple[str, str]) -> str:
    """base^exp in an exponent notation of _STYLES; base alone for exp 1."""
    return base if exp == 1 else f"{base}{power[0]}{exp}{power[1]}"


def json_item(obj: dict | list, key: str | int) -> object:
    """Entry `key` of a JSON object or array; ValueError when there is none."""
    try:
        return obj[key]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"missing field {key!r}") from exc


def json_list(value: object) -> list:
    """A JSON array; ValueError for anything else."""
    if not isinstance(value, list):
        raise ValueError(f"expected an array, got {type(value).__name__}")
    return value


def json_int(obj: dict | list, key: str | int, limit: int | None = None) -> int:
    """Entry `key` of a JSON object or array: an int (not a bool), at most `limit` in size."""
    value = json_item(obj, key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    if limit is not None and abs(value) > limit:
        raise ValueError(f"field {key!r} = {value} exceeds the bound {limit}")
    return value


def _pow(base, n: int):
    """base ** n by right-to-left binary powering (Knuth, TAOCP 2, 4.6.3), starting from the base."""
    if n < 0:
        raise ValueError(f"negative powers are not defined on {type(base).__name__}")
    if not n:
        return type(base).one()
    while not n & 1:
        base, n = base * base, n >> 1
    result = base
    while n := n >> 1:
        base = base * base
        if n & 1:
            result = result * base
    return result


def _width(bits: int) -> int:
    """Narrowest slot width w > bits, a multiple of the base width, so it holds coefficients with |c| < 2^bits."""
    return (bits // _BASE_WIDTH + 1) * _BASE_WIDTH


def _repeat(value: int, w: int, n: int) -> int:
    """`value` in each of n slots of w bits."""
    return int.from_bytes(value.to_bytes(w >> 3, "little") * n, "little")


def _pack(coeffs: list[int], w: int) -> int:
    """Sum of c_j * 2^(w*j); every |c_j| must be below 2^(w-1)."""
    step = w >> 3
    raw = int.from_bytes(b"".join(c.to_bytes(step, "little", signed=True) for c in coeffs), "little")
    half = _repeat(1 << (w - 1), w, len(coeffs))
    return (raw ^ half) - half


def _biased(row: int, w: int) -> tuple[bytes, int]:
    """The slots of a row as little-endian two's-complement bytes, and their number."""
    n = row.bit_length() // w + 1  # exact while every |c| < 2^(w-1)
    half = _repeat(1 << (w - 1), w, n)
    return ((row + half) ^ half).to_bytes(n * (w >> 3), "little"), n


def _unpack(row: int, w: int) -> list[int]:
    """The slot coefficients of a packed row, lowest first, one `int.from_bytes` per slot.

    `_decode` runs this for every row whose slots are wider than the base
    width, and on a big-endian host; it is also the reference the bulk
    decode is tested against.
    """
    step = w >> 3
    data, n = _biased(row, w)
    return [int.from_bytes(data[i : i + step], "little", signed=True) for i in range(0, n * step, step)]


# The bulk decode reads 32-bit C ints in the host's byte order.
_BULK = sys.byteorder == "little"


def _decode(rows: list[int], w: int) -> list[list[int]]:
    """The slot coefficients of each packed row, lowest first, as `_unpack` gives them.

    At the base width on a little-endian host the rows are joined into one
    integer, each shifted past the slots of the rows below it, with the
    slot count of `_biased`: the balanced digits of the sum are the rows'
    digits side by side, a borrow from a negative row included.  One bias,
    one `to_bytes` and one `memoryview.cast("i")` read them all.
    Otherwise each row is `_unpack`ed.
    """
    if w != _BASE_WIDTH or not _BULK:
        return [_unpack(row, w) for row in rows]
    joined, counts, shift = 0, [], 0
    for row in rows:
        n = row.bit_length() // w + 1  # `_biased`'s count
        joined += row << shift
        counts.append(n)
        shift += n * w
    half = _repeat(1 << (w - 1), w, shift // w)
    flat = memoryview(((joined + half) ^ half).to_bytes(shift >> 3, "little")).cast("i").tolist()
    out, start = [], 0
    for n in counts:
        out.append(flat[start : start + n])
        start += n
    return out


def _within(rows: list[int], w: int, bits: int) -> bool:
    """Mask test: True iff every slot c of every row has -2^(bits-1) <= c < 2^(bits-1).

    The bias and mask words are built once, as long as the longest row,
    and each row is tested against them.  A shorter row stays exact: the
    slots above its top only get the bias added, and the lowest slot out
    of range sets a high bit inside its own slot.  An empty list is
    within every bound.
    """
    n = max((row.bit_length() for row in rows), default=0) // w + 1
    bias = _repeat(1 << (bits - 1), w, n)
    mask = _repeat(((1 << w) - 1) ^ ((1 << bits) - 1), w, n)
    return not any((row + bias) & mask for row in rows)


def _trim(lo: int, row: int, w: int) -> tuple[int, int]:
    """Drop zero slots below the lowest nonzero coefficient."""
    if row & ((1 << w) - 1):
        return lo, row
    slots = ((row & -row).bit_length() - 1) // w
    return lo + slots, row >> (w * slots)


def _grouped(terms: dict[ExponentPair, int] | Iterable[tuple[ExponentPair, int]] | None) -> dict[int, dict[int, int]]:
    """{2 ev + es % 2: {es // 2: c}} of the terms, repeated terms added and zeros dropped."""
    flat: dict[ExponentPair, int] = {}
    for key, c in terms.items() if isinstance(terms, dict) else terms or ():
        flat[key] = flat.get(key, 0) + c
    data: dict[int, dict[int, int]] = {}
    for (ev, es), c in flat.items():
        if c:
            data.setdefault(2 * ev + (es & 1), {})[es >> 1] = c
    return data


def _s_spans(rows: Iterable[tuple[int, int, int]]) -> dict[int, tuple[int, int]]:
    """{ev: (lowest, highest s-exponent)} of rows given as (key, lowest t, highest t)."""
    out: dict[int, tuple[int, int]] = {}
    for key, lo, hi in rows:
        lo, hi = 2 * lo + (key & 1), 2 * hi + (key & 1)
        lo0, hi0 = out.get(key >> 1, (lo, hi))
        out[key >> 1] = min(lo, lo0), max(hi, hi0)
    return out


def _shifted(rows: dict[int, tuple[int, int]], m: int) -> dict[int, tuple[int, int]]:
    """The rows times s^m: an odd m swaps the parities, and s^(p + m) = t^((p + m) // 2) s^((p + m) % 2)."""
    return {key - (key & 1) + ((key + m) & 1): (lo + ((key & 1) + m >> 1), row) for key, (lo, row) in rows.items()}


def check_slots(slots: int) -> None:
    """ValueError when input would pack more than MAX_SLOTS slots."""
    if slots > MAX_SLOTS:
        raise ValueError(f"input packs {slots} slots, beyond the bound {MAX_SLOTS}")


def check_degree(den: Iterable[tuple[int, int]]) -> None:
    """ValueError when denominator factors (k, mult) of input expand past MAX_EXPONENT."""
    if sum(k * mult for k, mult in den) > MAX_EXPONENT:
        raise ValueError(f"denominator degree exceeds the bound {MAX_EXPONENT}")


def _new(rows: dict[int, tuple[int, int]], w: int, cap: int, l1: int) -> "LaurentPoly":
    p = LaurentPoly.__new__(LaurentPoly)
    p._rows, p._w, p._cap, p._l1 = rows, w, cap, l1
    return p


def _times_s(p: "LaurentPoly", m: int) -> "LaurentPoly":
    """p * s^m: its rows `_shifted`, in the same slots and with the same bounds."""
    return _new(_shifted(p._rows, m), p._w, p._cap, p._l1)


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in the variables v and s.

    One packed row per v-exponent ev and s-parity p, a polynomial in
    t = s^2 (Kronecker substitution): `_rows[2 ev + p] = (lo, R)`, lo the
    lowest t-exponent with a nonzero coefficient and R = sum c_j * 2^(w*j)
    with the coefficient of v^ev s^(2 (lo+j) + p) as signed digit j.  A
    product adds keys and carries two odd parities into lo.  The layout is
    private: terms, spans and renderings speak of s-exponents.  Exactness
    rests on two carried bounds, `_cap` >= max |c| with `_cap` < 2^(w-1),
    and `_l1` >= sum |c|.  They are exact at construction; a sum adds
    them, a product by n scales them by |n|, and a product of polynomials
    takes `_cap` = min(cap_a l1_b, l1_a cap_b) and `_l1` = l1_a l1_b, as
    every product coefficient sums terms a_i b_j over distinct pairs.  Before
    an operation whose result could leave the slots, the bounds are
    tightened by mask tests and, failing that, the operands are re-encoded
    at a wider w.  Tightening only ever writes valid bounds, so values
    stay safe to share between threads.
    """

    __slots__ = ("_rows", "_w", "_cap", "_l1")

    def __init__(self, terms: dict[ExponentPair, int] | Iterable[tuple[ExponentPair, int]] | None = None):
        self._pack_rows(_grouped(terms))

    def _pack_rows(self, data: dict[int, dict[int, int]]) -> None:
        """Pack {key: {t: c}} (no zero c) into rows at the narrowest width, with exact bounds."""
        sizes = [abs(c) for row in data.values() for c in row.values()]
        self._cap, self._l1 = max(sizes, default=0), sum(sizes)
        self._w = _width(self._cap.bit_length())
        self._rows = {
            key: (min(row), _pack([row.get(t, 0) for t in range(min(row), max(row) + 1)], self._w))
            for key, row in data.items()
        }

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _new({}, _BASE_WIDTH, 0, 0)

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.term(1)

    @classmethod
    def term(cls, coeff: int, v: int = 0, s: int = 0) -> "LaurentPoly":
        """The single term coeff * v^v * s^s."""
        if not coeff:
            return cls.zero()
        size = abs(coeff)
        return _new({2 * v + (s & 1): (s >> 1, coeff)}, _width(size.bit_length()), size, size)

    @classmethod
    def brackets(cls, counts: Iterable[tuple[int, int]]) -> "LaurentPoly":
        """prod [N+c]^mult over the (c, mult) pairs, with [N+c] = v^{-1} s^c - v s^{-c}.

        For n brackets of content sum C, the row of v^(2k-n) is
        (-1)^k s^C e_k(t^{-c_1}, ..., t^{-c_n}), e_k the elementary symmetric
        polynomial.  Each bracket subtracts t^{-c} E_{k-1} from E_k, k from
        the top down, which carries the sign (-1)^k: a shift and an add of
        packed rows.  Taken by decreasing c, E_k starts at minus the sum of
        the k largest contents, so each shift is known in advance.  The
        coefficients of a row share its sign, so no slot cancels and every
        row stays trimmed, and each is at most C(n, k) in size.  The
        coefficients of row k sum to C(n, k) in size, so sum |c| is 2^n.
        """
        cs = sorted((c for c, mult in counts for _ in range(mult)), reverse=True)
        n, total = len(cs), sum(cs)
        cap = comb(n, n >> 1)
        w = _width(cap.bit_length())
        rows = [1]
        for m, c in enumerate(cs):
            rows.append(-rows[-1])
            for k in range(m, 0, -1):
                rows[k] -= rows[k - 1] << (w * (cs[k - 1] - c))
        lows = accumulate(cs, initial=0)  # E_k starts at t^-(c_1 + ... + c_k)
        keys = range((total & 1) - 2 * n, 2 * n + 2, 4)  # 2 (2k - n) + parity of C
        return _new({key: ((total >> 1) - low, row) for key, low, row in zip(keys, lows, rows)}, w, cap, 1 << n)

    @classmethod
    def encircling(cls, neg: Iterable[int], pos: Iterable[int]) -> "LaurentPoly":
        """v^{-1} (1 + z^2 sum_pos s^{2c}) - v (1 + z^2 sum_neg s^{-2c}) over two lists of contents c.

        With z = s - s^{-1}, z^2 = t - 2 + t^{-1} in t = s^2, so the v^{-1}
        row is 1 + sum_e (n_{e-1} - 2 n_e + n_{e+1}) t^e, n_c the count of
        c in `pos`, and the v row its negative over the contents -c of
        `neg`.  A shape's contents include 0, so a nonempty row spans
        t^(min - 1) to t^(max + 1) with end coefficients n_min and n_max:
        no slot is trimmed, and the bounds are exact.
        """
        data = {}
        for key, sign, cs in ((-2, 1, list(pos)), (2, -1, [-c for c in neg])):
            lo = min(cs, default=1) - 1  # no contents: the one slot of the constant, at t^0
            n = [0] * (max(cs, default=-1) - lo + 2)
            for c in cs:
                n[c - lo] += 1
            row = [sign * (a - 2 * b + c) for a, b, c in zip([0] + n, n, n[1:] + [0])]
            row[-lo] += sign
            data[key] = (lo, row)
        sizes = [abs(c) for _, row in data.values() for c in row]
        cap = max(sizes)
        w = _width(cap.bit_length())
        return _new({key: (lo, _pack(row, w)) for key, (lo, row) in data.items()}, w, cap, sum(sizes))

    # -- packed rows ---------------------------------------------------

    def _at(self, w: int) -> dict[int, tuple[int, int]]:
        """The rows re-encoded at slot width w >= self._w."""
        if w == self._w:
            return self._rows
        rows = self._rows.values()
        coeffs = _decode([row for _, row in rows], self._w)
        return {key: (lo, _pack(cs, w)) for key, (lo, _), cs in zip(self._rows, rows, coeffs)}

    def _fit(self) -> None:
        """Tighten `_cap` to 2^(b-1), b the least multiple of 8 bits the mask tests prove, and `_l1` to match.

        A pass at b proves -2^(b-1) <= c < 2^(b-1), and passing is monotone
        in b, so the least b is found by bisection over the multiples of 8
        that would lower `_cap`.
        """
        rows = [row for _, row in self._rows.values()]
        top = (self._cap.bit_length() - 1) >> 3  # 2^(8 top - 1) < _cap
        lo, hi = 1, top + 1
        while lo < hi:
            mid = (lo + hi) >> 1
            if _within(rows, self._w, mid << 3):
                hi = mid
            else:
                lo = mid + 1
        if lo <= top:
            self._cap = 1 << ((lo << 3) - 1)
            self._l1 = min(self._l1, self._cap * self._slots())

    def _slots(self) -> int:
        """Upper bound on the number of stored slots."""
        return sum(row.bit_length() for _, row in self._rows.values()) // self._w + len(self._rows)

    # -- basic queries -----------------------------------------------

    def _decoded(self) -> list[tuple[int, int, int, list[int]]]:
        """(ev, lowest s-exponent, step, coefficients) of each v-row, by increasing ev.

        Coefficient j is that of s^(lowest + step j): a row of one parity
        has step 2, and the two rows of a v-row holding both parities are
        interleaved into one of step 1.
        """
        keys = sorted(self._rows)
        rows = [self._rows[key] for key in keys]
        out: list[tuple[int, int, int, list[int]]] = []
        for key, (lo, _), cs in zip(keys, rows, _decode([row for _, row in rows], self._w)):
            ev, es = key >> 1, 2 * lo + (key & 1)
            if key & 1 and out and out[-1][0] == ev:
                _, even, _, evens = out.pop()
                low = min(even, es)
                spread = [0] * (max(even + 2 * len(evens), es + 2 * len(cs)) - 1 - low)
                spread[even - low : even - low + 2 * len(evens) - 1 : 2] = evens
                spread[es - low : es - low + 2 * len(cs) - 1 : 2] = cs
                out.append((ev, low, 1, spread))
            else:
                out.append((ev, es, 2, cs))
        return out

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted (ev, es, coeff) triples; the canonical serialization order."""
        return [(ev, lo + step * j, c) for ev, lo, step, coeffs in self._decoded() for j, c in enumerate(coeffs) if c]

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        w = max(self._w, other._w)
        return self._at(w) == other._at(w)

    # -- ring operations ---------------------------------------------

    def plus(self, other: "LaurentPoly | int", sign: int = 1, lift: bool = False) -> "LaurentPoly":
        """self + sign * other, sign 1 or -1, with other times z^2 when `lift`: one pass over the rows.

        In t = s^2, z^2 = t^{-1} (t - 1)^2, so a lifted row R is
        R (X - 1)^2, X = 2^w one slot, and its lowest t-exponent drops by
        one.  Each lifted coefficient is c_{j-2} - 2 c_{j-1} + c_j, at most
        4 `_cap` and 2 `_l1` in size, and sums to at most 4 `_l1`.  When
        the carried bound of the result does not fit the slot, both
        operands are tightened (`_fit`) and, failing that, re-encoded at
        the width the bound asks for.  `__add__`, `__sub__` and the skein
        tree's steps and frames all add through this loop; it never
        multiplies.
        """
        if isinstance(other, int):
            other = LaurentPoly.term(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        w = max(self._w, other._w)
        cap = self._cap + (min(4 * other._cap, 2 * other._l1) if lift else other._cap)
        if cap.bit_length() >= w:
            self._fit()
            other._fit()
            cap = self._cap + (min(4 * other._cap, 2 * other._l1) if lift else other._cap)
            w = max(w, _width(cap.bit_length()))
        out = dict(self._at(w))
        first = (1 << w) - 1  # the lowest slot
        for key, (lo, row) in other._at(w).items():
            if lift:
                lo, row = lo - 1, (row << 2 * w) - (row << w + 1) + row
            if sign < 0:
                row = -row
            if key in out:
                lo0, row0 = out[key]
                if lo0 < lo:
                    row, lo = row << w * (lo - lo0), lo0
                elif lo < lo0:
                    row0 <<= w * (lo0 - lo)
                row += row0
                if not row:
                    del out[key]
                    continue
                if not row & first:
                    lo, row = _trim(lo, row, w)
            out[key] = lo, row  # a row of `other` alone keeps its nonzero lowest slot, lifted or not
        return _new(out, w, cap, self._l1 + (4 * other._l1 if lift else other._l1))

    __add__ = __radd__ = plus

    def __neg__(self) -> "LaurentPoly":
        return _new({ev: (lo, -row) for ev, (lo, row) in self._rows.items()}, self._w, self._cap, self._l1)

    def __sub__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        return self.plus(other, -1)

    def __rsub__(self, other: int) -> "LaurentPoly":
        return LaurentPoly.term(other).plus(self, -1) if isinstance(other, int) else NotImplemented

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other or not self._rows:
                return LaurentPoly.zero()
            n = abs(other)
            if (self._cap * n).bit_length() >= self._w:
                self._fit()
            cap = self._cap * n
            w = max(self._w, _width(cap.bit_length()))
            return _new({key: (lo, row * other) for key, (lo, row) in self._at(w).items()}, w, cap, self._l1 * n)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._rows or not other._rows:
            return LaurentPoly.zero()
        w = max(self._w, other._w)
        cap = min(self._cap * other._l1, self._l1 * other._cap)
        if cap.bit_length() >= w:
            self._fit()
            other._fit()
            cap = min(self._cap * other._l1, self._l1 * other._cap)
            w = max(w, _width(cap.bit_length()))
        b = [(kb, lb, rb) for kb, (lb, rb) in other._at(w).items()]
        acc: dict[int, list[int]] = {}  # key -> [lo, row]
        for ka, (la, ra) in self._at(w).items():
            for kb, lb, rb in b:
                # Two odd parities make an even one and carry one t = s^2 into lo.
                c = ka & kb & 1
                key, lo, part = ka + kb - c - c, la + lb + c, ra * rb
                cur = acc.get(key)
                if cur is None:
                    acc[key] = [lo, part]
                elif lo >= cur[0]:
                    cur[1] += part << (w * (lo - cur[0]))
                else:
                    cur[:] = lo, (cur[1] << (w * (cur[0] - lo))) + part
        return _new({key: _trim(lo, row, w) for key, (lo, row) in acc.items() if row}, w, cap, self._l1 * other._l1)

    __rmul__ = __mul__
    __pow__ = _pow

    def times_v(self, e: int) -> "LaurentPoly":
        """self * v^e: each row moves to the key of its v-exponent plus e, with no product."""
        return _new({key + 2 * e: row for key, row in self._rows.items()}, self._w, self._cap, self._l1)

    def div_v_delta(self) -> "LaurentPoly":
        """The exact quotient self / (v^{-1} - v); ArithmeticError when it leaves a remainder.

        Q (v^{-1} - v) = N reads N_e = Q_{e+1} - Q_{e-1} on the v-rows, so
        Q_{e+1} = N_e + Q_{e-1}: each quotient row is the running sum of the
        rows of N of its parity two v-exponents apart, up to one v-exponent
        below it, and the full sum of each run is the remainder.  Every slot
        of a run's sums adds the slots of one column of N, at most B =
        min(`_l1`, rows * `_cap`) in size, so the rows are first brought to
        a slot above B (`_fit`, else one width up).  A zero remainder then
        puts each partial sum at most B / 2 in size: it is minus the sum of
        the column's rest.
        """
        if not self._rows:
            return self
        bound = min(self._l1, len(self._rows) * self._cap)
        if bound.bit_length() >= self._w:
            self._fit()
            bound = min(self._l1, len(self._rows) * self._cap)
        w = max(self._w, _width(bound.bit_length()))
        rows = self._at(w)
        first = (1 << w) - 1  # the lowest slot
        out = {}
        for run in {key & 3 for key in rows}:  # one run per parity of v and of s
            keys = [key for key in rows if key & 3 == run]
            lo = total = 0
            for key in range(min(keys), max(keys) + 1, 4):
                if key in rows:
                    lo2, row = rows[key]
                    if not total:
                        lo, total = lo2, row
                    elif lo2 < lo:
                        lo, total = lo2, (total << w * (lo - lo2)) + row
                    else:
                        total += row << w * (lo2 - lo)
                    if total and not total & first:
                        lo, total = _trim(lo, total, w)
                if total:
                    out[key + 2] = lo, total
            if total:
                raise ArithmeticError("v^{-1} - v does not divide the numerator")
        q = _new(out, w, bound >> 1, 0)
        q._l1 = q._cap * q._slots()
        return q

    # -- substitutions -----------------------------------------------

    def mirror(self) -> "LaurentPoly":
        """Substitute v -> v^{-1}, s -> s^{-1} (reflection of links)."""
        return LaurentPoly({(-ev, -es): c for ev, es, c in self.terms()})

    # -- division by cyclotomic factors ---------------------------------

    def exact_div_factor(self, k: int) -> "LaurentPoly | None":
        """Quotient by s^k - s^{-k} when exact, else None.

        s^k - s^{-k} = s^{-k} prod_{e | k} Phi_e(s^2), so this divides by
        that product (`exact_div_phis`) and multiplies by s^k.
        """
        if k < 1:
            raise ValueError("factor index k must be >= 1")
        q = self.exact_div_phis(tuple((e, 1) for e in _divisors(k)))
        return None if q is None else _times_s(q, k)

    def exact_div_phi(self, d: int) -> "LaurentPoly | None":
        """Quotient by the cyclotomic polynomial Phi_d(s^2) when exact, else None."""
        return self.exact_div_phis(((d, 1),))

    def exact_div_phis(self, factors: tuple[tuple[int, int], ...]) -> "LaurentPoly | None":
        """Quotient by prod Phi_d(s^2)^m over the (d, m) pairs when exact, else None.

        A row R is P(2^w), P a polynomial in t = s^2, so M = prod Phi_d(2^w)^m
        divides R when the product divides P: a nonzero R mod M on any row
        proves that it does not.  Otherwise the slots of each R // M are the
        quotient once a mask test, against the product's exact L1 norm,
        bounds them so that the product times them stays inside the slots,
        where the integer identity is the polynomial one.  Input the mask
        test cannot certify (a wide quotient, or a false pass of the
        remainder screen) is re-encoded one step up the slot widths and
        screened and certified again.  That ends: if the product divides P,
        its quotient's coefficients are fixed, so they pass the mask once the
        slot is wide enough; if not, P = Q prod + r with r nonzero of lower
        degree, so 0 < |r(2^w)| < M once w is wide enough, and the screen
        fails.
        """
        if not self._rows:
            return LaurentPoly.zero()
        w = self._w
        while True:
            w, m, bits = _product_at(factors, w)
            out = {}
            for key, (lo, row) in self._at(w).items():
                quotient, rest = divmod(row, m)
                if rest:
                    return None
                out[key] = (lo, quotient)
            if _within([row for _, row in out.values()], w, bits):
                q = _new(out, w, 1 << (bits - 1), 0)
                q._l1 = q._cap * q._slots()
                return q
            w = _width(w)

    # -- serialization -------------------------------------------------

    def to_json(self) -> list[dict[str, int]]:
        rows = self._decoded()
        return [{"v": ev, "s": lo + step * j, "c": c} for ev, lo, step, cs in rows for j, c in enumerate(cs) if c]

    def json_text(self) -> str:
        """`json.dumps(self.to_json(), separators=(",", ":"))`, written straight from the rows.

        Each v-row writes its `{"v":ev,"s":` head once, as the joiner of
        its terms' `es,"c":c}` pieces.
        """
        rows = []
        for ev, lo, step, coeffs in self._decoded():
            head = f'{{"v":{ev},"s":'
            pieces = [f'{es},"c":{c}}}' for es, c in zip(range(lo, lo + step * len(coeffs), step), coeffs) if c]
            rows.append(head + ("," + head).join(pieces))
        return "[" + ",".join(rows) + "]"

    @classmethod
    def from_json(cls, obj: Iterable[dict[str, int]]) -> "LaurentPoly":
        """Read `to_json` output, adding repeated terms.

        Exponents beyond MAX_EXPONENT, and terms whose rows would pack more
        than MAX_SLOTS slots, raise ValueError before anything is packed.
        """
        data = _grouped([
            ((json_int(t, "v", MAX_EXPONENT), json_int(t, "s", MAX_EXPONENT)), json_int(t, "c"))
            for t in json_list(obj)
        ])
        spans = _s_spans((key, min(row), max(row)) for key, row in data.items())
        check_slots(sum(hi - lo + 1 for lo, hi in spans.values()))
        p = cls.__new__(cls)
        p._pack_rows(data)
        return p

    def spans(self) -> dict[int, tuple[int, int]]:
        """{ev: (lowest, highest s-exponent)} of each v-row; its rows pack at most the slots between."""
        return _s_spans((key, lo, lo + row.bit_length() // self._w) for key, (lo, row) in self._rows.items())

    def format(self, style: str = "plain") -> str:
        """Terms in canonical order, in `plain` or `latex` notation.

        Each v-row builds its v factor and the text of its s factor before
        the exponent once; a term is then one f-string of its sign, |c|
        unless that is 1, that text and its s-exponent.  Only s^0 and s^1,
        which write no exponent, are put together factor by factor.
        """
        power, times, _, _ = _style(style)
        opening, closing = power
        chunks: list[str] = []
        for ev, lo, step, coeffs in self._decoded():
            v = _power("v", ev, power) if ev else ""
            s = v + times + "s" if v else "s"
            unit, scaled = s + opening, times + s + opening  # before the exponent of s, for |c| = 1 and |c| > 1
            for es, c in zip(range(lo, lo + step * len(coeffs), step), coeffs):
                if not c:
                    continue
                if es == 0 or es == 1:
                    f, a = s if es else v, abs(c)
                    term = str(a) if not f else f if a == 1 else f"{a}{times}{f}"
                    chunks.append(("- " if c < 0 else "+ ") + term)
                elif c > 0:
                    chunks.append(f"+ {unit}{es}{closing}" if c == 1 else f"+ {c}{scaled}{es}{closing}")
                else:
                    chunks.append(f"- {unit}{es}{closing}" if c == -1 else f"- {-c}{scaled}{es}{closing}")
        if not chunks:
            return "0"
        text = " ".join(chunks)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    __str__ = __repr__ = format


def _s_binomial(k: int) -> LaurentPoly:
    """The denominator factor s^k - s^{-k}."""
    return LaurentPoly({(0, k): 1, (0, -k): -1})


Z = _s_binomial(1)  # z = s - s^{-1}, the factor of the crossing exchange


@cache
def _den_poly(den: tuple[tuple[int, int], ...]) -> LaurentPoly:
    """Expanded product of a nonempty factored denominator."""
    return reduce(operator.mul, (_s_binomial(k) ** mult for k, mult in den))


@cache
def common_denominator(dens: tuple[tuple[tuple[int, int], ...], ...]) -> tuple[tuple[tuple[int, int], ...], tuple]:
    """The lcm `top` of factored denominators, and the cofactor of each.

    A cofactor is the expanded product of the factors that raise its
    denominator to `top`; None when the denominator is `top` already.
    As multisets of factors, the lcm is the union (`|` takes the larger
    multiplicity) and a cofactor is `top` minus its denominator (`-` keeps
    the positive gaps).  Sums over the same denominators, in the same
    order, share one entry.
    """
    lcm = reduce(operator.or_, (Counter(dict(den)) for den in dens), Counter())
    gaps = [tuple(sorted((lcm - Counter(dict(den))).items())) for den in dens]
    return tuple(sorted(lcm.items())), tuple(_den_poly(gap) if gap else None for gap in gaps)


def _divisors(k: int) -> list[int]:
    """The e with Phi_e(s^2) dividing s^k - s^{-k}, i.e. the divisors of k."""
    return [e for e in range(1, k + 1) if k % e == 0]


def _divide(p: list[int], q: tuple[int, ...]) -> list[int]:
    """Exact quotient of integer polynomials, highest coefficient first; q monic."""
    p = list(p)
    for i in range(len(p) - len(q) + 1):
        for j in range(1, len(q)):
            p[i + j] -= p[i] * q[j]
    return p[: len(p) - len(q) + 1]


@cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Coefficients of Phi_d(s), highest first: s^d - 1 over every Phi_e, e | d, e < d."""
    p = [1] + [0] * (d - 1) + [-1]
    for e in range(1, d):
        if d % e == 0:
            p = _divide(p, _cyclotomic(e))
    return tuple(p)


@cache
def _product_at(factors: tuple[tuple[int, int], ...], w: int) -> tuple[int, int, int]:
    """The first slot width w' >= w with a positive bound b, prod Phi_d(2^w')^m there, and b.

    prod Phi_d(2^w')^m is the packed row of prod Phi_d(s^2)^m over the
    (d, m) pairs, and b the slot bound that certifies a quotient row: with
    the product's L1 norm below 2^n and b = w' - 1 - n, the product times
    slots in [-2^(b-1), 2^(b-1)) has slots below 2^(w'-2) in size, and the
    balanced base-2^w' digits of an integer are unique.
    """
    coeffs = [1]  # lowest first
    for d, m in factors:
        phi = _cyclotomic(d)[::-1]
        for _ in range(m):
            out = [0] * (len(coeffs) + len(phi) - 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            coeffs = out
    n = sum(map(abs, coeffs)).bit_length()
    w = max(w, _width(n + 1))
    return w, _pack(coeffs, w), w - 1 - n


class SkeinScalar:
    """A fraction num / prod (s^k - s^{-k})^mult over the Laurent ring.

    Construction and arithmetic never divide: a sum is kept over the
    lcm of the factored denominators and a product over their union, and
    zero is the zero numerator with an empty denominator.  What a scalar
    shows (`num`, `den`, JSON, notation, equality and hash) is its
    canonical form, the one reduction, computed once on first read:
    divide out of the numerator every Phi_e(s^2), e | k, that it holds
    (`LaurentPoly.exact_div_phi`), leaving the exponent vector of the
    reduced denominator prod Phi_e(s^2)^{n_e}; cover it by repeatedly
    adding s^k - s^{-k} with k = e for the largest uncovered e.  The cover
    reads only the vector, so each value has exactly one representative.
    It is the cover in s too: Phi_e(s^2) is Phi_e(s) Phi_2e(s) for odd e
    and Phi_2e(s) for even e, and a binomial holds one of those factors
    exactly when it holds the other.
    """

    __slots__ = ("_num", "_den", "_canon")

    def __init__(self, num: LaurentPoly | int, den: Iterable[tuple[int, int]] = ()):
        if isinstance(num, int):
            num = LaurentPoly.term(num)
        elif not isinstance(num, LaurentPoly):
            raise TypeError(f"cannot interpret {num!r} as a SkeinScalar")
        merged: dict[int, int] = {}
        for k, mult in den:
            if type(k) is not int or type(mult) is not int or k < 1 or mult < 1:
                raise ValueError("denominator factors need integers k >= 1 and mult >= 1")
            merged[k] = merged.get(k, 0) + mult
        if not num:
            merged = {}
        self._num = num
        self._den = tuple(sorted(merged.items()))
        self._canon = None

    def _canonical(self) -> tuple[LaurentPoly, tuple[tuple[int, int], ...]]:
        if self._canon is not None:
            return self._canon
        num, e = self._num, {}
        for k, mult in self._den:
            for d in _divisors(k):
                e[d] = e.get(d, 0) + mult
        for d in e:
            while e[d] and (q := num.exact_div_phi(d)) is not None:
                num, e[d] = q, e[d] - 1
        if num is self._num:
            # The cover of a multiset of binomials is that multiset: the
            # largest d is the largest k.
            self._canon = (self._num, self._den)
            return self._canon
        # value = num s^shift / prod Phi_d(s^2)^e_d; the cover adds s^-k Phi_d(s^2) for each d | k.
        cover: dict[int, int] = {}
        shift = sum(k * mult for k, mult in self._den)
        while k := max((d for d in e if e[d]), default=0):
            cover[k] = cover.get(k, 0) + 1
            shift -= k
            for d in _divisors(k):
                if e.get(d):
                    e[d] -= 1
                else:
                    num = num * LaurentPoly(((0, 2 * j), c) for j, c in enumerate(reversed(_cyclotomic(d))))
        self._canon = (_times_s(num, shift), tuple(sorted(cover.items())))
        return self._canon

    # -- constructors -------------------------------------------------

    @classmethod
    def _reduced(cls, num: LaurentPoly, den: Iterable[tuple[int, int]]) -> "SkeinScalar":
        """num / den, already canonical: its builder proves no Phi_e(s^2) of `den` divides `num`.

        The canonical form is then the value as built, since the cover of a
        multiset of binomials is that multiset, and it is stored at once.
        """
        x = cls(num, den)
        x._canon = (x._num, x._den)
        return x

    @classmethod
    def _over_z(cls, num: LaurentPoly, den: tuple[tuple[int, int], ...], c: int) -> "SkeinScalar":
        """num / den, stored as its canonical form num' / z^c, which its builder proves.

        Lickorish and Millett ("A polynomial invariant of oriented links",
        Topology 26, 1987): a link of c components, each the unknot at 1 and
        framed by a power of v, has the canonical denominator z^c exactly,
        z = s - s^{-1}.  With s^k - s^{-k} = s^{-k} prod_{d | k} Phi_d(s^2)
        and z^c = s^{-c} Phi_1(s^2)^c, num / den is (num / P) s^(K - c) / z^c,
        where K = sum k mult over `den` and P is the product of the Phi_d(s^2)
        of `den` less Phi_1(s^2)^c: one exact division by P
        (`LaurentPoly.exact_div_phis`), none when P is 1.  That division
        failing, or `den` holding fewer than c factors Phi_1(s^2), contradicts
        the theorem, and raises ArithmeticError.
        """
        e: Counter = Counter()
        for k, mult in den:
            for d in _divisors(k):
                e[d] += mult
        e[1] -= c
        if e[1] < 0:
            raise ArithmeticError(f"not over z^{c}: only {e[1] + c} factors z in its denominator")
        factors = tuple(sorted((d, m) for d, m in e.items() if m))
        if factors and (num := num.exact_div_phis(factors)) is None:
            raise ArithmeticError(f"not over z^{c}: no exact quotient by Phi_d(s^2)^m for (d, m) in {factors}")
        return cls._reduced(_times_s(num, sum(k * mult for k, mult in den) - c), ((1, c),) if c else ())

    @classmethod
    def zero(cls) -> "SkeinScalar":
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> "SkeinScalar":
        return cls(LaurentPoly.one())

    # -- queries -------------------------------------------------------

    @property
    def num(self) -> LaurentPoly:
        return self._canonical()[0]

    @property
    def den(self) -> tuple[tuple[int, int], ...]:
        """(k, mult) pairs, sorted by k: the factors (s^k - s^{-k})^mult."""
        return self._canonical()[1]

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value: "SkeinScalar | LaurentPoly | int") -> "SkeinScalar":
        return value if isinstance(value, SkeinScalar) else SkeinScalar(value)

    def __add__(self, other: "SkeinScalar | LaurentPoly | int") -> "SkeinScalar":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return SkeinScalar.sum((self, other))

    __radd__ = __add__

    @classmethod
    def sum(cls, values: Iterable["SkeinScalar | LaurentPoly | int"]) -> "SkeinScalar":
        """The sum of `values`: numerators over one denominator are added, then the groups over their lcm."""
        groups: dict[tuple[tuple[int, int], ...], LaurentPoly] = {}
        for x in map(cls._coerce, values):
            groups[x._den] = groups[x._den] + x._num if x._den in groups else x._num
        groups = {den: num for den, num in groups.items() if num}
        top, cofactors = common_denominator(tuple(groups))
        nums = [part if cofactor is None else part * cofactor for part, cofactor in zip(groups.values(), cofactors)]
        return cls(reduce(operator.add, nums) if nums else LaurentPoly.zero(), top)

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
        if isinstance(other, int):
            return SkeinScalar(self._num * other, self._den)
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return SkeinScalar(self._num * other._num, self._den + other._den)

    __rmul__ = __mul__
    __pow__ = _pow

    # -- substitutions ---------------------------------------------------

    def mirror(self) -> "SkeinScalar":
        # s -> s^{-1} negates each factor s^k - s^{-k}; the accumulated
        # sign moves into the numerator.
        sign = -1 if sum(m for _, m in self._den) % 2 else 1
        return SkeinScalar(self._num.mirror() * sign, self._den)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly)):
            other = SkeinScalar(other)
        if not isinstance(other, SkeinScalar):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        num, den = self._canonical()
        terms = num.terms()
        if den or any(t[:2] != (0, 0) for t in terms):
            return hash((den, tuple(terms)))
        return hash(terms[0][2] if terms else 0)  # an integer constant hashes as the int it equals

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict[str, list]:
        num, den = self._canonical()
        return {"num": num.to_json(), "den": [{"k": k, "mult": m} for k, m in den]}

    @classmethod
    def from_json(cls, obj: dict) -> "SkeinScalar":
        """Read `to_json` output; a denominator of degree above MAX_EXPONENT raises ValueError."""
        num = LaurentPoly.from_json(json_item(obj, "num"))
        den = [(json_int(f, "k"), json_int(f, "mult")) for f in json_list(json_item(obj, "den"))]
        check_degree(den)
        return cls(num, den)

    def format(self, style: str = "plain") -> str:
        """Numerator over the factored denominator, in `plain` or `latex` notation."""
        power, _, fraction, joiner = _style(style)
        num, den = self._canonical()
        if not den:
            return num.format(style)
        parts = []
        for k, mult in den:
            base = f"({_power('s', k, power)} - {_power('s', -k, power)})"
            parts.append(_power(base, mult, power))
        return fraction.format(num.format(style), joiner.join(parts))

    __str__ = __repr__ = format


@cache
def delta() -> SkeinScalar:
    """Value of one null-homotopic loop: (v^{-1} - v) / (s - s^{-1}); one shared immutable value."""
    return SkeinScalar(LaurentPoly({(-1, 0): 1, (1, 0): -1}), ((1, 1),))


def all_distinct(values: Iterable[SkeinScalar]) -> bool:
    """True when no two of the given scalars are equal as ring values."""
    vals = list(values)
    return len(set(vals)) == len(vals)
