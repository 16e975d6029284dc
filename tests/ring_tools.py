"""Ring helpers used only by the tests."""

from hopflinks.ring import LaurentPoly, SkeinScalar


def mono(c: int, v: int = 0, s: int = 0) -> LaurentPoly:
    """The single term c * v^v * s^s."""
    return LaurentPoly.term(c, v, s)


def coefficient(p: LaurentPoly, v: int = 0, s: int = 0) -> int:
    """The coefficient of v^v * s^s in p, read from its sorted terms."""
    return next((c for ev, es, c in p.terms() if (ev, es) == (v, s)), 0)


def s_inverse(x):
    """x with s -> s^{-1} substituted and v untouched, for a LaurentPoly or a SkeinScalar.

    The substitution negates each denominator factor s^k - s^{-k} of a
    scalar, and the accumulated sign moves into the numerator.  It reads
    the stored parts, so it never divides.
    """
    if isinstance(x, LaurentPoly):
        return LaurentPoly({(ev, -es): c for ev, es, c in x.terms()})
    sign = -1 if sum(m for _, m in x._den) % 2 else 1
    return SkeinScalar(s_inverse(x._num) * sign, x._den)


# Per style: exponent template and factor joiner.
_NOTATION = {"plain": ("^{}", "*"), "latex": ("^{{{}}}", " ")}


def reference_format(p: LaurentPoly, style: str) -> str:
    """The notation of `LaurentPoly.format`, put together term by term.

    This is the formatter the ring used before it wrote each row at once:
    every term builds its list of factors, each factor by its own power,
    and joins them.  It reads the same decoded rows.
    """
    power, times = _NOTATION[style]

    def factor(base: str, exp: int) -> str:
        return base if exp == 1 else base + power.format(exp)

    chunks: list[str] = []
    for ev, lo, step, coeffs in p._decoded():
        v = [factor("v", ev)] if ev else []
        for j, c in enumerate(coeffs):
            if c:
                es = lo + step * j
                factors = v + [factor("s", es)] if es else v
                if c not in (1, -1) or not factors:
                    factors = [str(abs(c)), *factors]
                chunks.append(("- " if c < 0 else "+ ") + times.join(factors))
    if not chunks:
        return "0"
    text = " ".join(chunks)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def reference_common_denominator(dens):
    """The lcm `top` of factored denominators and each one's cofactor; None where a denominator is `top`.

    This is the loop `SkeinScalar.sum` and the closed form's weight groups
    each ran before they shared `ring.common_denominator`: the lcm by
    largest multiplicity per factor, then per denominator the product of
    its missing factors (s^k - s^{-k})^gap, expanded from 1.
    """
    lcm: dict[int, int] = {}
    for den in dens:
        for k, mult in den:
            lcm[k] = max(lcm.get(k, 0), mult)
    top = tuple(sorted(lcm.items()))
    cofactors = []
    for den in dens:
        if den == top:
            cofactors.append(None)
            continue
        have, out = dict(den), LaurentPoly.one()
        for k, mult in top:
            out = out * LaurentPoly({(0, k): 1, (0, -k): -1}) ** (mult - have.get(k, 0))
        cofactors.append(out)
    return top, cofactors


def raw(x: SkeinScalar) -> tuple:
    """The stored parts of a scalar: its numerator's rows, slot width and two bounds, and its denominator."""
    return x._num._rows, x._num._w, x._num._cap, x._num._l1, x._den


def canonical_from_scratch(x: SkeinScalar) -> tuple:
    """The canonical form of x's stored numerator and denominator, screened afresh."""
    return SkeinScalar(x._num, x._den)._canonical()
