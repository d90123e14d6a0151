"""Minimal multivariate polynomial ring over a Field.

Internal helper for symbolic identity checks: identities that are not
multilinear (a variable occurs twice or three times) are verified by
expanding generic elements with polynomial coordinates and asking whether
every coefficient vanishes.  Coefficient vanishing implies the identity in
every characteristic, so this is the default check even over finite fields.

Polynomials are dicts mapping exponent tuples to nonzero scalars.
"""

from __future__ import annotations

from .fields import Field

Poly = dict


class PolyRing:
    """F[t_0, ..., t_{nvars-1}] with just the arithmetic we need."""

    def __init__(self, F: Field, nvars: int):
        self.F = F
        self.nvars = nvars
        self.zero: Poly = {}
        self.one: Poly = {(0,) * nvars: F.one}

    def const(self, c) -> Poly:
        if self.F.is_zero(c):
            return {}
        return {(0,) * self.nvars: c}

    def gen(self, i: int) -> Poly:
        e = [0] * self.nvars
        e[i] = 1
        return {tuple(e): self.F.one}

    def add(self, p: Poly, q: Poly) -> Poly:
        F = self.F
        out = dict(p)
        for m, c in q.items():
            s = F.add(out.get(m, F.zero), c)
            if F.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def neg(self, p: Poly) -> Poly:
        F = self.F
        return {m: F.neg(c) for m, c in p.items()}

    def sub(self, p: Poly, q: Poly) -> Poly:
        return self.add(p, self.neg(q))

    def mul(self, p: Poly, q: Poly) -> Poly:
        F = self.F
        out: Poly = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = F.add(out.get(m, F.zero), F.mul(c1, c2))
                if F.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return out

    def scale(self, c, p: Poly) -> Poly:
        return self.mul(self.const(c), p)

    def is_zero(self, p: Poly) -> bool:
        return not p

    def leading_monomial(self, p: Poly) -> tuple[int, ...]:
        return min(p)
