"""Multivariate polynomials over a Field, as a Field.

Identities that are not multilinear (a variable occurs twice or three
times) are verified by expanding generic elements with polynomial
coordinates and asking whether every coefficient vanishes.  Coefficient
vanishing implies the identity in every characteristic, so this is the
default check even over finite fields.  Lifting the structure constants
to `PolynomialField` lets `Algebra.product` and the sparse kernels of
`linalg` do that expansion: they take their arithmetic from the field.

A polynomial is a sparse dict mapping a monomial, the sorted tuple of its
variables (`()` for the constant monomial, `(0, 0, 1)` for t_0^2 t_1), to
a nonzero scalar of the base field; zero is the empty dict.  This is also
the format of the equations that `parallel.scan_matrices` solves.
Polynomials are never changed in place.
"""

from __future__ import annotations

from . import linalg as la
from .fields import Field, Scalar

__all__ = ["PolynomialField"]


class PolynomialField(Field):
    """base[t_0, t_1, ...] with the ring operations only: there is no
    `inv`, so it is a Field for the kernels that only add and multiply."""

    kind = "polynomial"

    def __init__(self, base: Field):
        self.base = base
        self.char = base.char
        self.zero: dict = {}
        self.one = {(): base.one}

    def const(self, c: Scalar) -> dict:
        return {} if self.base.is_zero(c) else {(): c}

    def gen(self, i: int) -> dict:
        return {(i,): self.base.one}

    def add(self, p: dict, q: dict) -> dict:
        out = dict(p)
        la.add_multiple(self.base, out, self.base.one, q)
        return out

    def neg(self, p: dict) -> dict:
        neg = self.base.neg
        return {m: neg(c) for m, c in p.items()}

    def mul(self, p: dict, q: dict) -> dict:
        # with m fixed, m + m2 -> its sorted tuple is one-to-one on q
        out: dict = {}
        for m, c in p.items():
            la.add_multiple(self.base, out, c, {
                tuple(sorted(m + m2)): c2 for m2, c2 in q.items()})
        return out

    def is_zero(self, p: dict) -> bool:
        return not p

    def from_int(self, k: int) -> dict:
        return self.const(self.base.from_int(k))

    def descriptor(self) -> dict:
        return {"kind": "polynomial", "base": self.base.descriptor()}
