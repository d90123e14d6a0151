"""Exact arithmetic for the scalar domains used across the package.

Three families of fields are supported: the rationals, prime fields GF(p)
for odd p (p = 2 only through an explicit escape hatch), and quadratic
extensions K(sqrt(d)) of either, where d must not be a square in K.

Scalars are plain hashable values kept in canonical form, so `==` and
`hash` mean field equality directly:

* rationals: `fractions.Fraction`
* GF(p):     `int` residue in [0, p)
* quadratic: pair `(a, b)` of base scalars meaning a + b*sqrt(d)

`Field.is_zero` is the one zero test and the kernels call it once on
every entry and every new sum, so each field gives it the cheapest exact
form.  Since scalars are canonical, falsiness is zero-ness for `Fraction`
and `int`: the rationals and GF(p) test `not a` (as the builtin
`operator.not_`, which costs no Python call frame), a quadratic scalar is
zero when both of its base coordinates are.  The base class keeps the
generic `a == zero`.

A `Field` instance is an operation handle; it never wraps scalars.  The
one field outside this module, `polyring.PolynomialField`, has sparse
dicts as scalars: canonical too, so `==` is still equality, but not
hashable, and never changed in place once made.  It serves the kernels
that only add and multiply.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Any, Iterator

__all__ = [
    "Field",
    "FieldError",
    "PrimeField",
    "QuadraticField",
    "RationalField",
    "make_field",
]

Scalar = Any


class FieldError(ValueError):
    """Rejected field description or unsupported field operation."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Base operation handle.  Subclasses fix the scalar representation."""

    kind: str = "?"
    char: int = 0
    order: int | None = None  # None when infinite

    zero: Scalar
    one: Scalar

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return self.add(a, self.neg(b))

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def half(self, a: Scalar) -> Scalar:
        return self.div(a, self.from_int(2))

    def is_zero(self, a: Scalar) -> bool:
        return a == self.zero

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    def from_int(self, k: int) -> Scalar:
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def format(self, a: Scalar) -> str:
        raise NotImplementedError

    def sort_key(self, a: Scalar):
        """Total order key on canonical scalars, for deterministic output."""
        raise NotImplementedError

    def sqrt(self, a: Scalar) -> Scalar | None:
        """Canonical square root of a, or None when a is not a square."""
        raise NotImplementedError

    def random(self, rng) -> Scalar:
        """A scalar drawn from rng (uniform on finite fields; small
        numerators and denominators over the rationals)."""
        raise NotImplementedError

    def elements(self) -> Iterator[Scalar]:
        raise FieldError(f"{self}: cannot enumerate an infinite field")

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.descriptor() == other.descriptor()

    def __hash__(self) -> int:
        return hash(repr(self))

    def __repr__(self) -> str:
        return self.kind


class RationalField(Field):
    """The field of rational numbers; scalars are Fraction values."""

    kind = "rational"
    char = 0
    order = None

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    is_zero = staticmethod(operator.not_)

    def from_int(self, k):
        return Fraction(k)

    def parse(self, text):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def format(self, a):
        return str(a)

    def sort_key(self, a):
        return a

    def sqrt(self, a):
        if a < 0:
            return None
        rn, rd = math.isqrt(a.numerator), math.isqrt(a.denominator)
        if rn * rn == a.numerator and rd * rd == a.denominator:
            return Fraction(rn, rd)
        return None

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def descriptor(self):
        return {"kind": "rational"}

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """GF(p) for prime p; scalars are int residues in [0, p).

    p = 2 is refused unless allow_char2 is set; the escape hatch exists only
    for simplicity checks, where characteristic 2 is still meaningful.
    """

    kind = "prime"

    def __init__(self, p: int, allow_char2: bool = False):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        if p == 2 and not allow_char2:
            raise FieldError("characteristic 2 is refused here; "
                             "pass allow_char2=True only for simplicity checks")
        self.p = p
        self.char = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    is_zero = staticmethod(operator.not_)

    def from_int(self, k):
        return k % self.p

    def parse(self, text):
        try:
            return int(text.strip(), 10) % self.p
        except ValueError as exc:
            raise FieldError(f"bad residue literal {text!r}") from exc

    def format(self, a):
        return str(a)

    def sort_key(self, a):
        return a

    def sqrt(self, a):
        p = self.p
        if a == 0:
            return 0
        if p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
        else:
            # Tonelli-Shanks
            q, s = p - 1, 0
            while q % 2 == 0:
                q //= 2
                s += 1
            z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
            m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
            while t != 1:
                i, t2 = 0, t
                while t2 != 1:
                    t2 = t2 * t2 % p
                    i += 1
                b = pow(c, 1 << (m - i - 1), p)
                m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return min(r, p - r)

    def random(self, rng):
        return rng.randrange(self.p)

    def elements(self):
        return iter(range(self.p))

    def descriptor(self):
        return {"kind": "prime", "p": self.p}

    def __repr__(self):
        return f"GF({self.p})"


_TERM_RE = re.compile(r"[+-]?[^+-]+")


class QuadraticField(Field):
    """K(sqrt(d)) over a rational or odd-prime base K; scalars are (a, b) pairs.

    d must be a nonzero nonsquare in the base; construction refuses it
    otherwise and names the root it found.  The literal syntax writes the
    adjoined root as `r`, e.g. "1/2-3*r" over Q or "1+2*r" over GF(5).
    """

    kind = "quadratic"

    def __init__(self, base: Field, d: Scalar):
        if base.kind not in ("rational", "prime"):
            raise FieldError("quadratic base must be the rationals or a prime field")
        if base.char == 2:
            raise FieldError("no quadratic extension over characteristic 2")
        if base.is_zero(d):
            raise FieldError("d must be nonzero")
        root = base.sqrt(d)
        if root is not None:
            raise FieldError(
                f"d = {base.format(d)} is a square in {base!r}: "
                f"{base.format(root)}^2 = {base.format(d)}")
        self.base = base
        self.d = d
        self.char = base.char
        self.order = base.order ** 2 if base.order is not None else None
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def add(self, a, b):
        B = self.base
        return (B.add(a[0], b[0]), B.add(a[1], b[1]))

    def neg(self, a):
        B = self.base
        return (B.neg(a[0]), B.neg(a[1]))

    def mul(self, a, b):
        B = self.base
        a0, a1 = a
        b0, b1 = b
        if self.char:
            return (B.add(B.mul(a0, b0), B.mul(self.d, B.mul(a1, b1))),
                    B.add(B.mul(a0, b1), B.mul(a1, b0)))
        # Over Q each coordinate is one Fraction built from integer
        # numerators and denominators, reduced once (Knuth, TAOCP vol. 2,
        # 4.5.1).
        p0, q0 = a0.numerator, a0.denominator
        p1, q1 = a1.numerator, a1.denominator
        r0, s0 = b0.numerator, b0.denominator
        r1, s1 = b1.numerator, b1.denominator
        dn, dd = self.d.numerator, self.d.denominator
        return (Fraction(p0 * r0 * dd * q1 * s1 + dn * p1 * r1 * q0 * s0,
                         q0 * s0 * dd * q1 * s1),
                Fraction(p0 * r1 * q1 * s0 + p1 * r0 * q0 * s1,
                         q0 * s1 * q1 * s0))

    def inv(self, a):
        B = self.base
        a0, a1 = a
        # norm a0^2 - d*a1^2 vanishes only at zero since d is a nonsquare
        n = B.sub(B.mul(a0, a0), B.mul(self.d, B.mul(a1, a1)))
        if B.is_zero(n):
            raise ZeroDivisionError("inverse of 0")
        ninv = B.inv(n)
        return (B.mul(a0, ninv), B.neg(B.mul(a1, ninv)))

    def is_zero(self, a):
        return not a[0] and not a[1]

    def from_int(self, k):
        return (self.base.from_int(k), self.base.zero)

    def parse(self, text):
        B = self.base
        s = text.replace(" ", "")
        if not s:
            raise FieldError("empty scalar literal")
        a, b = B.zero, B.zero
        for term in _TERM_RE.findall(s):
            if term.endswith("r"):
                coef = term[:-1].rstrip("*")
                if coef in ("", "+"):
                    b = B.add(b, B.one)
                elif coef == "-":
                    b = B.sub(b, B.one)
                else:
                    b = B.add(b, B.parse(coef))
            else:
                a = B.add(a, B.parse(term))
        return (a, b)

    def format(self, a):
        B = self.base
        a0, a1 = a
        if B.is_zero(a1):
            return B.format(a0)
        if B.kind == "rational" and a1 < 0:
            return f"{B.format(a0)}-{B.format(-a1)}*r"
        return f"{B.format(a0)}+{B.format(a1)}*r"

    def sort_key(self, a):
        B = self.base
        return (B.sort_key(a[0]), B.sort_key(a[1]))

    def _canonical_root(self, r):
        n = self.neg(r)
        if self.base.kind == "rational":
            a, b = r
            return r if a > 0 or (a == 0 and b > 0) else n
        return r if self.sort_key(r) <= self.sort_key(n) else n

    def sqrt(self, x):
        B = self.base
        a, b = x
        if self.is_zero(x):
            return self.zero
        if B.is_zero(b):
            r = B.sqrt(a)
            if r is not None:
                return self._canonical_root((r, B.zero))
            v = B.sqrt(B.div(a, self.d))
            if v is not None:
                return self._canonical_root((B.zero, v))
            return None
        # For b != 0 any root u + v*r has u, v != 0, v = b/(2u) and
        # u^2 = (a +- s)/2 where s^2 = a^2 - d*b^2 (the norm of x).
        s = B.sqrt(B.sub(B.mul(a, a), B.mul(self.d, B.mul(b, b))))
        if s is None:
            return None
        two = B.from_int(2)
        for cand in (B.div(B.add(a, s), two), B.div(B.sub(a, s), two)):
            u = B.sqrt(cand)
            if u is None or B.is_zero(u):
                continue
            v = B.div(b, B.mul(two, u))
            root = (u, v)
            if self.mul(root, root) == x:
                return self._canonical_root(root)
        return None

    def random(self, rng):
        return (self.base.random(rng), self.base.random(rng))

    def elements(self):
        for a in self.base.elements():
            for b in self.base.elements():
                yield (a, b)

    def descriptor(self):
        return {"kind": "quadratic",
                "base": self.base.descriptor(),
                "d": self.base.format(self.d)}

    def __repr__(self):
        return f"{self.base!r}(sqrt({self.base.format(self.d)}))"


def _least_nonsquare(p: int) -> int:
    field = PrimeField(p)
    return next(c for c in range(2, p) if field.sqrt(c) is None)


def _from_shorthand(name: str, allow_char2: bool) -> Field:
    if name == "q":
        return RationalField()
    if name == "qi":
        base = RationalField()
        return QuadraticField(base, Fraction(-1))
    m = re.fullmatch(r"gf(\d+)", name)
    if m:
        n = int(m.group(1))
        if _is_prime(n):
            return PrimeField(n, allow_char2=allow_char2)
        r = math.isqrt(n)
        if r * r == n and _is_prime(r) and r != 2:
            base = PrimeField(r)
            return QuadraticField(base, base.from_int(_least_nonsquare(r)))
        raise FieldError(f"unsupported field order {n}: need p or p^2, p an odd prime")
    raise FieldError(f"unknown field shorthand {name!r}")


def make_field(spec: dict | str, allow_char2: bool = False) -> Field:
    """Build a field from a JSON descriptor or a shorthand name.

    Shorthands: "q" (rationals), "qi" (Q(sqrt(-1))), "gfN" for N = p or p^2.
    Descriptors: {"kind": "rational"} | {"kind": "prime", "p": int}
    | {"kind": "quadratic", "base": <descriptor>, "d": <base literal>}.
    """
    if isinstance(spec, str):
        return _from_shorthand(spec.strip().lower(), allow_char2)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise FieldError(f"bad field descriptor: {spec!r}")
    kind = spec["kind"]
    if kind == "rational":
        return RationalField()
    if kind == "prime":
        try:
            p = int(spec["p"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldError(f"bad prime field descriptor: {spec!r}") from exc
        return PrimeField(p, allow_char2=allow_char2)
    if kind == "quadratic":
        if "base" not in spec or "d" not in spec:
            raise FieldError(f"bad quadratic descriptor: {spec!r}")
        base = make_field(spec["base"])
        return QuadraticField(base, base.parse(str(spec["d"])))
    raise FieldError(f"unknown field kind {kind!r}")
