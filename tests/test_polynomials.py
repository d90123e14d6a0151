"""The polynomial field, and the symbolic identity checks built on it.

`PolynomialField` is checked on its own laws.  The symbolic checks of the
identities that are not multilinear are held to a test-local oracle: the
expansion they replaced, with monomials as exponent tuples and its own
product loop over the structure constants.  Verdict and whole witness must
agree, and the witness monomial is the least exponent vector, which is not
in general the least sorted tuple of variables.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from prelie import linalg as la
from prelie.algebras import (Algebra, apex_algebra, check_identity,
                             is_subalgebra, upper_triangular_algebra)
from prelie.fields import QuadraticField, RationalField, make_field
from prelie.polyring import PolynomialField
from prelie.reports import CheckReport

GF5 = make_field("gf5")
P5 = PolynomialField(GF5)


@st.composite
def polynomials(draw):
    """A polynomial over GF(5) in t_0..t_3 of degree at most 3."""
    mono = st.lists(st.integers(0, 3), max_size=3).map(
        lambda vs: tuple(sorted(vs)))
    return draw(st.dictionaries(mono, st.integers(1, 4), max_size=5))


def test_cancellation_drops_the_monomial():
    x = P5.gen(0)
    assert P5.add(x, P5.neg(x)) == {}
    assert P5.add(P5.add(x, P5.const(2)), P5.neg(x)) == {(): 2}
    assert P5.mul(P5.add(x, P5.one), P5.add(x, P5.neg(P5.one))) == {
        (0, 0): 1, (): 4}
    assert P5.from_int(5) == {} and P5.const(0) == {}


def test_product_monomials_are_sorted():
    x, y, z = P5.gen(2), P5.gen(0), P5.gen(1)
    assert P5.mul(P5.mul(x, y), P5.mul(z, x)) == {(0, 1, 2, 2): 1}
    assert P5.mul(P5.add(x, y), P5.add(x, y)) == {
        (2, 2): 1, (0, 2): 2, (0, 0): 1}


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_mul_commutes_and_distributes_over_add(p, q, r):
    assert P5.mul(p, q) == P5.mul(q, p)
    assert P5.mul(p, P5.add(q, r)) == \
        P5.add(P5.mul(p, q), P5.mul(p, r))
    for poly in (P5.add(p, q), P5.mul(p, q)):
        assert all(mono == tuple(sorted(mono)) and c
                   for mono, c in poly.items())


def test_a_lifted_algebra_compares_and_has_subspaces():
    A = apex_algebra(GF5, 3)
    B = Algebra(P5, 3, {key: P5.const(c) for key, c in A.table.items()})
    assert B == B and B == apex_algebra(P5, 3)
    assert P5 == PolynomialField(make_field("gf5"))
    assert P5 != PolynomialField(make_field("gf3")) and P5 != GF5
    apex = la.Subspace(P5, 3, ((P5.zero, P5.zero, P5.one),))
    first = la.Subspace(P5, 3, ((P5.one, P5.zero, P5.zero),))
    assert is_subalgebra(B, apex)
    assert is_subalgebra(B, first).witness == (0, 0)


# ------------------------------------- the symbolic checks against an oracle

def ring_add(F, p, q):
    out = dict(p)
    for m, c in q.items():
        s = F.add(out.get(m, F.zero), c)
        if F.is_zero(s):
            out.pop(m, None)
        else:
            out[m] = s
    return out


def ring_mul(F, p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            out = ring_add(F, out, {tuple(a + b for a, b in zip(m1, m2)):
                                    F.mul(c1, c2)})
    return out


def ring_product(A, nvars, x, y):
    """x y for coordinate lists of exponent-tuple polynomials."""
    F = A.field
    out = [{} for _ in range(A.dim)]
    for (i, j, k), c in A.table.items():
        term = ring_mul(F, {(0,) * nvars: c}, ring_mul(F, x[i], y[j]))
        out[k] = ring_add(F, out[k], term)
    return out


def oracle_symbolic(A, kind):
    """The symbolic check with exponent-tuple monomials: the first nonzero
    coordinate of lhs - rhs and its least monomial."""
    F, n = A.field, A.dim
    nvars = 2 * n if kind == "flexible" else n

    def gen(v):
        return {tuple(int(t == v) for t in range(nvars)): F.one}

    x = [gen(i) for i in range(n)]
    if kind == "flexible":
        y = [gen(n + i) for i in range(n)]
        lhs = ring_product(A, nvars, ring_product(A, nvars, x, y), x)
        rhs = ring_product(A, nvars, x, ring_product(A, nvars, y, x))
    else:
        xx = ring_product(A, nvars, x, x)
        lhs = ring_product(A, nvars, xx, x)
        rhs = ring_product(A, nvars, x, xx)
    details = {"kind": kind, "method": "symbolic"}
    for k, (a, b) in enumerate(zip(lhs, rhs)):
        defect = ring_add(F, a, {m: F.neg(c) for m, c in b.items()})
        if defect:
            mono = min(defect)
            return CheckReport(False, witness={
                "coordinate": k + 1, "monomial": list(mono),
                "coefficient": F.format(defect[mono])}, details=details)
    return CheckReport(True, details=details)


@st.composite
def random_tables(draw):
    """A random table at n <= 3 over GF(3), GF(5), GF(9), Q or Q(i)."""
    spec = draw(st.sampled_from(["gf3", "gf5", "gf9", "q", "qi"]))
    F = make_field(spec)
    if F.is_finite:
        scalars = st.sampled_from(list(F.elements()))
    else:
        scalars = st.builds(lambda a, b: F.parse(f"{a}/{b}"),
                            st.integers(-3, 3), st.integers(1, 3))
        if spec == "qi":
            root = F.parse("r")
            scalars = st.builds(lambda x, y: F.add(x, F.mul(y, root)),
                                scalars, scalars)
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    table = draw(st.dictionaries(st.tuples(index, index, index), scalars,
                                 max_size=2 * n * n))
    return Algebra(F, n, table)


@settings(max_examples=80, deadline=None)
@given(random_tables(), st.sampled_from(["flexible",
                                         "third_power_associative"]))
def test_symbolic_check_matches_the_exponent_oracle(A, kind):
    assert check_identity(A, kind) == oracle_symbolic(A, kind)


def test_symbolic_witness_is_the_least_exponent_vector():
    # the witness of `check-identity --family un --n 3 --field qi`: the
    # least sorted tuple of variables in its coordinate is another monomial
    QI = QuadraticField(RationalField(), Fraction(-1))
    A = upper_triangular_algebra(QI, 3).algebra
    rep = check_identity(A, "third_power_associative")
    assert rep == oracle_symbolic(A, "third_power_associative")
    assert rep.witness == {"coordinate": 2, "monomial": [0, 0, 1, 1, 1, 0],
                           "coefficient": "2"}
