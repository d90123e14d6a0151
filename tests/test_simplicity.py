"""`is_simple` against the line walk, and the multiplication-algebra
certificate on its own.

`is_simple` answers "simple" from dim M(A) = n^2 before it walks any line,
and walks only when the words in the multiplications span less.  The
oracle below is the line walk alone, as `is_simple` was without the
certificate; both must give the same report, verdict, witness ideal and
generator alike, on random tables with and without an ideal, on the
upper-triangular algebras and on the anticommutator algebras.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from prelie import linalg as la
from prelie.algebras import (Algebra, _multiplication_algebra_dim,
                             apex_algebra, ideal_closure,
                             infinite_truncation_algebra, is_ideal,
                             is_simple, plus_algebra, upper_triangular_algebra)
from prelie.fields import make_field
from prelie.reports import CheckReport

FIELDS = {spec: make_field(spec, allow_char2=True)
          for spec in ("gf2", "gf3", "gf5", "gf9")}
# the largest dimension drawn per field, so that a walk has at most 156 lines
MAX_DIM = {"gf2": 4, "gf3": 4, "gf5": 3, "gf9": 3}


def walk(A, cap=10 ** 6):
    """Simplicity by the line walk alone: the ideal generated by each
    representative of a line, the first proper one being the witness."""
    F = A.field
    if not A.table:
        return CheckReport(False, witness="zero multiplication",
                           details={"reason": "A*A = 0"})
    for v in la.enumerate_projective(F, A.dim, cap=cap):
        closure = ideal_closure(A, la.span(F, A.dim, [v]))
        if closure.dim < A.dim:
            return CheckReport(False, witness=closure,
                               details={"generator": v})
    return CheckReport(True)


def _nonzero(F, rng):
    while True:
        a = F.random(rng)
        if not F.is_zero(a):
            return a


def _table(F, n, density, ideal, rng):
    """A random table; with 0 < ideal < n no product with a factor among
    the first `ideal` basis vectors leaves their span, which is therefore
    a proper ideal."""
    table = {}
    for i, j, k in product(range(n), repeat=3):
        if 0 < ideal and (i < ideal or j < ideal) and k >= ideal:
            continue
        if rng.random() < density:
            table[(i, j, k)] = _nonzero(F, rng)
    return table


def _rebased(A, rng):
    """A in a random basis: the algebra with structure constants
    P^-1 ((P e_i)(P e_j)) for a random invertible P, so that an ideal need
    not be spanned by basis vectors."""
    F, n = A.field, A.dim
    while True:
        P = la.random_matrix(F, n, n, rng)
        if la.is_invertible(F, P):
            break
    E = la.identity_matrix(F, n)
    R = la.rref(F, [row + e for row, e in zip(P, E)])[0]
    P_inv = tuple(row[n:] for row in R)
    cols = la.transpose(P)
    table = {}
    for i in range(n):
        for j in range(n):
            v = la.mat_vec(F, P_inv, A.multiply(cols[i], cols[j]))
            for k, c in enumerate(v):
                if not F.is_zero(c):
                    table[(i, j, k)] = c
    return Algebra(F, n, table)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.integers(1, 4),
       st.sampled_from((0.0, 0.2, 0.5, 1.0)), st.integers(0, 3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_is_simple_matches_the_line_walk_on_random_tables(spec, n, density,
                                                         ideal, rebase, seed):
    F = FIELDS[spec]
    n = min(n, MAX_DIM[spec])
    rng = random.Random(seed)
    A = Algebra(F, n, _table(F, n, density, min(ideal, n - 1), rng))
    if rebase:
        A = _rebased(A, rng)
    rep = is_simple(A)
    assert rep == walk(A)
    if not rep.ok and rep.witness != "zero multiplication":
        assert is_ideal(A, rep.witness).ok


def test_random_tables_reach_both_verdicts():
    """The random tables above give simple algebras, which the certificate
    settles, and algebras with an ideal, which the walk has to find."""
    seen = set()
    rng = random.Random(7)
    for spec in sorted(FIELDS):
        F = FIELDS[spec]
        for n in range(1, MAX_DIM[spec] + 1):
            for density in (0.2, 0.5):
                for ideal in (0, 1):
                    A = Algebra(F, n, _table(F, n, density, min(ideal, n - 1),
                                             rng))
                    full = _multiplication_algebra_dim(A) == n * n
                    seen.add((walk(A).ok, full))
    assert seen >= {(True, True), (False, False)}


@pytest.mark.parametrize("spec", ["gf3", "gf5", "gf9"])
@pytest.mark.parametrize("n", [2, 3])
def test_is_simple_matches_the_line_walk_on_the_builders(spec, n):
    F = FIELDS[spec]
    algebras = [plus_algebra(apex_algebra(F, n)),
                upper_triangular_algebra(F, n).algebra]
    if n == 3 and spec == "gf9":
        algebras.pop()  # 6 dimensions over GF(9): a walk of 66,430 lines
    for A in algebras:
        assert is_simple(A) == walk(A)


def test_the_walk_decides_where_the_certificate_falls_short():
    """Over GF(3) at n = 2 the anticommutator algebra is simple though its
    multiplications span only 2 dimensions; over GF(9) it has an ideal."""
    for spec, simple in (("gf3", True), ("gf9", False)):
        B = plus_algebra(apex_algebra(FIELDS[spec], 2))
        assert _multiplication_algebra_dim(B) == 2
        assert is_simple(B).ok == simple
        assert is_simple(B) == walk(B)


# ------------------------------------------------------------ certificate

@pytest.mark.parametrize("spec", ["gf2", "gf3", "gf9"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_certificate_reaches_end_on_the_apex_algebra(spec, n):
    assert _multiplication_algebra_dim(apex_algebra(FIELDS[spec], n)) == n * n


@pytest.mark.parametrize("spec", ["q", "gf2", "gf3", "gf9"])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_certificate_reaches_end_on_the_truncations(spec, m):
    F = make_field(spec, allow_char2=True)
    A = infinite_truncation_algebra(F, m)
    assert _multiplication_algebra_dim(A) == (m + 1) ** 2


def test_certificate_counts_the_upper_triangular_multiplications():
    """On 3x3 upper-triangular matrices the words span 25 of the 36
    dimensions: the walk has to run, and it finds an ideal."""
    for spec in ("gf3", "gf5"):
        A = upper_triangular_algebra(FIELDS[spec], 3).algebra
        assert _multiplication_algebra_dim(A) == 25
        assert not is_simple(A).ok
