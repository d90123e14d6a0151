"""The zero-skipping kernels against dense oracles.

`linalg` and `Algebra.multiply` skip every term with a zero factor.  The
references below compute every term the plain dense way, as the kernels
did before they skipped zeros, and every result must be equal entry for
entry.  Inputs are drawn 50-90% zero, plus all-zero and fully dense ones,
over Q, Q(i), GF(5) and GF(9).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prelie import linalg as la
from prelie.algebras import (Algebra, apex_algebra, dot_product_algebra,
                             upper_triangular_algebra)
from prelie.fields import make_field

FIELDS = {spec: make_field(spec) for spec in ("q", "qi", "gf5", "gf9")}

# share of nonzero entries: all-zero, 90%..50% zero, dense
DENSITIES = (0.0, 0.1, 0.25, 0.5, 1.0)


# ------------------------------------------------------------ dense oracles

def ref_dot(F, x, y):
    acc = F.zero
    for a, b in zip(x, y):
        acc = F.add(acc, F.mul(a, b))
    return acc


def ref_vadd(F, x, y):
    return tuple(F.add(a, b) for a, b in zip(x, y))


def ref_vscale(F, c, x):
    return tuple(F.mul(c, a) for a in x)


def ref_mat_vec(F, M, x):
    return tuple(ref_dot(F, row, x) for row in M)


def ref_mat_mul(F, A, B):
    cols = list(zip(*B))
    return tuple(tuple(ref_dot(F, row, col) for col in cols) for row in A)


def ref_rref(F, M):
    rows = [list(r) for r in M]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c] != F.zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, v) for v in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != F.zero:
                f = rows[i][c]
                rows[i] = [F.sub(v, F.mul(f, w))
                           for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in rows), r, tuple(pivots)


def ref_kernel(F, M, ncols):
    """Canonical basis of the null space: the RREF of the standard
    null-space vectors read off ref_rref."""
    R, rank, pivots = ref_rref(F, M)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [F.zero] * ncols
        v[free] = F.one
        for r, c in enumerate(pivots):
            v[c] = F.neg(R[r][free])
        basis.append(tuple(v))
    if not basis:
        return ()
    R, rank, _ = ref_rref(F, basis)
    return R[:rank]


def ref_contains(F, basis, x):
    """x lies in the span of basis exactly when adjoining it keeps the
    rank."""
    return ref_rref(F, list(basis) + [x])[1] == len(basis)


def ref_multiply(A, x, y):
    F = A.field
    out = [F.zero] * A.dim
    for (i, j, k), c in A.table.items():
        out[k] = F.add(out[k], F.mul(F.mul(x[i], y[j]), c))
    return tuple(out)


# ------------------------------------------------------------------ inputs

def _nonzero(F, rng):
    while True:
        a = F.random(rng)
        if not F.is_zero(a):
            return a


def _vector(F, n, density, rng):
    return tuple(_nonzero(F, rng) if rng.random() < density else F.zero
                 for _ in range(n))


def _matrix(F, rows, cols, density, rng):
    """A matrix of the given density; half the time its last row is made a
    combination of two others, so rank drops and kernels grow."""
    M = [_vector(F, cols, density, rng) for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.5:
        a, b = rng.sample(range(rows - 1), 2)
        M[-1] = ref_vadd(F, ref_vscale(F, F.random(rng), M[a]),
                         ref_vscale(F, F.random(rng), M[b]))
    return tuple(M)


def _table(F, n, density, rng):
    return {(i, j, k): _nonzero(F, rng)
            for i in range(n) for j in range(n) for k in range(n)
            if rng.random() < density}


cases = st.tuples(st.sampled_from(sorted(FIELDS)),
                  st.sampled_from(DENSITIES),
                  st.integers(0, 2 ** 32 - 1))


# ------------------------------------------------------------------- tests

@settings(max_examples=150, deadline=None)
@given(cases, st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_matrix_products_match_dense(case, r, m, c):
    spec, density, seed = case
    F = FIELDS[spec]
    rng = random.Random(seed)
    A = _matrix(F, r, m, density, rng)
    B = _matrix(F, m, c, density, rng)
    x = _vector(F, m, density, rng)
    assert la.mat_vec(F, A, x) == ref_mat_vec(F, A, x)
    assert la.mat_mul(F, A, B) == ref_mat_mul(F, A, B)


@settings(max_examples=200, deadline=None)
@given(cases, st.integers(1, 7), st.integers(1, 7))
def test_rref_and_kernel_match_dense(case, r, c):
    spec, density, seed = case
    F = FIELDS[spec]
    rng = random.Random(seed)
    M = _matrix(F, r, c, density, rng)
    assert la.rref(F, M) == ref_rref(F, M)
    assert la.kernel(F, M).basis == ref_kernel(F, M, c)


@settings(max_examples=150, deadline=None)
@given(cases, st.integers(1, 6), st.integers(0, 4))
def test_subspace_contains_matches_rank_test(case, n, k):
    spec, density, seed = case
    F = FIELDS[spec]
    rng = random.Random(seed)
    gens = _matrix(F, k, n, density, rng) if k else ()
    W = la.span(F, n, gens)
    inside = (_vector(F, n, density, rng),) + gens
    # a vector built from the generators lies in W; a random one may not
    coeffs = [F.random(rng) for _ in gens]
    combo = la.zero_vector(F, n)
    for a, g in zip(coeffs, gens):
        combo = ref_vadd(F, combo, ref_vscale(F, a, g))
    for x in inside + (combo,):
        assert W.contains(x) == ref_contains(F, W.basis, x)
    assert W.contains(combo)


@settings(max_examples=150, deadline=None)
@given(cases, st.integers(1, 5))
def test_multiply_matches_dense_over_random_tables(case, n):
    spec, density, seed = case
    F = FIELDS[spec]
    rng = random.Random(seed)
    A = Algebra(F, n, _table(F, n, density, rng))
    for _ in range(4):
        x = _vector(F, n, density, rng)
        y = _vector(F, n, density, rng)
        assert A.multiply(x, y) == ref_multiply(A, x, y)


@pytest.mark.parametrize("spec", sorted(FIELDS))
def test_multiply_matches_dense_on_the_builders(spec):
    F = FIELDS[spec]
    rng = random.Random(0)
    marked = (F.zero, F.one, F.from_int(2))
    for A in (apex_algebra(F, 5), dot_product_algebra(F, marked),
              upper_triangular_algebra(F, 2).algebra):
        for density in DENSITIES:
            for _ in range(5):
                x = _vector(F, A.dim, density, rng)
                y = _vector(F, A.dim, density, rng)
                assert A.multiply(x, y) == ref_multiply(A, x, y)


class CountingField:
    """A field handle that counts its multiplications and additions and
    delegates everything else, to see which terms a kernel computes."""

    def __init__(self, F):
        self.F = F
        self.muls = self.adds = 0

    def __getattr__(self, name):
        return getattr(self.F, name)

    def mul(self, a, b):
        self.muls += 1
        return self.F.mul(a, b)

    def add(self, a, b):
        self.adds += 1
        return self.F.add(a, b)


@settings(max_examples=150, deadline=None)
@given(cases, st.integers(1, 7))
def test_vector_kernels_match_dense_and_skip_zero_terms(case, n):
    spec, density, seed = case
    F = FIELDS[spec]
    rng = random.Random(seed)
    x = _vector(F, n, density, rng)
    y = _vector(F, n, density, rng)
    both = sum(1 for a, b in zip(x, y) if a != F.zero and b != F.zero)
    nonzero_x = sum(1 for a in x if a != F.zero)
    assert la.is_zero_vector(F, x) == (nonzero_x == 0)

    C = CountingField(F)
    assert la.dot(C, x, y) == ref_dot(F, x, y)
    assert (C.muls, C.adds) == (both, max(both - 1, 0))

    C = CountingField(F)
    assert la.vadd(C, x, y) == ref_vadd(F, x, y)
    assert (C.muls, C.adds) == (0, both)

    C = CountingField(F)
    c = _nonzero(F, rng)
    assert la.vscale(C, c, x) == ref_vscale(F, c, x)
    assert la.vscale(C, F.zero, x) == ref_vscale(F, F.zero, x)
    assert (C.muls, C.adds) == (nonzero_x, 0)


# ------------------------------------------------------------ zero test

@pytest.mark.parametrize("spec", ["gf3", "gf5", "gf7", "gf9", "gf25"])
def test_is_zero_on_every_finite_field_element(spec):
    F = make_field(spec)
    for x in F.elements():
        assert F.is_zero(x) == (x == F.zero)


fractions = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-40, max_value=40,
                                   max_denominator=15))


@given(fractions)
def test_is_zero_on_rationals(a):
    F = FIELDS["q"]
    assert F.is_zero(a) == (a == F.zero)


@given(fractions, fractions)
def test_is_zero_on_gaussian_rationals(a, b):
    F = FIELDS["qi"]
    assert F.is_zero((a, b)) == ((a, b) == F.zero)
