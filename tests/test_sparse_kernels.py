"""The sparse exact kernels and checkers against dense oracles.

`linalg`, `Algebra.multiply`, `ideal_closure`, the operator checkers and
the basis-triple identity checker zero-test each entry once and then visit
only nonzeros.  The references
below compute every term the plain dense way, as the kernels and checkers
did before they went sparse, and every result must be equal entry for
entry, with the same witness.  Inputs are drawn 50-90% zero, plus all-zero and fully dense
ones, over Q, Q(i), GF(5) and GF(9); the checkers also get genuine
operators, automorphisms and derivations, so that their accept path,
where sums cancel, is compared too.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prelie import linalg as la
from prelie.algebras import (Algebra, _leibniz_form, apex_algebra,
                             check_identity, dot_product_algebra,
                             ideal_closure, infinite_truncation_algebra,
                             minus_algebra, plus_algebra, unital_extension,
                             upper_triangular_algebra)
from prelie.errors import DimensionError
from prelie.fields import make_field
from prelie.rota_baxter import (_rb_failure, isotropic_column_operator,
                                skew_pairing_operator)
from prelie.symmetry import (_product_failure, derivation_algebra,
                             is_derivation)

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


def ref_basis_product(A, i, j):
    return ref_multiply(A, ref_basis(A.field, A.dim, i),
                        ref_basis(A.field, A.dim, j))


def ref_basis(F, n, i):
    return tuple(F.one if k == i else F.zero for k in range(n))


def ref_ideal_closure(A, seed_rows):
    """The span of the RREF rows seed_rows, grown by products with basis
    vectors on both sides until its rank stops growing."""
    F, n = A.field, A.dim
    rows = tuple(seed_rows)
    while True:
        grown = list(rows)
        for x in rows:
            for i in range(n):
                e = ref_basis(F, n, i)
                grown += [ref_multiply(A, e, x), ref_multiply(A, x, e)]
        if not grown:
            return ()
        R, rank, _ = ref_rref(F, grown)
        if rank == len(rows):
            return R[:rank]
        rows = R[:rank]


def ref_identity_failure(A, kind):
    """The dense basis-triple checker of pre_lie, novikov and jacobi, as it
    was: every product of basis vectors computed in full, eight of them
    per triple.  The first failing triple in (i, j, k) order, 1-based, or
    None when the identity holds."""
    F, n = A.field, A.dim

    def mul(x, y):
        return ref_multiply(A, x, y)

    def assoc(x, y, z):
        return tuple(F.sub(a, b) for a, b in zip(mul(mul(x, y), z),
                                                 mul(x, mul(y, z))))

    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = (ref_basis(F, n, t) for t in (i, j, k))
                if kind == "pre_lie":
                    ok = assoc(x, y, z) == assoc(y, x, z)
                elif kind == "novikov":
                    ok = (assoc(x, y, z) == assoc(y, x, z)
                          and mul(mul(x, y), z) == mul(mul(x, z), y))
                else:
                    s = ref_vadd(F, mul(mul(x, y), z),
                                 ref_vadd(F, mul(mul(y, z), x),
                                          mul(mul(z, x), y)))
                    ok = all(c == F.zero for c in s)
                if not ok:
                    return i + 1, j + 1, k + 1
    return None


def ref_rb_failure(A, R, weight):
    """The dense checker of the defining identity, as it was: three full
    products, the weighted basis product and R applied to the sum."""
    F = A.field
    cols = list(zip(*R))
    for i in range(A.dim):
        for j in range(A.dim):
            bi, bj = ref_basis(F, A.dim, i), ref_basis(F, A.dim, j)
            lhs = ref_multiply(A, cols[i], cols[j])
            inner = ref_vadd(F, ref_multiply(A, cols[i], bj),
                             ref_multiply(A, bi, cols[j]))
            inner = ref_vadd(F, inner,
                             ref_vscale(F, weight, ref_basis_product(A, i, j)))
            if lhs != ref_mat_vec(F, R, inner):
                return i + 1, j + 1
    return None


def ref_product_failure(A, phi):
    F = A.field
    cols = list(zip(*phi))
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = ref_multiply(A, cols[i], cols[j])
            if lhs != ref_mat_vec(F, phi, ref_basis_product(A, i, j)):
                return i + 1, j + 1
    return None


def ref_derivation_failure(A, d):
    F = A.field
    cols = list(zip(*d))
    for i in range(A.dim):
        for j in range(A.dim):
            bi, bj = ref_basis(F, A.dim, i), ref_basis(F, A.dim, j)
            lhs = ref_mat_vec(F, d, ref_basis_product(A, i, j))
            rhs = ref_vadd(F, ref_multiply(A, cols[i], bj),
                           ref_multiply(A, bi, cols[j]))
            if lhs != rhs:
                return i + 1, j + 1
    return None


def ref_derivation_algebra(A):
    """The dense Leibniz rows, one per basis pair and coordinate, and the
    canonical basis of their kernel."""
    F = A.field
    n = A.dim
    rows = []
    for i in range(n):
        for j in range(n):
            product = ref_basis_product(A, i, j)
            for k, terms in enumerate(_leibniz_form(A, i, j)):
                row = [F.zero] * (n * n)
                row[k * n:(k + 1) * n] = product
                for c, u in terms:
                    row[u] = F.sub(row[u], c)
                rows.append(tuple(row))
    return ref_kernel(F, rows, n * n)


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


@settings(max_examples=100, deadline=None)
@given(cases, st.integers(1, 5), st.integers(0, 2))
def test_ideal_closure_matches_dense(case, n, k):
    spec, density, seed = case
    F = FIELDS[spec]
    rng = random.Random(seed)
    A = Algebra(F, n, _table(F, n, density, rng))
    W = la.span(F, n, _matrix(F, k, n, density, rng) if k else ())
    assert ideal_closure(A, W).basis == ref_ideal_closure(A, W.basis)


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


# ------------------------------------------------------- the shared reduction

@settings(max_examples=200, deadline=None)
@given(cases, st.integers(1, 7), st.integers(1, 7))
def test_reduce_rows_is_rref_on_sparse_rows(case, r, c):
    """The contract of the shared reduction: rows in as column -> nonzero
    dicts (left as they are), the RREF rows out as dicts in pivot order,
    with their pivots; dependent and all-zero rows leave nothing."""
    spec, density, seed = case
    F = FIELDS[spec]
    rng = random.Random(seed)
    M = list(_matrix(F, r, c, density, rng))
    M.insert(rng.randrange(r + 1), (F.zero,) * c)
    rows = [{k: a for k, a in enumerate(row) if a != F.zero} for row in M]
    before = [dict(row) for row in rows]
    reduced, pivots = la.reduce_rows(F, rows)
    R, rank, ref_pivots = ref_rref(F, M)
    assert rows == before
    assert pivots == ref_pivots
    assert [la.dense(F, row, c) for row in reduced] == list(R[:rank])
    assert all(F.zero not in row.values() for row in reduced)


# ----------------------------------------------------------- shape errors

@pytest.mark.parametrize("rows,inner,cols", [(2, 2, 3), (2, 3, 2)])
def test_mat_mul_refuses_mismatched_shapes(rows, inner, cols):
    """A rows x inner matrix times a cols x 2 one: 2x2 times 3x2 and 2x3
    times 2x2 over GF(5)."""
    F = FIELDS["gf5"]
    A = tuple((F.one,) * inner for _ in range(rows))
    B = tuple((F.one, F.one) for _ in range(cols))
    with pytest.raises(DimensionError):
        la.mat_mul(F, A, B)


@pytest.mark.parametrize("cols,length", [(2, 3), (3, 2)])
def test_mat_vec_refuses_mismatched_shapes(cols, length):
    F = FIELDS["gf5"]
    M = ((F.one,) * cols,) * 2
    with pytest.raises(DimensionError):
        la.mat_vec(F, M, (F.one,) * length)


# ----------------------------------------------- the checkers and oracles

def _signed_permutation(F, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(tuple((F.one if rng.random() < 0.5 else F.neg(F.one))
                       if c == perm[r] else F.zero for c in range(n))
                 for r in range(n))


def _diag_blocks(F, blocks):
    """The block-diagonal matrix of square blocks."""
    n = sum(len(B) for B in blocks)
    out, at = [], 0
    for B in blocks:
        for row in B:
            out.append((F.zero,) * at + tuple(row)
                       + (F.zero,) * (n - at - len(B)))
        at += len(B)
    return tuple(out)


def _scalar_matrix(F, n, c):
    return tuple(tuple(c if r == k else F.zero for k in range(n))
                 for r in range(n))


def _source(F, kind, n, density, rng):
    """An algebra and genuine (operators, automorphisms) for it; the
    derivations come from the oracle for every algebra."""
    one, w = F.one, _nonzero(F, rng)
    autos = []
    if kind == "apex":
        A = apex_algebra(F, n)
        autos.append(_diag_blocks(F, [_signed_permutation(F, n - 1, rng),
                                      ((one,),)]))
    elif kind == "truncation":
        A = infinite_truncation_algebra(F, n - 1)
        autos.append(_diag_blocks(F, [((one,),),
                                      _signed_permutation(F, n - 1, rng)]))
    elif kind == "dot":
        A = dot_product_algebra(F, (F.zero,) * (n - 1) + (_nonzero(F, rng),))
        autos.append(_diag_blocks(F, [_signed_permutation(F, n - 1, rng),
                                      ((one,),)]))
    elif kind == "plus":
        A = plus_algebra(apex_algebra(F, n))
    elif kind == "upper":
        A = upper_triangular_algebra(F, 2).algebra
    else:
        A = Algebra(F, n, _table(F, n, density, rng))
    n = A.dim
    ops = [(_scalar_matrix(F, n, F.zero), F.random(rng)),
           (_scalar_matrix(F, n, F.neg(w)), w)]
    autos.append(_scalar_matrix(F, n, one))
    if kind == "apex" and n >= 3:
        target = F.sub(F.from_int(2), F.from_int(n))
        if not F.is_zero(target) and F.sqrt(F.inv(target)) is not None:
            ops.append((isotropic_column_operator(F, n), F.zero))
        if n == 4 and F.sqrt(F.neg(one)) is not None:
            ops.append((skew_pairing_operator(F), F.zero))
    return A, ops, autos


def _unital(F, A, autos, rng):
    """The unital extension A + Fu with genuine operators and automorphisms:
    A and Fu are subalgebras in direct sum, so the projections onto either
    part, scaled by -w, are operators of weight w, besides 0 and -wE; the
    automorphisms of A extend by u -> u."""
    n = A.dim
    w = _nonzero(F, rng)
    ops = [(_scalar_matrix(F, n + 1, F.zero), F.random(rng)),
           (_scalar_matrix(F, n + 1, F.neg(w)), w),
           (_diag_blocks(F, [_scalar_matrix(F, n, F.zero), ((F.neg(w),),)]),
            w),
           (_diag_blocks(F, [_scalar_matrix(F, n, F.neg(w)), ((F.zero,),)]),
            w)]
    return (unital_extension(A), ops,
            [_diag_blocks(F, [phi, ((F.one,),)]) for phi in autos])


def _inverse(F, P):
    n = len(P)
    E = [ref_basis(F, n, i) for i in range(n)]
    R, rank, _ = ref_rref(F, [tuple(row) + e for row, e in zip(P, E)])
    return tuple(row[n:] for row in R) if rank == n and all(
        R[i][i] == F.one for i in range(n)) else None


def _transport(F, A, rng, density):
    """A random invertible P, the algebra B with P an isomorphism A -> B,
    and M -> P M P^-1, which carries operators, automorphisms and
    derivations of A to those of B."""
    n = A.dim
    while True:
        P = _matrix(F, n, n, max(density, 0.5), rng)
        Pinv = _inverse(F, P)
        if Pinv is not None:
            break
    cols = list(zip(*Pinv))
    table = {}
    for i in range(n):
        for j in range(n):
            v = ref_mat_vec(F, P, ref_multiply(A, cols[i], cols[j]))
            for k, c in enumerate(v):
                if c != F.zero:
                    table[(i, j, k)] = c
    conj = lambda M: ref_mat_mul(F, ref_mat_mul(F, P, M), Pinv)
    return Algebra(F, n, table), conj


def _reshape(flat, n):
    return tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n))


def _perturbed(F, M, rng):
    """M with one random entry changed by a random nonzero amount."""
    rows = [list(row) for row in M]
    r, c = rng.randrange(len(M)), rng.randrange(len(M))
    rows[r][c] = F.add(rows[r][c], _nonzero(F, rng))
    return tuple(tuple(row) for row in rows)


KINDS = ("apex", "truncation", "dot", "plus", "upper", "random")


@settings(max_examples=120, deadline=None)
@given(cases, st.sampled_from(KINDS), st.integers(2, 4), st.booleans(),
       st.booleans())
def test_checkers_match_dense_oracles(case, kind, n, unital, transport):
    """The sparse checkers against the dense ones on the builders and on
    random tables, optionally extended by a unit and carried through a
    random change of basis: genuine operators, automorphisms and
    derivations are accepted, and every other input gets the same verdict
    and the same first failing pair."""
    spec, density, seed = case
    F = FIELDS[spec]
    rng = random.Random(seed)
    if unital:
        n = min(n, 3)  # keeps the dense oracle's kernels small
    A, ops, autos = _source(F, kind, n, density, rng)
    if unital:
        A, ops, autos = _unital(F, A, autos, rng)
    if transport:
        A, conj = _transport(F, A, rng, density)
        ops = [(conj(R), w) for R, w in ops]
        autos = [conj(phi) for phi in autos]
    n = A.dim
    ders = ref_derivation_algebra(A)
    assert derivation_algebra(A).basis == ders
    genuine_ders = [_reshape(flat, n) for flat in ders]
    if ders:
        combo = [F.zero] * (n * n)
        for flat in ders:
            combo = list(ref_vadd(F, combo, ref_vscale(F, F.random(rng), flat)))
        genuine_ders.append(_reshape(combo, n))

    for R, w in ops:
        assert ref_rb_failure(A, R, w) is None
        assert _rb_failure(A, R, w) is None
    for phi in autos:
        assert ref_product_failure(A, phi) is None
        assert _product_failure(A, phi) is None
    for d in genuine_ders:
        assert ref_derivation_failure(A, d) is None
        assert is_derivation(A, d).ok

    others = [_perturbed(F, M, rng) for M in
              [R for R, _ in ops] + autos + genuine_ders]
    others += [_matrix(F, n, n, density, rng) for _ in range(2)]
    weights = [w for _, w in ops] + [F.random(rng)]
    for M in others:
        w = rng.choice(weights)
        assert _rb_failure(A, M, w) == ref_rb_failure(A, M, w)
        assert _product_failure(A, M) == ref_product_failure(A, M)
        assert is_derivation(A, M).witness == ref_derivation_failure(A, M)


# ----------------------------------------------------- identity checker

IDENTITY_FIELDS = {spec: make_field(spec) for spec in ("q", "gf3", "gf5",
                                                       "gf9")}
TRIPLE_KINDS = ("pre_lie", "novikov", "jacobi")
IDENTITY_SOURCES = ("apex", "minus", "polynomial", "random")


def _identity_source(F, source, n, density, rng):
    """An algebra on which some of the three kinds hold: the apex table
    (pre-Lie), its commutator algebra (Jacobi), the truncated polynomial
    algebra b_i b_j = b_(i+j) (commutative and associative, so Novikov),
    or a random table."""
    if source == "apex":
        return apex_algebra(F, n)
    if source == "minus":
        return minus_algebra(apex_algebra(F, n))
    if source == "polynomial":
        return Algebra(F, n, {(i, j, i + j): F.one for i in range(n)
                              for j in range(n) if i + j < n})
    return Algebra(F, n, _table(F, n, density, rng))


def _perturbed_table(A, rng):
    """A with one random structure constant changed by a random nonzero
    amount, so that an identity may first fail at a later triple."""
    F, n = A.field, A.dim
    table = dict(A.table)
    key = tuple(rng.randrange(n) for _ in range(3))
    table[key] = F.add(table.get(key, F.zero), _nonzero(F, rng))
    return Algebra(F, n, table)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(IDENTITY_FIELDS)), st.sampled_from(DENSITIES),
       st.integers(0, 2 ** 32 - 1), st.sampled_from(IDENTITY_SOURCES),
       st.integers(1, 4), st.booleans(), st.booleans())
def test_triple_identities_match_dense_oracle(spec, density, seed, source, n,
                                              transport, perturb):
    """pre_lie, novikov and jacobi from the sparse basis products against
    the dense triple checker: the same verdict and the same first failing
    triple, on genuine algebras (carried through a random change of basis,
    which fills their tables) and on perturbed and random tables."""
    F = IDENTITY_FIELDS[spec]
    rng = random.Random(seed)
    A = _identity_source(F, source, n, density, rng)
    if transport:
        A, _ = _transport(F, A, rng, density)
    if perturb:
        A = _perturbed_table(A, rng)
    for kind in TRIPLE_KINDS:
        rep = check_identity(A, kind)
        want = ref_identity_failure(A, kind)
        assert rep.ok == (want is None)
        assert rep.witness == want
        assert rep.details == {"kind": kind}


@pytest.mark.parametrize("spec", sorted(IDENTITY_FIELDS))
def test_triple_identities_hold_on_genuine_algebras(spec):
    """The accept path is reached: each genuine source satisfies its
    identity at n = 4, and the oracle agrees."""
    F = IDENTITY_FIELDS[spec]
    rng = random.Random(1)
    for source, kind in (("apex", "pre_lie"), ("minus", "jacobi"),
                         ("polynomial", "novikov"), ("polynomial", "pre_lie")):
        A = _identity_source(F, source, 4, 0.0, rng)
        assert ref_identity_failure(A, kind) is None
        assert check_identity(A, kind).ok
