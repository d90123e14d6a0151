"""Exact linear algebra: elimination, subspaces, enumeration, serialization."""

from fractions import Fraction
from itertools import product

import pytest

from prelie.errors import CapError, DimensionError
from prelie.fields import PrimeField, QuadraticField, RationalField
from prelie.linalg import (Subspace, column_space, decode_matrix, dot,
                           enumerate_matrices, enumerate_projective,
                           enumerate_subspaces, gram_matrix, identity_matrix,
                           intersect, is_direct_sum, is_invertible,
                           is_lagrangian, is_orthogonal, is_skew_symmetric,
                           is_zero_matrix, is_zero_vector, kernel, mat_mul,
                           mat_vec, matrix_from_json, random_matrix, rref,
                           span, subspace_sum, trace, transpose)

Q = RationalField()
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def test_rref_hand_case_gf3():
    M = ((1, 2), (2, 1))
    R, rank, pivots = rref(GF3, M)
    assert rank == 1
    assert pivots == (0,)
    assert R[0] == (1, 2)
    assert R[1] == (0, 0)


def test_rref_hand_case_rational():
    M = ((Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(3)))
    R, rank, pivots = rref(Q, M)
    assert rank == 2
    assert R == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_kernel_annihilates():
    M = ((1, 2, 0), (2, 4, 0))
    K = kernel(GF5, M)
    assert K.dim == 2
    for v in K.basis:
        assert is_zero_vector(GF5, mat_vec(GF5, M, v))


def solve(F, M, b):
    """One solution of M x = b with free variables set to zero, else None;
    the oracle for the one-elimination splitting projection."""
    if len(M) != len(b):
        raise DimensionError("rows of M and length of b differ")
    nc = len(M[0]) if M else 0
    aug = [list(row) + [val] for row, val in zip(M, b)]
    R, rank, pivots = rref(F, aug)
    if nc in pivots:
        return None
    x = [F.zero] * nc
    for r, c in enumerate(pivots):
        x[c] = R[r][nc]
    return tuple(x)


def test_solve_cases():
    M = ((1, 1), (0, 1))
    x = solve(GF3, M, (2, 1))
    assert x is not None and mat_vec(GF3, M, x) == (2, 1)
    # inconsistent system
    assert solve(GF3, ((1, 1), (1, 1)), (0, 1)) is None
    # underdetermined: free variables set to zero
    x = solve(Q, ((Fraction(1), Fraction(2)),), (Fraction(3),))
    assert x == (Fraction(3), Fraction(0))


def test_subspace_operations():
    e1 = span(GF3, 3, [(1, 0, 0)])
    e12 = span(GF3, 3, [(1, 0, 0), (0, 1, 0)])
    e23 = span(GF3, 3, [(0, 1, 0), (0, 0, 1)])
    total = subspace_sum(e12, e23)
    assert total.dim == 3
    mid = intersect(e12, e23)
    assert mid.dim == 1 and mid.contains((0, 1, 0))
    e2 = span(GF3, 3, [(0, 1, 0)])
    assert is_direct_sum(e1, e2, 2) is False  # ambient mismatch guard
    assert is_direct_sum(e1, e23, 3)
    assert not is_direct_sum(e12, e23, 3)


def test_is_direct_sum_requires_full_cover():
    W1 = span(GF3, 3, [(1, 0, 0)])
    W2 = span(GF3, 3, [(0, 1, 0)])
    assert not is_direct_sum(W1, W2, 3)


def test_subspace_counts_gf3_cube():
    # Gaussian binomials over GF(3): 1 + 13 + 13 + 1 subspaces of F^3
    counts = {}
    for W in enumerate_subspaces(GF3, 3):
        counts[W.dim] = counts.get(W.dim, 0) + 1
    assert counts == {0: 1, 1: 13, 2: 13, 3: 1}


def test_subspace_counts_gf5_plane():
    subs = list(enumerate_subspaces(GF5, 2))
    assert len(subs) == 8  # 1 + 6 lines + 1
    lines = [W for W in subs if W.dim == 1]
    assert len(lines) == 6


def test_enumerate_projective_gf3():
    reps = list(enumerate_projective(GF3, 2))
    assert len(reps) == 4
    for v in reps:
        lead = next(c for c in v if c != 0)
        assert lead == 1


def test_enumerate_matrices_cap():
    with pytest.raises(CapError):
        list(enumerate_matrices(GF5, 4, 4, cap=1000))


def test_decode_matrix_matches_enumeration_order():
    listed = list(enumerate_matrices(GF3, 2, 2))
    assert len(listed) == 81
    for idx, M in enumerate(listed):
        assert decode_matrix(GF3, 2, 2, idx) == M


def test_lagrangian_against_direct_oracle():
    # is_lagrangian tests the Gram matrix; the oracle walks every vector pair
    def vectors(W):
        F = W.field
        for coeffs in product(list(F.elements()), repeat=W.dim):
            v = [F.zero] * W.ambient
            for c, row in zip(coeffs, W.basis):
                v = [F.add(a, F.mul(c, b)) for a, b in zip(v, row)]
            yield tuple(v)

    def oracle(W):
        return all(dot(W.field, x, y) == W.field.zero
                   for x in vectors(W) for y in vectors(W))

    for n in (2, 3):
        for W in enumerate_subspaces(GF3, n):
            assert is_lagrangian(W) == oracle(W)


def test_form_values():
    assert dot(GF5, (1, 0, 2), (1, 1, 1)) == 3
    assert dot(GF5, (1, 2), (3, 4)) == (3 + 8) % 5
    # a self-orthogonal line over GF(5): 1 + 4 = 0
    W = span(GF5, 2, [(1, 2)])
    assert is_lagrangian(W)


def test_gram_matrix():
    rows = [(1, 0), (0, 1)]
    G = gram_matrix(GF3, rows)
    assert G == ((1, 0), (0, 1))


def test_column_space_matches_rank():
    M = ((1, 2, 0), (2, 4, 0), (0, 0, 1))
    C = column_space(GF5, M)
    _, rank, _ = rref(GF5, M)
    assert C.dim == rank == 2
    assert C.contains((1, 2, 0))


def test_matrix_predicates():
    E = identity_matrix(GF5, 3)
    assert is_invertible(GF5, E)
    assert is_orthogonal(GF5, E)
    assert not is_invertible(GF5, ((1, 2), (2, 4)))
    S = ((0, 1), (4, 0))
    assert is_skew_symmetric(GF5, S)
    assert not is_skew_symmetric(GF5, ((0, 1), (1, 0)))
    assert trace(GF5, ((2, 1), (1, 4))) == 1
    assert mat_mul(GF5, S, S) == ((4, 0), (0, 4))
    assert is_zero_matrix(GF5, mat_mul(GF5, S, ((0,) * 2,) * 2))


def test_orthogonal_means_transpose_inverse():
    M = ((0, 1), (2, 0))
    # M^T M = diag(4, 1): the identity over GF(3), not over GF(5)
    assert is_orthogonal(GF3, M)
    assert not is_orthogonal(GF5, M)
    P = ((0, 1), (1, 0))
    assert is_orthogonal(GF3, P)


def test_matrix_json_round_trip():
    M = ((Fraction(1, 2), Fraction(-3)), (Fraction(0), Fraction(5)))
    data = ["1/2", "-3", "0", "5"]
    assert matrix_from_json(Q, data, 2, 2) == M
    # nested and wrapped forms are accepted too
    assert matrix_from_json(Q, [["1/2", "-3"], ["0", "5"]], 2, 2) == M
    assert matrix_from_json(Q, {"entries": data}, 2, 2) == M
    with pytest.raises(DimensionError):
        matrix_from_json(Q, ["1", "2", "3"], 2, 2)


def test_random_matrix_is_seed_deterministic():
    import random
    A = random_matrix(GF5, 3, 3, random.Random(11))
    B = random_matrix(GF5, 3, 3, random.Random(11))
    assert A == B


def test_dot_and_transpose():
    assert dot(GF3, (1, 2), (2, 2)) == 0
    assert transpose(((1, 2), (3, 4))) == ((1, 3), (2, 4))


def test_quadratic_field_linalg():
    GF9 = QuadraticField(GF3, 2)
    one = GF9.one
    r = (0, 1)
    M = ((one, r), (r, GF9.from_int(2)))
    R, rank, _ = rref(GF9, M)
    # det = 2 - 2 = 0, so rank 1
    assert rank == 1
