"""Automorphisms and derivations of the apex family.

The load-bearing checks compare three independent routes: the generic
definition (product preservation, Leibniz rule), the residual systems
specialized to the apex table, and brute-force enumeration over small
finite fields.
"""

import random

import pytest

from prelie.algebras import (Algebra, apex_algebra, minus_algebra,
                             upper_triangular_algebra)
from prelie.errors import CapError, DimensionError
from prelie.fields import PrimeField, QuadraticField, RationalField
from prelie.linalg import (enumerate_matrices, identity_matrix,
                           is_skew_symmetric, mat_mul, matrix_sort_key,
                           random_matrix, span, vsub)
from prelie.symmetry import (automorphism_orthogonal_correspondence,
                             automorphism_residuals, derivation_algebra,
                             derivation_matrices, derivation_residuals,
                             derivation_skew_correspondence, embed_orthogonal,
                             embed_skew, enumerate_automorphisms,
                             enumerate_orthogonal, is_automorphism,
                             is_derivation)

from helpers import residuals_vanish

Q = RationalField()
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def test_identity_is_automorphism():
    A = apex_algebra(GF5, 3)
    assert is_automorphism(A, identity_matrix(GF5, 3)).ok


def test_sign_flip_is_automorphism():
    # diag(-1, 1) embeds the one nontrivial orthogonal 1x1 block
    A = apex_algebra(GF3, 2)
    phi = ((2, 0), (0, 1))
    assert is_automorphism(A, phi).ok
    assert residuals_vanish(GF3, automorphism_residuals(A, phi))


def test_scaling_apex_is_not_automorphism():
    A = apex_algebra(GF3, 2)
    phi = ((1, 0), (0, 2))
    rep = is_automorphism(A, phi)
    assert not rep.ok
    assert rep.details["invertible"] is True
    assert rep.details["multiplicative"] is False
    assert rep.witness is not None


def test_singular_matrix_is_not_automorphism():
    A = apex_algebra(GF3, 2)
    rep = is_automorphism(A, ((0, 0), (0, 0)))
    assert not rep.ok
    assert rep.details["invertible"] is False


def test_frozen_automorphism_group_dim2_gf3():
    A = apex_algebra(GF3, 2)
    auts = enumerate_automorphisms(A)
    assert sorted(auts, key=lambda M: matrix_sort_key(GF3, M)) == [
        ((1, 0), (0, 1)),
        ((2, 0), (0, 1)),
    ]


def test_frozen_automorphism_count_dim3_gf3():
    A = apex_algebra(GF3, 3)
    auts = enumerate_automorphisms(A)
    assert len(auts) == 8  # the orthogonal group of the plane over GF(3)
    assert len(enumerate_orthogonal(GF3, 2)) == 8


@pytest.mark.parametrize("F,n", [(GF3, 2), (GF3, 3), (GF5, 2)],
                         ids=["gf3-n2", "gf3-n3", "gf5-n2"])
def test_automorphisms_are_embedded_orthogonal(F, n):
    A = apex_algebra(F, n)
    rep = automorphism_orthogonal_correspondence(A, enumerate_automorphisms(A))
    assert rep.ok
    assert rep.details["automorphisms"] == rep.details["orthogonal"]


def test_automorphism_group_closure():
    A = apex_algebra(GF3, 3)
    auts = set(enumerate_automorphisms(A))
    for M in auts:
        for N in auts:
            assert mat_mul(GF3, M, N) in auts


def test_derivation_dimensions():
    # dim Der = (n-1)(n-2)/2, the dimension of the skew block
    for F in (Q, GF5):
        for n in range(2, 7):
            D = derivation_algebra(apex_algebra(F, n))
            assert D.dim == (n - 1) * (n - 2) // 2


def test_derivation_matrices_have_skew_block_shape():
    for F in (Q, GF5):
        A = apex_algebra(F, 4)
        for M in derivation_matrices(A):
            assert is_derivation(A, M).ok
            # last row and last column vanish
            assert all(c == F.zero for c in M[3])
            assert all(row[3] == F.zero for row in M)
            block = tuple(row[:3] for row in M[:3])
            assert is_skew_symmetric(F, block)


def test_derivation_skew_correspondence():
    for F, n in [(Q, 4), (GF5, 5), (GF3, 3)]:
        rep = derivation_skew_correspondence(apex_algebra(F, n))
        assert rep.ok
        assert rep.details["dim"] == (n - 1) * (n - 2) // 2
        assert rep.details["block_shapes"] is True


def test_correspondence_computes_the_derivation_algebra_once(monkeypatch):
    from prelie import symmetry
    compute, calls = symmetry.derivation_algebra, []

    def counting(A):
        calls.append(A)
        return compute(A)

    monkeypatch.setattr(symmetry, "derivation_algebra", counting)
    assert derivation_skew_correspondence(apex_algebra(Q, 4)).ok
    assert len(calls) == 1


@pytest.mark.parametrize("F,n", [(GF3, 1), (GF3, 2), (GF3, 3), (GF5, 1),
                                 (GF5, 2)])
def test_derivation_algebra_matches_brute_force_on_random_tables(F, n):
    rng = random.Random(f"{F!r}/{n}")
    # Sparse tables, so that most have derivations to get wrong.
    for density in (0.1, 0.2, 0.3) if n == 3 else (0.1, 0.2, 0.3) * 3:
        table = {(i, j, k): F.random(rng) for i in range(n)
                 for j in range(n) for k in range(n)
                 if rng.random() < density}
        A = Algebra(F, n, table)
        found = [sum(M, ()) for M in enumerate_matrices(F, n, n)
                 if is_derivation(A, M).ok]
        assert derivation_algebra(A) == span(F, n * n, found)


def test_derivations_closed_under_commutator():
    A = apex_algebra(Q, 5)
    mats = derivation_matrices(A)
    D = derivation_algebra(A)
    for X in mats:
        for Y in mats:
            C = vsub(Q, sum(mat_mul(Q, X, Y), ()), sum(mat_mul(Q, Y, X), ()))
            assert D.contains(C)


def test_derivation_rejects_transport_free_matrix():
    A = apex_algebra(Q, 3)
    M = ((0, 0, 1), (0, 0, 0), (0, 0, 0))  # moves e_1 toward the apex
    assert not is_derivation(A, M).ok
    assert not residuals_vanish(Q, derivation_residuals(A, M))


# ------------------------------------------------- residuals vs definitions

def test_residuals_match_definition_exhaustive_gf3_dim2():
    from prelie.linalg import enumerate_matrices
    A = apex_algebra(GF3, 2)
    for M in enumerate_matrices(GF3, 2, 2):
        # the residuals encode multiplicativity; invertibility is separate
        mult_ok = is_automorphism(A, M).details["multiplicative"]
        assert residuals_vanish(GF3, automorphism_residuals(A, M)) == mult_ok
        assert residuals_vanish(GF3, derivation_residuals(A, M)) == \
            is_derivation(A, M).ok


@pytest.mark.parametrize("n", [3, 4])
def test_residuals_match_definition_sampled_gf5(n):
    rng = random.Random(97 + n)
    A = apex_algebra(GF5, n)
    for _ in range(100):
        M = random_matrix(GF5, n, n, rng)
        mult_ok = is_automorphism(A, M).details["multiplicative"]
        assert residuals_vanish(GF5, automorphism_residuals(A, M)) == mult_ok
        assert residuals_vanish(GF5, derivation_residuals(A, M)) == \
            is_derivation(A, M).ok


def test_residual_names_are_informative():
    A = apex_algebra(GF3, 2)
    names = [name for name, _ in automorphism_residuals(A, ((1, 0), (0, 1)))]
    assert len(names) == len(set(names))
    assert all(isinstance(s, str) and s for s in names)


# ----------------------------------------------------------------- embeds

def test_embed_orthogonal_builds_automorphism():
    A = apex_algebra(GF5, 3)
    for B in enumerate_orthogonal(GF5, 2):
        phi = embed_orthogonal(GF5, B, 3)
        assert is_automorphism(A, phi).ok


def test_embed_skew_builds_derivation():
    A = apex_algebra(Q, 3)
    S = ((0, 3), (-3, 0))
    from fractions import Fraction
    S = tuple(tuple(Fraction(c) for c in row) for row in S)
    d = embed_skew(Q, S, 3)
    assert is_derivation(A, d).ok


def test_embed_validation():
    with pytest.raises(DimensionError):
        embed_orthogonal(GF5, ((1, 0), (0, 1)), 2)  # block too big
    with pytest.raises(ValueError):
        embed_orthogonal(GF5, ((1, 2), (0, 1)), 3)  # not orthogonal
    with pytest.raises(ValueError):
        embed_skew(GF5, ((0, 1), (1, 0)), 3)  # not skew


def test_enumerate_automorphisms_cap():
    with pytest.raises(CapError):
        enumerate_automorphisms(apex_algebra(GF5, 4), cap=1000)


def test_enumeration_refuses_before_building_equations(monkeypatch):
    from prelie import symmetry

    def refuse(*args):
        raise AssertionError("equations built for a refused scan")

    monkeypatch.setattr(symmetry, "_product_equations", refuse)
    for A in (apex_algebra(Q, 2), apex_algebra(GF3, 60)):
        with pytest.raises(CapError):
            enumerate_automorphisms(A)


def test_workers_do_not_change_results():
    A = apex_algebra(GF3, 2)
    assert enumerate_automorphisms(A, workers=1) == \
        enumerate_automorphisms(A, workers=2)
    A = apex_algebra(GF3, 3)
    rep = automorphism_orthogonal_correspondence(
        A, enumerate_automorphisms(A, workers=2))
    assert rep.ok


# ------------------------------------------------------ non-apex behavior

def test_generic_checks_work_off_family():
    ut = upper_triangular_algebra(GF3, 2)
    A = ut.algebra
    assert is_automorphism(A, identity_matrix(GF3, 3)).ok
    L = minus_algebra(apex_algebra(Q, 3))
    # inner maps of the commutator algebra: ad_x = [x, -] is a derivation
    from prelie.algebras import left_mult_matrix
    x = (Q.one, Q.zero, Q.one)
    ad = left_mult_matrix(L, x)
    assert is_derivation(L, ad).ok


def test_residuals_require_apex_table():
    ut = upper_triangular_algebra(GF3, 2)
    with pytest.raises(DimensionError):
        automorphism_residuals(ut.algebra, identity_matrix(GF3, 3))
