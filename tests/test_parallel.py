"""The exact scan engine and its process pool.

The differential tests hold every scan to a filter over the plain
enumeration, so a scan that drops a matrix fails as surely as one that
admits a wrong one.  Beyond the reach of that filter, automorphism counts
are held to the closed-form order of the orthogonal group.
"""

import pytest
from hypothesis import given, settings, strategies as st

from prelie import parallel
from prelie.algebras import Algebra, apex_algebra, minus_algebra
from prelie.fields import make_field
from prelie.linalg import (enumerate_matrices, identity_matrix,
                           is_invertible, mat_scale, zero_matrix)
from prelie.rota_baxter import (enumerate_rb_operators, is_rb_operator,
                                rb_residual_report, reflect_operator)
from prelie.symmetry import (automorphism_residual_report,
                             enumerate_automorphisms, is_automorphism)

GF5 = make_field("gf5")


def test_pool_size_is_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    assert parallel.pool_size(10 ** 6) == 4
    assert parallel.pool_size(3) == 3
    assert parallel.pool_size(1) == 1
    assert parallel.pool_size(0) == 1
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert parallel.pool_size(10 ** 6) == 1


# ---------------------------------------------- scans against a plain filter

APEX_RB_CASES = [("gf3", 2, w) for w in range(3)] + \
    [("gf5", 2, w) for w in range(5)] + [("gf3", 3, 1)]


@pytest.mark.parametrize("spec,n,w", APEX_RB_CASES)
def test_operator_scan_matches_residual_filter(spec, n, w):
    F = make_field(spec)
    A = apex_algebra(F, n)
    expected = [M for M in enumerate_matrices(F, n, n)
                if rb_residual_report(A, M, w).ok]
    assert enumerate_rb_operators(A, w) == expected


@pytest.mark.parametrize("spec,n", [("gf3", 2), ("gf5", 2), ("gf3", 3)])
def test_automorphism_scan_matches_residual_filter(spec, n):
    F = make_field(spec)
    A = apex_algebra(F, n)
    expected = [M for M in enumerate_matrices(F, n, n)
                if automorphism_residual_report(A, M).ok
                and is_invertible(F, M)]
    assert enumerate_automorphisms(A) == expected


def test_scans_match_the_checkers_off_the_apex_table():
    A = minus_algebra(apex_algebra(GF5, 2))
    candidates = list(enumerate_matrices(GF5, 2, 2))
    for w in range(5):
        expected = [M for M in candidates if is_rb_operator(A, M, w).ok]
        assert enumerate_rb_operators(A, w) == expected
    expected = [M for M in candidates if is_automorphism(A, M).ok]
    assert enumerate_automorphisms(A) == expected


# Weights are literals, so that GF(9), whose scalars are pairs, can be
# listed with the prime fields.
WIDER_RB_CASES = [(spec, 2, w) for spec in ("gf7", "gf11")
                  for w in ("0", "1", "3")] + \
    [("gf9", 2, w) for w in ("0", "1", "1+1*r")] + \
    [("gf3", 3, "0"), ("gf3", 3, "2")]


@pytest.mark.parametrize("spec,n,w", WIDER_RB_CASES)
def test_operator_scan_matches_residual_filter_on_wider_cases(spec, n, w):
    F = make_field(spec)
    A = apex_algebra(F, n)
    w = F.parse(w)
    expected = [M for M in enumerate_matrices(F, n, n)
                if rb_residual_report(A, M, w).ok]
    assert enumerate_rb_operators(A, w) == expected


@st.composite
def small_algebras(draw):
    """A random structure-constant table at n = 2 over GF(3) or GF(5)."""
    F = make_field(draw(st.sampled_from(["gf3", "gf5"])))
    elems = list(F.elements())
    table = {(i, j, k): draw(st.sampled_from(elems))
             for i in range(2) for j in range(2) for k in range(2)}
    return Algebra(F, 2, table), draw(st.sampled_from(elems))


@settings(max_examples=40, deadline=None)
@given(small_algebras())
def test_scans_match_the_checkers_on_random_tables(case):
    A, w = case
    F = A.field
    candidates = list(enumerate_matrices(F, 2, 2))
    assert enumerate_rb_operators(A, w) == [
        M for M in candidates if is_rb_operator(A, M, w).ok]
    assert enumerate_automorphisms(A) == [
        M for M in candidates if is_automorphism(A, M).ok]


def test_worker_count_does_not_change_the_scans():
    gf3, gf9 = make_field("gf3"), make_field("gf9")
    A3, A9 = apex_algebra(gf3, 3), apex_algebra(gf9, 2)
    assert enumerate_rb_operators(A3, 1, workers=2) == \
        enumerate_rb_operators(A3, 1, workers=1)
    w = gf9.parse("1+1*r")
    assert enumerate_rb_operators(A9, w, workers=2) == \
        enumerate_rb_operators(A9, w, workers=1)
    assert enumerate_automorphisms(A9, workers=2) == \
        enumerate_automorphisms(A9, workers=1)


# ------------------------------------------------ beyond brute-force reach

def orthogonal_group_order(m, q):
    """|O(m, q)| for the dot-product form on GF(q)^m, q odd (Taylor, The
    Geometry of the Classical Groups, 1992).  For odd m = 2k + 1 it is
    2 q^(k^2) prod_{i=1..k} (q^(2i) - 1); for even m = 2k it is
    2 q^(k(k-1)) (q^k - e) prod_{i=1..k-1} (q^(2i) - 1), where e = 1 when
    (-1)^k is a square in GF(q) (the form is split) and e = -1 otherwise."""
    k = m // 2
    if m % 2:
        order = 2 * q ** (k * k)
    else:
        e = 1 if k % 2 == 0 or q % 4 == 1 else -1
        order = 2 * q ** (k * (k - 1)) * (q ** k - e)
    for i in range(1, k + (m % 2)):
        order *= q ** (2 * i) - 1
    return order


@pytest.mark.parametrize("spec,n,expected", [("gf5", 3, 8), ("gf7", 3, 16),
                                             ("gf3", 4, 48)])
def test_automorphism_counts_equal_the_orthogonal_group_order(spec, n,
                                                              expected):
    F = make_field(spec)
    A = apex_algebra(F, n)
    assert orthogonal_group_order(n - 1, F.order) == expected
    found = enumerate_automorphisms(A, cap=10 ** 8)
    assert len(found) == expected
    assert all(is_automorphism(A, M).ok for M in found)


def test_operator_set_gf5_n3_weight1():
    A = apex_algebra(GF5, 3)
    w = GF5.one
    ops = enumerate_rb_operators(A, w)
    assert len(ops) == 62
    assert all(rb_residual_report(A, R, w).ok for R in ops)
    opset = set(ops)
    assert zero_matrix(GF5, 3, 3) in opset
    assert mat_scale(GF5, GF5.neg(w), identity_matrix(GF5, 3)) in opset
    assert {reflect_operator(GF5, R, w) for R in ops} == opset
