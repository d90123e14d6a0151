"""The exhaustive scan engine and its process pool.

The differential tests hold every scan to a filter over the plain
enumeration, so a scan that drops a matrix fails as surely as one that
admits a wrong one.
"""

import pytest

from prelie import parallel
from prelie.algebras import apex_algebra, minus_algebra
from prelie.fields import make_field
from prelie.linalg import enumerate_matrices, is_invertible
from prelie.rota_baxter import (enumerate_rb_operators, is_rb_operator,
                                rb_residual_report)
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
