"""The one cap rule (`linalg.check_cap`) at every site that enumerates.

Each site refuses an infinite field, and refuses to enumerate more objects
than the cap while accepting a count equal to it.  The objects are q^k
vectors, matrices, evaluations or field table entries; for subspaces the
fillings of one choice of pivot columns, and for decompositions the pairs
of subspaces.
"""

import pytest

from prelie import linalg as la
from prelie.algebras import apex_algebra, check_identity, is_simple
from prelie.errors import CapError
from prelie.fields import PrimeField, RationalField
from prelie.rota_baxter import enumerate_decompositions, enumerate_rb_operators
from prelie.symmetry import enumerate_automorphisms, enumerate_orthogonal

Q = RationalField()
GF3 = PrimeField(3)
GF5 = PrimeField(5)

# Each site as (enumeration over F at a cap, the field, the q^k it counts).
SITES = {
    "projective": (lambda F, cap: list(la.enumerate_projective(F, 2,
                                                               cap=cap)),
                   GF3, 9),
    "matrices": (lambda F, cap: list(la.enumerate_matrices(F, 1, 2,
                                                           cap=cap)),
                 GF3, 9),
    "subspaces": (lambda F, cap: list(la.enumerate_subspaces(F, 3, cap=cap)),
                  GF3, 9),
    "exhaustive-identity": (
        lambda F, cap: check_identity(apex_algebra(F, 2), "flexible",
                                      exhaustive=True, cap=cap),
        GF3, 81),
    "simplicity": (lambda F, cap: is_simple(apex_algebra(F, 2), cap=cap),
                   GF3, 9),
    "scan-matrices": (
        lambda F, cap: enumerate_rb_operators(apex_algebra(F, 2), F.one,
                                              cap=cap),
        GF3, 81),
    "orthogonal": (lambda F, cap: enumerate_orthogonal(F, 2, cap=cap),
                   GF3, 81),
    "scan-field-tables": (
        lambda F, cap: enumerate_automorphisms(apex_algebra(F, 1), cap=cap),
        GF5, 25),
    # 6 subspaces of GF(3)^2, so 36 ordered pairs.
    "subspace-pairs": (
        lambda F, cap: enumerate_decompositions(apex_algebra(F, 2), cap=cap),
        GF3, 36),
}


def test_check_cap_names_the_count_and_the_kind():
    la.check_cap(GF3, 4, "widgets", 81)
    with pytest.raises(CapError, match="^81 widgets exceed cap 80$"):
        la.check_cap(GF3, 4, "widgets", 80)
    with pytest.raises(CapError, match="widgets requires a finite field"):
        la.check_cap(Q, 0, "widgets", 10 ** 9)


@pytest.mark.parametrize("site", SITES)
def test_each_site_accepts_the_cap_and_refuses_one_past_it(site):
    enumerate_at, F, count = SITES[site]
    enumerate_at(F, count)
    with pytest.raises(CapError, match=f"^{count} .* exceed cap {count - 1}$"):
        enumerate_at(F, count - 1)


@pytest.mark.parametrize("site", SITES)
def test_each_site_refuses_an_infinite_field(site):
    enumerate_at, _, _ = SITES[site]
    with pytest.raises(CapError, match="requires a finite field"):
        enumerate_at(Q, 10 ** 9)


@pytest.mark.parametrize("F", [GF3, Q])
def test_subspaces_refuse_before_building_any_pivot_pattern(F):
    # 2^40 pivot patterns: the refusal must come from the closed-form bound
    # on the first next(), not after the patterns are listed.
    subspaces = la.enumerate_subspaces(F, 40, cap=10 ** 6)
    with pytest.raises(CapError):
        next(subspaces)
