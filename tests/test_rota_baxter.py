"""Rota-Baxter operators on the apex family.

Expected values in this file were frozen from exhaustive scans over small
finite fields and from hand-checked constructions; the tests then hold the
library to those values.
"""

import random
from fractions import Fraction

import pytest

from prelie.algebras import Algebra, apex_algebra, is_subalgebra
from prelie.errors import CapError, DimensionError, FalsificationError
from prelie.fields import (FieldError, PrimeField, QuadraticField,
                           RationalField, make_field)
from prelie.linalg import (basis_vector, column_space, identity_matrix,
                           is_invertible, is_lagrangian, kernel, mat_add,
                           mat_mul, mat_scale, matrix_sort_key, random_matrix,
                           span, transpose, vadd, vscale, zero_vector)
from prelie.rota_baxter import (_projection, classify_case,
                                enumerate_decompositions,
                                enumerate_rb_operators, is_rb_operator,
                                is_splitting, is_trivial_operator,
                                isotropic_column_operator,
                                isotropic_line_decomposition, rb_index,
                                rb_residuals, rational_triviality_check,
                                reflect_operator, skew_pairing_operator,
                                splitting_certificate, splitting_operator,
                                square_isotropy_check,
                                totally_real_isotropy_check)

from helpers import residuals_vanish
from test_linalg import solve

Q = RationalField()
GF3 = PrimeField(3)
GF5 = PrimeField(5)
QI = QuadraticField(Q, Fraction(-1))

I2_3 = apex_algebra(GF3, 2)
I2_5 = apex_algebra(GF5, 2)
I3_3 = apex_algebra(GF3, 3)


def sorted_ops(F, ops):
    return sorted(ops, key=lambda M: matrix_sort_key(F, M))


# ------------------------------------------------------------ frozen counts

def test_frozen_operator_sets_dim2_gf3():
    for w in (1, 2):
        ops = enumerate_rb_operators(I2_3, w)
        # only the two trivial operators 0 and -w id
        assert sorted_ops(GF3, ops) == sorted_ops(GF3, [
            ((0, 0), (0, 0)),
            ((3 - w, 0), (0, 3 - w)),
        ])
        assert all(is_trivial_operator(GF3, R, w) for R in ops)


def test_frozen_operator_set_dim2_gf5_weight1():
    ops = sorted_ops(GF5, enumerate_rb_operators(I2_5, 1))
    assert ops == [
        ((0, 0), (0, 0)),
        ((0, 0), (2, 4)),
        ((0, 0), (3, 4)),
        ((2, 1), (4, 2)),
        ((2, 4), (1, 2)),
        ((4, 0), (0, 4)),
        ((4, 0), (2, 0)),
        ((4, 0), (3, 0)),
    ]


def test_frozen_operator_counts():
    assert len(enumerate_rb_operators(I2_5, 0)) == 1  # zero operator only
    assert len(enumerate_rb_operators(I3_3, 0)) == 9
    assert len(enumerate_rb_operators(I3_3, 1)) == 26
    assert len(enumerate_rb_operators(I3_3, 2)) == 26


def test_every_enumerated_operator_passes_the_definition():
    for R in enumerate_rb_operators(I3_3, 1):
        assert is_rb_operator(I3_3, R, 1).ok
        assert residuals_vanish(GF3, rb_residuals(I3_3, R, 1))


def test_workers_do_not_change_enumeration():
    a = enumerate_rb_operators(I2_5, 1, workers=1)
    b = enumerate_rb_operators(I2_5, 1, workers=2)
    assert a == b


def test_enumeration_guards():
    with pytest.raises(CapError):
        enumerate_rb_operators(apex_algebra(Q, 2), Q.one)
    with pytest.raises(CapError):
        enumerate_rb_operators(apex_algebra(GF5, 3), 1, cap=100)


def test_enumeration_refuses_before_building_equations(monkeypatch):
    from prelie import rota_baxter

    def refuse(*args):
        raise AssertionError("equations built for a refused scan")

    monkeypatch.setattr(rota_baxter, "_rb_equations", refuse)
    for A in (apex_algebra(Q, 2), apex_algebra(GF3, 60)):
        with pytest.raises(CapError):
            enumerate_rb_operators(A, A.field.one)


# --------------------------------------------------- definition vs residuals

def test_residuals_match_definition_exhaustive_dim2_gf3():
    from prelie.linalg import enumerate_matrices
    for w in (0, 1, 2):
        for M in enumerate_matrices(GF3, 2, 2):
            assert residuals_vanish(GF3, rb_residuals(I2_3, M, w)) == \
                is_rb_operator(I2_3, M, w).ok


@pytest.mark.parametrize("n", [3, 4])
def test_residuals_match_definition_sampled_gf5(n):
    rng = random.Random(55 + n)
    A = apex_algebra(GF5, n)
    for _ in range(100):
        M = random_matrix(GF5, n, n, rng)
        w = GF5.random(rng)
        assert residuals_vanish(GF5, rb_residuals(A, M, w)) == \
            is_rb_operator(A, M, w).ok


def test_non_operator_gets_witness():
    rep = is_rb_operator(I2_5, identity_matrix(GF5, 2), 0)
    assert not rep.ok
    i, j = rep.witness
    assert 1 <= i <= 2 and 1 <= j <= 2


# ------------------------------------------------------------- reflection

def test_reflection_is_an_involution_and_preserves_the_set():
    for A, F, w in [(I2_5, GF5, 1), (I3_3, GF3, 1), (I3_3, GF3, 2)]:
        ops = set(enumerate_rb_operators(A, w))
        for R in ops:
            B = reflect_operator(F, R, w)
            assert reflect_operator(F, B, w) == R
            assert B in ops


def test_reflection_pairs_the_case1_witnesses():
    assert reflect_operator(GF5, ((2, 1), (4, 2)), 1) == ((2, 4), (1, 2))


# ------------------------------------------------------------ case analysis

def test_case_analysis_on_the_frozen_set():
    cases = {}
    for R in enumerate_rb_operators(I2_5, 1):
        rep = classify_case(I2_5, R, 1)
        cases.setdefault(rep.details["case"], []).append(R)
    assert len(cases["trivial"]) == 2
    assert sorted_ops(GF5, cases[1]) == [((2, 1), (4, 2)), ((2, 4), (1, 2))]
    assert len(cases[2]) == 4
    for R in cases[1]:
        rep = classify_case(I2_5, R, 1)
        # apex coefficient is forced to -w/2 = 2 over GF(5)
        assert rep.details["apex_coefficient"] == "2"
        assert rep.details["shift_skew"] is True
    # no case-1 operators exist on the odd-dimensional hyperplane
    for w in (1, 2):
        for R in enumerate_rb_operators(I3_3, w):
            assert classify_case(I3_3, R, w).details["case"] != 1


def test_case2_splits_by_apex_coefficient():
    seen = set()
    for R in enumerate_rb_operators(I2_5, 1):
        rep = classify_case(I2_5, R, 1)
        if rep.details["case"] == 2:
            seen.add((rep.details["apex_coefficient"],
                      rep.details["phi_normalized"]))
    assert seen == {("0", False), ("4", True)}


def test_case2_kernel_isotropy_sides():
    # the kernel on the side away from the apex carries the isotropic line
    for R in enumerate_rb_operators(I2_5, 1):
        rep = classify_case(I2_5, R, 1)
        if rep.details["case"] != 2:
            continue
        k_r = kernel(GF5, R)
        k_s = kernel(GF5, mat_add(GF5, R, identity_matrix(GF5, 2)))
        if rep.details["phi_normalized"]:
            assert is_lagrangian(k_r) and not is_lagrangian(k_s)
        else:
            assert is_lagrangian(k_s) and not is_lagrangian(k_r)


def test_classify_rejects_non_operator():
    with pytest.raises(FalsificationError):
        classify_case(I2_5, identity_matrix(GF5, 2), 1)


def test_classify_requires_odd_characteristic():
    F2 = make_field("gf2", allow_char2=True)
    A = apex_algebra(F2, 2)
    with pytest.raises(FieldError):
        classify_case(A, identity_matrix(F2, 2), F2.zero)


# --------------------------------------------------------- quadratic + Gram

def test_square_isotropy_on_all_enumerated_operators():
    for A, F, w in [(I2_5, GF5, 1), (I3_3, GF3, 0), (I3_3, GF3, 1)]:
        for R in enumerate_rb_operators(A, w):
            rep = square_isotropy_check(A, R, w)
            assert rep.ok
            assert rep.details["r2_plus_lr_zero"]
            assert rep.details["ata_zero"] or rep.details["phi_ata_zero"]
            assert rep.details["branch"] is not None


def test_square_isotropy_rejects_non_operator():
    with pytest.raises(ValueError):
        square_isotropy_check(I2_5, identity_matrix(GF5, 2), 0)


def test_weight_zero_operators_have_isotropic_image():
    for A, F in [(I2_5, GF5), (I3_3, GF3)]:
        for R in enumerate_rb_operators(A, F.zero):
            assert is_splitting(F, R, F.zero)
            assert is_lagrangian(column_space(F, R))


# ----------------------------------------------------- splitting certificates

def test_splitting_certificates_for_every_nonzero_weight_operator():
    for A, F, w in [(I2_5, GF5, 1), (I3_3, GF3, 1), (I3_3, GF3, 2),
                    (I2_3, GF3, 1)]:
        for R in enumerate_rb_operators(A, w):
            rep = splitting_certificate(A, R, w)
            assert rep.ok
            assert rep.details["reproduced"]
            assert rep.details["kernel_dim"] + \
                rep.details["shifted_kernel_dim"] == A.dim


def test_splitting_certificate_needs_nonzero_weight():
    with pytest.raises(ValueError):
        splitting_certificate(I3_3, tuple((GF3.zero,) * 3 for _ in range(3)),
                              GF3.zero)


def test_splitting_certificate_tests_each_kernel_once(monkeypatch):
    from prelie import rota_baxter
    calls = []

    def counted(A, W):
        calls.append(W)
        return is_subalgebra(A, W)

    monkeypatch.setattr(rota_baxter, "is_subalgebra", counted)
    assert splitting_certificate(I2_5, ((0, 0), (2, 4)), 1).ok
    assert len(calls) == 2


def test_splitting_certificate_refuses_kernels_that_miss_the_space():
    # ker(E) = ker(E + E) = 0: both kernels are subalgebras, but they do not
    # add up to the space, so there is nothing to project onto.
    rep = splitting_certificate(I3_3, identity_matrix(GF3, 3), 1)
    assert not rep.ok
    assert rep.details == {"kernel_dim": 0, "shifted_kernel_dim": 0,
                           "subalgebras": (True, True), "direct_sum": False}


def test_splitting_operator_from_parts():
    # rebuild a frozen operator from its two kernels
    R = ((0, 0), (2, 4))
    k1 = kernel(GF5, R)
    k2 = kernel(GF5, mat_add(GF5, R, identity_matrix(GF5, 2)))
    assert splitting_operator(I2_5, k1, k2, 1) == R


def test_splitting_operator_rejects_bad_parts():
    # Span{b_1} is not a subalgebra: b_1 b_1 = b_2 leaves it
    bad = span(GF5, 2, [(1, 0)])
    apex_line = span(GF5, 2, [(0, 1)])
    with pytest.raises(ValueError, match="part1 is not a subalgebra"):
        splitting_operator(I2_5, bad, apex_line, 1)
    with pytest.raises(ValueError, match="not a direct sum"):
        splitting_operator(I2_5, apex_line, apex_line, 1)


# ------------------------------------------- splitting projection oracle

def ref_projection(A, part1, part2, weight):
    """The splitting projection one basis vector at a time: solve for its
    coordinates in the basis of part1 then part2, keep the part2 ones."""
    F = A.field
    rows = part1.basis + part2.basis
    M = transpose(rows)
    cols = []
    for i in range(A.dim):
        coords = solve(F, M, A.basis(i))
        x2 = zero_vector(F, A.dim)
        for t in range(part1.dim, A.dim):
            x2 = vadd(F, x2, vscale(F, coords[t], rows[t]))
        cols.append(vscale(F, F.neg(weight), x2))
    return transpose(tuple(cols))


def subalgebra_splittings(F, n):
    """Decompositions of the apex algebra of dimension n into two
    subalgebras: the trivial ones, and where -1 has a root i, the
    isotropic line at n = 2 and Span{b_n} + W against a totally isotropic
    U = Span{b_2t-1 + i b_2t : t <= k}, W = Span{b_2t-1 : t <= k} plus the
    other hyperplane vectors, for k = 1 .. (n - 1) // 2."""
    whole, nothing = span(F, n, identity_matrix(F, n)), span(F, n, [])
    out = [(whole, nothing), (nothing, whole)]
    i = F.sqrt(F.neg(F.one))
    if i is None:
        return out
    if n == 2:
        out.append(isotropic_line_decomposition(F))
    b = lambda t: basis_vector(F, n, t)
    for k in range(1, (n - 1) // 2 + 1):
        U = [vadd(F, b(2 * t), vscale(F, i, b(2 * t + 1)))
             for t in range(k)]
        W = [b(2 * t) for t in range(k)] + [b(c) for c in range(2 * k, n)]
        out += [(span(F, n, W), span(F, n, U)), (span(F, n, U), span(F, n, W))]
    return out


def random_direct_sums(F, n, rng):
    """The two halves of a random basis of F^n, split at every k."""
    while True:
        basis = random_matrix(F, n, n, rng)
        if is_invertible(F, basis):
            break
    return [(span(F, n, basis[:k]), span(F, n, basis[k:]))
            for k in range(n + 1)]


PROJECTION_FIELDS = [Q, QI, GF5, PrimeField(13)]


@pytest.mark.parametrize("F", PROJECTION_FIELDS, ids=repr)
@pytest.mark.parametrize("n", range(2, 7))
def test_splitting_operators_match_the_solve_oracle(F, n):
    A = apex_algebra(F, n)
    w = F.from_int(3)
    for part1, part2 in subalgebra_splittings(F, n):
        R = splitting_operator(A, part1, part2, w)
        assert R == ref_projection(A, part1, part2, w)
        assert is_rb_operator(A, R, w)
        assert splitting_certificate(A, R, w)


@pytest.mark.parametrize("F", PROJECTION_FIELDS, ids=repr)
@pytest.mark.parametrize("n", range(2, 7))
def test_projection_matches_the_solve_oracle_on_any_direct_sum(F, n):
    rng = random.Random(n)
    A = apex_algebra(F, n)
    for part1, part2 in random_direct_sums(F, n, rng):
        w = F.random(rng)
        assert _projection(A, part1, part2, w) == \
            ref_projection(A, part1, part2, w)


def test_is_splitting_is_the_quadratic_relation():
    assert is_splitting(GF5, ((0, 0), (2, 4)), 1)
    assert not is_splitting(GF5, identity_matrix(GF5, 2), 1)


# ------------------------------------------------------------------ indices

def _index(A, w):
    return rb_index(A, w, enumerate_rb_operators(A, w))


def test_rb_index_values():
    assert _index(I2_3, 1) == 1  # trivial operators only
    assert _index(I2_5, 1) == 2
    assert _index(I3_3, 0) == 2
    I1 = apex_algebra(GF3, 1)
    for w in (0, 1, 2):
        assert _index(I1, w) == 1


def test_rb_index_infinity_marker():
    # on a zero-multiplication algebra every matrix is an operator, and an
    # invertible one never satisfies any mixed-power vanishing
    Z = Algebra(GF3, 1, {})
    assert _index(Z, GF3.one) is None


# ----------------------------------------------------------- decompositions

def test_decomposition_records_dim2_gf5():
    recs = enumerate_decompositions(I2_5)
    assert len(recs) == 8
    normal = [r for r in recs if r["normal_form"]]
    off = [r for r in recs if not r["normal_form"]]
    assert len(normal) == 6
    assert len(off) == 2
    # the off-shape pairs are the two isotropic lines paired together
    for r in off:
        assert r["parts_contain_apex"] == (False, False)
        assert r["parts_lagrangian"] == (True, True)
        bases = {r["part1"].basis, r["part2"].basis}
        assert bases == {((1, 2),), ((1, 3),)}


def test_decomposition_records_dim2_gf3():
    recs = enumerate_decompositions(I2_3)
    # only the two orderings of 0 + everything survive over GF(3)
    assert len(recs) == 2
    dims = sorted((r["part1"].dim, r["part2"].dim) for r in recs)
    assert dims == [(0, 2), (2, 0)]


def test_decomposition_parts_rebuild_operators():
    for r in enumerate_decompositions(I2_5):
        R = splitting_operator(I2_5, r["part1"], r["part2"], 1)
        assert is_rb_operator(I2_5, R, 1).ok


# ------------------------------------------------------- example operators

def test_isotropic_column_operator_gf5():
    R = isotropic_column_operator(GF5, 3)
    assert R == ((0, 0, 0), (2, 0, 0), (1, 0, 0))
    A = apex_algebra(GF5, 3)
    assert is_rb_operator(A, R, 0).ok
    rep = classify_case(A, R, 0)
    assert rep.details["case"] == 2
    assert is_lagrangian(column_space(GF5, R))


def test_isotropic_column_operator_qi():
    R = isotropic_column_operator(QI, 3)
    c = R[1][0]
    assert c == (Fraction(0), Fraction(1))  # c = sqrt(-1)
    A = apex_algebra(QI, 3)
    assert is_rb_operator(A, R, QI.zero).ok


def test_isotropic_column_operator_guards():
    with pytest.raises(DimensionError):
        isotropic_column_operator(GF5, 2)
    with pytest.raises(FieldError):
        isotropic_column_operator(GF3, 3)  # 1/(2-3) = 2 has no root
    with pytest.raises(FieldError):
        isotropic_column_operator(QI, 4)  # sqrt(-1/2) needs sqrt(2)


def test_skew_pairing_operator():
    for F in (QI, PrimeField(13)):
        R = skew_pairing_operator(F)
        A = apex_algebra(F, 4)
        assert is_rb_operator(A, R, F.zero).ok
        rep = classify_case(A, R, F.zero)
        assert rep.details["case"] == 1
        assert rep.details["shift_skew"] is True
        iso = square_isotropy_check(A, R, F.zero)
        assert iso.details["branch"] == "both"
    with pytest.raises(FieldError):
        skew_pairing_operator(Q)
    with pytest.raises(FieldError):
        skew_pairing_operator(GF3)


def test_isotropic_line_decomposition_qi():
    A = apex_algebra(QI, 2)
    expected = {
        1: ((QI.zero, QI.zero), ((Fraction(0), Fraction(1)), QI.neg(QI.one))),
        -1: ((QI.zero, QI.zero), ((Fraction(0), Fraction(-1)), QI.neg(QI.one))),
    }
    for sign in (1, -1):
        line, apex_line = isotropic_line_decomposition(QI, sign)
        assert is_lagrangian(line)
        assert not is_lagrangian(apex_line)
        R = splitting_operator(A, line, apex_line, QI.one)
        assert R == expected[sign]
        assert is_rb_operator(A, R, QI.one).ok


def test_isotropic_line_decomposition_gf5():
    A = apex_algebra(GF5, 2)
    got = set()
    for sign in (1, -1):
        line, apex_line = isotropic_line_decomposition(GF5, sign)
        got.add(splitting_operator(A, line, apex_line, 1))
    assert got == {((0, 0), (2, 4)), ((0, 0), (3, 4))}


def test_isotropic_line_decomposition_guards():
    with pytest.raises(ValueError):
        isotropic_line_decomposition(QI, 2)
    with pytest.raises(FieldError):
        isotropic_line_decomposition(GF3)


# ------------------------------------------------------ rational arguments

def test_totally_real_isotropy():
    M = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    rep = totally_real_isotropy_check(Q, M)
    assert rep.ok and not rep.details["gram_zero"]
    Z = ((Fraction(0),) * 2,) * 2
    rep = totally_real_isotropy_check(Q, Z)
    assert rep.ok and rep.details["gram_zero"] and rep.details["matrix_zero"]
    with pytest.raises(FieldError):
        totally_real_isotropy_check(GF5, ((1, 0), (0, 1)))
    with pytest.raises(FieldError):
        totally_real_isotropy_check(QI, ((QI.one, QI.zero),) * 2)


def test_rational_triviality_resolutions():
    A = apex_algebra(Q, 3)
    zero = tuple((Q.zero,) * 3 for _ in range(3))
    rep = rational_triviality_check(A, zero, Fraction(3))
    assert rep.ok and rep.details["resolved"] == "zero"
    minus = mat_scale(Q, Fraction(-3), identity_matrix(Q, 3))
    rep = rational_triviality_check(A, minus, Fraction(3))
    assert rep.ok and rep.details["resolved"] == "minus_weight"
    with pytest.raises(ValueError):
        rational_triviality_check(A, identity_matrix(Q, 3), Fraction(1))


def test_random_rational_matrices_are_never_operators_unless_trivial():
    A = apex_algebra(Q, 3)
    rng = random.Random(321)
    hits = 0
    for _ in range(50):
        M = random_matrix(Q, 3, 3, rng)
        if is_rb_operator(A, M, Fraction(1)).ok:
            hits += 1
            assert is_trivial_operator(Q, M, Fraction(1))
    assert hits == 0  # random matrices essentially never land on 0 or -E
