"""Builders and identity checkers, cross-checked against independent oracles."""

from fractions import Fraction

import pytest

from prelie.algebras import (Algebra, apex_algebra, check_identity,
                             dot_product_algebra, ideal_closure,
                             infinite_truncation_algebra, is_apex_algebra,
                             is_ideal, is_simple, is_subalgebra,
                             left_mult_matrix, minus_algebra, permute_basis,
                             plus_algebra, rebased_first_row,
                             right_mult_matrix, unital_extension,
                             upper_triangular_algebra)
from prelie.errors import CapError, DimensionError
from prelie.fields import (FieldError, PrimeField, QuadraticField,
                           RationalField, make_field)
from prelie.linalg import (mat_add, mat_mul, span, trace, transpose,
                           zero_matrix)

Q = RationalField()
GF3 = PrimeField(3)
GF5 = PrimeField(5)
QI = QuadraticField(Q, Fraction(-1))


# ------------------------------------------------------------ apex products

def closed_formula_product(F, x, y):
    """Independent oracle: (v + a e_n)(u + b e_n) = a u + ((v,u) + 2ab) e_n."""
    v, a = x[:-1], x[-1]
    u, b = y[:-1], y[-1]
    dot = F.zero
    for s, t in zip(v, u):
        dot = F.add(dot, F.mul(s, t))
    apex = F.add(dot, F.mul(F.from_int(2), F.mul(a, b)))
    return tuple(F.mul(a, c) for c in u) + (apex,)


def test_multiply_matches_closed_formula():
    import random
    rng = random.Random(2024)
    for F, n in [(GF5, 4), (Q, 3), (QI, 3)]:
        A = apex_algebra(F, n)
        for _ in range(60):
            x = tuple(F.random(rng) for _ in range(n))
            y = tuple(F.random(rng) for _ in range(n))
            assert A.multiply(x, y) == closed_formula_product(F, x, y)


def test_apex_table_entries():
    A = apex_algebra(GF3, 3)
    assert A.basis_product(2, 2) == (0, 0, 2)
    assert A.basis_product(2, 0) == (1, 0, 0)
    assert A.basis_product(0, 0) == (0, 0, 1)
    assert A.basis_product(0, 2) == (0, 0, 0)
    assert A.basis_product(0, 1) == (0, 0, 0)
    assert is_apex_algebra(A)
    assert not is_apex_algebra(unital_extension(A))


@pytest.mark.parametrize("spec", ["gf2", "gf3", "q", "qi"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_apex_guard_reads_the_table(spec, n):
    F = make_field(spec, allow_char2=True)
    A = apex_algebra(F, n)
    assert is_apex_algebra(A)
    # the table written out with its constant 2, which is 0 over GF(2)
    a = n - 1
    table = {(a, a, a): F.from_int(2)}
    for j in range(a):
        table[(a, j, j)] = F.one
        table[(j, j, a)] = F.one
    assert is_apex_algebra(Algebra(F, n, table))
    assert not is_apex_algebra(unital_extension(A))
    for key in list(table) + [(0, 0, 0)]:
        perturbed = dict(table)
        perturbed[key] = F.add(perturbed.get(key, F.zero), F.one)
        assert not is_apex_algebra(Algebra(F, n, perturbed))


def test_left_right_multiplication_traces():
    for n in (2, 3, 5):
        A = apex_algebra(Q, n)
        e_n = A.basis(n - 1)
        R = right_mult_matrix(A, e_n)
        L = left_mult_matrix(A, e_n)
        assert trace(Q, R) == Fraction(2)
        assert trace(Q, L) == Fraction(n + 1)
        # columns of L are the products e_n * e_j
        assert transpose(L)[0] == A.multiply(e_n, A.basis(0))


def test_not_third_power_associative():
    for F in (Q, GF3, GF5, QI):
        for n in (2, 3, 4):
            A = apex_algebra(F, n)
            e1 = A.basis(0)
            left = A.multiply(A.multiply(e1, e1), e1)
            right = A.multiply(e1, A.multiply(e1, e1))
            assert left == e1
            assert all(c == F.zero for c in right)
            rep = check_identity(A, "third_power_associative")
            assert not rep.ok
            assert rep.witness["coordinate"] == 1


# --------------------------------------------------------------- identities

@pytest.mark.parametrize("spec", ["q", "gf3", "gf5", "qi"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_apex_is_pre_lie(spec, n):
    A = apex_algebra(make_field(spec), n)
    assert check_identity(A, "pre_lie").ok


def test_novikov_only_in_dimension_one():
    assert check_identity(apex_algebra(Q, 1), "novikov").ok
    for n in (2, 3):
        rep = check_identity(apex_algebra(Q, n), "novikov")
        assert not rep.ok
        assert rep.witness is not None


def test_plus_algebra_commutative_and_flexible():
    for n in (2, 3):
        B = plus_algebra(apex_algebra(GF3, n))
        assert check_identity(B, "commutative").ok
        sym = check_identity(B, "flexible")
        exh = check_identity(B, "flexible", exhaustive=True)
        assert sym.ok and exh.ok and sym.ok == exh.ok
    B = plus_algebra(apex_algebra(Q, 3))
    assert check_identity(B, "flexible").ok
    assert check_identity(B, "third_power_associative").ok


def test_symbolic_agrees_with_exhaustive_on_failures():
    for F in (GF3, GF5, PrimeField(7)):
        A = apex_algebra(F, 2)
        for kind in ("flexible", "third_power_associative"):
            sym = check_identity(A, kind)
            exh = check_identity(A, kind, exhaustive=True)
            assert sym.ok == exh.ok == False  # noqa: E712


def test_minus_algebra_is_a_lie_bracket():
    for F in (Q, GF5):
        L = minus_algebra(apex_algebra(F, 3))
        assert check_identity(L, "anticommutative").ok
        assert check_identity(L, "jacobi").ok


def test_apex_not_flexible():
    for F in (Q, GF3, QI):
        rep = check_identity(apex_algebra(F, 3), "flexible")
        assert not rep.ok


def test_unital_extension_properties():
    A = apex_algebra(GF5, 3)
    U = unital_extension(A)
    assert U.dim == 4
    assert check_identity(U, "pre_lie").ok
    u = U.basis(3)
    for i in range(4):
        assert U.multiply(u, U.basis(i)) == U.basis(i)
        assert U.multiply(U.basis(i), u) == U.basis(i)
    # old products are unchanged on the embedded copy
    assert U.basis_product(0, 0) == (0, 0, 1, 0)


def test_check_identity_guards():
    A = apex_algebra(Q, 2)
    with pytest.raises(ValueError):
        check_identity(A, "associative")
    with pytest.raises(CapError):
        check_identity(A, "flexible", exhaustive=True)
    with pytest.raises(CapError):
        check_identity(apex_algebra(GF5, 5), "flexible", exhaustive=True,
                       cap=100)


# ------------------------------------------------------- triangular algebra

def triangular_oracle_product(F, n, X, Y):
    """Matrix-level recomputation: X*Y = XY + upper(X Y^T + Y X^T), where
    upper keeps the strictly upper triangle and half of the diagonal."""
    XY = mat_mul(F, X, Y)
    S = mat_add(F, mat_mul(F, X, transpose(Y)), mat_mul(F, Y, transpose(X)))
    up = [list(row) for row in zero_matrix(F, n, n)]
    for r in range(n):
        up[r][r] = F.half(S[r][r])
        for c in range(r + 1, n):
            up[r][c] = S[r][c]
    return mat_add(F, XY, tuple(tuple(row) for row in up))


def unit_matrix(F, n, i, j):
    M = [[F.zero] * n for _ in range(n)]
    M[i - 1][j - 1] = F.one
    return tuple(tuple(row) for row in M)


@pytest.mark.parametrize("F", [Q, GF5], ids=["q", "gf5"])
@pytest.mark.parametrize("n", [2, 3])
def test_triangular_table_matches_matrix_oracle(F, n):
    ut = upper_triangular_algebra(F, n)
    A = ut.algebra
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    for (i, j) in pairs:
        for (k, l) in pairs:
            M = triangular_oracle_product(F, n, unit_matrix(F, n, i, j),
                                          unit_matrix(F, n, k, l))
            got = A.basis_product(ut.unit_index(i, j), ut.unit_index(k, l))
            expected = [F.zero] * A.dim
            for (r, c) in pairs:
                expected[ut.unit_index(r, c)] = M[r - 1][c - 1]
            # nothing may land outside the upper positions
            for r in range(1, n + 1):
                for c in range(1, r):
                    assert M[r - 1][c - 1] == F.zero
            assert got == tuple(expected)


def test_triangular_is_pre_lie():
    for n in (2, 3):
        assert check_identity(upper_triangular_algebra(Q, n).algebra,
                              "pre_lie").ok


def test_triangular_char2_refused():
    with pytest.raises(FieldError):
        upper_triangular_algebra(PrimeField(2, allow_char2=True), 2)


def test_unit_index():
    ut = upper_triangular_algebra(Q, 3)
    assert ut.unit_index(1, 1) == 0
    assert ut.unit_index(1, 3) == 2
    assert ut.unit_index(2, 2) == 3
    assert ut.unit_index(3, 3) == 5
    assert ut.first_row == (0, 1, 2)
    with pytest.raises(DimensionError):
        ut.unit_index(2, 1)


def test_first_row_is_an_ideal():
    for n in (2, 3, 4):
        ut = upper_triangular_algebra(GF5, n)
        W = span(GF5, ut.algebra.dim,
                 [ut.algebra.basis(t) for t in ut.first_row])
        assert is_ideal(ut.algebra, W).ok


@pytest.mark.parametrize("F", [Q, GF3, GF5], ids=["q", "gf3", "gf5"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_rebased_first_row_is_apex(F, n):
    assert rebased_first_row(F, n) == apex_algebra(F, n)


def test_truncation_is_apex_after_relabeling():
    for m in (1, 2, 3):
        T = infinite_truncation_algebra(GF3, m)
        perm = (m,) + tuple(range(m))  # apex moves from front to back
        assert permute_basis(T, perm) == apex_algebra(GF3, m + 1)


def test_permute_basis_validates():
    A = apex_algebra(GF3, 2)
    with pytest.raises(DimensionError):
        permute_basis(A, (0, 0))
    with pytest.raises(DimensionError):
        permute_basis(A, (0, 2))


# ------------------------------------------------------- dot-product family

def test_dot_product_algebra_reproduces_apex():
    marked = (0, 0, 0, 1)
    assert dot_product_algebra(GF5, marked) == apex_algebra(GF5, 4)


def test_dot_product_algebra_always_pre_lie():
    for marked in [(1, 2, 0), (1, 1, 1), (2, 0, 0), (1, 0, 2)]:
        assert check_identity(dot_product_algebra(GF5, marked), "pre_lie").ok
    assert check_identity(dot_product_algebra(Q, (Fraction(1), Fraction(3))),
                          "pre_lie").ok


def test_dot_product_algebra_simple_iff_marked_anisotropic():
    # (a, a) = 0 produces a proper ideal; (a, a) != 0 does not
    for marked in [(1, 1, 1), (2, 0, 0)]:
        assert is_simple(dot_product_algebra(GF5, marked)).ok
    for marked in [(1, 2, 0), (1, 0, 2), (1, 2)]:
        rep = is_simple(dot_product_algebra(GF5, marked))
        assert not rep.ok
        assert is_ideal(dot_product_algebra(GF5, marked), rep.witness).ok


def test_dot_product_rejects_zero_marked():
    with pytest.raises(DimensionError):
        dot_product_algebra(GF5, (0, 0))


# ----------------------------------------------------------------- ideals

def test_subalgebra_and_ideal_reports():
    A = apex_algebra(GF3, 3)
    apex_line = span(GF3, 3, [(0, 0, 1)])
    assert is_subalgebra(A, apex_line).ok
    rep = is_ideal(A, apex_line)
    assert not rep.ok  # e_n generates everything
    hyper = span(GF3, 3, [(1, 0, 0), (0, 1, 0)])
    assert not is_subalgebra(A, hyper).ok


def test_ideal_closure_grows_to_whole_algebra():
    A = apex_algebra(GF5, 3)
    W = ideal_closure(A, span(GF5, 3, [(1, 0, 0)]))
    assert W.dim == 3


def test_ideal_closure_stabilizes_on_proper_ideal():
    ut = upper_triangular_algebra(GF3, 2)
    A = ut.algebra
    seed = span(GF3, A.dim, [A.basis(ut.first_row[0])])
    W = ideal_closure(A, seed)
    assert is_ideal(A, W).ok
    assert W.dim < A.dim


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_apex_is_simple(q, n):
    F = make_field(f"gf{q}", allow_char2=True)
    assert is_simple(apex_algebra(F, n)).ok


def test_truncation_is_simple():
    for m in (2, 3):
        assert is_simple(infinite_truncation_algebra(GF3, m)).ok


def test_triangular_algebra_not_simple():
    ut = upper_triangular_algebra(GF3, 2)
    rep = is_simple(ut.algebra)
    assert not rep.ok
    assert 0 < rep.witness.dim < ut.algebra.dim
    assert is_ideal(ut.algebra, rep.witness).ok


def test_zero_multiplication_not_simple():
    rep = is_simple(Algebra(GF3, 2, {}))
    assert not rep.ok
    assert rep.witness == "zero multiplication"


def test_plus_algebra_simplicity_pattern():
    # the anticommutator algebra is simple except in the one degenerate
    # spot: dimension 2 over a characteristic-3 field containing sqrt(2)
    GF7 = PrimeField(7)
    GF9 = QuadraticField(GF3, 2)
    for F in (GF3, GF5, GF7):
        for n in (2, 3):
            assert is_simple(plus_algebra(apex_algebra(F, n))).ok
    assert is_simple(plus_algebra(apex_algebra(GF9, 3))).ok
    B = plus_algebra(apex_algebra(GF9, 2))
    rep = is_simple(B)
    assert not rep.ok
    t = GF9.sqrt(GF9.from_int(2))
    line = span(GF9, 2, [(GF9.one, t)])
    assert is_ideal(B, line).ok
    assert rep.witness.basis == line.basis


def test_is_simple_requires_finite_field():
    with pytest.raises(CapError):
        is_simple(apex_algebra(Q, 2))


# ------------------------------------------------------------------- json

def test_json_round_trip():
    A = apex_algebra(GF5, 3)
    data = A.to_json()
    assert data["dim"] == 3
    assert [3, 3, 3, "2"] in data["table"]
    assert Algebra.from_json(data) == A


def test_json_merges_duplicate_entries():
    data = {"field": {"kind": "prime", "p": 5}, "dim": 1,
            "table": [[1, 1, 1, "2"], [1, 1, 1, "3"]]}
    A = Algebra.from_json(data)
    assert A.table == {}  # 2 + 3 = 0 over GF(5)


def test_table_validation():
    with pytest.raises(DimensionError):
        Algebra(GF3, 2, {(0, 0, 2): 1})
    with pytest.raises(DimensionError):
        Algebra(GF3, 0, {})
