"""Acceptance battery: fourteen end-to-end criteria, one test each.

Every test prints exactly one verdict line of the form

    criterion NN: PASS - <claim>

(visible under pytest -s; pytest -v shows the same verdict as the test
outcome).  All arithmetic is exact, so every comparison is equality with
zero tolerance.  Failures collect the offending instances into the assert
message instead of stopping at the first one.
"""

import random
from fractions import Fraction
from functools import lru_cache

from prelie import linalg as la
from prelie.algebras import (Algebra, apex_algebra, check_identity,
                             dot_product_algebra, infinite_truncation_algebra,
                             is_simple, plus_algebra, rebased_first_row,
                             right_mult_matrix, unital_extension)
from prelie.fields import make_field
from prelie.rota_baxter import (classify_case, enumerate_rb_operators,
                                is_rb_operator, is_trivial_operator,
                                isotropic_column_operator,
                                isotropic_line_decomposition, rb_index,
                                rb_residuals, skew_pairing_operator,
                                splitting_certificate, splitting_operator,
                                square_isotropy_check,
                                totally_real_isotropy_check)
from prelie.symmetry import (automorphism_residuals, derivation_matrices,
                             derivation_residuals, embed_orthogonal,
                             enumerate_automorphisms, enumerate_orthogonal,
                             is_automorphism, is_derivation)

from helpers import residuals_vanish

FOUR_FIELDS = ("q", "gf3", "gf5", "qi")
OPERATOR_GRID = ((2, "gf3"), (2, "gf5"), (3, "gf3"))


def conclude(num, claim, problems):
    ok = not problems
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {claim}")
    assert ok, f"criterion {num:02d}: {problems[:5]}"


@lru_cache(maxsize=1)
def operator_sets():
    """Every Rota-Baxter operator for every weight on the grid
    (n, q) in {(2,3), (2,5), (3,3)}, enumerated once and shared."""
    out = []
    for n, spec in OPERATOR_GRID:
        F = make_field(spec)
        A = apex_algebra(F, n)
        for w in F.elements():
            ops = enumerate_rb_operators(A, w)
            out.append((n, spec, w, A, ops))
    return tuple(out)


def corner_extend(F, M, corner):
    """diag(M, corner): the prescribed action on the adjoined unit."""
    n = len(M)
    rows = [tuple(M[i]) + (F.zero,) for i in range(n)]
    rows.append(tuple([F.zero] * n) + (corner,))
    return tuple(rows)


def generic_multiplicative(A, phi):
    F = A.field
    cols = la.transpose(phi)
    return all(A.multiply(cols[i], cols[j])
               == la.mat_vec(F, phi, A.basis_product(i, j))
               for i in range(A.dim) for j in range(A.dim))


def test_criterion_01_pre_lie_identity():
    problems = []
    for spec in FOUR_FIELDS:
        F = make_field(spec)
        for n in range(1, 7):
            rep = check_identity(apex_algebra(F, n), "pre_lie")
            if not rep.ok:
                problems.append((spec, n, rep.witness))
    conclude(1, "pre-Lie identity holds for n = 1..6 over Q, GF(3), "
                "GF(5), Q(i)", problems)


def test_criterion_02_construction_coherence():
    problems = []
    for spec in FOUR_FIELDS:
        F = make_field(spec)
        for n in range(2, 5):
            target = apex_algebra(F, n)
            marked = la.basis_vector(F, n, n - 1)
            if dot_product_algebra(F, marked) != target:
                problems.append(("dot-product", spec, n))
            if rebased_first_row(F, n) != target:
                problems.append(("first-row", spec, n))
    conclude(2, "marked-vector and triangular first-row constructions "
                "reproduce the structure constants verbatim, n = 2..4",
             problems)


def test_criterion_03_power_associativity_and_trace():
    problems = []
    for spec in FOUR_FIELDS:
        F = make_field(spec)
        for n in range(2, 7):
            A = apex_algebra(F, n)
            e1 = A.basis(0)
            square = A.multiply(e1, e1)
            left = A.multiply(square, e1)
            right = A.multiply(e1, square)
            if left != e1 or la.is_zero_vector(F, left):
                problems.append((spec, n, "left cube", left))
            if not la.is_zero_vector(F, right):
                problems.append((spec, n, "right cube", right))
            Rn = right_mult_matrix(A, A.basis(n - 1))
            trace = F.zero
            for k in range(n):
                trace = F.add(trace, Rn[k][k])
            if trace != F.from_int(2):
                problems.append((spec, n, "trace", F.format(trace)))
    conclude(3, "(e1 e1) e1 = e1 differs from e1 (e1 e1) = 0 and the "
                "right multiplication by the apex vector has trace 2",
             problems)


def test_criterion_04_simplicity():
    problems = []
    for q in (2, 3, 5):
        F = make_field(f"gf{q}", allow_char2=True)
        for n in (2, 3, 4):
            if not is_simple(apex_algebra(F, n)).ok:
                problems.append((q, n))
    F3 = make_field("gf3")
    for m in (2, 3):
        if not is_simple(infinite_truncation_algebra(F3, m)).ok:
            problems.append(("truncation", m))
    conclude(4, "the algebras are simple for (n, q) in {2,3,4} x {2,3,5} "
                "and the rank-2,3 truncations are simple over GF(3)",
             problems)


def test_criterion_05_derivation_dimensions_and_shape():
    problems = []
    for spec in ("q", "gf5"):
        F = make_field(spec)
        for n in range(2, 7):
            mats = derivation_matrices(apex_algebra(F, n))
            expected = (n - 1) * (n - 2) // 2
            if len(mats) != expected:
                problems.append((spec, n, "dim", len(mats), expected))
            for M in mats:
                border = [M[k][n - 1] for k in range(n)] + list(M[n - 1])
                if any(c != F.zero for c in border):
                    problems.append((spec, n, "border", M))
                block = tuple(row[:n - 1] for row in M[:n - 1])
                if not la.is_skew_symmetric(F, block):
                    problems.append((spec, n, "skew", M))
        if derivation_matrices(apex_algebra(F, 2)):
            problems.append((spec, "nonzero derivation on the plane"))
    conclude(5, "derivation algebras have dimension (n-1)(n-2)/2 with "
                "zero border, skew hyperplane block, and dimension 0 at "
                "n = 2, over Q and GF(5) for n = 2..6", problems)


def test_criterion_06_automorphisms_are_embedded_orthogonal():
    F = make_field("gf3")
    problems = []
    for n in (2, 3):
        A = apex_algebra(F, n)
        key = lambda M: la.matrix_sort_key(F, M)
        found = sorted(enumerate_automorphisms(A), key=key)
        expected = sorted((embed_orthogonal(F, Q, n)
                           for Q in enumerate_orthogonal(F, n - 1)),
                          key=key)
        if found != expected:
            problems.append((n, len(found), len(expected)))
    conclude(6, "exhaustive scans over GF(3) (81 and 19683 candidates) "
                "find exactly the embedded orthogonal automorphisms for "
                "n = 2, 3", problems)


def test_criterion_07_residual_cross_validation():
    problems = []
    F3 = make_field("gf3")
    A2 = apex_algebra(F3, 2)
    weights3 = list(F3.elements())
    for M in la.enumerate_matrices(F3, 2, 2):
        if residuals_vanish(F3, automorphism_residuals(A2, M)) != \
                generic_multiplicative(A2, M):
            problems.append(("aut", M))
        if residuals_vanish(F3, derivation_residuals(A2, M)) != \
                is_derivation(A2, M).ok:
            problems.append(("der", M))
        for w in weights3:
            if residuals_vanish(F3, rb_residuals(A2, M, w)) != \
                    is_rb_operator(A2, M, w).ok:
                problems.append(("rb", M, w))
    F5 = make_field("gf5")
    for n in (3, 4):
        A = apex_algebra(F5, n)
        rng = random.Random(700 + n)
        for _ in range(500):
            M = la.random_matrix(F5, n, n, rng)
            w = F5.random(rng)
            if residuals_vanish(F5, automorphism_residuals(A, M)) != \
                    generic_multiplicative(A, M):
                problems.append(("aut", n, M))
            if residuals_vanish(F5, derivation_residuals(A, M)) != \
                    is_derivation(A, M).ok:
                problems.append(("der", n, M))
            if residuals_vanish(F5, rb_residuals(A, M, w)) != \
                    is_rb_operator(A, M, w).ok:
                problems.append(("rb", n, M, w))
    conclude(7, "closed-form residual systems agree with the generic "
                "checkers on all 81 GF(3) 2x2 matrices and on 500 seeded "
                "GF(5) matrices each for n = 3, 4", problems)


def test_criterion_08_quadratic_relation_and_isotropy():
    problems = []
    for n, spec, w, A, ops in operator_sets():
        F = A.field
        for R in ops:
            rep = square_isotropy_check(A, R, w, verify=False)
            if not (rep.ok and rep.details["r2_plus_lr_zero"]):
                problems.append((n, spec, F.format(w), R, rep.details))
    conclude(8, "every enumerated operator on (n, q) in {(2,3), (2,5), "
                "(3,3)} for every weight satisfies the quadratic relation "
                "and the isotropy disjunction", problems)


def test_criterion_09_kernel_splitting_reproduction():
    problems = []
    for n, spec, w, A, ops in operator_sets():
        F = A.field
        if F.is_zero(w):
            continue
        for R in ops:
            cert = splitting_certificate(A, R, w)
            if not (cert.ok and cert.details["reproduced"]):
                problems.append((n, spec, F.format(w), R, cert.details))
    conclude(9, "every nonzero-weight operator is rebuilt exactly from "
                "the projections along its two kernels", problems)


def test_criterion_10_index_bound():
    problems = []
    for n, spec, w, A, ops in operator_sets():
        F = A.field
        idx = rb_index(A, w, ops)
        if idx is None or idx > 2:
            problems.append((n, spec, F.format(w), idx))
        trivial_only = all(is_trivial_operator(F, R, w) for R in ops)
        if trivial_only and idx != 1:
            problems.append((n, spec, F.format(w), "expected 1", idx))
        if (n, spec, F.format(w)) == (2, "gf5", "1") and idx != 2:
            problems.append((n, spec, "expected 2", idx))
    conclude(10, "the mixed-power index is at most 2 throughout, exactly "
                 "2 at (2, GF(5), weight 1), and exactly 1 wherever only "
                 "trivial operators exist", problems)


def test_criterion_11_case_analysis():
    problems = []
    for n, spec, w, A, ops in operator_sets():
        F = A.field
        for R in ops:
            try:
                rep = classify_case(A, R, w)
            except Exception as exc:
                problems.append((n, spec, F.format(w), R, repr(exc)))
                continue
            if n == 3 and not F.is_zero(w) and rep.details["case"] == 1:
                problems.append(("odd-rank case 1", spec, F.format(w), R))
    QI = make_field("qi")
    skew = classify_case(apex_algebra(QI, 4), skew_pairing_operator(QI),
                         QI.zero)
    if not (skew.details["case"] == 1 and skew.details["shift_skew"]
            and skew.details["shift_square_scalar"] == "0"):
        problems.append(("skew-pairing case", skew.details))
    for spec in ("gf5", "qi"):
        F = make_field(spec)
        col = classify_case(apex_algebra(F, 3),
                            isotropic_column_operator(F, 3), F.zero)
        if col.details["case"] != 2:
            problems.append(("isotropic-column case", spec, col.details))
    conclude(11, "classification never raises on an enumerated operator, "
                 "odd rank admits no nonzero-weight skew case, the "
                 "skew-pairing instance is case 1 with square-zero shift, "
                 "the isotropic-column instance is case 2", problems)


def test_criterion_12_named_instances():
    problems = []
    for spec in ("gf5", "qi"):
        F = make_field(spec)
        A3 = apex_algebra(F, 3)
        if not is_rb_operator(A3, isotropic_column_operator(F, 3), F.zero):
            problems.append(("isotropic column", spec))
    QI = make_field("qi")
    if not is_rb_operator(apex_algebra(QI, 4), skew_pairing_operator(QI),
                          QI.zero):
        problems.append(("skew pairing",))
    F5 = make_field("gf5")
    if F5.sqrt(F5.neg(F5.one)) != F5.from_int(2):
        problems.append(("canonical root of -1 over GF(5)",))
    for spec in ("qi", "gf5"):
        F = make_field(spec)
        A2 = apex_algebra(F, 2)
        for sign in (1, -1):
            line, apex_line = isotropic_line_decomposition(F, sign)
            R = splitting_operator(A2, line, apex_line, F.one)
            if not is_rb_operator(A2, R, F.one):
                problems.append(("line splitting", spec, sign))
            if not la.is_lagrangian(line):
                problems.append(("line not isotropic", spec, sign))
            if not la.is_direct_sum(line, apex_line, 2):
                problems.append(("not a direct sum", spec, sign))
    conclude(12, "the isotropic-column, skew-pairing, and isotropic-line "
                 "operators verify over their stated fields (GF(5) uses "
                 "i = 2) with isotropic line parts in direct sum",
             problems)


def test_criterion_13_totally_real_triviality():
    problems = []
    Q = make_field("q")
    rng = random.Random(13)
    for _ in range(50):
        M = la.random_matrix(Q, 3, 3, rng)
        rep = totally_real_isotropy_check(Q, M)
        if not rep.ok:
            problems.append(("sum of squares", M))
        if rep.details["gram_zero"] and not rep.details["matrix_zero"]:
            problems.append(("gram zero on nonzero matrix", M))
    if not totally_real_isotropy_check(
            Q, la.mat_scale(Q, Q.zero, la.identity_matrix(Q, 3))).ok:
        problems.append(("zero matrix case",))
    A3 = apex_algebra(Q, 3)
    weights = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
               Fraction(2)]
    hits = 0
    for k in range(1000):
        M = la.random_matrix(Q, 3, 3, rng)
        w = weights[k % len(weights)]
        if is_rb_operator(A3, M, w).ok and not is_trivial_operator(Q, M, w):
            hits += 1
            problems.append(("nontrivial rational operator", M, w))
    F3 = make_field("gf3")
    A2 = apex_algebra(F3, 2)
    for w in (F3.one, F3.from_int(2)):
        found = set(enumerate_rb_operators(A2, w))
        expected = {la.mat_scale(F3, F3.zero, la.identity_matrix(F3, 2)),
                    la.mat_scale(F3, F3.neg(w), la.identity_matrix(F3, 2))}
        if found != expected:
            problems.append(("GF(3) nontrivial", F3.format(w), found))
    F5 = make_field("gf5")
    ops5 = enumerate_rb_operators(apex_algebra(F5, 2), F5.one)
    if not any(not is_trivial_operator(F5, R, F5.one) for R in ops5):
        problems.append(("GF(5) missing nontrivial operators",))
    conclude(13, "vanishing Gram forces the zero matrix over Q, 1000 "
                 "seeded rational matrices admit no nontrivial operator, "
                 "GF(3) nonzero weights give exactly the two trivial "
                 "operators while GF(5) has nontrivial ones", problems)


def test_criterion_14_unital_lifts_and_anticommutator():
    problems = []
    F3 = make_field("gf3")
    for n in (2, 3):
        A = apex_algebra(F3, n)
        ext = unital_extension(A)
        for phi in enumerate_automorphisms(A):
            if not is_automorphism(ext, corner_extend(F3, phi, F3.one)).ok:
                problems.append(("automorphism lift", n, phi))
    for spec, n in (("q", 4), ("gf5", 5), ("gf3", 3)):
        F = make_field(spec)
        A = apex_algebra(F, n)
        ext = unital_extension(A)
        for d in derivation_matrices(A):
            if not is_derivation(ext, corner_extend(F, d, F.zero)).ok:
                problems.append(("derivation lift", spec, n, d))
    A2 = apex_algebra(F3, 2)
    ext2 = unital_extension(A2)
    for w in F3.elements():
        for R in enumerate_rb_operators(A2, w):
            if not is_rb_operator(ext2, corner_extend(F3, R, F3.zero), w):
                problems.append(("operator lift", F3.format(w), R))
    for spec in ("gf5", "gf7"):
        F = make_field(spec)
        if not is_simple(plus_algebra(apex_algebra(F, 2))).ok:
            problems.append(("anticommutator simple", spec))
    F9 = make_field("gf9")
    rep = is_simple(plus_algebra(apex_algebra(F9, 2)))
    if rep.ok:
        problems.append(("anticommutator unexpectedly simple over GF(9)",))
    else:
        basis = rep.witness.basis
        t = basis[0][1]
        if len(basis) != 1 or basis[0][0] != F9.one:
            problems.append(("witness shape", basis))
        elif F9.mul(t, t) != F9.from_int(2):
            problems.append(("witness root", F9.format(t)))
    for spec in ("q", "gf5"):
        F = make_field(spec)
        for n in range(2, 5):
            plus = plus_algebra(apex_algebra(F, n))
            for kind in ("commutative", "flexible"):
                if not check_identity(plus, kind).ok:
                    problems.append((kind, spec, n))
    conclude(14, "unit-fixing lifts of all automorphisms, derivation "
                 "bases, and rank-2 GF(3) operators re-verify on the "
                 "unital extension; the anticommutator algebra is simple "
                 "over GF(5) and GF(7) but splits over GF(9) along a line "
                 "with slope squaring to 2, and is commutative and "
                 "flexible for n = 2..4", problems)
