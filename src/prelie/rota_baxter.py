"""Rota-Baxter operators: checkers, residuals, classification, enumeration.

A linear operator R on an algebra is Rota-Baxter of weight w when

    R(x) R(y) = R( R(x) y + x R(y) + w x y )   for all x, y.

The machine-verified structure facts for the apex algebra:

* R^2 + wR = 0 for every such operator (so every operator is "splitting"
  in the quadratic sense), and the full matrix satisfies the isotropy
  disjunction R^T R = 0 or B^T B = 0 where B is the matrix of the
  reflection -R - w id.  The disjunction is essential: R = -w id is always
  an operator and has R^T R = w^2 E.
* Case dichotomy by the apex column: if R(b_n) leaves Span{b_n} (case 1),
  then R + (w/2)E is skew-symmetric with square (w^2/4)E; otherwise
  (case 2) the apex coefficient of R(b_n) is 0 or -w.
* Nonzero weight: ker(R) and ker(R + wE) are subalgebras in direct sum,
  and R is reproduced by the projection construction on that decomposition.

Residual names follow the same `jj/jn/nj/nn` + `_v`/`_s` convention as the
symmetry module.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import linalg as la
from .algebras import (Algebra, _check_apex, _check_shape,
                       _leibniz_form, _operator_equations, is_subalgebra)
from .errors import DimensionError, FalsificationError
from .fields import Field, FieldError, Scalar
from .linalg import Matrix, Subspace
from .parallel import check_scan, scan_matrices
from .reports import CheckReport

__all__ = [
    "classify_case", "enumerate_decompositions", "enumerate_rb_operators",
    "is_rb_operator", "is_splitting", "is_trivial_operator",
    "isotropic_column_operator", "isotropic_line_decomposition", "rb_index",
    "rb_residuals", "rational_triviality_check", "reflect_operator",
    "skew_pairing_operator", "splitting_certificate", "splitting_operator",
    "square_isotropy_check", "totally_real_isotropy_check",
]


# -------------------------------------------------------- generic checkers

def is_rb_operator(A: Algebra, R: Matrix, weight: Scalar) -> CheckReport:
    """The defining identity on all basis pairs; witness is the first
    failing pair (1-based)."""
    _check_shape(A, R)
    witness = _rb_failure(A, R, weight)
    return CheckReport(witness is None, witness=witness)


def _rb_failure(A: Algebra, R: Matrix,
                weight: Scalar) -> tuple[int, int] | None:
    """The first basis pair (1-based) on which the defining identity fails,
    or None when it holds on every pair.

    Both sides are sparse, with zero sums dropped, from the sparse columns
    of R taken once: R(b_i) R(b_j) against R applied to
    R(b_i) b_j + w b_i b_j + b_i R(b_j) = (R + wE)(b_i) b_j + b_i R(b_j).
    """
    F = A.field
    n = A.dim
    cols = [la.sparse(F, col) for col in la.transpose(R)]
    units = [{i: F.one} for i in range(n)]
    shifted = [dict(col) for col in cols]
    if not F.is_zero(weight):
        for col, unit in zip(shifted, units):
            la.add_multiple(F, col, weight, unit)
    product = A.product
    for i in range(n):
        for j in range(n):
            inner = product(units[i], cols[j], product(shifted[i], units[j]))
            if product(cols[i], cols[j]) != la.combine(F, inner.items(), cols):
                return i + 1, j + 1
    return None


def reflect_operator(F: Field, R: Matrix, weight: Scalar) -> Matrix:
    """The involution R -> -R - w id, which maps weight-w operators to
    weight-w operators and swaps the two kernels."""
    is_zero, neg, sub = F.is_zero, F.neg, F.sub
    return tuple(tuple(sub(neg(a), weight) if j == i
                       else a if is_zero(a) else neg(a)
                       for j, a in enumerate(row))
                 for i, row in enumerate(R))


def is_splitting(F: Field, R: Matrix, weight: Scalar) -> bool:
    """Quadratic characterization: R^2 + wR = -R B = 0, with B the
    reflection -R - w id."""
    return la.is_zero_matrix(
        F, la.mat_mul(F, R, reflect_operator(F, R, weight)))


def is_trivial_operator(F: Field, R: Matrix, weight: Scalar) -> bool:
    """R = 0 or R = -w id (its reflection is 0), the operators present for
    every algebra."""
    return (la.is_zero_matrix(F, R)
            or la.is_zero_matrix(F, reflect_operator(F, R, weight)))


# ------------------------------------------------------- residual system

def rb_residuals(A: Algebra, R: Matrix,
                 weight: Scalar) -> Iterator[tuple[str, Scalar]]:
    """Named scalar equations equivalent to the defining identity on the
    apex algebra.  Column j of R is v_j + a_j b_n with v_j the hyperplane
    part and a_j the apex coefficient.

    Validation is eager: a wrong shape or a non-apex table raises
    DimensionError at call time.  Evaluation is lazy: each (name, scalar)
    pair is computed when the stream reaches it, in a fixed order, so a
    caller may stop at the first nonzero residual.
    """
    _check_apex(A, R)
    return _rb_stream(A, R, weight)


def _rb_stream(A: Algebra, R: Matrix,
               w: Scalar) -> Iterator[tuple[str, Scalar]]:
    F = A.field
    n = A.dim
    a = n - 1
    v = lambda k, j: R[k][j]
    alpha = lambda j: R[a][j]
    col = la.transpose(R)
    hyp = lambda j: col[j][:a]
    two = F.from_int(2)
    three = F.from_int(3)
    for i in range(a):
        for j in range(a):
            factor = F.add(v(i, j), v(j, i))
            if i == j:
                factor = F.add(factor, w)
            for k in range(a):
                yield (f"jj_v({i + 1},{j + 1})[{k + 1}]",
                       F.mul(factor, v(k, a)))
            yield (f"jj_s({i + 1},{j + 1})",
                   F.sub(F.add(la.dot(F, hyp(i), hyp(j)),
                               F.mul(alpha(i), alpha(j))),
                         F.mul(factor, alpha(a))))
    for i in range(a):
        coeff = F.add(alpha(i), v(i, a))
        for k in range(a):
            yield f"jn_v({i + 1})[{k + 1}]", F.mul(coeff, v(k, a))
        yield (f"jn_s({i + 1})",
               F.sub(la.dot(F, hyp(i), hyp(a)), F.mul(v(i, a), alpha(a))))
    for j in range(a):
        load = F.add(v(j, a), F.mul(two, alpha(j)))
        for k in range(a):
            s = F.mul(w, v(k, j))
            for m in range(a):
                s = F.add(s, F.mul(v(m, j), v(k, m)))
            s = F.add(s, F.mul(load, v(k, a)))
            yield f"nj_v({j + 1})[{k + 1}]", s
        s = F.mul(w, alpha(j))
        for m in range(a):
            s = F.add(s, F.mul(alpha(m), v(m, j)))
        s = F.add(s, F.mul(F.add(v(j, a), alpha(j)), alpha(a)))
        s = F.sub(s, la.dot(F, hyp(a), hyp(j)))
        yield f"nj_s({j + 1})", s
    lead = F.add(F.mul(three, alpha(a)), F.mul(two, w))
    for k in range(a):
        s = F.mul(lead, v(k, a))
        for m in range(a):
            s = F.add(s, F.mul(v(m, a), v(k, m)))
        yield f"nn_v[{k + 1}]", s
    s = F.mul(two, F.mul(alpha(a), F.add(alpha(a), w)))
    for m in range(a):
        s = F.add(s, F.mul(alpha(m), v(m, a)))
    s = F.sub(s, la.dot(F, hyp(a), hyp(a)))
    yield "nn_s", s


# --------------------------------------------- splitting from decompositions

def splitting_operator(A: Algebra, part1: Subspace, part2: Subspace,
                       weight: Scalar) -> Matrix:
    """The operator x1 + x2 -> -w x2 for a direct-sum decomposition of A
    into two subalgebras; always Rota-Baxter of weight w.

    Rejects inputs that are not subalgebras or not a direct sum, naming a
    product that leaves the part or the dimension defect.
    """
    for label, part in (("part1", part1), ("part2", part2)):
        rep = is_subalgebra(A, part)
        if not rep:
            i, j = rep.witness
            raise ValueError(
                f"{label} is not a subalgebra: the product of its basis "
                f"vectors {i + 1} and {j + 1} leaves the span")
    if not la.is_direct_sum(part1, part2, A.dim):
        raise ValueError(
            f"not a direct sum: dims {part1.dim} + {part2.dim} with "
            f"intersection of dim {la.intersect(part1, part2).dim} "
            f"in ambient {A.dim}")
    return _projection(A, part1, part2, weight)


def _projection(A: Algebra, part1: Subspace, part2: Subspace,
                weight: Scalar) -> Matrix:
    """The operator of `splitting_operator`, for parts already checked.

    With M the basis of part1 then part2 as columns, row t of M^-1 gives
    the t-th coordinate of a vector in that basis, so
    R = -w * M' * M^-1, where M' is M with the part1 columns zeroed.
    One elimination of [M | E] gives M^-1.
    """
    F = A.field
    n = A.dim
    M = la.transpose(part1.basis + part2.basis)
    E = la.identity_matrix(F, n)
    reduced = la.rref(F, [row + e for row, e in zip(M, E)])[0]
    inverse = [row[n:] for row in reduced]
    kept = la.transpose((la.zero_vector(F, n),) * part1.dim + part2.basis)
    return la.mat_scale(F, F.neg(weight), la.mat_mul(F, kept, inverse))


def splitting_certificate(A: Algebra, R: Matrix,
                          weight: Scalar) -> CheckReport:
    """For nonzero weight: ker(R) and ker(R + wE) are subalgebras in direct
    sum, and the projection construction on them reproduces R exactly.
    ker(R + wE) is taken as the kernel of the reflection -R - wE."""
    F = A.field
    if F.is_zero(weight):
        raise ValueError("the kernel decomposition needs a nonzero weight")
    _check_shape(A, R)
    k1 = la.kernel(F, R)
    k2 = la.kernel(F, reflect_operator(F, R, weight))
    sub1, sub2 = is_subalgebra(A, k1), is_subalgebra(A, k2)
    direct = la.is_direct_sum(k1, k2, A.dim)
    details = {"kernel_dim": k1.dim, "shifted_kernel_dim": k2.dim,
               "subalgebras": (sub1.ok, sub2.ok), "direct_sum": direct}
    if not (sub1 and sub2 and direct):
        return CheckReport(False, witness=(k1, k2), details=details)
    rebuilt = _projection(A, k1, k2, weight)
    details["reproduced"] = rebuilt == R
    return CheckReport(details["reproduced"],
                       witness=None if details["reproduced"] else rebuilt,
                       details=details)


# ----------------------------------------------------------- case analysis

def classify_case(A: Algebra, R: Matrix, weight: Scalar) -> CheckReport:
    """Case analysis of an operator on the apex algebra by its apex column.

    Pre: R passes is_rb_operator.  The invariants asserted here are forced
    for genuine operators, so a violation raises FalsificationError rather
    than returning a verdict: either the input was not Rota-Baxter or the
    case analysis itself is wrong, and both deserve a loud witness.

    Every invariant is decided once, from the reflection B = -R - wE and
    the one product R B = -(R^2 + wR), which must vanish.  R is trivial
    when R = 0 or B = 0.

    * Case 1 (the apex column leaves Span{b_n}) is the single test
      R^T = B.  The shift S = R + (w/2)E is skew exactly when
      R^T = -R - wE = B; the diagonal of R^T = B gives the apex
      coefficient -w/2; and S^2 - (w^2/4)E = R^2 + wR = -RB is already 0.
    * Case 2 (the hyperplane part of the apex column is 0) needs no test
      of its own: the apex coefficient a satisfies a^2 + wa = 0, so a is
      0 or -w, and the hyperplane block H satisfies H^2 + wH = 0, because
      these are the bottom-right entry and the top-left block of R^2 + wR.

    details: case ("trivial" | 1 | 2), the apex coefficient, and the
    certificate facts of the case.
    """
    _check_apex(A, R)
    F = A.field
    if F.char == 2:
        raise FieldError("case analysis halves the weight; characteristic 2 "
                         "is out of scope")
    a = A.dim - 1
    w = weight
    B = reflect_operator(F, R, w)
    if not la.is_zero_matrix(F, la.mat_mul(F, R, B)):
        raise FalsificationError("operator violates R^2 + wR = 0", witness=R)
    alpha_a = R[a][a]
    zero = la.is_zero_matrix(F, R)
    if zero or la.is_zero_matrix(F, B):
        return CheckReport(True, details={
            "case": "trivial",
            "variant": "zero" if zero else "minus_weight",
            "apex_coefficient": F.format(alpha_a),
        })
    if any(not F.is_zero(R[k][a]) for k in range(a)):
        if la.transpose(R) != B:
            raise FalsificationError(
                "case 1 operator with R^T != -R - wE, so R + (w/2)E is "
                "not skew-symmetric", witness=R)
        half_w = F.half(w)
        return CheckReport(True, details={
            "case": 1,
            "apex_coefficient": F.format(alpha_a),
            "shift_skew": True,
            "shift_square_scalar": F.format(F.mul(half_w, half_w)),
        })
    return CheckReport(True, details={
        "case": 2,
        "apex_coefficient": F.format(alpha_a),
        "phi_normalized": alpha_a == F.neg(w) and not F.is_zero(w),
        "block_quadratic": True,
    })


def square_isotropy_check(A: Algebra, R: Matrix, weight: Scalar,
                          verify: bool = True) -> CheckReport:
    """The two matrix-level facts for apex-algebra operators: the quadratic
    relation R^2 + wR = -RB = 0, and the isotropy disjunction R^T R = 0 or
    B^T B = 0 for the reflection B = -R - w id.

    With verify=True (default) the input is first checked to be Rota-Baxter
    and rejected with ValueError otherwise; enumeration pipelines that
    already know pass verify=False.
    """
    _check_shape(A, R)
    F = A.field
    if verify and not is_rb_operator(A, R, weight):
        raise ValueError("not a Rota-Baxter operator of this weight")
    B = reflect_operator(F, R, weight)
    r2 = la.is_zero_matrix(F, la.mat_mul(F, R, B))
    ata = la.is_zero_matrix(F, la.mat_mul(F, la.transpose(R), R))
    btb = la.is_zero_matrix(F, la.mat_mul(F, la.transpose(B), B))
    branch = {(True, True): "both", (True, False): "operator",
              (False, True): "reflection", (False, False): None}[(ata, btb)]
    return CheckReport(r2 and (ata or btb), details={
        "r2_plus_lr_zero": r2,
        "ata_zero": ata,
        "phi_ata_zero": btb,
        "branch": branch,
    })


# ------------------------------------------------------------- enumeration

def enumerate_rb_operators(A: Algebra, weight: Scalar, cap: int = 10 ** 7,
                           workers: int = 1) -> list[Matrix]:
    """All weight-w operators on A over a finite field, in canonical
    enumeration order.

    The set is decided by an exact pruned search over the scalar equations
    of the defining identity (see `parallel.scan_matrices`); `cap` bounds
    the size q^(dim^2) of the matrix space all the same.
    """
    check_scan(A.field, A.dim, cap)
    return scan_matrices(A.field, A.dim, _rb_equations(A, weight),
                         workers=workers)


def _rb_equations(A: Algebra, weight: Scalar | None) -> list[dict]:
    """The defining identity R(b_i) R(b_j) = R(R(b_i) b_j + b_i R(b_j)
    + w b_i b_j) as scalar equations in the entries of R, one for each
    basis pair and coordinate, built from the structure constants.

    A weight of None makes w the variable dim^2, after the dim^2 entries
    of R: the term w c then has the monomial (entry, dim^2) instead of the
    constant coefficient w c, and one system holds for every weight."""
    F = A.field
    w_var = A.dim ** 2

    def inner(i, j):
        v = _leibniz_form(A, i, j)
        for k, c in A.basis_terms(i, j):
            v[k].append((c, w_var) if weight is None else
                        (F.mul(weight, c), None))
        return v

    return _operator_equations(A, inner)


def rb_index(A: Algebra, weight: Scalar,
             operators: list[Matrix]) -> int | None:
    """The least m such that every weight-w operator R in `operators` (the
    complete set, from enumerate_rb_operators) admits some k <= m with
    R^k (R + wE)^(m-k) = 0; None when no m up to dim works.

    The bound dim is sharp.  The powers of R + wE are taken as those of the
    reflection B = -R - wE: R^k B^(m-k) = +-R^k (R + wE)^(m-k).  For w = 0,
    R^k B^j = +-R^(k+j), which vanishes for some k + j exactly when R is
    nilpotent, of index at most dim.  For w != 0, R and B commute with
    R + B = -wE, so F^dim = ker R^dim (+) ker B^dim (+) U with R and B both
    invertible on U (B = -wE - R is invertible where R is nilpotent, and
    vice versa).  A vanishing R^k B^j therefore exists only when U = 0, and
    then the least m is the sum of the nilpotency indices of R on ker R^dim
    and of B on ker B^dim, at most dim ker R^dim + dim ker B^dim = dim.
    """
    F = A.field
    n = A.dim
    worst = 0
    for R in operators:
        rp = _powers(F, R)
        bp = _powers(F, reflect_operator(F, R, weight))
        # R^k B^(m-k), with the power E = R^0 = B^0 never built
        mixed = lambda m, k: (bp(m) if k == 0 else rp(m) if k == m
                              else la.mat_mul(F, rp(k), bp(m - k)))
        m_r = next((m for m in range(1, n + 1)
                    for k in range(m + 1)
                    if la.is_zero_matrix(F, mixed(m, k))),
                   None)
        if m_r is None:
            return None
        worst = max(worst, m_r)
    return worst


def _powers(F: Field, M: Matrix):
    """k -> M^k for k >= 1, each power computed on first use and kept."""
    out = [M]

    def power(k: int) -> Matrix:
        while len(out) < k:
            out.append(la.mat_mul(F, out[-1], M))
        return out[k - 1]
    return power


def enumerate_decompositions(A: Algebra, cap: int = 10 ** 6) -> list[dict]:
    """All ordered pairs (part1, part2) of subalgebras of A in direct sum.

    Each record carries honest structure flags instead of asserting a
    normal form: which parts meet the apex coordinate, which contain the
    apex vector itself, which are Lagrangian for the extended form, and
    whether the pair fits the shape "exactly one part contains the apex
    vector and the other part is Lagrangian".  The containment reading is
    deliberate: merely meeting the apex coordinate is true of both parts
    already in the motivating rank-one examples, and over small fields
    decompositions exist where neither part contains the apex vector at
    all, so the shape flag is data, not an invariant.
    """
    F = A.field
    n = A.dim
    subs = list(la.enumerate_subspaces(F, n, cap=cap))
    la.check_count(len(subs) ** 2, "subspace pairs", cap)
    apex = la.basis_vector(F, n, n - 1)
    parts = [W for W in subs if is_subalgebra(A, W)]
    out = []
    for W1 in parts:
        for W2 in parts:
            if W1.dim + W2.dim != n or not la.is_direct_sum(W1, W2, n):
                continue
            coord = (_meets_apex_coordinate(F, W1),
                     _meets_apex_coordinate(F, W2))
            lag = (la.is_lagrangian(W1), la.is_lagrangian(W2))
            holds = (W1.contains(apex), W2.contains(apex))
            if holds == (True, False):
                normal = lag[1]
            elif holds == (False, True):
                normal = lag[0]
            else:
                normal = False
            out.append({
                "part1": W1,
                "part2": W2,
                "parts_apex_coordinate": coord,
                "parts_contain_apex": holds,
                "parts_lagrangian": lag,
                "normal_form": normal,
            })
    return out


def _meets_apex_coordinate(F: Field, W: Subspace) -> bool:
    return any(not F.is_zero(row[-1]) for row in W.basis)


# ------------------------------------------------------- example operators

def isotropic_column_operator(F: Field, n: int) -> Matrix:
    """Weight-0 operator on the apex algebra of dimension n >= 3 sending
    b_1 to b_n + c (b_2 + ... + b_{n-1}) and the rest to 0, where
    c^2 = 1/(2-n); the single nonzero column is isotropic."""
    if n < 3:
        raise DimensionError("needs n >= 3: for n = 2 the coefficient "
                             "equation c^2 = 1/(2-n) divides by zero")
    target = F.inv(F.sub(F.from_int(2), F.from_int(n)))
    c = F.sqrt(target)
    if c is None:
        raise FieldError(f"{F!r} has no root of {F.format(target)}; the "
                         f"defining quadratic c^2 = 1/(2-n) is unsolvable")
    col = [F.zero] + [c] * (n - 2) + [F.one]
    rows = [[F.zero] * n for _ in range(n)]
    for k in range(n):
        rows[k][0] = col[k]
    return tuple(tuple(r) for r in rows)


def skew_pairing_operator(F: Field) -> Matrix:
    """Weight-0 operator on the 4-dimensional apex algebra pairing the two
    hyperbolic planes through i = sqrt(-1); its matrix is skew-symmetric
    with square zero."""
    i = F.sqrt(F.neg(F.one))
    if i is None:
        raise FieldError(f"{F!r} has no root of -1; the operator needs "
                         "the quadratic i^2 = -1 solved")
    z, o = F.zero, F.one
    ni, no = F.neg(i), F.neg(o)
    return ((z, z, i, o),
            (z, z, no, i),
            (ni, o, z, z),
            (no, ni, z, z))


def isotropic_line_decomposition(F: Field, sign: int = 1
                                 ) -> tuple[Subspace, Subspace]:
    """The two-part decomposition of the 2-dimensional apex algebra into
    the isotropic line Span{b_1 + s i b_2} (s = +-1) and Span{b_2}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    i = F.sqrt(F.neg(F.one))
    if i is None:
        raise FieldError(f"{F!r} has no root of -1; the isotropic line "
                         "needs the quadratic i^2 = -1 solved")
    s = i if sign == 1 else F.neg(i)
    line = la.span(F, 2, [(F.one, s)])
    apex_line = la.span(F, 2, [(F.zero, F.one)])
    return line, apex_line


# -------------------------------------------------- rational-field arguments

def totally_real_isotropy_check(F: Field, M: Matrix) -> CheckReport:
    """Over the rationals, M^T M = 0 forces M = 0: each diagonal entry of
    M^T M is a sum of squares.  Reports the diagonal and the conclusion."""
    if F.kind != "rational":
        raise FieldError("the sum-of-squares argument needs a totally "
                         "real field; got " + repr(F))
    gram = la.mat_mul(F, la.transpose(M), M) if M else ()
    gram_zero = la.is_zero_matrix(F, gram)
    matrix_zero = la.is_zero_matrix(F, M)
    diagonal = [F.format(gram[t][t]) for t in range(len(gram))]
    ok = (not gram_zero) or matrix_zero
    witness = None if ok else M
    return CheckReport(ok, witness=witness, details={
        "gram_zero": gram_zero,
        "matrix_zero": matrix_zero,
        "diagonal": diagonal,
    })


def rational_triviality_check(A: Algebra, R: Matrix,
                              weight: Scalar) -> CheckReport:
    """Over the rationals every operator is trivial, and the proof is the
    sum-of-squares mechanism rather than search: the isotropy disjunction
    hands one of R, -R - w id a vanishing Gram matrix, and a rational
    matrix with vanishing Gram is zero."""
    F = A.field
    if F.kind != "rational":
        raise FieldError("this argument is specific to the rationals")
    if not is_rb_operator(A, R, weight):
        raise ValueError("not a Rota-Baxter operator of this weight")
    iso = square_isotropy_check(A, R, weight, verify=False)
    if not iso:
        raise FalsificationError("isotropy disjunction failed over the "
                                 "rationals", witness=R)
    if iso.details["ata_zero"]:
        if not la.is_zero_matrix(F, R):
            raise FalsificationError(
                "rational matrix with zero Gram is nonzero", witness=R)
        return CheckReport(True, details={"resolved": "zero"})
    B = reflect_operator(F, R, weight)
    if not la.is_zero_matrix(F, B):
        raise FalsificationError(
            "rational matrix with zero Gram is nonzero", witness=B)
    return CheckReport(True, details={"resolved": "minus_weight"})
