"""Automorphisms and derivations, generic checkers and apex-specific residuals.

The classification fact machine-verified here: for the apex algebra of
dimension n, automorphisms are exactly the block matrices diag(Q, 1) with
Q orthogonal of size n-1, and derivations are exactly diag(S, 0) with S
skew-symmetric, i.e. the orthogonal group and its Lie algebra acting on the
hyperplane while fixing or killing the apex vector.

Residual systems: writing the candidate's column j as v_j + a_j b_n (v_j
the hyperplane part, a_j the apex coefficient), multiplicativity or the
Leibniz rule on each basis pair (x, y) reduces to named scalar equations.
Residual names use 1-based indices and encode the pair type: `jj` for two
hyperplane vectors, `jn`/`nj` when the apex is the right/left factor, `nn`
for apex times apex; suffix `_v(...)[k]` is the k-th hyperplane coordinate
of the defect, `_s(...)` its apex coordinate.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import linalg as la
from .algebras import (Algebra, _check_apex, _check_shape, _leibniz_form,
                       _operator_equations, is_apex_algebra)
from .errors import DimensionError
from .fields import Field, Scalar
from .linalg import Matrix, Subspace
from .parallel import check_scan, scan_matrices
from .reports import CheckReport

__all__ = [
    "automorphism_orthogonal_correspondence", "automorphism_residuals",
    "derivation_algebra", "derivation_matrices", "derivation_residuals",
    "derivation_skew_correspondence", "embed_orthogonal", "embed_skew",
    "enumerate_automorphisms", "enumerate_orthogonal", "is_automorphism",
    "is_derivation",
]


# -------------------------------------------------------- generic checkers

def is_automorphism(A: Algebra, phi: Matrix) -> CheckReport:
    """phi preserves products and is invertible.

    details splits the verdict: `multiplicative` is the bilinear identity
    phi(x)phi(y) = phi(xy) on basis pairs, `invertible` the rank condition;
    witness is the first failing basis pair (1-based), if any.
    """
    _check_shape(A, phi)
    witness = _product_failure(A, phi)
    multiplicative = witness is None
    invertible = la.is_invertible(A.field, phi)
    return CheckReport(multiplicative and invertible, witness=witness,
                       details={"multiplicative": multiplicative,
                                "invertible": invertible})


def _product_failure(A: Algebra, phi: Matrix) -> tuple[int, int] | None:
    """The first basis pair (1-based) with phi(x)phi(y) != phi(xy), or None
    when phi preserves every basis product.  Both sides are sparse, with
    zero sums dropped, from the sparse columns of phi taken once."""
    F = A.field
    cols = [la.sparse(F, col) for col in la.transpose(phi)]
    for i in range(A.dim):
        for j in range(A.dim):
            if A.product(cols[i], cols[j]) != la.combine(
                    F, A.basis_terms(i, j), cols):
                return i + 1, j + 1
    return None


def is_derivation(A: Algebra, d: Matrix) -> CheckReport:
    """Leibniz rule d(xy) = d(x)y + x d(y) on basis pairs; both sides are
    sparse, with zero sums dropped, from the sparse columns of d."""
    _check_shape(A, d)
    F = A.field
    n = A.dim
    cols = [la.sparse(F, col) for col in la.transpose(d)]
    units = [{i: F.one} for i in range(n)]
    for i in range(n):
        for j in range(n):
            rhs = A.product(units[i], cols[j],
                            A.product(cols[i], units[j]))
            if la.combine(F, A.basis_terms(i, j), cols) != rhs:
                return CheckReport(False, witness=(i + 1, j + 1))
    return CheckReport(True)


def derivation_algebra(A: Algebra) -> Subspace:
    """All derivations of A, as a subspace of F^(dim^2) (matrices flattened
    row-major): the kernel of the Leibniz rows (`_leibniz_rows`)."""
    return la.sparse_kernel(A.field, _leibniz_rows(A), A.dim ** 2)


def _leibniz_rows(A: Algebra) -> list[dict]:
    """The Leibniz rows d(b_i b_j) - d(b_i) b_j - b_i d(b_j), one for each
    basis pair and coordinate that is not identically zero, as sparse rows
    in the dim^2 entries of d (entry (k, m) is variable k * dim + m),
    built from the structure constants."""
    F = A.field
    neg = F.neg
    n = A.dim
    units = [{u: F.one} for u in range(n * n)]
    rows = []
    for i in range(n):
        for j in range(n):
            product = A.basis_terms(i, j)
            for k, terms in enumerate(_leibniz_form(A, i, j)):
                row = {k * n + m: c for m, c in product}
                for c, u in terms:
                    la.add_multiple(F, row, neg(c), units[u])
                if row:
                    rows.append(row)
    return rows


def derivation_matrices(A: Algebra) -> tuple[Matrix, ...]:
    """Canonical basis of the derivation algebra, reshaped to matrices."""
    n = A.dim
    return tuple(tuple(flat[r * n:(r + 1) * n] for r in range(n))
                 for flat in derivation_algebra(A).basis)


# ------------------------------------------------------- residual systems

def automorphism_residuals(A: Algebra,
                           phi: Matrix) -> Iterator[tuple[str, Scalar]]:
    """Named scalar equations equivalent to multiplicativity of phi on the
    apex algebra; all zero iff phi preserves every basis product.

    Invertibility is deliberately not encoded (phi = 0 solves the system).
    Validation is eager: a wrong shape or a non-apex table raises
    DimensionError at call time.  Evaluation is lazy: each (name, scalar)
    pair is computed when the stream reaches it, in a fixed order, so a
    caller may stop at the first nonzero residual.
    """
    _check_apex(A, phi)
    return _automorphism_stream(A, phi)


def _automorphism_stream(A: Algebra,
                         phi: Matrix) -> Iterator[tuple[str, Scalar]]:
    F = A.field
    n = A.dim
    a = n - 1
    v = lambda k, j: phi[k][j]
    alpha = lambda j: phi[a][j]
    col = la.transpose(phi)
    hyp = lambda j: col[j][:a]
    two = F.from_int(2)
    for i in range(a):
        for j in range(a):
            for k in range(a):
                if i == j:
                    yield (f"jj_v({i + 1},{j + 1})[{k + 1}]",
                           F.sub(F.mul(alpha(i), v(k, i)), v(k, a)))
                else:
                    yield (f"jj_v({i + 1},{j + 1})[{k + 1}]",
                           F.mul(alpha(i), v(k, j)))
            s = F.add(la.dot(F, hyp(i), hyp(j)),
                      F.mul(two, F.mul(alpha(i), alpha(j))))
            if i == j:
                s = F.sub(s, alpha(a))
            yield f"jj_s({i + 1},{j + 1})", s
    for i in range(a):
        for k in range(a):
            yield f"jn_v({i + 1})[{k + 1}]", F.mul(alpha(i), v(k, a))
        yield (f"jn_s({i + 1})",
               F.add(la.dot(F, hyp(i), hyp(a)),
                     F.mul(two, F.mul(alpha(a), alpha(i)))))
    for j in range(a):
        for k in range(a):
            yield (f"nj_v({j + 1})[{k + 1}]",
                   F.sub(F.mul(alpha(a), v(k, j)), v(k, j)))
        yield (f"nj_s({j + 1})",
               F.sub(F.add(la.dot(F, hyp(a), hyp(j)),
                           F.mul(two, F.mul(alpha(a), alpha(j)))),
                     alpha(j)))
    for k in range(a):
        yield (f"nn_v[{k + 1}]",
               F.sub(F.mul(alpha(a), v(k, a)), F.mul(two, v(k, a))))
    yield ("nn_s",
           F.sub(F.add(la.dot(F, hyp(a), hyp(a)),
                       F.mul(two, F.mul(alpha(a), alpha(a)))),
                 F.mul(two, alpha(a))))


def derivation_residuals(A: Algebra,
                         d: Matrix) -> Iterator[tuple[str, Scalar]]:
    """Named scalar equations equivalent to the Leibniz rule for d on the
    apex algebra; all zero iff d is a derivation.

    Validation is eager and evaluation lazy, as in `automorphism_residuals`.
    """
    _check_apex(A, d)
    return _derivation_stream(A, d)


def _derivation_stream(A: Algebra,
                       d: Matrix) -> Iterator[tuple[str, Scalar]]:
    F = A.field
    n = A.dim
    a = n - 1
    w = lambda k, j: d[k][j]
    gamma = lambda j: d[a][j]
    two = F.from_int(2)
    for i in range(a):
        for j in range(a):
            for k in range(a):
                if i == j:
                    val = F.sub(gamma(i) if k == i else F.zero, w(k, a))
                else:
                    val = gamma(i) if k == j else F.zero
                yield f"jj_v({i + 1},{j + 1})[{k + 1}]", val
            if i == j:
                yield (f"jj_s({i + 1},{j + 1})",
                       F.sub(F.mul(two, w(i, i)), gamma(a)))
            else:
                yield f"jj_s({i + 1},{j + 1})", F.add(w(i, j), w(j, i))
    for i in range(a):
        yield f"jn_s({i + 1})", F.add(w(i, a), F.mul(two, gamma(i)))
    for j in range(a):
        for k in range(a):
            yield f"nj_v({j + 1})[{k + 1}]", gamma(a) if k == j else F.zero
        yield f"nj_s({j + 1})", F.add(w(j, a), gamma(j))
    for k in range(a):
        yield f"nn_v[{k + 1}]", w(k, a)
    yield "nn_s", F.mul(two, gamma(a))


# ------------------------------------------------ block embeddings, oracles

def embed_orthogonal(F: Field, Q: Matrix, dim: int) -> Matrix:
    """diag(Q, 1) for an orthogonal (dim-1)-matrix Q: the block shape every
    automorphism of the apex algebra must take."""
    _check_block(F, Q, dim)
    if not la.is_orthogonal(F, Q):
        raise ValueError("block is not orthogonal")
    return _embed(F, Q, F.one)


def embed_skew(F: Field, S: Matrix, dim: int) -> Matrix:
    """diag(S, 0) for a skew-symmetric (dim-1)-matrix S with zero diagonal."""
    _check_block(F, S, dim)
    if not la.is_skew_symmetric(F, S):
        raise ValueError("block is not skew-symmetric")
    if any(not F.is_zero(S[i][i]) for i in range(dim - 1)):
        raise ValueError("block has a nonzero diagonal entry")
    return _embed(F, S, F.zero)


def _embed(F: Field, B: Matrix, corner) -> Matrix:
    """diag(B, corner): B bordered by a zero row and column meeting at
    `corner`."""
    m = len(B)
    rows = [tuple(B[r]) + (F.zero,) for r in range(m)]
    rows.append((F.zero,) * m + (corner,))
    return tuple(rows)


def enumerate_orthogonal(F: Field, m: int, cap: int = 10 ** 7) -> list[Matrix]:
    """All orthogonal m x m matrices over a finite field, canonical order.

    The set is decided by the exact pruned search of
    `parallel.scan_matrices` over Q^T Q = E: one equation
    sum_k Q_ka Q_kb - delta_ab = 0 for each pair of columns a <= b (entry
    (k, a) is variable k * m + a).  `cap` bounds the size q^(m^2) of the
    matrix space as in `enumerate_automorphisms`.
    """
    check_scan(F, m, cap)
    return scan_matrices(F, m, [
        {(k * m + a, k * m + b): F.one for k in range(m)}
        | ({(): F.neg(F.one)} if a == b else {})
        for a in range(m) for b in range(a, m)])


def enumerate_automorphisms(A: Algebra, cap: int = 10 ** 7,
                            workers: int = 1) -> list[Matrix]:
    """All automorphisms of A over a finite field, in canonical enumeration
    order.

    The set is decided by an exact pruned search over the scalar equations
    of multiplicativity, with invertibility tested on each solution (see
    `parallel.scan_matrices`); `cap` bounds the size q^(dim^2) of the
    matrix space all the same.
    """
    check_scan(A.field, A.dim, cap)
    return scan_matrices(A.field, A.dim, _product_equations(A),
                         la.is_invertible, workers=workers)


def _product_equations(A: Algebra) -> list[dict]:
    """phi(b_i) phi(b_j) = phi(b_i b_j) as scalar equations in the entries
    of phi, one for each basis pair and coordinate, built from the
    structure constants."""
    def inner(i, j):
        v = [[] for _ in range(A.dim)]
        for k, c in A.basis_terms(i, j):
            v[k].append((c, None))
        return v

    return _operator_equations(A, inner)


# -------------------------------------------------- classification checks

def automorphism_orthogonal_correspondence(A: Algebra, found: list[Matrix],
                                           cap: int = 10 ** 7) -> CheckReport:
    """The automorphisms of the apex algebra are exactly the embedded
    orthogonal matrices diag(Q, 1): checked as set equality between
    `found`, the complete set (from enumerate_automorphisms), and the
    independent orthogonal scan."""
    if not is_apex_algebra(A):
        raise DimensionError("correspondence check expects the apex table")
    F = A.field
    expected = [embed_orthogonal(F, Q, A.dim)
                for Q in enumerate_orthogonal(F, A.dim - 1, cap=cap)]
    key = lambda M: la.matrix_sort_key(F, M)
    found_sorted = sorted(found, key=key)
    expected_sorted = sorted(expected, key=key)
    ok = found_sorted == expected_sorted
    witness = None
    if not ok:
        found_set, expected_set = set(found), set(expected)
        extra = sorted(found_set - expected_set, key=key)
        missing = sorted(expected_set - found_set, key=key)
        witness = {"unexpected": extra[:3], "missing": missing[:3]}
    return CheckReport(ok, witness=witness,
                       details={"automorphisms": len(found),
                                "orthogonal": len(expected)})


def derivation_skew_correspondence(A: Algebra) -> CheckReport:
    """The derivation algebra of the apex algebra is exactly the embedded
    skew-symmetric matrices diag(S, 0): checked as equality of canonical
    subspaces of F^(dim^2), plus the expected dimension count."""
    if not is_apex_algebra(A):
        raise DimensionError("correspondence check expects the apex table")
    F = A.field
    n = A.dim
    m = n - 1
    found = derivation_algebra(A)
    gens = []
    for i in range(m):
        for j in range(i + 1, m):
            flat = [F.zero] * (n * n)
            flat[i * n + j] = F.one
            flat[j * n + i] = F.neg(F.one)
            gens.append(tuple(flat))
    expected = la.span(F, n * n, gens)
    ok = (found == expected and found.dim == m * (m - 1) // 2)
    shapes_ok = all(_has_skew_block_shape(F, n, flat) for flat in found.basis)
    return CheckReport(ok and shapes_ok,
                       details={"dim": found.dim,
                                "expected_dim": m * (m - 1) // 2,
                                "block_shapes": shapes_ok})


def _has_skew_block_shape(F: Field, n: int, flat: tuple) -> bool:
    M = tuple(flat[r * n:(r + 1) * n] for r in range(n))
    border = all(F.is_zero(M[n - 1][j]) for j in range(n)) and \
        all(F.is_zero(M[i][n - 1]) for i in range(n))
    block = tuple(row[:n - 1] for row in M[:n - 1])
    return border and la.is_skew_symmetric(F, block) and \
        all(F.is_zero(block[i][i]) for i in range(n - 1))


# ----------------------------------------------------------------- shared

def _check_block(F: Field, B: Matrix, dim: int) -> None:
    m = dim - 1
    if len(B) != m or any(len(row) != m for row in B):
        raise DimensionError(f"block must be {m} x {m}")
