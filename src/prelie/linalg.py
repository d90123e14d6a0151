"""Dense exact linear algebra over a Field.

Vectors are tuples of scalars and matrices are tuples of row tuples; the
field handle is passed explicitly.  Subspaces are stored as reduced row
echelon bases, which are unique, so structural equality of Subspace values
is subspace equality.  Indices are 0-based everywhere in code; the JSON
layer is the only place 1-based indices appear.

Storage is dense but the arithmetic skips zeros, since the matrices this
package meets are mostly zero.  The rule: a term with a zero factor is
never multiplied, a zero summand is never added, and a zero entry is never
scaled; each zero is found with the field's one cheap test `F.is_zero`.
Fields are exact and scalars canonical, so skipping a zero term gives
the same value as computing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Sequence

from .errors import CapError, DimensionError
from .fields import Field, Scalar

Vector = tuple
Matrix = tuple

__all__ = [
    "Subspace", "basis_vector", "check_cap", "column_space", "decode_matrix",
    "dot", "enumerate_matrices", "enumerate_projective",
    "enumerate_subspaces", "gram_matrix",
    "identity_matrix", "intersect", "is_direct_sum", "is_invertible",
    "is_lagrangian", "is_orthogonal", "is_skew_symmetric", "is_zero_matrix",
    "is_zero_vector", "kernel", "mat_add", "mat_mul", "mat_scale", "mat_sub",
    "mat_vec", "matrix_from_json", "matrix_sort_key", "random_matrix",
    "random_vector", "rref", "span", "subspace_sum", "trace",
    "transpose", "vadd", "vneg", "vscale", "vsub", "zero_matrix",
    "zero_vector",
]


# ---------------------------------------------------------------- vectors

def zero_vector(F: Field, n: int) -> Vector:
    return (F.zero,) * n

def basis_vector(F: Field, n: int, i: int) -> Vector:
    return tuple(F.one if j == i else F.zero for j in range(n))

def vadd(F: Field, x: Vector, y: Vector) -> Vector:
    is_zero, add = F.is_zero, F.add
    return tuple(b if is_zero(a) else a if is_zero(b) else add(a, b)
                 for a, b in zip(x, y))

def vsub(F: Field, x: Vector, y: Vector) -> Vector:
    return tuple(F.sub(a, b) for a, b in zip(x, y))

def vneg(F: Field, x: Vector) -> Vector:
    return tuple(F.neg(a) for a in x)

def vscale(F: Field, c: Scalar, x: Vector) -> Vector:
    is_zero, mul = F.is_zero, F.mul
    if is_zero(c):
        return (F.zero,) * len(x)
    return tuple(a if is_zero(a) else mul(c, a) for a in x)

def is_zero_vector(F: Field, x: Vector) -> bool:
    return all(map(F.is_zero, x))

def dot(F: Field, x: Vector, y: Vector) -> Scalar:
    if len(x) != len(y):
        raise DimensionError(f"dot of lengths {len(x)} and {len(y)}")
    is_zero, add, mul = F.is_zero, F.add, F.mul
    acc = None
    for a, b in zip(x, y):
        if is_zero(a) or is_zero(b):
            continue
        p = mul(a, b)
        acc = p if acc is None else add(acc, p)
    return F.zero if acc is None else acc


# ---------------------------------------------------------------- matrices

def zero_matrix(F: Field, rows: int, cols: int) -> Matrix:
    return tuple((F.zero,) * cols for _ in range(rows))

def identity_matrix(F: Field, n: int) -> Matrix:
    return tuple(basis_vector(F, n, i) for i in range(n))

def transpose(M: Matrix) -> Matrix:
    return tuple(zip(*M)) if M else ()

def mat_vec(F: Field, M: Matrix, x: Vector) -> Vector:
    return tuple(dot(F, row, x) for row in M)

def mat_mul(F: Field, A: Matrix, B: Matrix) -> Matrix:
    Bt = transpose(B)
    return tuple(tuple(dot(F, row, col) for col in Bt) for row in A)

def mat_add(F: Field, A: Matrix, B: Matrix) -> Matrix:
    return tuple(vadd(F, r, s) for r, s in zip(A, B))

def mat_sub(F: Field, A: Matrix, B: Matrix) -> Matrix:
    return tuple(vsub(F, r, s) for r, s in zip(A, B))

def mat_scale(F: Field, c: Scalar, A: Matrix) -> Matrix:
    return tuple(vscale(F, c, r) for r in A)

def is_zero_matrix(F: Field, A: Matrix) -> bool:
    return all(is_zero_vector(F, r) for r in A)

def trace(F: Field, A: Matrix) -> Scalar:
    acc = F.zero
    for i, row in enumerate(A):
        acc = F.add(acc, row[i])
    return acc


# ------------------------------------------------------------- elimination

def rref(F: Field, M: Sequence[Sequence[Scalar]]) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form; returns (rref, rank, pivot columns).

    The result is the unique RREF, so it doubles as a canonical form.
    """
    is_zero, add, mul = F.is_zero, F.add, F.mul
    rows = [list(r) for r in M]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if not is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        prow = rows[r] = [v if is_zero(v) else mul(inv, v) for v in rows[r]]
        for i in range(nr):
            if i != r and not is_zero(rows[i][c]):
                f = F.neg(rows[i][c])
                rows[i] = [v if is_zero(w) else add(v, mul(f, w))
                           for v, w in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in rows), r, tuple(pivots)


def kernel(F: Field, M: Matrix, ncols: int | None = None) -> "Subspace":
    """Null space of M as a canonical Subspace of F^ncols."""
    if ncols is None:
        if not M:
            raise DimensionError("kernel of an empty matrix needs ncols")
        ncols = len(M[0])
    R, rank, pivots = rref(F, M) if M else ((), 0, ())
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [F.zero] * ncols
        v[free] = F.one
        for r, c in enumerate(pivots):
            v[c] = F.neg(R[r][free])
        basis.append(tuple(v))
    return span(F, ncols, basis)


def is_invertible(F: Field, M: Matrix) -> bool:
    n = len(M)
    if n == 0:
        return True
    if len(M[0]) != n:
        return False
    return rref(F, M)[1] == n


def is_orthogonal(F: Field, M: Matrix) -> bool:
    """M^T M = E = M M^T (square M)."""
    n = len(M)
    if any(len(r) != n for r in M):
        return False
    E = identity_matrix(F, n)
    Mt = transpose(M)
    return mat_mul(F, Mt, M) == E and mat_mul(F, M, Mt) == E


def is_skew_symmetric(F: Field, M: Matrix) -> bool:
    n = len(M)
    if any(len(r) != n for r in M):
        return False
    return transpose(M) == mat_scale(F, F.neg(F.one), M)


# ---------------------------------------------------------------- subspaces

@dataclass(frozen=True)
class Subspace:
    """A subspace of F^ambient held as its unique RREF basis (rows)."""

    field: Field
    ambient: int
    basis: Matrix  # rref rows, no zero rows

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: Vector) -> bool:
        if len(x) != self.ambient:
            raise DimensionError("vector length differs from ambient dimension")
        F = self.field
        is_zero, add, mul = F.is_zero, F.add, F.mul
        v = list(x)
        for row in self.basis:
            p = next(i for i, e in enumerate(row) if not is_zero(e))
            if not is_zero(v[p]):
                c = F.neg(v[p])
                v = [a if is_zero(b) else add(a, mul(c, b))
                     for a, b in zip(v, row)]
        return all(map(is_zero, v))

    def vectors(self) -> Iterator[Vector]:
        """All vectors of the subspace (finite fields only)."""
        F = self.field
        for coeffs in product(list(F.elements()), repeat=self.dim):
            v = zero_vector(F, self.ambient)
            for c, row in zip(coeffs, self.basis):
                v = vadd(F, v, vscale(F, c, row))
            yield v


def span(F: Field, ambient: int, vectors: Sequence[Vector]) -> Subspace:
    for v in vectors:
        if len(v) != ambient:
            raise DimensionError("spanning vector length differs from ambient")
    if not vectors:
        return Subspace(F, ambient, ())
    R, rank, _ = rref(F, vectors)
    return Subspace(F, ambient, R[:rank])


def subspace_sum(W1: Subspace, W2: Subspace) -> Subspace:
    _check_same_ambient(W1, W2)
    return span(W1.field, W1.ambient, W1.basis + W2.basis)


def intersect(W1: Subspace, W2: Subspace) -> Subspace:
    _check_same_ambient(W1, W2)
    F = W1.field
    n = W1.ambient
    if W1.dim == 0 or W2.dim == 0:
        return span(F, n, [])
    # columns are the two bases; kernel vectors (c, d) give points B1^T c
    cols = [row for row in W1.basis] + [vneg(F, row) for row in W2.basis]
    M = transpose(tuple(cols))
    K = kernel(F, M, len(cols))
    pts = []
    for cd in K.basis:
        v = zero_vector(F, n)
        for c, row in zip(cd[: W1.dim], W1.basis):
            v = vadd(F, v, vscale(F, c, row))
        pts.append(v)
    return span(F, n, pts)


def is_direct_sum(W1: Subspace, W2: Subspace, ambient_dim: int) -> bool:
    """F^ambient_dim is the direct sum of W1 and W2: their sum is the whole
    space and they meet only in 0.  No intersection is computed, since by
    dim(W1 + W2) = dim W1 + dim W2 - dim(W1 ∩ W2) a sum of dimension
    dim W1 + dim W2 = ambient_dim already forces W1 ∩ W2 = 0."""
    _check_same_ambient(W1, W2)
    return (W1.ambient == ambient_dim == W1.dim + W2.dim
            and subspace_sum(W1, W2).dim == ambient_dim)


def _check_same_ambient(W1: Subspace, W2: Subspace) -> None:
    if W1.ambient != W2.ambient or W1.field != W2.field:
        raise DimensionError("subspaces live in different ambient spaces")


# -------------------------------------------------------------------- forms

def gram_matrix(F: Field, rows: Sequence[Vector]) -> Matrix:
    return tuple(tuple(dot(F, a, b) for b in rows) for a in rows)


def is_lagrangian(W: Subspace) -> bool:
    """True when the extended form vanishes identically on W (Gram test)."""
    F = W.field
    G = gram_matrix(F, W.basis)
    return is_zero_matrix(F, G)


# ------------------------------------------------------------- enumeration

def check_cap(F: Field, k: int, kind: str, cap: int) -> None:
    """The one rule every enumeration obeys: refuse, with CapError, to
    enumerate over an infinite field, or to enumerate q^k objects of `kind`
    when q^k exceeds `cap`.  The error names the count and the kind."""
    if not F.is_finite:
        raise CapError(f"enumerating {kind} requires a finite field")
    count = F.order ** k
    if count > cap:
        raise CapError(f"{count} {kind} exceed cap {cap}")


def enumerate_projective(F: Field, n: int, cap: int = 10 ** 6) -> Iterator[Vector]:
    """One representative per scalar class of nonzero vectors (leading 1)."""
    check_cap(F, n, "vectors", cap)
    elems = list(F.elements())
    for lead in range(n):
        head = (F.zero,) * lead + (F.one,)
        for tail in product(elems, repeat=n - lead - 1):
            yield head + tail


def enumerate_matrices(F: Field, rows: int, cols: int,
                       cap: int = 10 ** 7) -> Iterator[Matrix]:
    check_cap(F, rows * cols, "matrices", cap)
    for flat in product(F.elements(), repeat=rows * cols):
        yield tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))


def enumerate_subspaces(F: Field, n: int,
                        cap: int = 10 ** 6) -> Iterator[Subspace]:
    """All subspaces of F^n as canonical RREF bases, by dimension then pivots.

    Yields each subspace exactly once: choose pivot columns, then fill the
    free entries (right of each pivot, outside pivot columns) in all ways.
    `cap` bounds the fillings of each choice of pivots; the most any choice
    has, q^(k(n-k)) at k = n // 2, is checked before anything is built.
    """
    check_cap(F, (n // 2) * ((n + 1) // 2), "fillings", cap)
    elems = list(F.elements())
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(n)
                    if c > pivots[r] and c not in pivots]
            for fill in product(elems, repeat=len(free)):
                rows = [[F.zero] * n for _ in pivots]
                for r, p in enumerate(pivots):
                    rows[r][p] = F.one
                for (r, c), v in zip(free, fill):
                    rows[r][c] = v
                yield Subspace(F, n, tuple(tuple(r) for r in rows))


def decode_matrix(F: Field, rows: int, cols: int, index: int,
                  elems: list | None = None) -> Matrix:
    """The index-th matrix in enumerate_matrices order (mixed-radix decode).

    Lets a scan over all q^(rows*cols) matrices be split into index ranges
    that different workers can decode independently.
    """
    if elems is None:
        elems = list(F.elements())
    q = len(elems)
    k = rows * cols
    flat = [elems[0]] * k
    for pos in range(k - 1, -1, -1):
        index, digit = divmod(index, q)
        flat[pos] = elems[digit]
    return tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows))


def matrix_sort_key(F: Field, M: Matrix) -> tuple:
    return tuple(F.sort_key(e) for row in M for e in row)


def column_space(F: Field, M: Matrix) -> Subspace:
    """Span of the columns (the image of x -> Mx)."""
    rows = len(M)
    return span(F, rows, transpose(M) if rows else ())


def random_vector(F: Field, n: int, rng) -> Vector:
    return tuple(F.random(rng) for _ in range(n))


def random_matrix(F: Field, rows: int, cols: int, rng) -> Matrix:
    return tuple(random_vector(F, cols, rng) for _ in range(rows))


# -------------------------------------------------------------------- JSON

def matrix_from_json(F: Field, data, rows: int, cols: int) -> Matrix:
    if isinstance(data, dict):
        for key, want in (("rows", rows), ("cols", cols)):
            if data.get(key, want) != want:
                raise DimensionError(f"expected {key} = {want}, "
                                     f"got {data[key]!r}")
        data = data.get("entries", data)
    flat: list = []
    for item in data:
        if isinstance(item, (list, tuple)):
            flat.extend(item)
        else:
            flat.append(item)
    if len(flat) != rows * cols:
        raise DimensionError(f"expected {rows * cols} entries, got {len(flat)}")
    vals = [F.parse(str(e)) for e in flat]
    return tuple(tuple(vals[r * cols:(r + 1) * cols]) for r in range(rows))
