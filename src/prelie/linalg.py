"""Exact linear algebra over a Field.

Vectors are tuples of scalars and matrices are tuples of row tuples; the
field handle is passed explicitly.  Subspaces are stored as reduced row
echelon bases, which are unique, so structural equality of Subspace values
is subspace equality.  Indices are 0-based everywhere in code; the JSON
layer is the only place 1-based indices appear.

Dense tuples are the public format, but the matrices this package meets
are mostly zero, so the kernels work on the nonzeros.  The rule: each
entry is zero-tested once, where it enters a kernel, with the field's one
cheap test `F.is_zero`; after that only nonzeros are visited.  A term with
a zero factor is never multiplied, a zero entry is never scaled, and a new
sum is zero-tested once, a zero sum being dropped.  Inside the kernels a
sparse vector is a dict mapping an index to a nonzero scalar (`sparse`
makes one); `reduce_rows` is the row reduction on such rows that `rref`,
`kernel`, `span` and `keyed_spans` share, and `reduce_row` its
incremental step, for a caller that grows a span one row at a time.
Fields are exact and scalars canonical, so skipping a zero term gives the
same value as computing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .errors import CapError, DimensionError
from .fields import Field, Scalar

Vector = tuple
Matrix = tuple

__all__ = [
    "Subspace", "add_multiple", "basis_vector", "check_cap", "check_count",
    "column_space", "combine", "decode_matrix", "dense", "dot",
    "enumerate_matrices", "enumerate_projective", "enumerate_subspaces",
    "gram_matrix", "identity_matrix", "intersect", "is_direct_sum",
    "is_invertible", "is_lagrangian", "is_orthogonal", "is_skew_symmetric",
    "is_zero_matrix", "is_zero_vector", "kernel", "keyed_spans", "mat_mul",
    "mat_scale", "mat_vec", "matrix_from_json", "matrix_sort_key",
    "random_matrix", "random_vector", "reduce_row", "reduce_rows", "rref",
    "sparse", "sparse_kernel", "span", "subspace_sum", "trace", "transpose",
    "vadd", "vneg", "vscale", "vsub", "zero_matrix", "zero_vector",
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
    is_zero, neg, sub = F.is_zero, F.neg, F.sub
    return tuple(a if is_zero(b) else neg(b) if is_zero(a) else sub(a, b)
                 for a, b in zip(x, y))

def vneg(F: Field, x: Vector) -> Vector:
    return tuple(F.neg(a) for a in x)

def vscale(F: Field, c: Scalar, x: Vector) -> Vector:
    is_zero, mul = F.is_zero, F.mul
    if is_zero(c):
        return (F.zero,) * len(x)
    return tuple(a if is_zero(a) else mul(c, a) for a in x)

def is_zero_vector(F: Field, x: Vector) -> bool:
    return all(map(F.is_zero, x))

def sparse(F: Field, x: Vector) -> dict:
    """The nonzero entries of x, as a dict from index to scalar."""
    is_zero = F.is_zero
    return {i: a for i, a in enumerate(x) if not is_zero(a)}

def dense(F: Field, v: dict, n: int) -> Vector:
    """The length-n vector with the entries of the sparse vector v."""
    out = [F.zero] * n
    for i, a in v.items():
        out[i] = a
    return tuple(out)

def add_multiple(F: Field, v: dict, c: Scalar, w: dict) -> None:
    """v += c w in place, for sparse v and w and a nonzero c: each new sum
    is zero-tested once, and a zero sum is dropped."""
    is_zero, add, mul = F.is_zero, F.add, F.mul
    for k, b in w.items():
        t = mul(c, b)
        s = v.get(k)
        if s is None:
            v[k] = t
        else:
            s = add(s, t)
            if is_zero(s):
                del v[k]
            else:
                v[k] = s

def combine(F: Field, terms: Iterable[tuple[int, Scalar]],
            vectors: Sequence[dict]) -> dict:
    """The sparse sum of c vectors[k] over the (k, nonzero c) terms."""
    out: dict = {}
    for k, c in terms:
        add_multiple(F, out, c, vectors[k])
    return out

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
    """A B; the nonzeros of each row of B are taken once for all rows of A,
    and each entry of A is zero-tested once."""
    is_zero, add, mul = F.is_zero, F.add, F.mul
    m = len(B)
    cols = len(B[0]) if m else 0
    if any(len(row) != cols for row in B):
        raise DimensionError("rows of the right factor differ in length")
    B_rows = [tuple(sparse(F, row).items()) for row in B]
    out = []
    for row in A:
        if len(row) != m:
            raise DimensionError(f"{len(row)}-column row times a matrix "
                                 f"with {m} rows")
        acc = [None] * cols
        for k, a in enumerate(row):
            if is_zero(a):
                continue
            for j, b in B_rows[k]:
                p = mul(a, b)
                s = acc[j]
                acc[j] = p if s is None else add(s, p)
        out.append(tuple(F.zero if s is None else s for s in acc))
    return tuple(out)

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

def reduce_row(F: Field, tails: dict[int, dict], row: dict) -> bool:
    """The incremental step of the one sparse row reduction: add the sparse
    `row` to the reduced echelon form `tails` (pivot -> that row without
    the one at its pivot), changed in place.

    The row is reduced against the pivots of `tails`.  What is left, if
    anything, is scaled to a one at its least column, which becomes a new
    pivot and is cleared from the rows already there, so `tails` stays
    fully reduced.  Returns whether the row was new to the span.  `row`
    itself is not modified.
    """
    neg, mul = F.neg, F.mul
    v = dict(row)
    for c in [c for c in v if c in tails]:
        add_multiple(F, v, neg(v.pop(c)), tails[c])
    if not v:
        return False
    p = min(v)
    s = F.inv(v.pop(p))
    tail = {k: mul(s, b) for k, b in v.items()}
    for other in tails.values():
        f = other.pop(p, None)
        if f is not None:
            add_multiple(F, other, neg(f), tail)
    tails[p] = tail
    return True


def reduce_rows(F: Field, rows: Iterable[dict]) -> tuple[list[dict], tuple[int, ...]]:
    """The one sparse row reduction: the reduced row echelon form of the
    span of `rows`, returned as (reduced rows, pivot columns).

    Each input row is a sparse vector, a dict mapping a column to a nonzero
    scalar; the dicts are not modified.  Columns take pivot priority in
    index order, so the result is the unique RREF: one row per pivot, in
    increasing pivot order, each with a one at its pivot, no entry left of
    it and no entry at any other pivot column.  Dependent and all-zero rows
    leave nothing behind.  Rows are reduced one at a time against the rows
    kept so far (`reduce_row`); a new sum is zero-tested once and a zero
    sum dropped.
    """
    tails: dict[int, dict] = {}  # pivot -> its row without the pivot's one
    for row in rows:
        reduce_row(F, tails, row)
    one = F.one
    pivots = tuple(sorted(tails))
    return [{p: one, **tails[p]} for p in pivots], pivots


def keyed_spans(F: Field, systems: Iterable[Iterable[dict]]) -> list[list[dict]]:
    """The span of each system of sparse rows whose keys are any hashable
    labels (the monomials of `polyring`, for one), as its reduced rows.

    The labels are numbered into columns through one dict shared by every
    system, in order of first appearance, and each system is reduced on
    its own (`reduce_rows`).  The RREF is unique once the column order is
    fixed, so two systems span the same space exactly when their reduced
    rows are equal; no joint reduction is needed.
    """
    columns: dict = {}
    number = lambda key: columns.setdefault(key, len(columns))
    return [reduce_rows(F, ({number(key): c for key, c in row.items()}
                            for row in rows))[0]
            for rows in systems]


def rref(F: Field, M: Sequence[Sequence[Scalar]]) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form; returns (rref, rank, pivot columns).

    The result is the unique RREF, so it doubles as a canonical form; it
    has as many rows as M, the rows past the rank being zero.
    """
    nr = len(M)
    nc = len(M[0]) if nr else 0
    reduced, pivots = reduce_rows(F, [sparse(F, row) for row in M])
    rank = len(pivots)
    R = tuple(dense(F, row, nc) for row in reduced)
    return R + ((F.zero,) * nc,) * (nr - rank), rank, pivots


def kernel(F: Field, M: Matrix, ncols: int | None = None) -> "Subspace":
    """Null space of M as a canonical Subspace of F^ncols."""
    if ncols is None:
        if not M:
            raise DimensionError("kernel of an empty matrix needs ncols")
        ncols = len(M[0])
    return sparse_kernel(F, [sparse(F, row) for row in M], ncols)


def sparse_kernel(F: Field, rows: Iterable[dict], ncols: int) -> "Subspace":
    """Null space of the sparse rows (as `reduce_rows` takes them) as a
    canonical Subspace of F^ncols."""
    reduced, pivots = reduce_rows(F, rows)
    pivset = set(pivots)
    neg, one = F.neg, F.one
    null = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = {free: one}
        for row, c in zip(reduced, pivots):
            a = row.get(free)
            if a is not None:
                v[c] = neg(a)
        null.append(v)
    return _subspace(F, ncols, reduce_rows(F, null)[0])


def is_invertible(F: Field, M: Matrix) -> bool:
    n = len(M)
    if n == 0:
        return True
    if len(M[0]) != n:
        return False
    return len(reduce_rows(F, [sparse(F, row) for row in M])[1]) == n


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
    """A subspace of F^ambient held as its unique RREF basis (rows).

    The basis rows are also kept sparse, as (pivot, the row's other
    nonzeros), made once from the basis when the subspace is made, so that
    `contains` visits only the nonzeros of the basis."""

    field: Field
    ambient: int
    basis: Matrix  # rref rows, no zero rows
    _rows: tuple = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = []
        for row in self.basis:
            tail = sparse(self.field, row)
            p = min(tail)
            del tail[p]
            rows.append((p, tail))
        object.__setattr__(self, "_rows", tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x: Vector) -> bool:
        if len(x) != self.ambient:
            raise DimensionError("vector length differs from ambient dimension")
        return not self.reduce(sparse(self.field, x))

    def reduce(self, v: dict) -> dict:
        """What is left of the sparse vector v, changed in place, once the
        basis has cleared its pivot columns: empty exactly when v lies in
        the subspace."""
        F = self.field
        neg = F.neg
        for p, tail in self._rows:
            c = v.pop(p, None)
            if c is not None:
                add_multiple(F, v, neg(c), tail)
        return v


def _subspace(F: Field, ambient: int, reduced: list[dict]) -> Subspace:
    """The Subspace whose RREF basis `reduce_rows` returned."""
    return Subspace(F, ambient, tuple(dense(F, row, ambient) for row in reduced))


def span(F: Field, ambient: int, vectors: Sequence[Vector]) -> Subspace:
    for v in vectors:
        if len(v) != ambient:
            raise DimensionError("spanning vector length differs from ambient")
    return _subspace(F, ambient,
                     reduce_rows(F, [sparse(F, v) for v in vectors])[0])


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
    return mat_mul(F, rows, transpose(rows))


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
    check_count(F.order ** k, kind, cap)


def check_count(count: int, kind: str, cap: int) -> None:
    """The comparison of `check_cap` for a count already known: refuse,
    with CapError, `count` objects of `kind` past `cap`."""
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
