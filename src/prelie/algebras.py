"""Structure-constant algebras, identity checkers, and the builder zoo.

An Algebra is a finite-dimensional algebra over a Field given by its
structure constants.  The distinguished family here is the "apex" family:
for dimension n with basis b_1..b_n the nonzero products are

    b_n b_n = 2 b_n,  b_n b_j = b_j,  b_j b_j = b_n   (j < n),

so the last basis vector (the apex) acts as a left identity on the
hyperplane spanned by the others, and hyperplane squares land on the apex.
Companion builders: the dot-product algebra u*v = (u,v)a + (u,a)v on F^n
with a marked vector a, the upper triangular matrix algebra under
x*y = xy + upper(x y^T + y x^T) with halved diagonal, and a zero-indexed
truncation of the same table with the apex in front.

The checkers work from the structure constants.  Multilinear identities
are decided on basis triples from the basis products; simplicity first by
the multiplication algebra M(A), generated by the left and right
multiplications: when it is all of End(A) no proper ideal exists, and only
otherwise are the lines of F^n walked for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import linalg as la
from .errors import DimensionError, FalsificationError
from .fields import Field, FieldError, make_field
from .linalg import Matrix, Subspace, Vector
from .polyring import PolynomialField
from .reports import CheckReport

__all__ = [
    "Algebra", "UpperTriangular", "apex_algebra", "check_identity",
    "dot_product_algebra", "ideal_closure", "infinite_truncation_algebra",
    "is_apex_algebra", "is_ideal", "is_simple", "is_subalgebra",
    "left_mult_matrix", "minus_algebra", "permute_basis", "plus_algebra",
    "rebased_first_row", "right_mult_matrix", "unital_extension",
    "upper_triangular_algebra",
]

IDENTITY_KINDS = ("pre_lie", "novikov", "flexible", "commutative",
                  "anticommutative", "jacobi", "third_power_associative")


class Algebra:
    """A structure-constant algebra; table maps (i, j, k) -> nonzero scalar.

    Indices are 0-based in code; the JSON table is 1-based.
    """

    __slots__ = ("field", "dim", "table", "_cells", "_row_cells", "_dense",
                 "_basis")

    def __init__(self, field: Field, dim: int, table: dict):
        if dim < 1:
            raise DimensionError("dimension must be at least 1")
        clean = {}
        for (i, j, k), c in table.items():
            if not all(0 <= t < dim for t in (i, j, k)):
                raise DimensionError(f"table index {(i, j, k)} out of range")
            if not field.is_zero(c):
                clean[(i, j, k)] = c
        self.field = field
        self.dim = dim
        self.table = clean
        cells = [[[] for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), c in sorted(clean.items()):
            cells[i][j].append((k, c))
        self._cells = tuple(tuple(tuple(cell) for cell in row) for row in cells)
        # for each i, the (j, cell) pairs of the nonzero cells b_i b_j
        self._row_cells = tuple(tuple((j, cell) for j, cell in enumerate(row)
                                      if cell) for row in self._cells)
        self._dense = tuple(tuple(la.dense(field, dict(cell), dim) if cell
                                  else None for cell in row)
                            for row in self._cells)
        self._basis = tuple(la.basis_vector(field, dim, i) for i in range(dim))

    def basis(self, i: int) -> Vector:
        return self._basis[i]

    def basis_product(self, i: int, j: int) -> Vector:
        v = self._dense[i][j]
        return v if v is not None else la.zero_vector(self.field, self.dim)

    def basis_terms(self, i: int, j: int) -> tuple:
        """b_i b_j as its (k, nonzero c) terms, in increasing k."""
        return self._cells[i][j]

    def product(self, x: dict, y: dict, out: dict | None = None) -> dict:
        """The product loop: x y for sparse x and y (dicts mapping a
        coordinate to a nonzero scalar, as `la.sparse` makes them), added
        into the sparse `out` when given, and returned.

        It visits the nonzero structure-constant cells b_i b_j of each
        nonzero x_i whose y_j is nonzero; each new sum is zero-tested once
        and a zero sum is dropped, so the result holds only nonzeros.
        """
        F = self.field
        is_zero, add, mul = F.is_zero, F.add, F.mul
        out = {} if out is None else out
        row_cells = self._row_cells
        for i, a in x.items():
            for j, cell in row_cells[i]:
                b = y.get(j)
                if b is None:
                    continue
                c = mul(a, b)
                for k, ck in cell:
                    t = mul(c, ck)
                    s = out.get(k)
                    if s is None:
                        out[k] = t
                    else:
                        s = add(s, t)
                        if is_zero(s):
                            del out[k]
                        else:
                            out[k] = s
        return out

    def multiply(self, x: Vector, y: Vector) -> Vector:
        F = self.field
        return la.dense(F, self.product(la.sparse(F, x), la.sparse(F, y)),
                        self.dim)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Algebra) and self.field == other.field
                and self.dim == other.dim and self.table == other.table)

    def __hash__(self) -> int:
        return hash((self.field, self.dim, tuple(sorted(self.table.items()))))

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, field={self.field!r})"

    def to_json(self) -> dict:
        F = self.field
        quads = [[i + 1, j + 1, k + 1, F.format(c)]
                 for (i, j, k), c in sorted(self.table.items())]
        return {"field": F.descriptor(), "dim": self.dim, "table": quads}

    @classmethod
    def from_json(cls, data: dict) -> "Algebra":
        F = make_field(data["field"])
        dim = int(data["dim"])
        table: dict = {}
        for quad in data["table"]:
            i, j, k, lit = quad
            key = (int(i) - 1, int(j) - 1, int(k) - 1)
            c = F.parse(str(lit))
            table[key] = F.add(table.get(key, F.zero), c)
        return cls(F, dim, table)


# ----------------------------------------------------------------- builders

def _apex_table(field: Field, dim: int) -> dict:
    """The nonzero structure constants of the apex table; in characteristic
    2 the constant 2 of b_n b_n is zero and is left out, as `Algebra`
    leaves it out of its own table."""
    a = dim - 1
    two = field.from_int(2)
    table = {} if field.is_zero(two) else {(a, a, a): two}
    for j in range(a):
        table[(a, j, j)] = field.one
        table[(j, j, a)] = field.one
    return table


def apex_algebra(field: Field, dim: int) -> Algebra:
    """The simple left-symmetric family with a distinguished apex vector."""
    if dim < 1:
        raise DimensionError("dimension must be at least 1")
    return Algebra(field, dim, _apex_table(field, dim))


def is_apex_algebra(A: Algebra) -> bool:
    return A.table == _apex_table(A.field, A.dim)


def _check_shape(A: Algebra, M: Matrix) -> None:
    if len(M) != A.dim or any(len(row) != A.dim for row in M):
        raise DimensionError("matrix shape does not match the algebra")


def _check_apex(A: Algebra, M: Matrix) -> None:
    _check_shape(A, M)
    if not is_apex_algebra(A):
        raise DimensionError("residual systems and the case analysis are "
                             "specific to the apex table")


def dot_product_algebra(field: Field, marked: Vector) -> Algebra:
    """u*v = (u, v) a + (u, a) v on F^n for a marked nonzero vector a.

    With a = e_n this reproduces the apex table verbatim.
    """
    n = len(marked)
    if la.is_zero_vector(field, marked):
        raise DimensionError("marked vector must be nonzero")
    table: dict = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = field.zero
                if i == j:
                    c = field.add(c, marked[k])
                if j == k:
                    c = field.add(c, marked[i])
                if not field.is_zero(c):
                    table[(i, j, k)] = c
    return Algebra(field, n, table)


@dataclass(frozen=True)
class UpperTriangular:
    """Upper triangular n x n matrices under x*y = xy + upper(x y^T + y x^T).

    `upper` keeps the strictly upper part and half of the diagonal, so the
    product of basis units e_ij (i <= j) is

        e_ij * e_kl = [j == k] e_il + [j == l] e_(min(i,k), max(i,k)).

    `first_row` indexes the units e_1j, which form a right ideal isomorphic
    to the apex family after re-basing.
    """

    algebra: Algebra
    n: int
    first_row: tuple[int, ...]

    def unit_index(self, i: int, j: int) -> int:
        """0-based basis index of the unit e_ij, arguments 1-based, i <= j."""
        if not 1 <= i <= j <= self.n:
            raise DimensionError(f"({i},{j}) is not an upper position")
        return sum(self.n - t for t in range(i - 1)) + (j - i)


def upper_triangular_algebra(field: Field, n: int) -> UpperTriangular:
    if field.char == 2:
        raise FieldError("halved diagonal needs characteristic != 2")
    if n < 1:
        raise DimensionError("n must be at least 1")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    idx = {p: t for t, p in enumerate(pairs)}
    dim = len(pairs)
    table: dict = {}

    def bump(i, j, k, c):
        key = (i, j, k)
        c = field.add(table.get(key, field.zero), c)
        if field.is_zero(c):
            table.pop(key, None)
        else:
            table[key] = c

    for (i, j) in pairs:
        for (k, l) in pairs:
            a, b = idx[(i, j)], idx[(k, l)]
            if j == k:
                bump(a, b, idx[(i, l)], field.one)
            if j == l:
                bump(a, b, idx[(min(i, k), max(i, k))], field.one)
    alg = Algebra(field, dim, table)
    first = tuple(idx[(1, j)] for j in range(1, n + 1))
    return UpperTriangular(alg, n, first)


def rebased_first_row(field: Field, n: int) -> Algebra:
    """The first-row ideal of the triangular algebra in the basis
    b_k = e_(1, n+1-k); its table should match the apex family exactly."""
    ut = upper_triangular_algebra(field, n)
    A = ut.algebra
    new_basis = [A.basis(ut.unit_index(1, n + 1 - k)) for k in range(1, n + 1)]
    pos = {ut.unit_index(1, n + 1 - k): k - 1 for k in range(1, n + 1)}
    table: dict = {}
    for a in range(n):
        for b in range(n):
            prod = A.multiply(new_basis[a], new_basis[b])
            for t, c in enumerate(prod):
                if field.is_zero(c):
                    continue
                if t not in pos:
                    raise FalsificationError(
                        "first-row product left the first row", witness=(a, b, t))
                table[(a, b, pos[t])] = c
    return Algebra(field, n, table)


def infinite_truncation_algebra(field: Field, m: int) -> Algebra:
    """Truncation with basis b_0..b_m: b_0 b_0 = 2 b_0, b_0 b_j = b_j,
    b_j b_j = b_0; the apex sits in front instead of last."""
    if m < 0:
        raise DimensionError("m must be at least 0")
    table = {(0, 0, 0): field.from_int(2)}
    for j in range(1, m + 1):
        table[(0, j, j)] = field.one
        table[(j, j, 0)] = field.one
    return Algebra(field, m + 1, table)


def permute_basis(A: Algebra, perm: tuple[int, ...]) -> Algebra:
    """Relabel basis vectors: new index of old basis i is perm[i]."""
    if sorted(perm) != list(range(A.dim)):
        raise DimensionError("perm must be a permutation of basis indices")
    table = {(perm[i], perm[j], perm[k]): c for (i, j, k), c in A.table.items()}
    return Algebra(A.field, A.dim, table)


def plus_algebra(A: Algebra) -> Algebra:
    """Anticommutator algebra x∘y = (xy + yx)/2 (characteristic != 2)."""
    F = A.field
    if F.char == 2:
        raise FieldError("anticommutator needs characteristic != 2")
    half = F.inv(F.from_int(2))
    table: dict = {}
    for i in range(A.dim):
        for j in range(A.dim):
            v = la.vscale(F, half, la.vadd(F, A.basis_product(i, j),
                                           A.basis_product(j, i)))
            for k, c in enumerate(v):
                if not F.is_zero(c):
                    table[(i, j, k)] = c
    return Algebra(F, A.dim, table)


def minus_algebra(A: Algebra) -> Algebra:
    """Commutator algebra [x, y] = xy - yx."""
    F = A.field
    table: dict = {}
    for i in range(A.dim):
        for j in range(A.dim):
            v = la.vsub(F, A.basis_product(i, j), A.basis_product(j, i))
            for k, c in enumerate(v):
                if not F.is_zero(c):
                    table[(i, j, k)] = c
    return Algebra(F, A.dim, table)


def unital_extension(A: Algebra) -> Algebra:
    """Adjoin an identity u: u x = x u = x, u u = u; old products unchanged."""
    F = A.field
    n = A.dim
    table = dict(A.table)
    table[(n, n, n)] = F.one
    for i in range(n):
        table[(n, i, i)] = F.one
        table[(i, n, i)] = F.one
    return Algebra(F, n + 1, table)


# ------------------------------------------------------- multiplication maps

def right_mult_matrix(A: Algebra, x: Vector) -> Matrix:
    """Matrix of y -> y x (columns are basis images)."""
    cols = [A.multiply(A.basis(j), x) for j in range(A.dim)]
    return la.transpose(tuple(cols))


def left_mult_matrix(A: Algebra, x: Vector) -> Matrix:
    """Matrix of y -> x y."""
    cols = [A.multiply(x, A.basis(j)) for j in range(A.dim)]
    return la.transpose(tuple(cols))


# ---------------------------------------------------------- identity checks

def _leibniz_form(A: Algebra, i: int, j: int) -> list[list[tuple]]:
    """M(b_i) b_j + b_i M(b_j) as a linear form in the entries of a matrix
    M, in the shape `_operator_equations` takes from `inner`: for each
    coordinate, a list of (coefficient, variable) terms."""
    n = A.dim
    v = [[] for _ in range(n)]
    for (a, b, k), c in A.table.items():
        if b == j:
            v[k].append((c, a * n + i))
        if a == i:
            v[k].append((c, b * n + j))
    return v


def _operator_equations(A: Algebra, inner) -> list[dict]:
    """The identity M(b_i) M(b_j) = M(v_ij) on every basis pair, as scalar
    equations in the dim^2 entries of a matrix M, expanded straight from
    the nonzero structure constants.

    Entry (k, m) of M is variable k * dim + m.  `inner(i, j)` returns v_ij
    as a linear form in those variables: for each coordinate m, a list of
    (coefficient, variable or None) terms, None marking a constant.  There
    is one equation per pair and coordinate, a polynomial that must vanish,
    in the format of `polyring`: a dict mapping a monomial, the sorted
    tuple of its variables, to its nonzero coefficient.  Equations that
    vanish identically are left out.
    """
    F = A.field
    n = A.dim
    out = []
    for i in range(n):
        for j in range(n):
            sums = [{} for _ in range(n)]
            for (a, b, k), c in A.table.items():
                u, v = a * n + i, b * n + j
                mono = (u, v) if u <= v else (v, u)
                sums[k][mono] = F.add(sums[k].get(mono, F.zero), c)
            for m, terms in enumerate(inner(i, j)):
                for c, var in terms:
                    c = F.neg(c)
                    for k in range(n):
                        u = k * n + m
                        mono = ((u,) if var is None else
                                (u, var) if u <= var else (var, u))
                        sums[k][mono] = F.add(sums[k].get(mono, F.zero), c)
            for terms in sums:
                eq = {mono: c for mono, c in terms.items()
                      if not F.is_zero(c)}
                if eq:
                    out.append(eq)
    return out


def _symbolic_defects(A: Algebra, kind: str) -> tuple[int, dict]:
    """The number of variables, and lhs - rhs of the identity on generic
    elements, coordinates t_0..t_{n-1} for x (and t_n..t_{2n-1} for y), as
    a sparse vector over the polynomial field: A's structure constants are
    lifted to constants of that field, and `Algebra.product` expands."""
    n = A.dim
    P = PolynomialField(A.field)
    B = Algebra(P, n, {key: P.const(c) for key, c in A.table.items()})
    x = {i: P.gen(i) for i in range(n)}
    if kind == "flexible":
        y = {i: P.gen(n + i) for i in range(n)}
        nvars = 2 * n
        lhs = B.product(B.product(x, y), x)
        rhs = B.product(x, B.product(y, x))
    elif kind == "third_power_associative":
        nvars = n
        xx = B.product(x, x)
        lhs = B.product(xx, x)
        rhs = B.product(x, xx)
    else:
        raise ValueError(f"no symbolic expansion for kind {kind!r}")
    la.add_multiple(P, lhs, P.neg(P.one), rhs)
    return nvars, lhs


def _check_symbolic(A: Algebra, kind: str) -> CheckReport:
    """The witness is the first nonzero coordinate of the defect, and the
    least monomial of that coordinate as an exponent vector."""
    nvars, defect = _symbolic_defects(A, kind)
    details = {"kind": kind, "method": "symbolic"}
    if not defect:
        return CheckReport(True, details=details)
    k = min(defect)
    poly = defect[k]

    def exponents(mono):
        return [mono.count(v) for v in range(nvars)]

    least = min(poly, key=exponents)
    return CheckReport(False, witness={
        "coordinate": k + 1,
        "monomial": exponents(least),
        "coefficient": A.field.format(poly[least]),
    }, details=details)


def _check_exhaustive(A: Algebra, kind: str, cap: int) -> CheckReport:
    F = A.field
    n = A.dim
    arity = 2 if kind == "flexible" else 1
    la.check_cap(F, n * arity, "evaluations", cap)
    mul = A.multiply
    details = {"kind": kind, "method": "exhaustive"}
    # x-major over (x, y): the witness is the first bad x, then its first y
    for point in product(F.elements(), repeat=n * arity):
        x, y = point[:n], point[n:]
        if kind == "flexible":
            bad = mul(mul(x, y), x) != mul(x, mul(y, x))
        else:
            xx = mul(x, x)
            bad = mul(xx, x) != mul(x, xx)
        if bad:
            return CheckReport(False, witness=(x, y)[:arity], details=details)
    return CheckReport(True, details=details)


def check_identity(A: Algebra, kind: str, exhaustive: bool = False,
                   cap: int = 10 ** 6) -> CheckReport:
    """Check a polynomial identity on A.

    Multilinear kinds (pre_lie, novikov, commutative, anticommutative,
    jacobi) are decided on basis tuples, the witness being the first
    failing tuple in lexicographic order, 1-based.  The triples of pre_lie,
    novikov and jacobi are evaluated from the basis products b_i b_j, taken
    once per call, with `Algebra.product` on sparse vectors; pre-Lie holds
    at (x, y, z) when (xy)z + y(xz) = (yx)z + x(yz).  flexible and
    third_power_associative are not multilinear; by default they are decided
    symbolically (generic elements with polynomial coordinates multiplied by
    `Algebra.product` over `polyring.PolynomialField`, all coefficients must
    vanish), with `exhaustive=True` evaluating every tuple
    over a finite field instead.  kind "novikov" means pre-Lie together with
    right-commutativity (x y) z = (x z) y.
    """
    if kind not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}; "
                         f"choose from {', '.join(IDENTITY_KINDS)}")
    if kind in ("flexible", "third_power_associative"):
        if exhaustive:
            return _check_exhaustive(A, kind, cap)
        return _check_symbolic(A, kind)

    F = A.field
    n = A.dim
    if kind in ("commutative", "anticommutative"):
        for i in range(n):
            for j in range(n):
                lhs = A.basis_product(i, j)
                rhs = A.basis_product(j, i)
                if kind == "anticommutative":
                    rhs = la.vneg(F, rhs)
                if lhs != rhs:
                    return CheckReport(False, witness=(i + 1, j + 1),
                                       details={"kind": kind})
        return CheckReport(True, details={"kind": kind})

    # both sides of each triple as sparse sums of products of the unit
    # vectors and the basis products b_i b_j; a product drops zero sums,
    # so two sides are equal exactly when their dicts are
    prod = A.product
    units = [{i: F.one} for i in range(n)]
    pairs = [[dict(A.basis_terms(i, j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        x, xp = units[i], pairs[i]
        for j in range(n):
            y, yp, xy = units[j], pairs[j], xp[j]
            for k in range(n):
                z = units[k]
                if kind == "jacobi":
                    s = prod(xy, z)               # (xy)z
                    prod(yp[k], x, s)             # + (yz)x
                    prod(pairs[k][i], y, s)       # + (zx)y
                    ok = not s
                else:
                    # (xy)z - x(yz) = (yx)z - y(xz), rearranged
                    ok = (prod(y, xp[k], prod(xy, z))
                          == prod(x, yp[k], prod(yp[i], z)))
                    if ok and kind == "novikov":
                        ok = prod(xy, z) == prod(xp[k], y)
                if not ok:
                    return CheckReport(False, witness=(i + 1, j + 1, k + 1),
                                       details={"kind": kind})
    return CheckReport(True, details={"kind": kind})


# ------------------------------------------------------- ideals, simplicity

def is_subalgebra(A: Algebra, W: Subspace) -> CheckReport:
    """Products of basis vectors of W stay in W."""
    _check_ambient(A, W)
    rows = [la.sparse(A.field, x) for x in W.basis]
    for i, x in enumerate(rows):
        for j, y in enumerate(rows):
            if W.reduce(A.product(x, y)):
                return CheckReport(False, witness=(i, j))
    return CheckReport(True)


def is_ideal(A: Algebra, W: Subspace) -> CheckReport:
    """A W and W A both land in W."""
    _check_ambient(A, W)
    F = A.field
    units = [{i: F.one} for i in range(A.dim)]
    for x in W.basis:
        v = la.sparse(F, x)
        for i, u in enumerate(units):
            if W.reduce(A.product(u, v)):
                return CheckReport(False, witness=("left", i, x))
            if W.reduce(A.product(v, u)):
                return CheckReport(False, witness=("right", i, x))
    return CheckReport(True)


def ideal_closure(A: Algebra, seed: Subspace) -> Subspace:
    """Smallest subspace containing seed closed under both multiplications
    by basis vectors (hence the ideal generated by seed).  Stops as soon
    as the span is all of F^n, which is closed."""
    _check_ambient(A, seed)
    F = A.field
    units = [{i: F.one} for i in range(A.dim)]
    current = [la.sparse(F, x) for x in seed.basis]
    while len(current) < A.dim:
        rows = list(current)
        for x in current:
            for u in units:
                rows.append(A.product(u, x))
                rows.append(A.product(x, u))
        grown = la.reduce_rows(F, rows)[0]
        if len(grown) == len(current):
            break
        current = grown
    return la.Subspace(F, A.dim, tuple(la.dense(F, row, A.dim)
                                       for row in current))


def _multiplication_algebra_dim(A: Algebra) -> int:
    """dim M(A), M(A) the unital associative algebra of matrices that the
    multiplications L_{b_i} and R_{b_i} generate; it stops as soon as the
    span reaches n^2, M(A) then being all of End(A).

    The span of words in the generators grows breadth-first from E: each
    word that enters the span is multiplied on the left by every
    generator, and a word already in the span is not extended, its
    products lying in the span of products already taken, so the words
    kept are independent and their number is the dimension.  A word is kept
    as its sparse rows, so row r of G W is the combination of the rows of
    W by the nonzeros of row r of G (`la.combine`), and the span as one
    incremental echelon form of the words' n^2 entries (`la.reduce_row`).
    """
    F, n = A.field, A.dim
    full = n * n
    gens = []
    for i in range(n):
        b = A.basis(i)
        for M in (left_mult_matrix(A, b), right_mult_matrix(A, b)):
            gens.append([tuple(la.sparse(F, row).items()) for row in M])
    tails: dict = {}

    def enters(W: list) -> bool:
        flat = {r * n + c: a for r, row in enumerate(W) for c, a in row.items()}
        return la.reduce_row(F, tails, flat)

    words = [[{i: F.one} for i in range(n)]]  # the independent words, E first
    enters(words[0])
    for W in words:  # grows while it is walked: breadth-first
        for G in gens:
            GW = [la.combine(F, row, W) for row in G]
            if enters(GW):
                words.append(GW)
                if len(words) == full:
                    return full
    return len(words)


def is_simple(A: Algebra, cap: int = 10 ** 6) -> CheckReport:
    """Simplicity over a finite field: nonzero product and no proper ideal.

    Before anything else, an algebra with zero product is not simple, and
    `la.check_cap` refuses an infinite field or q^n vectors past `cap`,
    whether or not the walk below runs.  Then the certificate: the
    ideals of A are the subspaces invariant under the multiplication
    algebra M(A), so when M(A) is all of End(A), dim M(A) = n^2, there is
    no proper nonzero ideal (Schafer, An Introduction to Nonassociative
    Algebras, ch. II).  Otherwise it walks one representative per scalar
    class of nonzero vectors; the ideal generated by any single vector of
    a proper ideal is still proper, so this is exhaustive.  Witness on
    failure: the first proper nonzero ideal the walk finds.
    """
    F = A.field
    if not A.table:
        return CheckReport(False, witness="zero multiplication",
                           details={"reason": "A*A = 0"})
    la.check_cap(F, A.dim, "vectors", cap)
    if _multiplication_algebra_dim(A) == A.dim * A.dim:
        return CheckReport(True)
    for v in la.enumerate_projective(F, A.dim, cap=cap):
        closure = ideal_closure(A, la.span(F, A.dim, [v]))
        if closure.dim < A.dim:
            return CheckReport(False, witness=closure,
                               details={"generator": v})
    return CheckReport(True)


def _check_ambient(A: Algebra, W: Subspace) -> None:
    if W.ambient != A.dim or W.field != A.field:
        raise DimensionError("subspace does not live in the algebra")
