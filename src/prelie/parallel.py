"""Exact matrix scans, and deterministic work splitting.

`scan_matrices` finds every dim x dim matrix over a finite field that
solves a system of scalar equations in its entries, such as the defining
identity of Rota-Baxter operators or of automorphisms.  It is an exact
pruned search, not a loop over all q^(dim^2) matrices: entries are assigned
one at a time in a greedy order, and each equation is checked as soon as
its last variable is set, so no partial matrix that breaks an equation is
extended.

The search is split over the assignments of its first few entries.
`run_chunks` partitions a range of such indices into contiguous ranges;
each chunk function receives (common_args..., start, stop) and returns a
list, and results are concatenated in chunk order.  The scan then sorts its
solutions into canonical order, so the output is identical for any worker
count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from . import linalg as la
from .algebras import Algebra
from .errors import CapError
from .fields import make_field

__all__ = ["pool_size", "run_chunks", "scan_matrices", "split_ranges"]


def split_ranges(total: int, pieces: int) -> list[tuple[int, int]]:
    """Split range(total) into at most `pieces` contiguous nonempty ranges."""
    pieces = max(1, min(pieces, total)) if total else 1
    step, extra = divmod(total, pieces)
    ranges = []
    start = 0
    for i in range(pieces):
        stop = start + step + (1 if i < extra else 0)
        if stop > start:
            ranges.append((start, stop))
        start = stop
    return ranges or [(0, 0)]


def pool_size(workers: int) -> int:
    """Processes to run for `workers` requested: at least 1 and at most the
    CPU count, since a process pool starts all of its workers at once."""
    return max(1, min(workers, os.cpu_count() or 1))


def _pieces(processes: int) -> int:
    """Ranges run_chunks cuts its work into on `processes` processes."""
    return processes * 4 if processes > 1 else 1


def run_chunks(chunk_fn, common_args: tuple, total: int, workers: int = 1) -> list:
    """Apply chunk_fn(common_args + (start, stop)) over a partition of
    range(total), in order, optionally across processes."""
    workers = pool_size(workers)
    args = [common_args + r for r in split_ranges(total, _pieces(workers))]
    if workers == 1:
        chunks = [chunk_fn(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(chunk_fn, args))
    return [item for chunk in chunks for item in chunk]


def scan_matrices(A: Algebra, system, params: tuple = (),
                  cap: int = 10 ** 7, workers: int = 1) -> list:
    """Every dim x dim matrix M over the finite field of A that solves
    system(A, *params), in canonical enumeration order.

    `system` returns a list of scalar equations in the dim^2 entries of M
    (entry (k, m) is variable k * dim + m; an equation is a list of
    (coefficient, monomial) terms summing to zero, a monomial the tuple of
    its variables) and a leaf test leaf(F, M) that every solution must
    also pass, or None.  `cap` bounds q^(dim^2), the size of the space.
    """
    F = A.field
    if not F.is_finite:
        raise CapError("exhaustive matrix scans require a finite field")
    total = F.order ** (A.dim * A.dim)
    if total > cap:
        raise CapError(f"{total} candidate matrices exceed cap {cap}")
    equations, leaf = system(A, *params)
    order = _search_order(A.dim * A.dim, equations)
    depth = {v: d for d, v in enumerate(order)}
    checks = [[] for _ in order]
    for eq in equations:
        checks[max((depth[v] for _, mono in eq for v in mono),
                   default=0)].append(eq)
    # Enough prefix assignments to give every chunk at least one.
    prefix = 1
    while (prefix < len(order)
           and F.order ** prefix < _pieces(pool_size(workers))):
        prefix += 1
    found = run_chunks(_scan_chunk, (F.descriptor(), A.dim, order, checks,
                                     leaf, prefix),
                       F.order ** prefix, workers)
    return sorted(found, key=lambda M: la.matrix_sort_key(F, M))


def _search_order(nvars: int, equations: list) -> list[int]:
    """A greedy variable order: each step takes the variable that completes
    the most equations, then the one in the most equations, then the
    lowest."""
    supports = [{v for _, mono in eq for v in mono} for eq in equations]
    placed: set[int] = set()
    order = []

    def score(v):
        mine = [s for s in supports if v in s]
        return sum(1 for s in mine if s - placed == {v}), len(mine), -v

    while len(order) < nvars:
        v = max((v for v in range(nvars) if v not in placed), key=score)
        order.append(v)
        placed.add(v)
    return order


def _holds(F, eq, values) -> bool:
    s = F.zero
    for c, mono in eq:
        for v in mono:
            c = F.mul(c, values[v])
        s = F.add(s, c)
    return s == F.zero


def _scan_chunk(args) -> list:
    """Backtracking over the entries in `order`, from each prefix
    assignment index in [start, stop); checks[d] holds the equations whose
    last variable is order[d]."""
    field_desc, n, order, checks, leaf, prefix, start, stop = args
    F = make_field(field_desc)
    elems = list(F.elements())
    values = [F.zero] * len(order)
    out = []

    def extend(d):
        if d == len(order):
            M = tuple(tuple(values[r * n:(r + 1) * n]) for r in range(n))
            if leaf is None or leaf(F, M):
                out.append(M)
            return
        var = order[d]
        for x in elems:
            values[var] = x
            if all(_holds(F, eq, values) for eq in checks[d]):
                extend(d + 1)

    for index in range(start, stop):
        head = la.decode_matrix(F, 1, prefix, index, elems)[0]
        for d, x in enumerate(head):
            values[order[d]] = x
        if all(_holds(F, eq, values) for d in range(prefix)
               for eq in checks[d]):
            extend(prefix)
    return out
