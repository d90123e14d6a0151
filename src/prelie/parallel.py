"""Deterministic work splitting for exhaustive scans.

A scan over q^k candidates is partitioned into contiguous index ranges.
Each chunk function receives (common_args..., start, stop) and returns a
list; results are concatenated in chunk order, so the output is identical
for any worker count.
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


def run_chunks(chunk_fn, common_args: tuple, total: int, workers: int = 1) -> list:
    """Apply chunk_fn(common_args + (start, stop)) over a partition of
    range(total), in order, optionally across processes."""
    workers = pool_size(workers)
    pieces = workers * 4 if workers > 1 else 1
    args = [common_args + r for r in split_ranges(total, pieces)]
    if workers == 1:
        chunks = [chunk_fn(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(chunk_fn, args))
    return [item for chunk in chunks for item in chunk]


def scan_matrices(A: Algebra, predicate, params: tuple = (),
                  cap: int = 10 ** 7, workers: int = 1) -> list:
    """Every dim x dim matrix M over the finite field of A with
    predicate(A, M, *params), by exhaustive scan, in canonical enumeration
    order.

    `predicate` must be a top-level function so that it pickles; `params`
    are field scalars and travel to the workers as literals.
    """
    F = A.field
    if not F.is_finite:
        raise CapError("exhaustive matrix scans require a finite field")
    total = F.order ** (A.dim * A.dim)
    if total > cap:
        raise CapError(f"{total} candidate matrices exceed cap {cap}")
    literals = tuple(F.format(p) for p in params)
    return run_chunks(_scan_chunk,
                      (predicate, F.descriptor(), A.to_json(), literals),
                      total, workers)


def _scan_chunk(args) -> list:
    predicate, field_desc, algebra_json, literals, start, stop = args
    F = make_field(field_desc)
    A = Algebra.from_json(algebra_json, field=F)
    params = tuple(F.parse(p) for p in literals)
    elems = list(F.elements())
    n = A.dim
    out = []
    for index in range(start, stop):
        M = la.decode_matrix(F, n, n, index, elems)
        if predicate(A, M, *params):
            out.append(M)
    return out
