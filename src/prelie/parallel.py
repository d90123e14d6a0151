"""Exact matrix scans, and deterministic work splitting.

`scan_matrices` finds every dim x dim matrix over a finite field that
solves a system of scalar equations in its entries, such as the defining
identity of Rota-Baxter operators or of automorphisms.  It is an exact
search with forward checking (Haralick and Elliott, 1980), not a loop over
all q^(dim^2) matrices.  Entries are assigned one at a time in a greedy
order, as indices of the field's scalars, with arithmetic by table.  Once
the entries before an equation's last one are set, the equation is a
polynomial in that entry: a linear one forces its value, and only one of
higher degree has every value tried, so no partial matrix that breaks an
equation is extended.

The search is split over the admitted values of its first few entries,
its prefixes.  A scan searches them in order in the calling process: all
of them at one worker, and at more than one until its search nodes exceed
SCAN_BUDGET, when it hands the list of those left to `run_chunks`, which
makes one task of each; the pool gives each task to whichever worker is
free, and results come back in task order.  So a scan that fits the budget
never touches the pool.  The scan then sorts its solutions into canonical
order, so the output is identical for any worker count.

A process runs at most one process pool.  It is started by the first
`run_chunks` call with more than one worker and reused by every later one.
A call asking for another pool size replaces it; a broken pool is dropped,
so the next call starts a fresh one; a forked child starts a pool of its
own; the pool is shut down when the interpreter exits; and its workers exit
when the process that started them dies without stopping them.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import Pipe, util

from . import linalg as la
from .fields import Field

__all__ = ["check_scan", "pool_size", "run_chunks", "scan_matrices"]


def pool_size(workers: int) -> int:
    """Processes to run for `workers` requested: at least 1 and at most the
    CPU count, since a process pool starts all of its workers at once."""
    return max(1, min(workers, os.cpu_count() or 1))


# The process pool of this process, as (size, executor, finalizer, alive),
# or None before the first multi-worker call; `alive` is the write end of
# the pipe its workers watch.  Threads take turns on it.
_pool = None
_pool_lock = threading.Lock()


def _shared_pool(size: int) -> ProcessPoolExecutor:
    """The pool of `size` processes, started on first use."""
    global _pool
    if _pool is not None and _pool[0] != size:
        _close_pool()
    if _pool is None:
        watched, alive = Pipe(duplex=False)
        executor = ProcessPoolExecutor(max_workers=size,
                                       initializer=_exit_with_parent,
                                       initargs=(watched,))
        # Runs at interpreter exit, and also when a multiprocessing child
        # exits, which skips atexit; it does nothing in any other process.
        # The priority is multiprocessing.Pool's: above the 10 at which the
        # pool's own queues stop feeding the workers their stop signals.
        finalizer = util.Finalize(executor, _shut_down,
                                  (executor, watched, alive), exitpriority=15)
        _pool = (size, executor, finalizer, alive)
    return _pool[1]


def _shut_down(executor, watched, alive) -> None:
    executor.shutdown()
    watched.close()
    alive.close()


def _exit_with_parent(watched) -> None:
    """Pool worker start-up: exit once the process that started the pool
    is gone, for example killed by a signal that left it no time to stop
    its pool, so that no idle worker is left waiting for work for ever.
    Only that process holds the write end of `watched` (forked children
    close it), so the pipe reads as closed exactly when it has exited,
    under every start method; the worker's parent is no guide, since under
    forkserver it is the fork server, which outlives its children."""
    def watch():
        watched.poll(None)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _close_pool() -> None:
    """Shut the pool down and forget it; the next call starts another."""
    global _pool
    if _pool is not None:
        finalizer = _pool[2]
        _pool = None
        finalizer()


def _forget_pool() -> None:
    """In a forked child: the parent's pool is not this process's to use,
    and its lock may have been held by a thread the child does not have.
    The child's copy of the watched pipe's write end is closed, or the
    workers would wait for the child as well as the parent."""
    global _pool, _pool_lock
    if _pool is not None:
        _pool[3].close()
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)

# Search nodes a scan at more than one worker visits in the calling process
# before it hands the rest of its prefixes to the pool.  Measured on a
# 2-core host: a node costs 2-4 us, a round trip on the warm pool 0.8 ms and
# its first start 15 ms.  Every operator and automorphism scan of GF(3) n=3
# and of n=2 up to GF(11) takes under 400 nodes, so it never touches the
# pool; a larger scan hands off at the end of the prefix in which it passes
# the budget.  `rb-enumerate --n 4 --field gf3 --weight all` (17,580 to
# 34,237 nodes a weight) took 0.26-0.29 s at two workers with budgets from
# 0 to 10,000 nodes and 0.36 s, its time at one worker, from 20,000 up.
SCAN_BUDGET = 5_000


def run_chunks(chunk_fn, common_args: tuple, total: int, workers: int = 1) -> list:
    """Apply chunk_fn(common_args + (i, i + 1)) for each i in range(total)
    and concatenate the returned lists in that order, optionally across
    processes.

    More than one worker runs the calls on this process's one pool, which
    the first such call starts and later calls reuse; the pool hands each
    call to whichever worker is free.  chunk_fn travels to the workers by
    name, so it must be importable: the workers do not see a function that
    `__main__` defines after they started.  If the pool breaks, for example
    because a worker was killed, the call raises BrokenProcessPool and the
    next call starts a fresh pool."""
    workers = pool_size(workers)
    args = [common_args + (i, i + 1) for i in range(total)]
    if workers == 1:
        chunks = [chunk_fn(a) for a in args]
    else:
        with _pool_lock:
            try:
                chunks = list(_shared_pool(workers).map(chunk_fn, args))
            except BrokenProcessPool:
                _close_pool()
                raise
    return [item for chunk in chunks for item in chunk]


def check_scan(F: Field, dim: int, cap: int) -> None:
    """Refuse, by `la.check_cap`, a scan over an infinite field, or one whose
    q^(dim^2) matrices or q^2 field table entries exceed `cap`, before its
    equations cost."""
    la.check_cap(F, dim * dim, "candidate matrices", cap)
    la.check_cap(F, 2, "field table entries", cap)


def scan_matrices(F: Field, dim: int, equations: list, leaf=None,
                  workers: int = 1) -> list:
    """Every dim x dim matrix M over the finite field F that solves
    `equations` and passes leaf(F, M), if given, in canonical order.

    An equation is a polynomial that must vanish, in the dim^2 entries of
    M (entry (k, m) is variable k * dim + m), in the format of `polyring`:
    a dict mapping a monomial, the sorted tuple of its variables, to its
    nonzero coefficient, the constant term having the empty monomial.
    Callers refuse oversized scans with `check_scan` first, before they
    build the equations.
    """
    order = _search_order(dim * dim, equations)
    depth = [0] * len(order)  # entry -> depth
    for d, v in enumerate(order):
        depth[v] = d
    processes = pool_size(workers)
    # At least four prefixes a process before pruning, q^prefix, so that
    # the pool can even out subtrees of unequal size.  A 0 x 0 scan has
    # the empty prefix, and the empty matrix as its one candidate.
    prefix = min(1, len(order))
    while prefix < len(order) and F.order ** prefix < 4 * processes:
        prefix += 1
    tables = _tables(F)
    kernel = (F, dim, depth, tables, _compile(tables[1], equations, depth),
              leaf, prefix)
    found, rest = _search(kernel, None,
                          SCAN_BUDGET if processes > 1 else None)
    if rest:
        found += run_chunks(_scan_chunk, (kernel, rest), len(rest), workers)
    return sorted(found, key=lambda M: la.matrix_sort_key(F, M))


def _search_order(nvars: int, equations: list) -> list[int]:
    """A greedy variable order: each step takes the variable that completes
    the most equations, then the one in the most equations, then the
    lowest."""
    supports = [{v for mono in eq for v in mono} for eq in equations]
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


def _tables(F) -> tuple:
    """F's scalars in F.elements() order, in which zero is index 0, the
    scalar -> index map, and add, mul, neg and inv of F on those indices;
    inv[0] is 0."""
    elems = list(F.elements())
    index = {x: i for i, x in enumerate(elems)}
    add = [[index[F.add(a, b)] for b in elems] for a in elems]
    mul = [[index[F.mul(a, b)] for b in elems] for a in elems]
    neg = [index[F.neg(a)] for a in elems]
    inv = [0] + [index[F.inv(a)] for a in elems[1:]]
    return elems, index, add, mul, neg, inv


def _compile(index: dict, equations: list,
             depth: list[int]) -> list[list[tuple]]:
    """The equations in plain ints (`index` maps a scalar to its index), by
    the depth of their last variable.  Each is a polynomial in that
    variable x: a tuple whose k-th item holds the terms of the coefficient
    of x^k, each term a coefficient index and the depths of its other
    variables."""
    plan = [[] for _ in depth]
    for eq in equations:
        terms = [(index[c], sorted(depth[v] for v in mono))
                 for mono, c in eq.items()]
        last = max((m[-1] for _, m in terms if m), default=0)
        poly = [[] for _ in range(1 + max(m.count(last) for _, m in terms))]
        for c, m in terms:
            k = m.count(last)
            poly[k].append((c, tuple(m[:len(m) - k])))
        plan[last].append(tuple(map(tuple, poly)))
    return plan


def _scan_chunk(args) -> list:
    """The solutions below the prefixes rest[start:stop]."""
    kernel, rest, start, stop = args
    return _search(kernel, rest[start:stop])[0]


def _search(kernel, prefixes: list | None, budget: int | None = None):
    """Backtracking with forward checking over the variables in depth
    order, below each of `prefixes`, or below every admitted prefix when
    `prefixes` is None; a prefix is a tuple of values of the first
    `prefix` variables.

    At each depth an equation is a polynomial in that depth's variable x
    whose coefficients the earlier variables fix.  Of degree 0 it holds or
    prunes; of degree 1, a x + b, it forces x = -b/a; two forced values that
    differ prune; only equations of higher degree try every value of x.
    Returns the solutions and the admitted prefixes left unsearched: none,
    or those from the first reached after the search nodes (partial
    assignments that pass every equation checked so far) exceed `budget`.
    """
    F, n, depth, (elems, _, add, mul, neg, inv), plan, leaf, prefix = kernel
    q = len(elems)
    values = [0] * len(depth)
    out = []
    nodes = 0

    def admitted(d):
        """The values at depth d that every equation of depth d admits."""
        forced, curves = None, []
        for poly in plan[d]:
            coeffs = []
            for terms in poly:
                s = 0
                for c, others in terms:
                    for v in others:
                        c = mul[c][values[v]]
                    s = add[s][c]
                coeffs.append(s)
            while len(coeffs) > 1 and not coeffs[-1]:
                coeffs.pop()
            if len(coeffs) == 1:
                if coeffs[0]:
                    return ()
            elif len(coeffs) == 2:
                x = mul[neg[coeffs[0]]][inv[coeffs[1]]]
                if forced is None:
                    forced = x
                elif x != forced:
                    return ()
            else:
                curves.append(coeffs[::-1])
        candidates = range(q) if forced is None else (forced,)
        if not curves:
            return candidates
        kept = []
        for x in candidates:
            for coeffs in curves:
                s = 0
                for c in coeffs:
                    s = add[mul[s][x]][c]
                if s:
                    break
            else:
                kept.append(x)
        return kept

    def extend(d):
        nonlocal nodes
        if d == len(depth):
            M = tuple(tuple(elems[values[depth[r * n + m]]] for m in range(n))
                      for r in range(n))
            if leaf is None or leaf(F, M):
                out.append(M)
            return
        for x in admitted(d):
            values[d] = x
            nodes += 1
            extend(d + 1)

    def heads(d):
        """The admitted assignments of the first `prefix` variables, in
        order, as tuples; values[:d] are set."""
        if d == prefix:
            yield tuple(values[:prefix])
            return
        for x in admitted(d):
            values[d] = x
            yield from heads(d + 1)

    todo = heads(0) if prefixes is None else iter(prefixes)
    for head in todo:
        if budget is not None and nodes > budget:
            return out, [head, *todo]
        values[:prefix] = head
        nodes += 1
        extend(prefix)
    return out, []
