"""The exact scan engine and its process pool.

The differential tests hold every scan to a filter over the plain
enumeration, so a scan that drops a matrix fails as surely as one that
admits a wrong one.  Beyond the reach of that filter, automorphism and
orthogonal-block counts are held to the closed-form order of the
orthogonal group.  The equations the scans solve, the weight-free
operator system and the Leibniz rows of `derivation_algebra` are held to
their slow expansion by `Algebra.product` over the polynomial field, on
random tables.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings, strategies as st

from prelie import parallel
from prelie.algebras import Algebra, apex_algebra, minus_algebra
from prelie.errors import CapError
from prelie.fields import make_field
from prelie.linalg import (add_multiple, combine, enumerate_matrices,
                           identity_matrix, is_invertible, is_orthogonal,
                           mat_scale, zero_matrix)
from prelie.polyring import PolynomialField
from prelie.rota_baxter import (_rb_equations, enumerate_rb_operators,
                                is_rb_operator, rb_residuals,
                                reflect_operator)
from prelie.symmetry import (_leibniz_rows, _product_equations,
                             automorphism_residuals, enumerate_automorphisms,
                             enumerate_orthogonal, is_automorphism)

from helpers import residuals_vanish

GF5 = make_field("gf5")


def test_pool_size_is_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    assert parallel.pool_size(10 ** 6) == 4
    assert parallel.pool_size(3) == 3
    assert parallel.pool_size(1) == 1
    assert parallel.pool_size(0) == 1
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: None)
    assert parallel.pool_size(10 ** 6) == 1


# ---------------------------------------------- scans against a plain filter

APEX_RB_CASES = [("gf3", 2, w) for w in range(3)] + \
    [("gf5", 2, w) for w in range(5)] + [("gf3", 3, 1)]


@pytest.mark.parametrize("spec,n,w", APEX_RB_CASES)
def test_operator_scan_matches_residual_filter(spec, n, w):
    F = make_field(spec)
    A = apex_algebra(F, n)
    expected = [M for M in enumerate_matrices(F, n, n)
                if residuals_vanish(F, rb_residuals(A, M, w))]
    assert enumerate_rb_operators(A, w) == expected


@pytest.mark.parametrize("spec,n", [("gf3", 2), ("gf5", 2), ("gf3", 3)])
def test_automorphism_scan_matches_residual_filter(spec, n):
    F = make_field(spec)
    A = apex_algebra(F, n)
    expected = [M for M in enumerate_matrices(F, n, n)
                if residuals_vanish(F, automorphism_residuals(A, M))
                and is_invertible(F, M)]
    assert enumerate_automorphisms(A) == expected


ORTHOGONAL_CASES = [(spec, m) for spec in ("gf3", "gf5", "gf7", "gf9",
                                            "gf11", "gf13")
                    for m in range(4)
                    if make_field(spec).order ** (m * m) <= 2 * 10 ** 5]


@pytest.mark.parametrize("spec,m", ORTHOGONAL_CASES)
def test_orthogonal_scan_matches_the_plain_filter(spec, m):
    F = make_field(spec)
    expected = [Q for Q in enumerate_matrices(F, m, m, cap=2 * 10 ** 5)
                if is_orthogonal(F, Q)]
    assert enumerate_orthogonal(F, m, cap=2 * 10 ** 5) == expected


def test_scans_match_the_checkers_off_the_apex_table():
    A = minus_algebra(apex_algebra(GF5, 2))
    candidates = list(enumerate_matrices(GF5, 2, 2))
    for w in range(5):
        expected = [M for M in candidates if is_rb_operator(A, M, w).ok]
        assert enumerate_rb_operators(A, w) == expected
    expected = [M for M in candidates if is_automorphism(A, M).ok]
    assert enumerate_automorphisms(A) == expected


# Weights are literals, so that GF(9), whose scalars are pairs, can be
# listed with the prime fields.
WIDER_RB_CASES = [(spec, 2, w) for spec in ("gf7", "gf11")
                  for w in ("0", "1", "3")] + \
    [("gf9", 2, w) for w in ("0", "1", "1+1*r")] + \
    [("gf3", 3, "0"), ("gf3", 3, "2")]


@pytest.mark.parametrize("spec,n,w", WIDER_RB_CASES)
def test_operator_scan_matches_residual_filter_on_wider_cases(spec, n, w):
    F = make_field(spec)
    A = apex_algebra(F, n)
    w = F.parse(w)
    expected = [M for M in enumerate_matrices(F, n, n)
                if residuals_vanish(F, rb_residuals(A, M, w))]
    assert enumerate_rb_operators(A, w) == expected


@st.composite
def small_algebras(draw):
    """A random structure-constant table at n = 2 over GF(3) or GF(5)."""
    F = make_field(draw(st.sampled_from(["gf3", "gf5"])))
    elems = list(F.elements())
    table = {(i, j, k): draw(st.sampled_from(elems))
             for i in range(2) for j in range(2) for k in range(2)}
    return Algebra(F, 2, table), draw(st.sampled_from(elems))


@settings(max_examples=40, deadline=None)
@given(small_algebras())
def test_scans_match_the_checkers_on_random_tables(case):
    A, w = case
    F = A.field
    candidates = list(enumerate_matrices(F, 2, 2))
    assert enumerate_rb_operators(A, w) == [
        M for M in candidates if is_rb_operator(A, M, w).ok]
    assert enumerate_automorphisms(A) == [
        M for M in candidates if is_automorphism(A, M).ok]


# ------------------------------ equations against the generic expansion

def lifted(A):
    """A with its structure constants lifted to the polynomial field, the
    columns of a generic matrix (entry (k, m) is variable k * dim + m) and
    the basis vectors, as sparse vectors over that field."""
    n = A.dim
    P = PolynomialField(A.field)
    B = Algebra(P, n, {key: P.const(c) for key, c in A.table.items()})
    cols = [{k: P.gen(k * n + m) for k in range(n)} for m in range(n)]
    units = [{i: P.one} for i in range(n)]
    return B, cols, units


def generic_equations(A, inner):
    """The identity M(b_i) M(b_j) = M(v_ij) expanded the slow way: both
    sides by `Algebra.product` on the lifted table and the columns of a
    generic matrix, and the coordinates of lhs - M(v_ij), with
    `inner(B, cols, units, i, j)` giving v_ij as a sparse vector."""
    B, cols, units = lifted(A)
    P = B.field
    minus_one = P.neg(P.one)
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            defect = B.product(cols[i], cols[j])
            image = combine(P, inner(B, cols, units, i, j).items(), cols)
            add_multiple(P, defect, minus_one, image)
            out.extend(defect.values())
    return out


def generic_rb_equations(A, w):
    """R(b_i) R(b_j) - R((R + wE)(b_i) b_j + b_i R(b_j)); a weight of None
    is the variable dim^2, as in `_rb_equations`."""
    def inner(B, cols, units, i, j):
        P = B.field
        weight = P.gen(A.dim ** 2) if w is None else P.const(w)
        shifted = {k: P.add(c, weight) if k == i else c
                   for k, c in cols[i].items()}
        return B.product(units[i], cols[j], B.product(shifted, units[j]))

    return generic_equations(A, inner)


def generic_product_equations(A):
    """phi(b_i) phi(b_j) - phi(b_i b_j)."""
    return generic_equations(A, lambda B, cols, units, i, j:
                             B.product(units[i], units[j]))


def generic_leibniz_rows(A):
    """d(b_i b_j) - d(b_i) b_j - b_i d(b_j), expanded as in
    `generic_equations`: each coordinate a polynomial of degree one in the
    entries of d."""
    B, cols, units = lifted(A)
    P = B.field
    minus_one = P.neg(P.one)
    out = []
    for i in range(A.dim):
        for j in range(A.dim):
            defect = combine(P, B.basis_terms(i, j), cols)
            add_multiple(P, defect, minus_one, B.product(
                units[i], cols[j], B.product(cols[i], units[j])))
            out.extend(defect.values())
    return out


def as_multiset(F, equations):
    """Equations up to the order of equations and of terms; monomials are
    kept as given, so an unsorted one does not compare equal."""
    return sorted(sorted((mono, F.format(c)) for mono, c in eq.items())
                  for eq in equations)


@st.composite
def sparse_tables(draw):
    """A random table at n <= 3 over GF(3), GF(5), GF(9), Q or Q(i), and a
    weight that is zero about a third of the time."""
    spec = draw(st.sampled_from(["gf3", "gf5", "gf9", "q", "qi"]))
    F = make_field(spec)
    if F.is_finite:
        scalars = st.sampled_from(list(F.elements()))
    else:
        scalars = st.builds(lambda a, b: F.parse(f"{a}/{b}"),
                            st.integers(-3, 3), st.integers(1, 3))
        if spec == "qi":
            root = F.parse("r")
            scalars = st.builds(lambda x, y: F.add(x, F.mul(y, root)),
                                scalars, scalars)
    n = draw(st.integers(1, 3))
    index = st.integers(0, n - 1)
    table = draw(st.dictionaries(st.tuples(index, index, index), scalars,
                                 max_size=2 * n * n))
    w = draw(st.one_of(st.just(F.zero), scalars))
    return Algebra(F, n, table), w


@settings(max_examples=60, deadline=None)
@given(sparse_tables())
def test_equations_match_the_generic_expansion(case):
    A, w = case
    F = A.field
    assert as_multiset(F, _rb_equations(A, w)) == \
        as_multiset(F, generic_rb_equations(A, w))
    assert as_multiset(F, _product_equations(A)) == \
        as_multiset(F, generic_product_equations(A))
    assert as_multiset(F, _rb_equations(A, None)) == \
        as_multiset(F, generic_rb_equations(A, None))
    leibniz = [{(u,): c for u, c in row.items()} for row in _leibniz_rows(A)]
    assert as_multiset(F, leibniz) == as_multiset(F, generic_leibniz_rows(A))


def test_worker_count_does_not_change_the_scans():
    gf3, gf9 = make_field("gf3"), make_field("gf9")
    A3, A9 = apex_algebra(gf3, 3), apex_algebra(gf9, 2)
    assert enumerate_rb_operators(A3, 1, workers=2) == \
        enumerate_rb_operators(A3, 1, workers=1)
    w = gf9.parse("1+1*r")
    assert enumerate_rb_operators(A9, w, workers=2) == \
        enumerate_rb_operators(A9, w, workers=1)
    assert enumerate_automorphisms(A9, workers=2) == \
        enumerate_automorphisms(A9, workers=1)


# ----------------------------------------------------------- the pool

GF3 = make_field("gf3")
A3 = apex_algebra(GF3, 3)


def worker_ids(args) -> list:
    """A chunk function reporting the process that ran it and its parent."""
    return [(os.getpid(), os.getppid())]


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool before or after the test, CPUs to start one on, and no
    search budget, so that every scan at more than one worker reaches it."""
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(parallel, "SCAN_BUDGET", 0)
    parallel._close_pool()
    yield
    parallel._close_pool()


@pytest.fixture
def started(monkeypatch):
    """The pools started during the test, in order."""
    pools = []

    class CountingExecutor(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingExecutor)
    return pools


DEFAULT_BUDGET = parallel.SCAN_BUDGET


def test_a_scan_within_the_budget_starts_no_pool(fresh_pool, started,
                                                 monkeypatch):
    monkeypatch.setattr(parallel, "SCAN_BUDGET", DEFAULT_BUDGET)
    at_one = [enumerate_rb_operators(A3, w) for w in GF3.elements()]
    assert [enumerate_rb_operators(A3, w, workers=2)
            for w in GF3.elements()] == at_one
    assert enumerate_automorphisms(A3, workers=2) == \
        enumerate_automorphisms(A3)
    assert started == []


def test_a_scan_over_the_budget_hands_the_rest_to_the_pool(
        fresh_pool, started, monkeypatch):
    """The calling process searches the first prefixes and the pool the
    rest, each prefix exactly once."""
    handed = []
    run_chunks = parallel.run_chunks

    def recording(chunk_fn, common_args, total, workers=1):
        handed.append(total)
        return run_chunks(chunk_fn, common_args, total, workers)

    monkeypatch.setattr(parallel, "run_chunks", recording)
    monkeypatch.setattr(parallel, "SCAN_BUDGET", 100)
    expected = enumerate_rb_operators(A3, 1)
    assert handed == []
    assert enumerate_rb_operators(A3, 1, workers=2) == expected
    assert len(started) == 1
    # Nine prefixes of two entries each at two workers: some stay here.
    assert len(handed) == 1 and 0 < handed[0] < 9


def bounds(args) -> list:
    """A chunk function reporting the (start, stop) it was given."""
    return [args]


def test_the_pool_gets_one_task_per_item_in_order(fresh_pool):
    assert parallel.run_chunks(bounds, (), 20, workers=2) == \
        [(i, i + 1) for i in range(20)]


@pytest.mark.parametrize("budget", [0, 100, DEFAULT_BUDGET])
def test_the_budget_does_not_change_the_scans(fresh_pool, monkeypatch,
                                              budget):
    monkeypatch.setattr(parallel, "SCAN_BUDGET", budget)
    for A in (A3, apex_algebra(make_field("gf9"), 2)):
        F = A.field
        for w in F.elements():
            assert enumerate_rb_operators(A, w, workers=2) == \
                enumerate_rb_operators(A, w)
        assert enumerate_automorphisms(A, workers=2) == \
            enumerate_automorphisms(A)


def test_scans_share_one_pool(fresh_pool, started):
    at_one = [enumerate_rb_operators(A3, w) for w in GF3.elements()]
    assert started == []
    at_two = [enumerate_rb_operators(A3, w, workers=2)
              for w in GF3.elements()]
    assert len(started) == 1
    assert at_two == at_one
    # Another size replaces the pool and shuts the old one down.
    assert enumerate_rb_operators(A3, 1, workers=3) == at_one[1]
    assert len(started) == 2
    with pytest.raises(RuntimeError):
        started[0].submit(worker_ids, ())


def test_threads_take_turns_on_the_one_pool(fresh_pool, started):
    expected = [enumerate_rb_operators(A3, w) for w in GF3.elements()]
    results = {}

    def scan(t):
        results[t] = [enumerate_rb_operators(A3, w, workers=2)
                      for w in GF3.elements()]

    threads = [threading.Thread(target=scan, args=(t,)) for t in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
        assert not thread.is_alive()
    assert results == {t: expected for t in range(6)}
    assert len(started) == 1


def test_a_broken_pool_is_replaced_by_the_next_scan(fresh_pool):
    expected = enumerate_rb_operators(A3, 1)
    (worker, _), = parallel.run_chunks(worker_ids, (), 1, workers=2)
    os.kill(worker, signal.SIGKILL)
    # Let the pool see the worker die before the scan gives it work, or the
    # other worker may finish the scan before the pool notices.
    workers_gone([worker], timeout=10)
    with pytest.raises(BrokenProcessPool):
        enumerate_rb_operators(A3, 1, workers=2)
    assert enumerate_rb_operators(A3, 1, workers=2) == expected


def scan_in_child(conn):
    conn.send((enumerate_rb_operators(A3, 1, workers=2),
               parallel.run_chunks(worker_ids, (), 4, workers=2)))
    conn.close()


def wait_for_exit(pid, timeout=60.0) -> int:
    """The exit status of child `pid`, killing it after `timeout` s."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"child {pid} did not exit within {timeout} s")


def test_a_forked_child_starts_a_pool_of_its_own(fresh_pool):
    expected = enumerate_rb_operators(A3, 1, workers=2)
    reader, writer = multiprocessing.Pipe(duplex=False)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            scan_in_child(writer)
            parallel._close_pool()
            status = 0
        finally:
            os._exit(status)
    writer.close()
    assert wait_for_exit(pid) == 0
    found, workers = reader.recv()
    assert found == expected
    assert not {w for w, _ in workers} & set(parallel._pool[1]._processes)


def test_a_multiprocessing_child_scans_and_exits(fresh_pool):
    """The child's pool must be shut down when it exits, or the child
    would wait for the pool's workers for ever."""
    expected = enumerate_rb_operators(A3, 1, workers=2)
    reader, writer = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=scan_in_child, args=(writer,))
    child.start()
    writer.close()
    sent = reader.poll(60)
    child.join(60)
    if not sent or child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the child did not finish its scan and exit")
    assert child.exitcode == 0
    found, workers = reader.recv()
    assert found == expected
    assert not {w for w, _ in workers} & set(parallel._pool[1]._processes)


def running(pid) -> bool:
    """Whether process `pid` exists and has not exited (a zombie has)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):  # reaped meanwhile
        return False


POOL_SCRIPT = """
import multiprocessing, os, sys, time
from prelie import parallel
from prelie.algebras import apex_algebra
from prelie.fields import make_field
from prelie.rota_baxter import enumerate_rb_operators


def parents(args):
    time.sleep(0.01)
    return [os.getppid()]


if __name__ == "__main__":
    method, then = sys.argv[1:]
    multiprocessing.set_start_method(method)
    parallel.os.cpu_count = lambda: 2
    parallel.SCAN_BUDGET = 0
    print(repr(enumerate_rb_operators(apex_algebra(make_field("gf3"), 3), 1,
                                      workers=2)))
    print(*parallel._pool[1]._processes)
    # The forkserver, if the workers were forked from one.
    print(*set(parallel.run_chunks(parents, (), 8, 2)) - {os.getpid()},
          flush=True)
    if then == "wait":
        # A forked child that outlives the script, as a command's own
        # children may: the workers must not wait for it too.
        child = os.fork()
        if child == 0:
            time.sleep(60)
            os._exit(0)
        print(child, flush=True)
        time.sleep(60)
"""

START_METHODS = ["fork", "spawn", "forkserver"]


def start_pool_script(tmp_path, method, then):
    """The script above, run in a new interpreter: it prints a scan at two
    workers, the pids of its pool's workers and those of their parent if
    that is not the script, then exits, or forks a child, prints its pid
    and waits."""
    script = tmp_path / "pool_script.py"
    script.write_text(POOL_SCRIPT)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return subprocess.Popen([sys.executable, str(script), method, then],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, text=True)


def read_pool_script(proc):
    found = proc.stdout.readline().strip()
    workers, helpers = ([int(pid) for pid in proc.stdout.readline().split()]
                        for _ in range(2))
    return found, workers, helpers


def workers_gone(workers, timeout) -> bool:
    """Whether every pid in `workers` exits within `timeout` s; any left
    running after that are killed."""
    deadline = time.monotonic() + timeout
    while any(running(pid) for pid in workers):
        if time.monotonic() > deadline:
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)
            return False
        time.sleep(0.05)
    return True


@pytest.mark.parametrize("method", START_METHODS)
def test_no_pool_worker_outlives_the_interpreter(tmp_path, method):
    proc = start_pool_script(tmp_path, method, "exit")
    found, workers, helpers = read_pool_script(proc)
    assert proc.wait(timeout=60) == 0
    proc.stdout.close()
    assert found == repr(enumerate_rb_operators(A3, 1))
    assert workers
    assert workers_gone(workers, timeout=0)
    assert workers_gone(helpers, timeout=10)


@pytest.mark.parametrize("method", START_METHODS)
def test_pool_workers_exit_when_their_parent_is_killed(tmp_path, method):
    proc = start_pool_script(tmp_path, method, "wait")
    try:
        found, workers, helpers = read_pool_script(proc)
        child = [int(pid) for pid in proc.stdout.readline().split()]
    finally:
        # Not communicate(): workers left running would hold stdout open.
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
    try:
        assert found == repr(enumerate_rb_operators(A3, 1))
        assert workers and child
        assert workers_gone(workers, timeout=10)
    finally:
        for pid in child:
            os.kill(pid, signal.SIGKILL)
    # A fork server lives as long as any process it forked.
    assert workers_gone(helpers, timeout=10)


# ------------------------------------------------ beyond brute-force reach

def orthogonal_group_order(m, q):
    """|O(m, q)| for the dot-product form on GF(q)^m, q odd (Taylor, The
    Geometry of the Classical Groups, 1992).  For odd m = 2k + 1 it is
    2 q^(k^2) prod_{i=1..k} (q^(2i) - 1); for even m = 2k it is
    2 q^(k(k-1)) (q^k - e) prod_{i=1..k-1} (q^(2i) - 1), where e = 1 when
    (-1)^k is a square in GF(q) (the form is split) and e = -1 otherwise."""
    k = m // 2
    if m % 2:
        order = 2 * q ** (k * k)
    else:
        e = 1 if k % 2 == 0 or q % 4 == 1 else -1
        order = 2 * q ** (k * (k - 1)) * (q ** k - e)
    for i in range(1, k + (m % 2)):
        order *= q ** (2 * i) - 1
    return order


@pytest.mark.parametrize("spec,n,expected", [
    ("gf5", 3, 8), ("gf7", 3, 16), ("gf3", 4, 48), ("gf9", 3, 16),
    ("gf11", 3, 24), ("gf13", 3, 24)])
def test_automorphism_counts_equal_the_orthogonal_group_order(spec, n,
                                                              expected):
    F = make_field(spec)
    A = apex_algebra(F, n)
    assert orthogonal_group_order(n - 1, F.order) == expected
    found = enumerate_automorphisms(A, cap=F.order ** (n * n))
    assert len(found) == expected
    assert all(is_automorphism(A, M).ok for M in found)


@pytest.mark.parametrize("spec,m", [("gf5", 3), ("gf7", 3), ("gf3", 4)])
def test_orthogonal_counts_equal_the_orthogonal_group_order(spec, m):
    F = make_field(spec)
    found = enumerate_orthogonal(F, m, cap=F.order ** (m * m))
    assert len(found) == orthogonal_group_order(m, F.order)
    assert all(is_orthogonal(F, Q) for Q in found)


def test_the_field_tables_count_against_the_cap():
    A = apex_algebra(make_field("gf101"), 1)
    with pytest.raises(CapError, match="10201 field table entries"):
        enumerate_rb_operators(A, 0, cap=10 ** 4)
    F = A.field
    for w in (F.zero, F.one):
        assert enumerate_rb_operators(A, w, cap=10 ** 5) == [
            M for M in enumerate_matrices(F, 1, 1)
            if residuals_vanish(F, rb_residuals(A, M, w))]


def test_operator_set_gf5_n3_weight1():
    A = apex_algebra(GF5, 3)
    w = GF5.one
    ops = enumerate_rb_operators(A, w)
    assert len(ops) == 62
    assert all(residuals_vanish(GF5, rb_residuals(A, R, w)) for R in ops)
    opset = set(ops)
    assert zero_matrix(GF5, 3, 3) in opset
    assert mat_scale(GF5, GF5.neg(w), identity_matrix(GF5, 3)) in opset
    assert {reflect_operator(GF5, R, w) for R in ops} == opset
