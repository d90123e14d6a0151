"""The exact scan engine and its process pool.

The differential tests hold every scan to a filter over the plain
enumeration, so a scan that drops a matrix fails as surely as one that
admits a wrong one.  Beyond the reach of that filter, automorphism counts
are held to the closed-form order of the orthogonal group.
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
from prelie.fields import make_field
from prelie.linalg import (enumerate_matrices, identity_matrix,
                           is_invertible, mat_scale, zero_matrix)
from prelie.rota_baxter import (enumerate_rb_operators, is_rb_operator,
                                rb_residual_report, reflect_operator)
from prelie.symmetry import (automorphism_residual_report,
                             enumerate_automorphisms, is_automorphism)

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
                if rb_residual_report(A, M, w).ok]
    assert enumerate_rb_operators(A, w) == expected


@pytest.mark.parametrize("spec,n", [("gf3", 2), ("gf5", 2), ("gf3", 3)])
def test_automorphism_scan_matches_residual_filter(spec, n):
    F = make_field(spec)
    A = apex_algebra(F, n)
    expected = [M for M in enumerate_matrices(F, n, n)
                if automorphism_residual_report(A, M).ok
                and is_invertible(F, M)]
    assert enumerate_automorphisms(A) == expected


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
                if rb_residual_report(A, M, w).ok]
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
    """No pool before or after the test, and CPUs to start one on."""
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
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
    except FileNotFoundError:
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


@pytest.mark.parametrize("spec,n,expected", [("gf5", 3, 8), ("gf7", 3, 16),
                                             ("gf3", 4, 48)])
def test_automorphism_counts_equal_the_orthogonal_group_order(spec, n,
                                                              expected):
    F = make_field(spec)
    A = apex_algebra(F, n)
    assert orthogonal_group_order(n - 1, F.order) == expected
    found = enumerate_automorphisms(A, cap=10 ** 8)
    assert len(found) == expected
    assert all(is_automorphism(A, M).ok for M in found)


def test_operator_set_gf5_n3_weight1():
    A = apex_algebra(GF5, 3)
    w = GF5.one
    ops = enumerate_rb_operators(A, w)
    assert len(ops) == 62
    assert all(rb_residual_report(A, R, w).ok for R in ops)
    opset = set(ops)
    assert zero_matrix(GF5, 3, 3) in opset
    assert mat_scale(GF5, GF5.neg(w), identity_matrix(GF5, 3)) in opset
    assert {reflect_operator(GF5, R, w) for R in ops} == opset
