"""The benchmark's three workloads: suite, scan and verify.

Each workload builds its fields and algebras in `__init__` (the set-up
that `setup_s` times), makes its requests from the seed in `make_inputs`,
serves one request in `serve` (timed there, and only there), and checks
the output in `check`, outside the timed region.  A request is what a
user waits for: one `verify-theorems --suite all` run, one pass that
enumerates every scan case, or one verification request.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

from prelie import cli
from prelie import linalg as la
from prelie import rota_baxter as rb
from prelie import symmetry as sym
from prelie.algebras import apex_algebra
from prelie.fields import make_field

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    """Outputs recorded at seed 0 by make_reference.py."""
    return json.loads(REFERENCE.read_text())


# Every complete operator set, for every weight, of these (field, n), plus
# the automorphisms of GF(3) n=3: the largest cases brute force finishes
# in seconds.
SCAN_OPERATOR_CASES = (("gf3", 3), ("gf9", 2), ("gf11", 2), ("gf5", 2),
                       ("gf7", 2))
SCAN_AUTOMORPHISM_CASES = (("gf3", 3),)

# Operators over a small prime, a large prime, Q(i) and Q; derivation
# requests over the two characteristic-0 fields.
VERIFY_FIELDS = ("gf13", "gf101", "qi", "q")
VERIFY_DIMS = range(3, 9)
VERIFY_GENUINE_PER_CASE = 6
DERIVATION_FIELDS = ("q", "qi")
DERIVATION_DIMS = (4, 5, 6)
DERIVATIONS_PER_CASE = 5


def matrix_digest(F, matrices) -> str:
    text = json.dumps([[[F.format(e) for e in row] for row in M]
                       for M in matrices])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def orthogonal_group_order(m: int, q: int) -> int:
    """|O(m, q)| for the dot-product form on GF(q)^m, q odd (Taylor, The
    Geometry of the Classical Groups, 1992)."""
    if m == 0:
        return 1
    k = m // 2
    if m % 2:
        order = 2 * q ** (k * k)
        for i in range(1, k + 1):
            order *= q ** (2 * i) - 1
        return order
    # Even m: the form is split exactly when (-1)^k is a square in GF(q).
    eps = 1 if (k % 2 == 0 or q % 4 == 1) else -1
    order = 2 * q ** (k * (k - 1)) * (q ** k - eps)
    for i in range(1, k):
        order *= q ** (2 * i) - 1
    return order


def _scalar(F, rng):
    """A random scalar: uniform over a finite field, and with small integer
    coordinates over Q and Q(i).  The cost of exact rational arithmetic
    grows with the size of the numbers, so sizes drawn from a wide range
    would make the cost of the inputs depend on the seed."""
    if F.is_finite:
        return F.random(rng)
    small = lambda: F.from_int(rng.randint(-3, 3))
    if F.kind == "quadratic":
        return F.add(small(), F.mul(small(), (F.base.zero, F.base.one)))
    return small()


def _nonzero(F, rng):
    while True:
        x = _scalar(F, rng)
        if x != F.zero:
            return x


class Workload:
    name = ""
    request_is = ""  # what one request, timed by the latency metrics, is
    item_is = ""  # what the throughput metric counts per second
    workers = 1
    reference: dict | None = None  # this workload's part of reference.json

    def make_inputs(self, seed: int) -> list:
        raise NotImplementedError

    def serve(self, request):
        """Run one request; return (timed seconds, output)."""
        raise NotImplementedError

    def ops(self, request) -> int:
        """Ops a request attempts, for the attempted and failed counts."""
        return 1

    def check(self, request, output) -> int:
        """Ops that failed in one served request."""
        raise NotImplementedError

    def items(self, request) -> int:
        """Units of work a request decides, for the throughput metric."""
        return 1


# ------------------------------------------------------------------- suite

class Suite(Workload):
    """`verify-theorems --suite all` at the default config, in-process
    through the CLI entry point."""

    name = "suite"
    request_is = "one verify-theorems --suite all run"
    item_is = "checks"

    def __init__(self):
        self.fields = [make_field(s) for s in ("q", "qi", "gf3", "gf5")]
        self.algebras = [apex_algebra(F, n) for F in self.fields
                         for n in range(1, 5)]

    def make_inputs(self, seed):
        return [["verify-theorems", "--suite", "all", "--seed", str(seed)]]

    def serve(self, argv):
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return time.perf_counter() - t0, (code, buf.getvalue())

    def check(self, argv, output):
        code, text = output
        expected = self.reference
        try:
            checks = json.loads(text)["checks"]
        except (ValueError, KeyError):
            return len(expected)
        # Compare only the recorded keys, so that reports may gain keys.
        got = {c.get("name"): c for c in checks}
        failed = sum(1 for ref in expected
                     if {k: got.get(ref["name"], {}).get(k)
                         for k in ref} != ref)
        if code != 0 or len(checks) != len(expected):
            failed = max(failed, 1)
        return failed

    def ops(self, argv):
        return len(self.reference)

    items = ops


# -------------------------------------------------------------------- scan

class Scan(Workload):
    """Each complete set enumerated once per pass, at `workers` processes.
    One request is one pass over every case."""

    name = "scan"
    request_is = "one pass that enumerates every set"
    item_is = "candidate matrices decided"

    def __init__(self, workers: int = 1):
        self.workers = workers
        self.cases = []
        for kind, specs in (("rb", SCAN_OPERATOR_CASES),
                            ("aut", SCAN_AUTOMORPHISM_CASES)):
            for spec, n in specs:
                F = make_field(spec)
                self.cases.append((kind, spec, n, F, apex_algebra(F, n)))
        self._rechecked: set[tuple[str, str]] = set()

    def make_inputs(self, seed):
        order = list(self.cases)
        random.Random(seed).shuffle(order)
        return [order]

    def serve(self, cases):
        total = 0.0
        out = []
        for kind, spec, n, F, A in cases:
            if kind == "aut":
                t0 = time.perf_counter()
                found = sym.enumerate_automorphisms(A, workers=self.workers)
                total += time.perf_counter() - t0
                out.append((f"aut/{spec}/{n}", F, A, None, found))
                continue
            for w in F.elements():
                t0 = time.perf_counter()
                found = rb.enumerate_rb_operators(A, w, workers=self.workers)
                total += time.perf_counter() - t0
                out.append((f"rb/{spec}/{n}/w={F.format(w)}", F, A, w, found))
        return total, out

    def check(self, cases, output):
        failed = 0
        for key, F, A, w, found in output:
            ref = self.reference.get(key)
            digest = matrix_digest(F, found)
            ok = ref == {"count": len(found), "digest": digest}
            if w is None:
                ok = ok and len(found) == orthogonal_group_order(
                    A.dim - 1, F.order)
            if ok and (key, digest) not in self._rechecked:
                residuals = ((lambda M: sym.automorphism_residuals(A, M))
                             if w is None else
                             (lambda M: rb.rb_residuals(A, M, w)))
                ok = all(v == F.zero for M in found for _, v in residuals(M))
                if ok:
                    self._rechecked.add((key, digest))
            failed += not ok
        return failed

    def ops(self, cases):
        return sum(F.order if kind == "rb" else 1
                   for kind, spec, n, F, A in cases)

    def items(self, cases):
        return sum(F.order ** (n * n) * (F.order if kind == "rb" else 1)
                   for kind, spec, n, F, A in cases)


# ------------------------------------------------------------------ verify

class Verify(Workload):
    """A closed loop with one client: the `rb-verify` pipeline on genuine
    and perturbed operators, and derivation-algebra requests."""

    name = "verify"
    request_is = "one verification request"
    item_is = "requests"

    def __init__(self):
        self.fields = {s: make_field(s) for s in VERIFY_FIELDS}
        self.algebras = {(s, n): apex_algebra(F, n)
                         for s, F in self.fields.items() for n in VERIFY_DIMS}
        for s in DERIVATION_FIELDS:
            for n in DERIVATION_DIMS:
                self.algebras.setdefault((s, n),
                                         apex_algebra(self.fields[s], n))

    def make_inputs(self, seed):
        rng = random.Random(seed)
        requests = []
        for s in VERIFY_FIELDS:
            for n in VERIFY_DIMS:
                F, A = self.fields[s], self.algebras[(s, n)]
                for j in range(VERIFY_GENUINE_PER_CASE):
                    R, w = self._genuine(F, A, j, rng)
                    requests.append(("rb", s, n, R, w, True))
                    bad = self._perturb(F, R, j % n, rng)
                    label = all(v == F.zero
                                for _, v in rb.rb_residuals(A, bad, w))
                    requests.append(("rb", s, n, bad, w, label))
        for s in DERIVATION_FIELDS:
            for n in DERIVATION_DIMS:
                requests += ([("der", s, n, None, None, True)]
                             * DERIVATIONS_PER_CASE)
        rng.shuffle(requests)
        return requests

    def _genuine(self, F, A, j, rng):
        """The j-th operator of a case, Rota-Baxter by construction, and its
        weight.  The constructions available for the case take turns, first
        as built and then reflected, so that the mix of request costs does
        not depend on the seed; the seed draws the scalars and the
        coordinates."""
        n = A.dim
        i = F.sqrt(F.neg(F.one))
        kinds = ["zero", "minus_weight"]
        if i is not None:
            kinds.append("splitting")
            if n == 4:
                kinds.append("skew_pairing")
        target = F.inv(F.sub(F.from_int(2), F.from_int(n)))
        if F.sqrt(target) is not None:
            kinds.append("isotropic_column")
        kind = kinds[j % len(kinds)]
        if kind == "zero":
            w = _scalar(F, rng)
            R = la.zero_matrix(F, n, n)
        elif kind == "minus_weight":
            w = _nonzero(F, rng)
            R = la.mat_scale(F, F.neg(w), la.identity_matrix(F, n))
        elif kind == "splitting":
            w = _nonzero(F, rng)
            R = self._splitting(F, A, i, w, 1 + j % ((n - 1) // 2), rng)
        elif kind == "skew_pairing":
            w = F.zero
            R = rb.skew_pairing_operator(F)
        else:
            w = F.zero
            R = rb.isotropic_column_operator(F, n)
        if (j // len(kinds)) % 2:
            R = rb.reflect_operator(F, R, w)
        return R, w

    @staticmethod
    def _splitting(F, A, i, w, k, rng):
        """The splitting operator of Span{b_n} + W and a k-dimensional
        totally isotropic U in the hyperplane, with W a complement of U
        there.  (Swapping the two parts gives the reflection.)"""
        n = A.dim
        coords = list(range(n - 1))
        rng.shuffle(coords)
        U, W = [], []
        for t in range(k):
            p, q = coords[2 * t], coords[2 * t + 1]
            u = [F.zero] * n
            u[p] = F.one
            u[q] = i if rng.random() < 0.5 else F.neg(i)
            U.append(tuple(u))
            W.append(la.basis_vector(F, n, q if rng.random() < 0.5 else p))
        W += [la.basis_vector(F, n, c) for c in coords[2 * k:]]
        W = [la.vadd(F, x, la.vscale(F, _scalar(F, rng), rng.choice(U)))
             for x in W]
        part1 = la.span(F, n, W + [la.basis_vector(F, n, n - 1)])
        return rb.splitting_operator(A, part1, la.span(F, n, U), w)

    @staticmethod
    def _perturb(F, R, r, rng):
        """R with entry (r, 0) changed by a random nonzero amount.  An entry
        of the first column breaks the identity at the first basis pairs,
        so these requests take the checker's cheap reject path, apart from
        the accept path, whatever the seed."""
        rows = [list(row) for row in R]
        rows[r][0] = F.add(rows[r][0], _nonzero(F, rng))
        return tuple(tuple(row) for row in rows)

    def serve(self, request):
        kind, s, n, R, w, label = request
        F, A = self.fields[s], self.algebras[(s, n)]
        t0 = time.perf_counter()
        if kind == "der":
            rep = sym.derivation_skew_correspondence(A)
            out = (rep.ok, rep.details["dim"])
        elif not rb.is_rb_operator(A, R, w).ok:
            out = (False,)
        else:
            case = rb.classify_case(A, R, w).details["case"]
            iso = rb.square_isotropy_check(A, R, w, verify=False).ok
            cert = (None if F.is_zero(w)
                    else rb.splitting_certificate(A, R, w).ok)
            out = (True, case, iso, cert)
        return time.perf_counter() - t0, out

    def check(self, request, output):
        kind, s, n, R, w, label = request
        if kind == "der":
            ok = output == (True, (n - 1) * (n - 2) // 2)
        elif not label:
            ok = output == (False,)
        else:
            cert = None if self.fields[s].is_zero(w) else True
            ok = (len(output) == 4 and output[0] and output[2]
                  and output[3] is cert)
        return int(not ok)


WORKLOADS = {"suite": Suite, "scan": Scan, "verify": Verify}
