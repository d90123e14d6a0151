"""Per-layer measurements for the traced run.

Three kinds of numbers, all from the benchmark's own code:

* microbenchmarks of single calls into `fields`, `algebras` and `linalg`,
  in ns per call after a warm-up;
* a `parallel` probe: `run_chunks` on a one-item range at two workers;
* spans and counters from a traced pass of the workload (see tracer.py),
  summarised into the metrics listed in layers.json.

Spans go around the layer boundaries (the CLI, the suite runner, the scans,
the operator checkers, `run_chunks`, rref and kernel).  Counters go on the
hot scalar and vector calls, whose per-call cost a span would swamp; they
are installed in a separate pass so that span times stay close to the
untraced ones.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from prelie import cli, parallel, suites
from prelie import linalg as la
from prelie import rota_baxter as rb
from prelie import symmetry as sym
from prelie.algebras import Algebra, apex_algebra
from prelie.fields import PrimeField, QuadraticField, RationalField, make_field

from tracer import END, INFO, NAME, START, Tracer

SCANS = ("rota_baxter.enumerate_rb_operators",
         "symmetry.enumerate_automorphisms")
CHUNK = "parallel.chunk"


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ----------------------------------------------------------- microbenchmarks

def _ns_per_call(fn, calls: list[tuple], repeats: int = 7) -> float:
    for args in calls:
        fn(*args)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for args in calls:
            fn(*args)
        samples.append((time.perf_counter_ns() - t0) / len(calls))
    return statistics.median(samples)


def microbenchmarks(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    out = {}
    for spec, size in (("gf5", 20000), ("q", 4000), ("qi", 1000)):
        F = make_field(spec)
        pairs = [(F.random(rng), F.random(rng)) for _ in range(size)]
        out[f"fields.mul.ns.{spec}"] = _ns_per_call(F.mul, pairs)
    for spec, size in (("gf5", 3000), ("q", 300), ("qi", 80)):
        F = make_field(spec)
        A = apex_algebra(F, 4)
        pairs = [(la.random_vector(F, 4, rng), la.random_vector(F, 4, rng))
                 for _ in range(size)]
        out[f"algebras.multiply.ns.{spec}_n4"] = _ns_per_call(A.multiply,
                                                              pairs)
    for spec, size in (("gf5", 1000), ("q", 60)):
        F = make_field(spec)
        calls = [(F, la.random_matrix(F, 4, 4, rng),
                  la.random_matrix(F, 4, 4, rng)) for _ in range(size)]
        out[f"linalg.mat_mul.ns.{spec}_4x4"] = _ns_per_call(la.mat_mul, calls)
    F = make_field("q")
    calls = [(F, la.random_matrix(F, 8, 8, rng)) for _ in range(20)]
    out["linalg.rref.ns.q_8x8"] = _ns_per_call(la.rref, calls)
    return out


# ------------------------------------------------------------- pool probe

def probe_chunk(args) -> list:
    """A picklable chunk function that does no work."""
    start, stop = args
    return list(range(start, stop))


def pool_start_s(repeats: int = 5) -> float:
    """Median time of `run_chunks` on a one-item range at two workers:
    starting the pool, one round trip and shutting it down.  0 where
    fewer than two CPUs are usable, since the probe never asks for more
    workers than that."""
    workers = min(2, usable_cpus())
    if workers < 2:
        return 0.0
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        if parallel.run_chunks(probe_chunk, (), 1, workers) != [0]:
            raise RuntimeError("pool probe returned a wrong result")
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


# -------------------------------------------------------- instrumentation

def _scan_info(args, kwargs, result) -> dict:
    A = args[0]
    w = args[1] if len(args) > 1 else kwargs.get("weight")
    F = A.field
    return {"set": repr((F.descriptor(), sorted(A.table.items()),
                         None if w is None else F.format(w))),
            "candidates": F.order ** (A.dim * A.dim),
            "found": len(result)}


def install_spans(tr: Tracer) -> None:
    tr.span(cli, "main", "cli.main")
    tr.span(suites, "run_suite", "suites.run_suite")
    tr.span(rb, "enumerate_rb_operators", SCANS[0], info=_scan_info)
    tr.span(sym, "enumerate_automorphisms", SCANS[1], info=_scan_info)
    for module, attr in ((rb, "is_rb_operator"), (rb, "classify_case"),
                         (rb, "square_isotropy_check"),
                         (rb, "splitting_certificate"),
                         (sym, "derivation_skew_correspondence"),
                         (la, "rref"), (la, "kernel")):
        tr.span(module, attr, f"{module.__name__.split('.')[-1]}.{attr}")

    original = parallel.run_chunks

    def run_chunks(chunk_fn, common_args, total, workers=1):
        # At one worker the chunks run here, so their time can be given
        # back to the scan that asked for them; a wrapped chunk function
        # could not be sent to a worker process anyway.
        if workers == 1:
            chunk_fn = tr.wrap(CHUNK, chunk_fn)
        return original(chunk_fn, common_args, total, workers)

    tr.rebind(original, tr.wrap("parallel.run_chunks", run_chunks))


def install_counters(tr: Tracer) -> None:
    tr.count(Algebra, "multiply", "algebras.multiply.calls")
    tr.count(la, "mat_vec", "linalg.mat_vec.calls")
    tr.count(la, "decode_matrix", "linalg.decode_matrix.calls")
    for cls, kind in ((PrimeField, "prime"), (RationalField, "rational"),
                      (QuadraticField, "quadratic")):
        for op in ("mul", "add"):
            tr.count(cls, op, f"fields.{op}.calls.{kind}")


# ----------------------------------------------------------------- summary

def summarise(spans: Tracer, counters: Tracer, suite_report: dict | None,
              check_names: list[str]) -> dict[str, float]:
    """Per-layer metrics from the span pass and the counter pass.  A metric
    whose layer the workload never enters reads 0."""
    S = spans.spans
    own = spans.self_times()
    self_s: dict[str, float] = {}
    for i, s in enumerate(S):
        name = s[NAME]
        if name == CHUNK:  # chunk work belongs to the scan that split it
            scan = spans.ancestor(i, SCANS)
            name = S[scan][NAME] if scan >= 0 else name
        self_s[name] = self_s.get(name, 0.0) + own[i]
    calls = spans.calls()
    total = spans.totals()

    m: dict[str, float] = {}
    elapsed = {c["name"]: c["elapsed"]
               for c in (suite_report or {}).get("checks", [])}
    for name in check_names:
        m[f"suites.check_s.{name}"] = elapsed.get(name, 0.0)

    suite_scans = [i for i, s in enumerate(S) if s[NAME] in SCANS
                   and spans.ancestor(i, ("suites.run_suite",)) >= 0]
    rb_calls = [i for i in suite_scans if S[i][NAME] == SCANS[0]]
    m["suites.rb_enumerate_calls"] = len(rb_calls)
    m["suites.rb_enumerate_distinct"] = len({S[i][INFO]["set"]
                                             for i in rb_calls})
    m["suites.enumerate_reuse_ratio"] = (
        m["suites.rb_enumerate_distinct"] / len(rb_calls) if rb_calls else 0.0)
    suite_scan_s = sum(S[i][END] - S[i][START] for i in suite_scans)
    run_suite_s = total.get("suites.run_suite", 0.0)
    m["suites.scan_share"] = suite_scan_s / run_suite_s if run_suite_s else 0.0

    scans = [s for s in S if s[NAME] in SCANS]
    candidates = sum(s[INFO]["candidates"] for s in scans)
    found = sum(s[INFO]["found"] for s in scans)
    m["scan.candidates"] = candidates
    m["scan.found"] = found
    m["scan.accept_ratio"] = found / candidates if candidates else 0.0
    m["scan.us_per_candidate"] = (
        1e6 * sum(total.get(n, 0.0) for n in SCANS) / candidates
        if candidates else 0.0)
    for name in SCANS:
        m[f"{name}.s"] = self_s.get(name, 0.0)

    m["rota_baxter.is_rb_operator.calls"] = calls["rota_baxter.is_rb_operator"]
    for name in ("rota_baxter.is_rb_operator", "rota_baxter.classify_case",
                 "rota_baxter.square_isotropy_check",
                 "rota_baxter.splitting_certificate",
                 "symmetry.derivation_skew_correspondence",
                 "parallel.run_chunks", "linalg.rref", "linalg.kernel"):
        m[f"{name}.s"] = self_s.get(name, 0.0)
    m["parallel.run_chunks.calls"] = calls["parallel.run_chunks"]
    m["linalg.rref.calls"] = calls["linalg.rref"]
    m["linalg.kernel.calls"] = calls["linalg.kernel"]
    m["cli.emit_s"] = self_s.get("cli.main", 0.0)

    for key in ("algebras.multiply.calls", "linalg.mat_vec.calls",
                "linalg.decode_matrix.calls"):
        m[key] = counters.counts[key]
    for op in ("mul", "add"):
        for kind in ("prime", "rational", "quadratic"):
            key = f"fields.{op}.calls.{kind}"
            m[key] = counters.counts[key]
    return m
