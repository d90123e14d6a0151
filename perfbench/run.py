#!/usr/bin/env python3
"""Benchmark for prelie.

    python3 perfbench/run.py --workload suite|scan|verify|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from `src/` of the checkout
that holds this directory.  One run starts a fresh interpreter, builds the
workload's fields and algebras (`setup_s`), makes its inputs from the seed
outside the timed region, then serves requests in a closed loop with one
client for `--seconds`, checking every output.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, with `--trace 1` its per-layer metrics, taken from a
separate traced pass (see layers.py).  `--workload all` runs the three
workloads one after the other, each in its own interpreter.

Spans and full results are written under `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("suite", "scan", "verify")
SETUP_PROBES = 10  # fresh interpreters timed for setup_s, before and after


def fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def machine() -> dict:
    from layers import usable_cpus
    return {"nproc": usable_cpus(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg": os.getloadavg()}


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are 10
    samples or fewer."""
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return (ordered[index], 100.0 * (index + 1) / len(ordered),
            len(ordered) - 1 - index)


def measure(wl, requests: list, seconds: float | None = None,
            tracer=None) -> dict:
    """Serve requests in order, cycling, until `seconds` have passed (at
    least one request), or exactly one pass when `seconds` is None."""
    latencies, items, attempted, failed, output = [], 0, 0, 0, None
    start = time.perf_counter()
    i = 0
    while (i < len(requests) if seconds is None
           else i == 0 or time.perf_counter() - start < seconds):
        request = requests[i % len(requests)]
        if tracer is not None:
            tracer.request = i
        i += 1
        ops = wl.ops(request)
        attempted += ops
        try:
            dt, output = wl.serve(request)
        except Exception as exc:  # a request that raises is a failed op
            print(f"request {i - 1} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed += ops
            continue
        latencies.append(dt)
        items += wl.items(request)
        failed += wl.check(request, output)
    return {"latencies": latencies, "busy": sum(latencies), "items": items,
            "attempted": attempted, "failed": failed, "output": output}


def end_to_end(wl, requests, seconds) -> tuple[dict, dict, dict]:
    run = measure(wl, requests, seconds)
    lat = run["latencies"] or [float("nan")]
    value, pct, beyond = tail(lat)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = wl.workers if wl.workers > 1 else 0
    metrics = {
        "peak_rss_mb": (self_kb + workers * child_kb) / 1024,
        "throughput_per_s": run["items"] / run["busy"] if run["busy"] else 0.0,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * value,
    }
    info = {"requests": len(run["latencies"]), "tail_percentile": pct,
            "samples_beyond_tail": beyond, "busy_s": run["busy"],
            "items": run["items"], "latencies_s": run["latencies"]}
    return run, metrics, info


def traced(wl, requests, seed, workload) -> tuple[dict, dict, dict]:
    import layers
    from tracer import Tracer

    micro = layers.microbenchmarks(seed)
    pool_s = layers.pool_start_s()
    parallel_workers = wl.workers
    wl.workers = 1
    before = measure(wl, requests)
    parallel_s = 0.0
    if parallel_workers > 1:
        wl.workers = parallel_workers
        parallel_s = measure(wl, requests)["busy"]
        wl.workers = 1
    span_tracer = Tracer()
    layers.install_spans(span_tracer)
    try:
        spanned = measure(wl, requests, tracer=span_tracer)
    finally:
        span_tracer.uninstall()
    # Untraced passes on both sides of the span pass, so that a drift in
    # the machine's speed does not read as tracing overhead.
    after = measure(wl, requests)
    untraced_s = (before["busy"] + after["busy"]) / 2
    count_tracer = Tracer()
    layers.install_spans(count_tracer)
    layers.install_counters(count_tracer)
    try:
        counted = measure(wl, requests, tracer=count_tracer)
    finally:
        count_tracer.uninstall()
    wl.workers = parallel_workers

    report = None
    if workload == "suite" and spanned["output"] is not None:
        report = json.loads(spanned["output"][1])
    from workloads import load_reference
    names = [c["name"] for c in load_reference()["suite"]]
    metrics = layers.summarise(span_tracer, count_tracer, report, names)
    metrics.update(micro)
    metrics["parallel.pool_start_s"] = pool_s
    metrics["parallel.speedup"] = (untraced_s / parallel_s if parallel_s
                                   else 0.0)
    metrics["trace.overhead_s"] = spanned["busy"] - untraced_s
    metrics["trace.counter_overhead_s"] = counted["busy"] - untraced_s
    OUT.mkdir(exist_ok=True)
    span_tracer.counts.update(count_tracer.counts)
    span_tracer.dump(OUT / f"trace-{workload}-seed{seed}.json")
    runs = (before, spanned, after, counted)
    total = {"attempted": sum(r["attempted"] for r in runs),
             "failed": sum(r["failed"] for r in runs)}
    info = {"untraced_s": [before["busy"], after["busy"]],
            "parallel_s": parallel_s, "spans_s": spanned["busy"],
            "counters_s": counted["busy"], "spans": len(span_tracer.spans)}
    return total, metrics, info


def setup_samples(workload: str) -> list[float]:
    """Set-up times of fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               workload], capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def run_one(args, spec: dict) -> int:
    load_start = os.getloadavg()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import prelie
    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    setup_own = time.perf_counter() - t0
    if Path(prelie.__file__).resolve().parent != SRC / "prelie":
        fail(f"prelie was imported from {prelie.__file__}, not from {SRC}")
    from layers import usable_cpus
    if args.workload == "scan":
        wl.workers = min(2, usable_cpus())
    setups = [setup_own]
    wl.reference = workloads.load_reference().get(args.workload)
    t1 = time.perf_counter()
    requests = wl.make_inputs(args.seed)
    inputs_s = time.perf_counter() - t1

    if args.trace:
        totals, metrics, info = traced(wl, requests, args.seed, args.workload)
        listed = spec["per_layer"]
    else:
        # Fresh set-ups before and after the timed loop, so that their
        # median spans the run rather than a second or two of it.
        setups += setup_samples(args.workload)
        totals, metrics, info = end_to_end(wl, requests, args.seconds)
        setups += setup_samples(args.workload)
        metrics["setup_s"] = statistics.median(setups)
        listed = spec["end_to_end"]
    names = [m["name"] for m in listed]
    if sorted(metrics) != sorted(names):
        fail(f"metrics differ from BENCHMARK.json: computed "
             f"{sorted(set(metrics) ^ set(names))}", 1)

    info.update({"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "trace": args.trace,
                 "setup_samples_s": setups, "inputs_s": inputs_s,
                 "machine": machine(), "loadavg_start": load_start})
    correct = totals["failed"] == 0
    result = {"correct": correct, "attempted": totals["attempted"],
              "failed": totals["failed"],
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                      "unit": m["unit"]} for m in listed}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"info": info, "result": result}, indent=1))
    info.pop("latencies_s", None)
    print(json.dumps({"info": info}))
    layers = (json.loads((HERE / "layers.json").read_text()) if args.trace
              else {})
    notes = {"throughput_per_s": f"{wl.item_is} per second",
             "latency_p50_ms": f"median of {info.get('requests')} requests, "
                               f"a request being {wl.request_is}",
             "latency_tail_ms": f"p{info.get('tail_percentile', 0):.1f}, "
                                f"{info.get('samples_beyond_tail')} samples "
                                f"beyond it",
             "setup_s": f"median of {len(setups)} set-ups",
             "peak_rss_mb": "this process plus its workers"}
    for m in listed:
        value = metrics[m["name"]]
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        where = layers.get(m["name"])
        note = (f"  [{where['layer']}; moves {where['moves']}]" if where
                else f"  [{notes.get(m['name'], '')}]")
        print(f"{args.workload} {m['name']} = {text} {m['unit']}{note}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    code = 0
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1]) if lines else None
        code = code or done.returncode
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        fail(f"{bench} is missing")
    spec = json.loads(bench.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "prelie" / "__init__.py").is_file():
        fail(f"no prelie sources under {SRC}")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(HERE))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
