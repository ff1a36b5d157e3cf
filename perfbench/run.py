"""k3lat benchmark: run one workload for one seed and print its metrics.

usage: python3 perfbench/run.py --workload {complements,glue,h3,cli}
                                --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; k3lat is imported from ./src.
One client sends queries in a closed loop (the next query goes out when
the last one has returned) in whole rounds of a fixed mix; the run ends
with the round in which the busy time reaches S seconds, or later if it
has fewer than 11 queries by then.
Every answer is checked against the references in reference.py; a wrong
answer, an unexpected exit code or an exception counts as a failure.

Timings are corrected for the speed of the host, which on a shared VM
drifts by 20% and more from minute to minute: around every timed interval
the runner times a fixed pure-Python probe loop, and reports the interval
as wall time x PROBE_REF_S / probe time, that is, in seconds of a host on
which the probe takes PROBE_REF_S.  The human-readable lines also give
the uncorrected wall-clock figures.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same
rounds untraced and then traced, with spans around the public functions
of every k3lat module, and reports the per-layer metrics; the spans are
written to .perfbench_out/ when the run ends.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import tracer as tr
from workloads import ROOT, SRC, WORKLOADS, child_env

MIN_QUERIES = 11
PROBE_REF_S = 0.003  # the probe's time on the reference host
SETUP_RUNS = 11
IMPORT_RUNS = 5
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    qid: int
    label: str
    seconds: float  # host-corrected
    wall: float
    ok: bool


# -- measurement -------------------------------------------------------------


def probe_seconds() -> float:
    """The host's current speed: the fastest of three runs of a fixed
    integer loop that allocates nothing the garbage collector tracks
    (2.7-3.7 ms on the 2-vCPU host the benchmark was tuned on)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def corrected(wall: float, probe_before: float, probe_after: float) -> float:
    """Wall time in seconds of the reference host (see the module doc)."""
    return wall * PROBE_REF_S / ((probe_before + probe_after) / 2)


def measure_setup() -> list:
    """Host-corrected wall time of fresh interpreters that import k3lat and
    load the shipped records; one discarded warm-up run compiles the
    bytecode."""
    cmd = [sys.executable, "-c", "import k3lat; k3lat.shipped_records()"]
    times = []
    for i in range(SETUP_RUNS + 1):
        before = probe_seconds()
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"cannot import k3lat from {SRC}:\n{proc.stderr}")
        if i:
            times.append(corrected(elapsed, before, probe_seconds()))
    return times


def measure_imports() -> dict:
    """Median cumulative import time of k3lat and of numpy (0 when k3lat no
    longer imports it), read from ``python -X importtime``."""
    found = {"k3lat": [], "numpy": []}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import k3lat"],
                              cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {name: statistics.median(v) for name, v in found.items()}


def closed_loop(wl, rounds, seconds, tracer=None):
    """Run whole rounds until ``seconds`` of busy time and MIN_QUERIES
    queries are reached; with ``seconds`` None run every given round.
    Returns (samples, rounds used)."""
    samples, used, busy = [], [], 0.0
    for rnd in rounds:
        used.append(rnd)
        for q in rnd:
            qid = len(samples)
            wl.prepare(q, WORK_DIR)
            if tracer is not None:
                tracer.qid = qid
            before = probe_seconds()
            start = time.perf_counter()
            try:
                answer = wl.run(q, qid)
            except Exception:  # a query that raises is a failed query
                answer = None
                error = traceback.format_exc(limit=3)
            else:
                error = None
            elapsed = time.perf_counter() - start
            host_s = corrected(elapsed, before, probe_seconds())
            ok = error is None and _checked(wl, q, answer)
            if not ok:
                print(f"FAILED {wl.name} query {qid} ({q.label}): {error or 'wrong answer'}",
                      file=sys.stderr)
            samples.append(Sample(qid, q.label, host_s, elapsed, ok))
            busy += elapsed
        if seconds is not None and busy >= seconds and len(samples) >= MIN_QUERIES:
            break
    return samples, used


def _checked(wl, q, answer) -> bool:
    try:
        return bool(wl.check(q, answer))
    except (KeyError, TypeError, ValueError, AttributeError, IndexError):
        return False  # a malformed answer


def tail(latencies):
    """(value, percentile): the highest whole percentile, by nearest rank,
    with at least ten samples above it."""
    lat = sorted(latencies)
    n = len(lat)
    pct = (100 * (n - 10)) // n
    return lat[math.ceil(pct * n / 100) - 1], pct


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(samples, setup, in_process):
    lat = [s.seconds for s in samples]
    tail_s, pct = tail(lat)
    values = {
        "setup_s": statistics.median(setup),
        "throughput_qps": sum(s.ok for s in samples) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": tail_s * 1000.0,
        "peak_rss_mb": peak_rss_mb(in_process),
    }
    notes = {
        "latency_tail_ms": f"p{pct} of {len(lat)} samples",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of this process" if in_process
        else "largest ru_maxrss among child processes",
    }
    return values, notes


# -- the two kinds of run ----------------------------------------------------


def run_untraced(wl, rng, seconds):
    setup = measure_setup()
    samples, used = closed_loop(wl, wl.rounds(rng), seconds)
    values, notes = end_to_end(samples, setup, wl.in_process)
    failed = sum(not s.ok for s in samples)
    lines = [f"{wl.name}: {len(samples)} queries in {len(used)} round(s), {failed} failed"]
    for name, unit in END_TO_END_UNITS.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<16} {values[name]:>12.4f} {unit}{note}")
    lines.append(f"  {'failed_ratio':<16} {failed / len(samples):>12.4f} ratio"
                 f"  ({failed} of {len(samples)})")
    wall = [s.wall for s in samples]
    lines.append(f"  uncorrected: throughput {sum(s.ok for s in samples) / sum(wall):.4f} 1/s, "
                 f"p50 {statistics.median(wall) * 1000.0:.1f} ms; host at "
                 f"{sum(s.seconds for s in samples) / sum(wall):.3f} of reference speed")
    by_kind = {}
    for s in samples:
        by_kind.setdefault(s.label.split(":")[0], []).append(s.seconds * 1000.0)
    kinds = sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1]))
    lines.append("  median ms by kind: " + ", ".join(
        f"{kind} {statistics.median(ms):.1f}" for kind, ms in kinds))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return samples, metrics, lines


def run_traced(wl, rng, seconds, label):
    base, used = closed_loop(wl, wl.rounds(rng), seconds)
    tracer = tr.Tracer()
    if wl.in_process:
        tracer.install()
        try:
            traced, _ = closed_loop(wl, used, None, tracer)
        finally:
            tracer.uninstall()
        spans, wrapped = tracer.spans, tracer.wrapped
    else:
        span_dir = os.path.join(WORK_DIR, "spans")
        os.makedirs(span_dir, exist_ok=True)
        wl.span_dir = span_dir
        try:
            traced, _ = closed_loop(wl, used, None)
        finally:
            wl.span_dir = None
        spans, wrapped = [], set()
        for s in traced:
            path = os.path.join(span_dir, f"spans-{s.qid}.json")
            if os.path.exists(path):
                more, names = tr.read_spans(path)
                spans.extend(more)
                wrapped |= names
        tracer.spans, tracer.wrapped = spans, wrapped
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{label}.json"))

    values, absent = tr.aggregate(spans, wrapped, len(traced))
    imports = measure_imports()
    values["cli.import.k3lat_s"] = imports["k3lat"]
    values["cli.import.numpy_s"] = imports["numpy"]
    qps = [sum(s.ok for s in run) / sum(s.seconds for s in run) for run in (base, traced)]
    values["trace.overhead_ratio"] = qps[1] / qps[0]

    units = tr.metric_units()
    lines = [f"{wl.name} traced: {len(traced)} queries traced, {len(spans)} spans, "
             f"spans in {os.path.relpath(OUT_DIR, ROOT)}/spans-{label}.json"]
    for name, unit in units.items():
        lines.append(f"  {name:<44} {values[name]:>14.6g} {unit}")
    if absent:
        lines.append(f"  absent from the program: {', '.join(absent)}")
    labels = {s.qid: s.label for s in traced}
    for qid, (cand, surv) in sorted(tr.filter_counts(spans).items()):
        lines.append(f"  query {qid} {labels[qid]}: {cand} candidates, {surv} survivors")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return base + traced, metrics, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "k3lat", "__init__.py")):
        print(f"perfbench: no k3lat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import k3lat.cli  # noqa: F401  in-process workloads pay the import once, untimed

    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload]()
        rng = random.Random(args.seed)
        if args.trace:
            samples, metrics, lines = run_traced(wl, rng, args.seconds,
                                                 f"{args.workload}-{args.seed}")
        else:
            samples, metrics, lines = run_untraced(wl, rng, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    failed = sum(not s.ok for s in samples)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
