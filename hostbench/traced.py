"""The traced run: untraced and traced jobs alternate, in this process.

Each traced job installs the layer wrappers, runs, and restores them. The
run checks that tracing leaves the simulated program alone:

- every traced job's exact counts (engine counters, ``virtual_time``,
  per-layer calls) equal the first traced job's, and the engine counts
  equal the untraced jobs';
- per-layer self times plus ``sim.handoff_s`` plus ``other`` add up to the
  traced job time exactly;
- after the run, every patched attribute holds its original value.

A job failing any of these counts as failed.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from typing import Optional

from layers import LAYERS, LayerTrace, snapshot_sites

#: Layers whose call counts are reported as ``<layer>.calls``.
CALL_LAYERS = ("gpu", "mpi", "gpuccl", "hardware", "core", "obs")


def _traced_job(wl, trace: LayerTrace) -> tuple:
    """One traced job: (output, sample) where sample holds its accounting."""
    trace.install()
    try:
        trace.reset()
        out = wl.run_inprocess()
        total_ns = trace.clock.finish()
    finally:
        trace.uninstall()
    clock = trace.clock
    sample = {
        "total_ns": total_ns,
        "self_ns": {layer: clock.self_ns.get(layer, 0) for layer in LAYERS},
        "handoff_ns": clock.handoff_ns,
        "other_ns": clock.other_ns,
        "open_spans": clock.open_spans(),
        "exact": {
            "counts": wl.counts(out),
            "calls": dict(sorted(trace.calls.items())),
            "layer_counts": dict(sorted(trace.counts.items())),
            "generate_unique": len(trace.generate_keys),
        },
    }
    return out, sample


def _sample_problem(sample: dict, first: dict, untraced_counts) -> Optional[str]:
    parts = sum(sample["self_ns"].values()) + sample["handoff_ns"] + sample["other_ns"]
    if parts != sample["total_ns"]:
        return f"self times sum to {parts} ns, job took {sample['total_ns']} ns"
    if sample["open_spans"]:
        return f"{sample['open_spans']} spans left open"
    if sample["exact"] != first["exact"]:
        return "exact counts differ between traced jobs"
    if untraced_counts is not None and sample["exact"]["counts"] != untraced_counts:
        return "traced counts differ from the untraced job's"
    return None


def run_traced(wl, seconds: float) -> tuple:
    before = snapshot_sites()
    trace = LayerTrace()
    tally = {"attempted": 0, "failed": 0}
    untraced_s, samples = [], []
    untraced_counts = None

    def record(problem):
        tally["attempted"] += 1
        if problem is not None:
            tally["failed"] += 1
            print(f"check failed: {problem}", file=sys.stderr)

    rounds = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or rounds < 2:
        rounds += 1
        try:
            t1 = time.perf_counter()
            out = wl.run_inprocess()
            dt = time.perf_counter() - t1
            problem = wl.problem(out)
            if problem is None:
                untraced_s.append(dt)
                untraced_counts = untraced_counts or wl.counts(out)
            record(problem)
            out = None
            gc.collect()
            out, sample = _traced_job(wl, trace)
            problem = wl.problem(out)
            if problem is None:
                problem = _sample_problem(sample, samples[0] if samples else sample,
                                          untraced_counts)
            if problem is None:
                samples.append(sample)
            record(problem)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            traceback.print_exc()
            record("job raised")
        out = None
        gc.collect()
    if trace.installed() or snapshot_sites() != before:
        record("layer wrappers left patched after the run")
    return tally, _metrics(samples, untraced_s), {
        "untraced_job_s": untraced_s,
        "traced_job_s": [s["total_ns"] / 1e9 for s in samples],
        "exact": samples[0]["exact"] if samples else None,
    }


def _metrics(samples: list, untraced_s: list) -> dict:
    """Per-layer metrics: exact counts of the first traced job, medians of
    the host times over traced jobs. Layers a workload never enters read 0."""
    def med_s(key) -> float:
        return statistics.median(key(s) for s in samples) / 1e9 if samples else 0.0

    exact = samples[0]["exact"] if samples else {"counts": {}, "calls": {},
                                                 "layer_counts": {}, "generate_unique": 0}
    counts, calls, extra = exact["counts"], exact["calls"], exact["layer_counts"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for key in ("timers_fired", "switches", "inline_resumes", "wakeups"):
        put(f"sim.{key}", counts.get(key, 0), "count")
    inline, switches = counts.get("inline_resumes", 0), counts.get("switches", 0)
    put("sim.inline_ratio", inline / (inline + switches) if inline + switches else 0.0,
        "ratio")
    put("sim.handoff_s", med_s(lambda s: s["handoff_ns"]), "s")
    put("gpu.bytes_written", extra.get("gpu.bytes_written", 0), "bytes")
    put("mpi.msgs", counts.get("mpi_msgs", 0), "count")
    put("mpi.bytes", counts.get("mpi_bytes", 0), "bytes")
    for key in ("selects", "generate_calls", "cost_calls"):
        put(f"coll.{key}", extra.get(f"coll.{key}", 0), "count")
    put("coll.generate_unique", exact["generate_unique"], "count")
    for layer in CALL_LAYERS:
        put(f"{layer}.calls", calls.get(layer, 0), "count")
    for layer in LAYERS:
        put(f"{layer}.self_s", med_s(lambda s, layer=layer: s["self_ns"][layer]), "s")
    put("other.self_s", med_s(lambda s: s["other_ns"]), "s")
    traced = med_s(lambda s: s["total_ns"])
    put("trace.overhead", traced / statistics.median(untraced_s) if untraced_s else 0.0,
        "ratio")
    return out
