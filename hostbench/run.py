"""Benchmark runner: one workload as a closed loop with one client.

    python3 hostbench/run.py --workload jacobi_live --seed 7 --seconds 25 --trace 0

Runs identical jobs back to back for ``--seconds``, checks every job's
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced jobs and
reports the per-layer split (see ``layers.py`` and ``README.md``). The line
before it records the run's context: CPU affinity, ``nproc``, the Python
version, the raw job and set-up seconds and the reference timings.

Host speed on a shared machine drifts by tens of percent within minutes.
A fixed reference workload is timed before every job and after the last;
the time metrics are reported at a nominal host speed, on which the
reference takes its ``nominal_s``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

#: Setup is repeated this many times in fresh processes after the timed
#: phase; ``setup_s`` is the median of these and this process's own.
SETUP_PROBES = 4
#: Environment overrides the program honours; cleared so every run
#: measures the same configuration.
PINNED_ENV = ("REPRO_COLL_TABLE", "REPRO_SIM_FASTPATH")


def pin_to_one_cpu() -> int:
    """Pin to one CPU: the engine runs one simulated task at a time, and
    unpinned cross-core thread handoffs make job times bimodal."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class PythonReference:
    """A fixed pure-Python loop: tracks the host's bytecode speed."""

    #: Seconds it takes on the nominal host the time metrics are scaled to.
    nominal_s = 0.010

    def _work(self) -> int:
        table = {}
        acc = 0
        for i in range(40000):
            acc = (acc * 1103515245 + i) & 0x7FFFFFFF
            table[acc & 1023] = i
        return acc + len(table)

    def seconds(self) -> float:
        """Best of three timings."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        return best


class MemoryReference(PythonReference):
    """A fixed 128 MiB array copy: tracks the host's memory bandwidth."""

    nominal_s = 0.008

    def __init__(self):
        import numpy as np

        self._src = np.ones(16 << 20)
        self._dst = np.ones(16 << 20)
        self._copyto = np.copyto

    def _work(self) -> None:
        self._copyto(self._dst, self._src)


REFERENCES = {"python": PythonReference, "memory": MemoryReference}


def _allocator_reset():
    """glibc's ``malloc_trim``, or a no-op elsewhere.

    Called between jobs: it returns freed heap pages to the kernel, so every
    job starts from the same allocator state. Without it a job's peak memory
    depends on which malloc arena earlier jobs' threads left their freed
    payload buffers in (``osu_bw`` peaks at either ~810 or ~930 MiB).
    """
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    return lambda: trim(0)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _attempt(fn):
    """Run one job; returns (output, seconds) or (None, None) if it raised."""
    try:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0
    except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
        traceback.print_exc()
        return None, None


def _note(problem: str) -> None:
    print(f"check failed: {problem}", file=sys.stderr)


def _validate(wl, tally: dict) -> None:
    if not wl.has_validation():
        return
    tally["attempted"] += 1
    try:
        problem = wl.validate()
    except Exception:  # noqa: BLE001
        traceback.print_exc()
        problem = "validation raised"
    if problem is not None:
        tally["failed"] += 1
        _note(problem)


def run_timed(wl, seconds: float) -> tuple:
    """Jobs back to back for ``seconds``.

    Job ``k`` is scaled by the mean of the workload's reference timings
    just before and just after it; its interval (job, check, teardown and
    garbage collection, up to the next reference timing) feeds
    ``jobs_per_s``. The peak-memory counter restarts before every job.
    """
    reference = REFERENCES[wl.reference]()
    reset_allocator = _allocator_reset()
    tally = {"attempted": 0, "failed": 0}
    job_s, interval_s, ref_s, passed, peak_mb = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        if job_s:
            interval_s.append(r0 - j0)
        ref_s.append(reference.seconds())
        if r0 - t0 >= seconds:
            break
        tally["attempted"] += 1
        wl.reset_peak_rss()
        j0 = time.perf_counter()
        out, dt = _attempt(wl.run)
        peak = wl.job_peak_rss_mb()
        problem = "job raised" if dt is None else wl.problem(out)
        if problem is None:
            passed.append(len(job_s))
            peak_mb.append(peak)
        else:
            tally["failed"] += 1
            _note(problem)
        job_s.append(dt)
        out = None
        gc.collect()
        reset_allocator()
    _validate(wl, tally)
    ref_job = [(a + b) / 2 for a, b in zip(ref_s, ref_s[1:])]
    rel = [job_s[k] / ref_job[k] for k in passed]
    nominal = reference.nominal_s
    nominal_busy = sum(t * nominal / r for t, r in zip(interval_s, ref_job))
    metrics = {
        "job_s.p50": _metric(nominal * statistics.median(rel) if rel else 0.0, "s"),
        "job_rel.p50": _metric(statistics.median(rel) if rel else 0.0, "ratio"),
        "jobs_per_s": _metric(len(passed) / nominal_busy if nominal_busy else 0.0, "1/s"),
        "peak_rss_mb": _metric(statistics.median(peak_mb) if peak_mb else 0.0, "MiB"),
        "ok_frac": _metric((tally["attempted"] - tally["failed"]) / tally["attempted"],
                           "ratio"),
    }
    context = {"reference": wl.reference, "raw_job_s": job_s, "raw_interval_s": interval_s,
               "ref_s": ref_s, "job_peak_rss_mb": peak_mb,
               "raw_job_s.p50": statistics.median(job_s[k] for k in passed) if passed else None}
    return tally, metrics, context


def setup_probe(workload: str, seed: int) -> tuple:
    """(set-up seconds, reference seconds) of a fresh runner process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["ref_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    tmpdir = Path(tempfile.mkdtemp(prefix=".hostbench-", dir=workloads.ROOT))
    try:
        wl = workloads.make(args.workload, args.seed, tmpdir)
        setup_s = time.perf_counter() - T_START
        setup_ref_s = PythonReference().seconds()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "ref_s": setup_ref_s}))
            return 0
        if args.trace:
            import traced

            tally, metrics, context = traced.run_traced(wl, args.seconds)
        else:
            tally, metrics, context = run_timed(wl, args.seconds)
            setups = [(setup_s, setup_ref_s)]
            setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = _metric(statistics.median(
                s * PythonReference.nominal_s / r for s, r in setups), "s")
            context["raw_setup_s"] = setups
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    context.update(workload=args.workload, seed=args.seed, cpu=cpu,
                   affinity=sorted(os.sched_getaffinity(0)), nproc=os.cpu_count(),
                   python=platform.python_version())
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
