"""The benchmark's four workloads: inputs, one job, and the job's checks.

Every job of a workload has one fixed shape, so a percentile over jobs
compares like with like. ``README.md`` in this directory gives the reason
for each workload. The workload seed reaches only generated inputs: the CG
matrix and right-hand side. ``DEFAULT_SEED`` is checked against the exact
committed references in ``references.json``; any other seed is checked
against the serial numerics and for determinism between jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"

DEFAULT_SEED = 7
#: Relative 2-norm error allowed between a CG solution and x_true or the
#: serial solution (both runs converge to ~1e-16 in 200 iterations).
CG_TOL = 1e-12


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program.

    Raises when the package is missing or resolves outside this checkout.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"repro resolved outside {SRC}: {repro.__file__}")


def load_references() -> Dict[str, Any]:
    with open(REFERENCES) as fh:
        return json.load(fh)


def _engine_counts(report) -> Dict[str, Any]:
    """Exact counts one simulated job produces; tracing must not move them."""
    stats = report.stats
    return {
        "virtual_time": stats["virtual_time"],
        "timers_fired": stats["timers_fired"],
        "switches": stats["switches"],
        "inline_resumes": stats["inline_resumes"],
        "wakeups": stats["wakeups"],
        "mpi_msgs": int(report.metrics.counter_total("mpi_messages_total")),
        "mpi_bytes": int(report.metrics.counter_total("mpi_bytes_total")),
    }


class Workload:
    """One workload: set up in the constructor, then jobs back to back.

    ``observed(out)`` is what must equal the references exactly;
    ``problem(out)`` adds numeric checks and returns a description of the
    first failed check, or None.
    """

    name = ""
    #: Which host-speed reference scales this workload's times (run.py).
    reference = "python"

    def __init__(self, seed: int, refs: Dict[str, Any], tmpdir: Path):
        self.expected: Optional[Dict[str, Any]] = refs.get(self.name)

    def run(self) -> Any:
        raise NotImplementedError

    def run_inprocess(self) -> Any:
        """The job as the traced run executes it (in this process)."""
        return self.run()

    def observed(self, out) -> Dict[str, Any]:
        raise NotImplementedError

    def counts(self, out) -> Dict[str, Any]:
        """Exact counts compared between traced and untraced jobs."""
        return _engine_counts(out)

    def problem(self, out) -> Optional[str]:
        got = self.observed(out)
        if self.expected is None:
            self.expected = got
        elif got != self.expected:
            return f"{self.name}: observed {got} != expected {self.expected}"
        return None

    def validate(self) -> Optional[str]:
        """An untimed check after the timed phase; None when there is none."""
        return None

    def has_validation(self) -> bool:
        return type(self).validate is not Workload.validate

    def reset_peak_rss(self) -> None:
        """Restart this process's peak-resident-memory counter (VmHWM)."""
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")

    def job_peak_rss_mb(self) -> float:
        """Peak resident memory since the last reset_peak_rss()."""
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc/self/status")


class OsuBw(Workload):
    """2-rank windowed bandwidth through uniconn:mpi, 4 MiB x window 64."""

    name = "osu_bw"
    # Host time is payload copies through a working set near the size of
    # the shared L3, so memory bandwidth, not bytecode speed, drifts it.
    reference = "memory"

    def __init__(self, seed, refs, tmpdir):
        super().__init__(seed, refs, tmpdir)
        import repro.launcher
        from repro.apps.osu import OsuConfig
        from repro.apps.osu.bandwidth import BANDWIDTH_VARIANTS

        self.cfg = OsuConfig(sizes=(4 << 20,), window=64, iters_large=8, warmup_large=1,
                             repeats=1)
        # Looked up per job, so a traced job sees the wrapped launch.
        self._launcher = repro.launcher
        self._fn = BANDWIDTH_VARIANTS["uniconn:mpi"]

    def run(self):
        return self._launcher.launch(self._fn, 2, machine="perlmutter", args=(self.cfg,),
                                     obs="metrics", capture="off", coll=None)

    def observed(self, out):
        return {"bandwidth": {str(k): v for k, v in out[0].items()},
                "virtual_time": out.stats["virtual_time"]}


class JacobiLive(Workload):
    """64-rank live Jacobi through uniconn:mpi on a 64x66 grid."""

    name = "jacobi_live"

    def __init__(self, seed, refs, tmpdir):
        super().__init__(seed, refs, tmpdir)
        from repro.apps import jacobi

        self._jacobi = jacobi
        self.cfg = jacobi.JacobiConfig(nx=64, ny=66, iters=36, warmup=4)

    def run(self, collect: bool = False):
        return self._jacobi.launch_variant("uniconn:mpi", self.cfg, 64, collect=collect,
                                           obs="metrics", capture="off", coll=None)

    def observed(self, out):
        return {"virtual_time": out.stats["virtual_time"],
                "timers_fired": out.stats["timers_fired"]}

    def validate(self):
        import numpy as np

        out = self.run(collect=True)
        problem = self.problem(out)
        if problem is not None:
            return problem
        ref = self._jacobi.serial_jacobi(self.cfg, iters=self.cfg.warmup + self.cfg.iters)
        if not np.array_equal(self._jacobi.assemble(self.cfg, out), ref):
            return "jacobi_live: grid differs from serial_jacobi"
        return None


class CgColl(Workload):
    """8-rank CG through uniconn:gpuccl with coll="auto"; seed -> matrix."""

    name = "cg_coll"

    def __init__(self, seed, refs, tmpdir):
        super().__init__(seed, refs, tmpdir)
        from repro.apps import cg

        self._cg = cg
        self.cfg = cg.CgConfig(n=4096, nnz_per_row=33, iters=200, seed=seed)
        self.problem_data = cg.make_problem(self.cfg)
        if seed != DEFAULT_SEED:
            # The first job's exact counts become the reference for the rest.
            self.expected = None
        self.first_x: Optional[Any] = None

    def run(self):
        return self._cg.launch_variant("uniconn:gpuccl", self.cfg, 8, problem=self.problem_data,
                                       collect=True, obs="metrics", capture="off", coll="auto")

    def observed(self, out):
        counters = out.metrics.as_dict()["counters"]
        return {"virtual_time": out.stats["virtual_time"],
                "coll_selected_total": {k: v for k, v in counters.items()
                                        if k.startswith("coll_selected_total")}}

    def counts(self, out):
        return {**_engine_counts(out), **self.observed(out)}

    def problem(self, out):
        import numpy as np

        x = self._cg.assemble_x(out, self.cfg.n)
        x_true = self.problem_data.x_true
        err = float(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))
        if not err <= CG_TOL:
            return f"cg_coll: relative error to x_true {err:.3e} > {CG_TOL:g}"
        if self.first_x is None:
            self.first_x = x
        elif not np.array_equal(x, self.first_x):
            return "cg_coll: solution differs bitwise from the first job's"
        return super().problem(out)

    def validate(self):
        import numpy as np

        if self.first_x is None:
            return "cg_coll: no job completed to validate"
        x_serial, _ = self._cg.serial_cg(self.problem_data, self.cfg.iters)
        err = float(np.linalg.norm(self.first_x - x_serial) / np.linalg.norm(x_serial))
        if not err <= CG_TOL:
            return f"cg_coll: relative difference to serial_cg {err:.3e} > {CG_TOL:g}"
        return None


class TuneColl(Workload):
    """`repro tune --coll --gpus 64 --dump`, one fresh process per job."""

    name = "tune_coll"

    def __init__(self, seed, refs, tmpdir):
        super().__init__(seed, refs, tmpdir)
        from repro.coll import CollTuner

        self._tuner = CollTuner
        self.dump = tmpdir / "coll_table.json"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in self.env.get("PYTHONPATH", "").split(os.pathsep) if p])

    def _digest(self) -> str:
        with open(self.dump, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def run(self):
        if self.dump.exists():
            self.dump.unlink()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "tune", "--coll", "--gpus", "64",
             "--dump", str(self.dump)],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            raise RuntimeError(f"tune_coll child exited with {proc.returncode}")
        return self._digest()

    def run_inprocess(self):
        if self.dump.exists():
            self.dump.unlink()
        self._tuner("perlmutter", 64).build_table().save(str(self.dump))
        return self._digest()

    def observed(self, out):
        return {"dump_sha256": out}

    def counts(self, out):
        return self.observed(out)

    def reset_peak_rss(self):
        self.child_rss_mb = 0.0

    def job_peak_rss_mb(self):
        """Peak resident memory of the job's child process."""
        return self.child_rss_mb


WORKLOADS = {cls.name: cls for cls in (OsuBw, JacobiLive, CgColl, TuneColl)}


def make(name: str, seed: int, tmpdir: Path, refs: Optional[Dict[str, Any]] = None) -> Workload:
    """Import the program, build the workload's inputs and load references."""
    import_program()
    if refs is None:
        refs = load_references()
    return WORKLOADS[name](seed, refs, tmpdir)
