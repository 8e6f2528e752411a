"""Regenerate ``references.json`` from one job per workload at DEFAULT_SEED.

    python3 hostbench/make_references.py

Run only when the simulated program's outputs are meant to change; the
benchmark compares every job against these values exactly.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    refs = {}
    tmpdir = Path(tempfile.mkdtemp(prefix=".hostbench-", dir=workloads.ROOT))
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, workloads.DEFAULT_SEED, tmpdir, refs={})
            refs[name] = wl.observed(wl.run())
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
