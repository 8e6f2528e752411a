"""Output checks feed the failure count."""

import run
import workloads


def test_perturbed_reference_fails_every_job(tmp_path):
    refs = workloads.load_references()
    refs["jacobi_live"]["virtual_time"] *= 1 + 1e-12
    wl = workloads.make("jacobi_live", workloads.DEFAULT_SEED, tmp_path, refs=refs)
    tally, metrics, _ = run.run_timed(wl, 0.01)
    assert tally["attempted"] == 2  # one timed job and the validation job
    assert tally["failed"] == tally["attempted"]
    assert metrics["ok_frac"]["value"] == 0.0


def test_committed_references_pass(tmp_path):
    wl = workloads.make("jacobi_live", workloads.DEFAULT_SEED, tmp_path)
    tally, metrics, _ = run.run_timed(wl, 0.01)
    assert tally == {"attempted": 2, "failed": 0}
    assert metrics["ok_frac"]["value"] == 1.0
