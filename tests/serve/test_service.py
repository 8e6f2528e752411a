"""JobService end-to-end: caching, bit-identity, dedup, queue loop, CLI."""

import io
import json

import pytest

from repro.serve import JobService, JobSpec, ResultStore
from repro.serve.runner import execute_job
from repro.serve.service import parse_queue_line

#: Small-but-real specs: two ranks, 16x18 grid, a handful of iterations.
SPECS = [
    JobSpec(app="jacobi", backend="mpi", ranks=2, size=16, iters=2),
    JobSpec(app="jacobi", backend="gpuccl", ranks=2, size=16, iters=2),
]


def test_fresh_run_then_full_cache_hit(tmp_path):
    first = JobService(ResultStore(tmp_path), jobs=2, retries=0)
    fresh = first.run(SPECS)
    assert all(d["status"] == "done" for d in fresh)
    assert first.summary()["jobs"]["done"] == 2
    assert first.summary()["cache"]["hits"] == 0

    # A brand-new service over the same store: 100% cache hits, no pool.
    second = JobService(ResultStore(tmp_path), jobs=2, retries=0)
    cached = second.run(SPECS)
    assert second.summary()["cache"]["hits"] == 2
    assert second.summary()["jobs"]["done"] == 0  # nothing executed
    for f, c in zip(fresh, cached):
        assert c["config_hash"] == f["config_hash"]


def test_cached_result_bit_identical_to_fresh(tmp_path):
    """The cached document body equals an independent fresh execution."""
    spec = SPECS[0]
    svc = JobService(ResultStore(tmp_path), jobs=1, retries=0)
    (doc,) = svc.run([spec])
    fresh = execute_job(spec.to_dict())
    # The envelope stamps (wall_s, attempts, stored_at_unix) are run
    # metadata; everything the simulation produced must match bit-for-bit.
    body = {k: v for k, v in doc.items()
            if k not in ("wall_s", "attempts", "stored_at_unix")}
    assert json.dumps(body, sort_keys=True) == json.dumps(fresh, sort_keys=True)

    (cached,) = JobService(ResultStore(tmp_path)).run([spec])
    cached_body = {k: v for k, v in cached.items()
                   if k not in ("wall_s", "attempts", "stored_at_unix")}
    assert json.dumps(cached_body, sort_keys=True) == \
        json.dumps(fresh, sort_keys=True)


def test_in_batch_duplicates_run_once(tmp_path):
    svc = JobService(ResultStore(tmp_path), jobs=2, retries=0)
    spec = SPECS[0]
    same = JobSpec.from_dict(dict(reversed(list(spec.to_dict().items()))))
    docs = svc.run([spec, same, spec])
    assert svc.summary()["jobs"]["done"] == 1  # one execution
    assert svc.summary()["cache"]["hits"] == 2  # two dedup-served copies
    assert docs[0] is docs[1] is docs[2] or all(
        d["config_hash"] == docs[0]["config_hash"] for d in docs)


def test_timeout_fails_job_without_poisoning_batch(tmp_path):
    """A job killed by the per-job timeout surfaces as failed while the
    rest of the batch completes; the failure is persisted but never
    served as a cache hit."""
    big = JobSpec(app="jacobi", backend="mpi", ranks=4, size=256, iters=400)
    events = []
    svc = JobService(ResultStore(tmp_path), jobs=2, timeout=0.05, retries=1,
                     events=events.append)
    docs = svc.run([big, SPECS[0]])
    # With a 50ms budget the large job cannot finish; the small one can
    # only complete (it shares the same tight timeout, so tolerate both).
    assert docs[0]["status"] == "failed"
    assert docs[0]["error_kind"] == "timeout"
    assert docs[0]["attempts"] == 2  # one retry, counted
    assert svc.summary()["retries"] >= 1
    assert svc.summary()["worker_respawns"] >= 1
    # The stored failure is a miss next time -> the job would rerun.
    assert ResultStore(tmp_path).get(big.config_hash()) is None
    assert ResultStore(tmp_path).peek(big.config_hash())["status"] == "failed"


def test_serve_loop_once_drains_queue_file(tmp_path):
    queue = tmp_path / "queue.jsonl"
    queue.write_text(
        "# comment lines and blanks are skipped\n"
        "\n"
        + json.dumps(SPECS[0].to_dict()) + "\n"
        + json.dumps({"sweep": {"backend": ["mpi", "gpuccl"]},
                      "defaults": {"app": "jacobi", "ranks": 2,
                                   "size": 16, "iters": 2}}) + "\n")
    svc = JobService(ResultStore(tmp_path / "store"), jobs=2, retries=0)
    n = svc.serve_loop(queue, once=True)
    assert n == 3
    # The sweep's mpi point duplicates the plain line -> one execution.
    assert svc.summary()["jobs"]["done"] == 2
    assert len(ResultStore(tmp_path / "store")) == 2


def test_parse_queue_line_shapes():
    (one,) = parse_queue_line(json.dumps({"app": "jacobi", "size": 32}))
    assert one.size == 32
    many = parse_queue_line(json.dumps(
        {"sweep": {"size": [16, 32]}, "defaults": {"app": "cg"}}))
    assert [s.size for s in many] == [16, 32]
    with pytest.raises(ValueError):
        parse_queue_line("[1, 2]")


# --------------------------------------------------------------------- #
# CLI verbs


def run_cli(argv):
    from repro.cli import main

    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_cli_submit_sweep_twice_then_jobs_table(tmp_path):
    store = str(tmp_path / "store")
    sweep = ["submit", "--store", store, "--jobs", "2", "--quiet",
             "--size", "16", "--iters", "2", "--gpus", "2",
             "--sweep", "app=jacobi", "backend=mpi,gpuccl"]
    code, text = run_cli(sweep)
    assert code == 0
    assert "2 job(s): 2 executed, 0 cache hit(s)" in text
    assert text.count("ok ") == 2

    code, text = run_cli(sweep)
    assert code == 0
    assert "2 job(s): 0 executed, 2 cache hit(s)" in text

    code, text = run_cli(["jobs", "--store", store])
    assert code == 0
    assert "2 job(s)" in text and text.count(" done ") >= 2

    code, text = run_cli(["jobs", "--store", store, "--failed"])
    assert code == 0 and "no jobs" in text


def test_cli_submit_json_and_serve_once(tmp_path):
    store = str(tmp_path / "store")
    out_json = str(tmp_path / "docs.json")
    code, text = run_cli(["submit", "--store", store, "--quiet",
                          "--app", "jacobi", "--gpus", "2",
                          "--size", "16", "--iters", "2",
                          "--json", out_json])
    assert code == 0
    with open(out_json) as fh:
        docs = json.load(fh)
    assert len(docs) == 1 and docs[0]["status"] == "done"

    queue = tmp_path / "q.jsonl"
    queue.write_text(json.dumps({"app": "jacobi", "ranks": 2,
                                 "size": 16, "iters": 2}) + "\n")
    code, text = run_cli(["serve", "--store", store, "--quiet",
                          "--queue", str(queue), "--once"])
    assert code == 0
    assert "1 job(s): 0 executed, 1 cache hit(s)" in text
