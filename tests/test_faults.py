"""Deterministic fault injection and the recovery paths it exercises.

Covers repro.sim.faults end to end: spec parsing, seeded reproducibility,
link outages/degradation, MPI retransmission with exponential backoff and
``MpiTimeoutError`` exhaustion, rank crashes detected via GPUCCL
``async_error_query``/``abort``, straggler GPUs, watchdog timeouts, timed
signal waits, and the checkpoint/rollback Jacobi harness converging to the
exact fault-free answer under injected faults.
"""

import numpy as np
import pytest

from repro.apps.jacobi import (
    JacobiConfig,
    assemble,
    launch_variant,
    serial_jacobi,
)
from repro.backends.gpuccl import GpucclComm, get_unique_id
from repro.backends.gpushmem import ShmemContext
from repro.backends.mpi import MpiContext
from repro.errors import (
    DeadlockError,
    FaultInjectionError,
    GpucclError,
    MpiTimeoutError,
    SimTimeoutError,
)
from repro.hardware import Link
from repro.launcher import launch
from repro.sim import Engine, FaultInjector, FaultPlan, LinkFault, MessageFault

CFG = JacobiConfig(nx=64, ny=66, iters=12, warmup=2)

# A drop window on the application's tag-0 halo traffic that outlives the
# default retransmission budget only when the budget is tightened -- the
# MPI collectives run on negative internal tags and stay reliable.
TRANSIENT_DROPS = "drop,tag=0,start=2e-5,end=6e-5"
HARSH_DROPS = "drop,tag=0,start=1e-4,end=6e-4;retry,base=1e-5,max=2"


# --------------------------------------------------------------------------- #
# FaultPlan.parse
# --------------------------------------------------------------------------- #


def test_parse_all_clause_kinds():
    plan = FaultPlan.parse(
        "down,link=nic-out[0],start=1e-3,end=2e-3;"
        "degrade,link=nvlink*,factor=4,start=0,end=1;"
        "drop,src=0,dst=1,tag=0,p=0.5,start=0,end=1e-3;"
        "corrupt,src=1,p=0.25;"
        "crash,rank=2,at=5e-4;"
        "straggler,gpu=1,factor=2;"
        "retry,base=3e-5,max=4;"
        "watchdog,timeout=0.5"
    )
    assert plan.link_faults[0].kind == "down"
    assert plan.link_faults[1] == LinkFault("nvlink*", 0.0, 1.0, "degrade", 4.0)
    assert plan.message_faults[0] == MessageFault("drop", 0, 1, 0, 0.0, 1e-3, 0.5)
    assert plan.message_faults[1].dst is None  # omitted filter = any
    assert plan.crashes[0].rank == 2 and plan.crashes[0].at == 5e-4
    assert plan.stragglers[0].factor == 2.0
    assert plan.retry_base == 3e-5 and plan.max_retries == 4
    assert plan.watchdog == 0.5
    assert not plan.empty()
    assert FaultPlan.parse("").empty()
    assert FaultPlan().empty()


@pytest.mark.parametrize(
    "spec",
    [
        "frobnicate,x=1",  # unknown kind
        "crash,at=1e-3",  # missing required field
        "drop,tag=zero",  # bad value
        "down,link=x,start=2,end=1",  # empty window
        "drop,p=0",  # probability out of range
        "straggler,gpu=0,factor=0.5",  # speedup is not a fault
        "drop,tag",  # malformed field
        "crash,rank=1,at=0,color=red",  # unknown field
    ],
)
def test_parse_rejects_bad_specs(spec):
    with pytest.raises(FaultInjectionError):
        FaultPlan.parse(spec)


# --------------------------------------------------------------------------- #
# Link faults (hardware layer).
# --------------------------------------------------------------------------- #


def test_link_outage_delays_transfers():
    healthy = Link("l", latency=1e-6, bandwidth=1e9)
    faulty = Link("l", latency=1e-6, bandwidth=1e9,
                  fault_windows=[(1e-3, 2e-3, "down", 1.0)])
    before = faulty.reserve(0.0, 1000)
    assert before.start == healthy.reserve(0.0, 1000).start
    faulty.reset()
    during = faulty.reserve(1.5e-3, 1000)
    assert during.start == 2e-3  # pushed past the outage window
    after = faulty.reserve(2.5e-3, 1000)
    assert after.start >= 2e-3


def test_link_degradation_scales_serialization():
    link = Link("l", latency=0.0, bandwidth=1e9,
                fault_windows=[(0.0, 1.0, "degrade", 4.0)])
    t = link.reserve(0.0, 1000)
    assert t.inject_done == pytest.approx(4 * 1000 / 1e9)
    link.reset()
    t2 = link.reserve(2.0, 1000)  # outside the window
    assert t2.inject_done - t2.start == pytest.approx(1000 / 1e9)


def test_injected_link_outage_slows_the_job():
    def vt(plan):
        report = launch_variant("mpi-native", CFG, 4, fault_plan=plan)
        return report.stats["virtual_time"]

    healthy = vt(None)
    slowed = vt(f"down,link=nvlink*,start=1e-5,end={healthy:.9g}")
    assert slowed > healthy


# --------------------------------------------------------------------------- #
# Seeded determinism.
# --------------------------------------------------------------------------- #


def _faulty_run(spec, seed):
    results = launch_variant("mpi-resilient", CFG, 4, collect=True,
                             fault_plan=spec, fault_seed=seed)
    return results, results.stats


def test_same_seed_reproduces_schedule_and_timing():
    spec = "drop,tag=0,p=0.5,start=2e-5,end=3e-4"
    res_a, stats_a = _faulty_run(spec, seed=7)
    res_b, stats_b = _faulty_run(spec, seed=7)
    assert stats_a["faults"] == stats_b["faults"]
    assert stats_a["faults"]  # the window actually hit traffic
    assert stats_a["virtual_time"] == stats_b["virtual_time"]
    assert [r.total_time for r in res_a] == [r.total_time for r in res_b]


def test_different_seed_changes_probabilistic_schedule():
    spec = "drop,tag=0,p=0.5,start=2e-5,end=3e-4"
    _, stats_a = _faulty_run(spec, seed=7)
    _, stats_b = _faulty_run(spec, seed=8)
    assert stats_a["faults"] != stats_b["faults"]


def test_empty_plan_installs_nothing():
    stats = launch_variant("mpi-native", CFG, 4, fault_plan="").stats
    assert "faults" not in stats


# --------------------------------------------------------------------------- #
# MPI retransmission.
# --------------------------------------------------------------------------- #


def test_transient_drops_recover_via_backoff():
    healthy = launch_variant("mpi-native", CFG, 4, collect=True)
    healthy_stats = healthy.stats
    faulty = launch_variant("mpi-native", CFG, 4, collect=True,
                            fault_plan=TRANSIENT_DROPS)
    faulty_stats = faulty.stats
    ref = serial_jacobi(CFG, iters=CFG.warmup + CFG.iters)
    assert np.array_equal(assemble(CFG, faulty), ref)
    # Retransmission spent backoff time: at least one retry interval.
    plan = FaultPlan()
    assert (faulty_stats["virtual_time"]
            >= healthy_stats["virtual_time"] + plan.retry_base)
    kinds = {k for _, k, _ in faulty_stats["faults"]}
    assert "fault.mpi_drop" in kinds and "fault.mpi_recovered" in kinds


def test_retry_exhaustion_raises_mpi_timeout():
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        comm = MpiContext(ctx).comm_world
        buf = np.zeros(4, np.float32)
        if ctx.rank == 0:
            comm.send(buf, 4, dst=1, tag=0)
        else:
            comm.recv(buf, 4, src=0, tag=0)

    with pytest.raises(MpiTimeoutError, match="gave up"):
        launch(main, 2, fault_plan="drop,tag=0;retry,base=1e-6,max=3")


# --------------------------------------------------------------------------- #
# Rank crashes: GPUCCL async error query + abort, Uniconn health.
# --------------------------------------------------------------------------- #


def _poll_and_abort(ctx):
    ctx.set_device(ctx.node_rank)
    uid = ctx.job.shared_state("uid", get_unique_id)
    comm = GpucclComm(ctx, uid, ctx.world_size, ctx.rank)
    for _ in range(200):
        ctx.engine.sleep(2e-5)
        if comm.async_error_query() is not None:
            comm.abort()
    return "ok"


def test_rank_crash_detected_and_aborted_not_deadlocked():
    with pytest.raises(GpucclError) as excinfo:
        launch(_poll_and_abort, 4, fault_plan="crash,rank=2,at=1e-4")
    msg = str(excinfo.value)
    assert "aborted" in msg and "[2]" in msg
    assert not isinstance(excinfo.value, DeadlockError)


def test_crash_without_polling_still_diagnosed_by_watchdog():
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        comm = MpiContext(ctx).comm_world
        buf = np.zeros(4, np.float32)
        # rank 1 dies before sending; rank 0 waits forever -> watchdog.
        if ctx.rank == 0:
            comm.recv(buf, 4, src=1, tag=3)
        else:
            ctx.engine.sleep(1.0)
            comm.send(buf, 4, dst=0, tag=3)

    with pytest.raises(SimTimeoutError) as excinfo:
        launch(main, 2, fault_plan="crash,rank=1,at=1e-5;watchdog,timeout=1e-3")
    # The report names the hung waiter and its pending operation (tag).
    assert "rank0" in excinfo.value.report
    assert "tag=3" in excinfo.value.report
    assert excinfo.value.when >= 1e-3


def test_uniconn_communicator_health_and_abort():
    from repro.core import CommHealth, Communicator, Environment
    from repro.errors import UniconnError

    def main(ctx):
        with Environment(ctx, backend="mpi") as env:
            env.set_device(ctx.node_rank)
            comm = Communicator(env)
            assert comm.health() == CommHealth(ok=True)
            ctx.engine.sleep(5e-4)  # past the crash of rank 1
            if ctx.rank == 0:
                health = comm.health()
                assert not health.ok and health.crashed_ranks == (1,)
                comm.abort("giving up")
        return "fine"

    with pytest.raises(UniconnError, match="giving up"):
        launch(main, 2, fault_plan="crash,rank=1,at=1e-4")


# --------------------------------------------------------------------------- #
# Deadlock reports (no watchdog) carry time + per-waiter detail.
# --------------------------------------------------------------------------- #


def test_deadlock_error_reports_time_and_pending_ops():
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        comm = MpiContext(ctx).comm_world
        buf = np.zeros(4, np.float32)
        comm.recv(buf, 4, src=1 - ctx.rank, tag=9)

    with pytest.raises(DeadlockError) as excinfo:
        launch(main, 2)
    err = excinfo.value
    assert err.when > 0.0
    for rank in (0, 1):
        assert f"rank{rank}" in err.report
    assert "tag=9" in err.report


# --------------------------------------------------------------------------- #
# Stragglers and timed waits.
# --------------------------------------------------------------------------- #


def test_straggler_gpu_slows_virtual_time():
    def vt(plan):
        report = launch_variant("mpi-native", CFG, 4, fault_plan=plan)
        return report.stats["virtual_time"]

    assert vt("straggler,gpu=0,factor=4") > vt(None)


def test_counter_wait_timeout_raises_sim_timeout():
    from repro.sim import Counter

    engine = Engine()
    seen = {}

    def body():
        counter = Counter(engine, name="never")
        try:
            counter.wait_for(lambda v: v >= 1, timeout=2e-3)
        except SimTimeoutError as exc:
            seen["when"] = exc.when

    engine.spawn(body, name="t")
    engine.run()
    assert seen["when"] == pytest.approx(2e-3)


def test_counter_wait_timeout_is_free_when_satisfied():
    def run(timeout):
        from repro.sim import Counter

        engine = Engine()
        out = {}

        def waiter():
            counter.wait_for(lambda v: v >= 1, timeout=timeout)
            out["t"] = engine.now

        def bumper():
            engine.sleep(1e-3)
            counter.add(1)

        counter = Counter(engine, name="c")
        engine.spawn(waiter, name="w")
        engine.spawn(bumper, name="b")
        engine.run()
        return out["t"]

    assert run(None) == run(5.0)  # cancelled timer leaves no trace


def test_gpushmem_signal_wait_timeout():
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        sig = shmem.malloc(4, np.uint64)
        if ctx.rank == 0:
            # Nobody ever signals: the timed wait must fail, not hang.
            shmem.signal_wait_until(sig, "ge", 1, timeout=1e-3)
        shmem.barrier_all()

    with pytest.raises(SimTimeoutError, match="signal_wait_until"):
        launch(main, 2)


# --------------------------------------------------------------------------- #
# Checkpoint/rollback Jacobi (graceful degradation).
# --------------------------------------------------------------------------- #


def test_resilient_jacobi_survives_harsh_outage_bitwise():
    results, stats = _faulty_run(HARSH_DROPS, seed=1)
    ref = serial_jacobi(CFG, iters=CFG.warmup + CFG.iters)
    assert np.array_equal(assemble(CFG, results), ref)
    assert max(r.restarts for r in results) >= 1
    kinds = {k for _, k, _ in stats["faults"]}
    assert {"fault.mpi_giveup", "fault.jacobi_rollback"} <= kinds


def test_resilient_jacobi_fault_free_matches_serial():
    results, stats = _faulty_run(None, seed=0)
    ref = serial_jacobi(CFG, iters=CFG.warmup + CFG.iters)
    assert np.array_equal(assemble(CFG, results), ref)
    assert max(r.restarts for r in results) == 0
    assert "faults" not in stats


def test_resilient_jacobi_gives_up_on_permanent_fault():
    with pytest.raises(FaultInjectionError, match="not transient"):
        launch_variant("mpi-resilient", CFG, 4,
                       fault_plan="drop,tag=0;retry,base=1e-6,max=1")


# --------------------------------------------------------------------------- #
# Faults land in the Chrome trace.
# --------------------------------------------------------------------------- #


def test_fault_events_appear_in_trace():
    from repro.sim import Tracer, to_chrome_trace

    tracer = Tracer()
    launch_variant("mpi-native", CFG, 4, tracer=tracer,
                   fault_plan=TRANSIENT_DROPS)
    fault_events = [e for e in to_chrome_trace(tracer)
                    if e.get("name", "").startswith("fault.")]
    assert fault_events
