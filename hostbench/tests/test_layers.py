"""Self-time accounting and patch hygiene of the layer tracer."""

import repro.coll.tuner
from layers import LayerTrace, SpanClock, snapshot_sites
from repro.sim import Engine, run_spmd


def test_synthetic_two_task_handoff_accounting():
    now, thread = [0], [1]
    clock = SpanClock(clock=lambda: now[0], ident=lambda: thread[0])

    def at(t, tid):
        now[0], thread[0] = t, tid

    at(10, 1); clock.enter("mpi")   # other += 10 (no span open yet)
    at(15, 1); clock.enter("sim")   # mpi += 5; task 1 blocks
    at(20, 1); clock.enter("gpu")   # sim += 5; a timer fires inside block
    at(26, 1); clock.exit()         # gpu += 6
    at(40, 2); clock.enter("core")  # handoff += 14: task 2 now runs
    at(50, 2); clock.exit()         # core += 10
    at(53, 2); clock.enter("sim")   # other += 3; task 2 blocks
    at(60, 1); clock.exit()         # handoff += 7: task 1 resumes from block
    at(70, 1); clock.exit()         # mpi += 10
    at(80, 1); total = clock.finish()  # other += 10

    assert dict(clock.self_ns) == {"mpi": 15, "sim": 5, "gpu": 6, "core": 10}
    assert clock.handoff_ns == 21
    assert clock.other_ns == 23
    assert total == 80 == sum(clock.self_ns.values()) + clock.handoff_ns + clock.other_ns
    assert clock.open_spans() == 1  # task 2 is still blocked


def test_real_two_task_handoff_adds_up():
    engine = Engine()

    def body(rank):
        for _ in range(3):
            engine.sleep(1e-6 * (rank + 1))

    with LayerTrace() as trace:
        trace.reset()
        run_spmd(2, body, engine=engine)
        total = trace.clock.finish()
    clock = trace.clock
    assert engine.stats.switches > 0
    assert clock.handoff_ns > 0 and clock.self_ns["sim"] > 0
    assert total == sum(clock.self_ns.values()) + clock.handoff_ns + clock.other_ns
    assert clock.open_spans() == 0
    assert trace.calls["sim"] > 0


def test_wrappers_leave_no_patch_behind():
    before = snapshot_sites()
    original = repro.coll.tuner.generate
    trace = LayerTrace()
    try:
        with trace:
            assert trace.installed() > 0
            assert snapshot_sites() != before
            # Patched under the name the tuner looks it up by.
            assert repro.coll.tuner.generate is not original
            raise KeyError("job failed")
    except KeyError:
        pass
    assert trace.installed() == 0
    assert repro.coll.tuner.generate is original
    assert snapshot_sites() == before
