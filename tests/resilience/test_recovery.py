"""Communicator revoke/agree/shrink: the ULFM-style recovery primitives.

Every test runs over the real launcher on each backend (mpi, gpuccl,
gpushmem) — the conftest ``backend`` fixture — so the consensus rounds,
revocation latch, and backend-part reconstruction are exercised through
the same paths the elastic applications use.
"""

import numpy as np
import pytest

from repro.errors import CommRevokedError, FaultInjectionError
from repro.launcher import launch
from repro.resilience import ElasticLoop
from tests.core.conftest import backend, uniconn_run  # noqa: F401


# --------------------------------------------------------------------------- #
# agree: fault-tolerant consensus.
# --------------------------------------------------------------------------- #


def test_agree_unanimous_true(backend):
    def body(env, comm, coord):
        return comm.agree(True)

    assert list(uniconn_run(4, backend, body)) == [True] * 4


def test_agree_single_dissenter_fails_everywhere(backend):
    def body(env, comm, coord):
        return comm.agree(comm.global_rank() != 2)

    assert list(uniconn_run(4, backend, body)) == [False] * 4


def test_agree_crashed_member_fails_the_vote(backend):
    # ULFM semantics: a dead rank anywhere in the communicator fails the
    # vote even though every survivor contributed True — the vote is how
    # survivors learn about the crash.
    def body(env, comm, coord):
        env.engine.sleep(5e-4)  # past the crash
        return comm.agree(True)

    report = uniconn_run(4, backend, body, fault_plan="crash,rank=1,at=1e-4")
    survivors = [r for r in report if r is not None]
    assert len(survivors) == 3 and all(v is False for v in survivors)


def test_agree_rounds_stay_in_lockstep(backend):
    # Consecutive rounds are independent: a failed vote does not poison
    # the next one.
    def body(env, comm, coord):
        first = comm.agree(comm.global_rank() != 0)
        second = comm.agree(True)
        return (first, second)

    assert list(uniconn_run(3, backend, body)) == [(False, True)] * 3


# --------------------------------------------------------------------------- #
# revoke: the latch.
# --------------------------------------------------------------------------- #


def test_revoke_poisons_communication_on_every_member(backend):
    def body(env, comm, coord):
        if comm.global_rank() == 0:
            comm.revoke("test revocation")
            comm.revoke("second call is a no-op")  # idempotent
        env.engine.sleep(1e-4)  # let the latch land everywhere
        health = comm.health()
        try:
            comm.barrier()
            return "no error"
        except CommRevokedError as exc:
            assert "test revocation" in str(exc)
            return ("revoked", health.ok, comm.revoked)

    assert list(uniconn_run(3, backend, body)) == [("revoked", False, True)] * 3


def test_recovery_operations_survive_revocation(backend):
    # health/agree/shrink are exactly the operations a revoked communicator
    # must still serve — they are the way out.
    def body(env, comm, coord):
        comm.revoke("escape hatch check")
        assert comm.agree(True) is True
        new = comm.shrink()
        new.barrier()  # the shrunken comm is live again
        return (new.global_size(), new.health().ok)

    assert list(uniconn_run(3, backend, body)) == [(3, True)] * 3


# --------------------------------------------------------------------------- #
# shrink: rebuild over survivors.
# --------------------------------------------------------------------------- #


def test_shrink_after_crash_rebuilds_over_survivors(backend):
    def body(env, comm, coord):
        env.engine.sleep(5e-4)
        assert comm.agree(True) is False  # the crash failed the vote
        comm.revoke("peer died")
        new = comm.shrink()
        # Survivors are re-ranked densely over the new size.
        return (new.global_size(), new.global_rank(), new.health().ok)

    report = uniconn_run(4, backend, body, fault_plan="crash,rank=2,at=1e-4")
    got = sorted(r for r in report if r is not None)
    assert got == [(3, 0, True), (3, 1, True), (3, 2, True)]


def test_shrink_without_losses_keeps_size(backend):
    # The rollback case: a transient fault revokes the comm but nobody
    # died, so shrink yields a same-size clean communicator.
    def body(env, comm, coord):
        comm.revoke("transient storm")
        new = comm.shrink()
        return (new.global_size(), new.global_rank())

    report = uniconn_run(4, backend, body)
    assert sorted(report) == [(4, r) for r in range(4)]


def test_shrunk_communicator_collectives_work(backend):
    # Data actually flows on the post-shrink communicator.
    def body(env, comm, coord):
        from repro.core import Coordinator, IN_PLACE, Memory

        # Symmetric allocation is collective over the *world*: it must
        # happen before the crash, exactly as the elastic apps allocate.
        buf = Memory.alloc(env, 4)
        env.engine.sleep(5e-4)
        comm.agree(True)
        comm.revoke()
        new = comm.shrink()
        stream = env.device.create_stream()
        c2 = Coordinator(env, stream=stream)
        buf.write(np.full(4, float(new.global_rank() + 1)))
        c2.all_reduce(IN_PLACE, buf, 4, "sum", new)
        stream.synchronize()
        return buf.read().copy()

    report = uniconn_run(4, backend, body, fault_plan="crash,rank=3,at=1e-4")
    for r in report:
        if r is not None:
            np.testing.assert_array_equal(r, np.full(4, 6.0))  # 1+2+3


# --------------------------------------------------------------------------- #
# ElasticLoop: budget and bookkeeping.
# --------------------------------------------------------------------------- #


def test_elastic_loop_recovers_and_counts(backend):
    def body_fn(env, comm, coord):
        gens = []
        loop = ElasticLoop(comm, lambda c, g: gens.append((c.global_size(), g)),
                           label="t")
        env.engine.sleep(5e-4)

        committed = loop.run_step(lambda: None)  # crash fails the vote
        assert committed is False
        committed2 = loop.run_step(lambda: None)  # survivors commit
        return (committed2, loop.generation, loop.ranks_lost, gens)

    report = uniconn_run(4, backend, body_fn, fault_plan="crash,rank=1,at=1e-4")
    for r in report:
        if r is not None:
            committed2, generation, lost, gens = r
            assert committed2 is True
            assert generation == 1 and lost == 1
            assert gens == [(3, 1)]


def test_elastic_loop_budget_exhaustion_raises():
    def main(ctx):
        from repro.core import Communicator, Environment

        env = Environment(ctx, backend="mpi")
        env.set_device(ctx.node_rank)
        comm = Communicator(env)
        loop = ElasticLoop(comm, lambda c, g: None, max_recoveries=2, label="cap")
        for _ in range(5):
            # Every generation gets revoked: the body's barrier raises
            # CommRevokedError, the vote fails, the loop recovers — until
            # the third recovery blows the budget.
            loop.comm.revoke("forced")
            loop.run_step(lambda: loop.comm.barrier())

    with pytest.raises(FaultInjectionError, match="cap: exceeded 2 recoveries"):
        launch(main, 2)
