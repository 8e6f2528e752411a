"""The two data-plane teardown layers behind a revocation.

``Engine.fence()`` invalidates in-flight wire deliveries (payloads issued
before a revoke must not land in buffers a later generation rebuilt), and
``Stream.abort()`` abandons a failed generation's stream (its pending
kernels' memory actions are discarded). Both preserve *accounting*: fenced
ops still retire so quiet()/sync counters stay balanced, and an aborted
stream's waiters are released rather than left hanging.
"""

import numpy as np
import pytest

from repro.backends.gpushmem import ShmemContext
from repro.errors import GpuError
from repro.gpu.stream import TimedOp
from repro.launcher import launch
from repro.sim import Engine


# --------------------------------------------------------------------------- #
# Engine.fence
# --------------------------------------------------------------------------- #


def test_fence_bumps_epoch_monotonically():
    engine = Engine()
    assert engine.fence_epoch == 0
    assert engine.fence() == 1
    assert engine.fence() == 2
    assert engine.fence_epoch == 2


def test_revoke_fences_exactly_once():
    def main(ctx):
        from repro.core import Communicator, Environment

        env = Environment(ctx, backend="mpi")
        env.set_device(ctx.node_rank)
        comm = Communicator(env)
        comm.revoke("first")
        comm.revoke("second — latched, must not fence again")
        ctx.engine.sleep(1e-4)
        return ctx.engine.fence_epoch

    # Both ranks revoke twice, but the latch admits exactly one fence for
    # the whole revocation (the epoch is engine-global).
    assert list(launch(main, 2)) == [1, 1]


def test_fenced_put_drops_payload_but_retires():
    # A put in flight when the fence lands: the destination stays
    # untouched, yet quiet() completes — the outstanding-op counter was
    # retired, not leaked.
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        buf = shmem.malloc(4, np.float32)
        shmem.barrier_all()
        if ctx.rank == 0:
            payload = np.full(4, 7.0, np.float32)
            # Stream-ordered put completes locally at injection; the wire
            # delivery is still in flight when the fence lands.
            stream = ctx.device.create_stream()
            shmem.put_on_stream(buf, payload, 4, pe=1, stream=stream)
            stream.synchronize()
            ctx.engine.fence()  # revocation while the payload is on the wire
            shmem.quiet()  # must not hang on the fenced op
        ctx.engine.sleep(1e-3)  # past any delivery time
        val = float(buf.view_at(ctx.rank).raw[0])
        shmem.barrier_all()
        return val

    vals = list(launch(main, 2))
    assert vals[1] == 0.0  # the fenced payload never landed


def test_unfenced_put_still_delivers():
    # Control: the identical program without the fence delivers normally,
    # so the test above is really the fence's doing.
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        shmem = ShmemContext(ctx)
        buf = shmem.malloc(4, np.float32)
        shmem.barrier_all()
        if ctx.rank == 0:
            shmem.put(buf, np.full(4, 7.0, np.float32), 4, pe=1)
            shmem.quiet()
        ctx.engine.sleep(1e-3)
        val = float(buf.view_at(ctx.rank).raw[0])
        shmem.barrier_all()
        return val

    assert list(launch(main, 2))[1] == 7.0


# --------------------------------------------------------------------------- #
# Stream.abort
# --------------------------------------------------------------------------- #


def test_abort_discards_queue_and_inflight_action():
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        device = ctx.device
        stream = device.create_stream()
        cell = {"inflight": False, "queued": False}
        inflight = TimedOp(ctx.engine, "inflight", lambda: 1e-4,
                           action=lambda: cell.__setitem__("inflight", True))
        queued = TimedOp(ctx.engine, "queued", lambda: 1e-4,
                         action=lambda: cell.__setitem__("queued", True))
        stream.enqueue(inflight)
        stream.enqueue(queued)
        stream.abort()
        stream.abort()  # idempotent
        # Waiters on discarded ops are released immediately...
        queued.done.wait()
        # ...and the in-flight op still *retires* (timing) minus its action.
        inflight.done.wait()
        assert ctx.engine.now >= 1e-4
        # No further work is accepted.
        with pytest.raises(GpuError, match="aborted"):
            stream.enqueue(TimedOp(ctx.engine, "late", lambda: 0.0))
        return (cell["inflight"], cell["queued"], stream.idle)

    assert list(launch(main, 1)) == [(False, False, True)]


def test_synchronize_does_not_hang_on_aborted_stream():
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        stream = ctx.device.create_stream()
        stream.enqueue(TimedOp(ctx.engine, "a", lambda: 1e-4))
        stream.enqueue(TimedOp(ctx.engine, "b", lambda: 1e-4))
        stream.abort()
        stream.synchronize()  # released by abort, not by execution
        return ctx.engine.now

    # b never ran: sync returned via the abort release at the a-retire time.
    assert list(launch(main, 1))[0] < 2e-4


def test_healthy_stream_still_runs_actions():
    # Control for the abort guard added to TimedOp/ExternalOp.
    def main(ctx):
        ctx.set_device(ctx.node_rank)
        stream = ctx.device.create_stream()
        cell = {"ran": False}
        stream.enqueue(TimedOp(ctx.engine, "op", lambda: 1e-5,
                               action=lambda: cell.__setitem__("ran", True)))
        stream.synchronize()
        return cell["ran"]

    assert list(launch(main, 1)) == [True]
