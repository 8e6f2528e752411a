"""Tests for the experimental one-sided MPI path (config ``mpi_rma``),
the paper's Section V-A future work."""

import numpy as np
import pytest

from repro import Communicator, Coordinator, Environment, Memory, configured, launch
from repro.core.memory import RmaBuffer
from repro.errors import UniconnError
from repro.gpu import DeviceBuffer


def one_sided_run(nranks, body, **kwargs):
    def main(ctx):
        env = Environment(ctx, backend="mpi")
        env.set_device(env.node_rank())
        comm = Communicator(env)
        stream = env.device.create_stream()
        coord = Coordinator(env, stream=stream)
        return body(env, comm, coord)

    # The config override wraps the whole simulation (it is process-global;
    # entering/leaving it per rank-task would interleave incorrectly).
    with configured(mpi_rma=True):
        return launch(main, nranks, **kwargs)


def test_memory_alloc_returns_window_backed_buffers():
    def body(env, comm, coord):
        buf = Memory.alloc(env, 8)
        ok = isinstance(buf, RmaBuffer)
        Memory.free(env, buf)
        return ok

    assert all(one_sided_run(2, body))


def test_memory_alloc_plain_without_flag():
    def main(ctx):
        env = Environment(ctx, backend="mpi")
        env.set_device(0)
        buf = Memory.alloc(env, 8)
        return isinstance(buf, DeviceBuffer) and not isinstance(buf, RmaBuffer)

    assert all(launch(main, 1))


def test_ring_exchange_over_rma():
    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        right, left = (me + 1) % p, (me - 1 + p) % p
        send = Memory.alloc(env, 4)
        recv = Memory.alloc(env, 4)
        sig = Memory.alloc(env, 2, dtype=np.uint64)
        send.write(np.full(4, float(me + 1), np.float32))
        comm.barrier(stream=coord.stream)
        coord.comm_start()
        coord.post(send, recv, 4, sig.offset_by(0, 1), 1, right, comm)
        coord.acknowledge(recv, 4, sig.offset_by(0, 1), 1, left, comm)
        coord.comm_end()
        coord.stream.synchronize()
        return recv.read().tolist()

    results = one_sided_run(4, body)
    for me, got in enumerate(results):
        left = (me - 1 + 4) % 4
        assert got == [float(left + 1)] * 4


def test_signal_trails_payload_over_rma():
    """When the signal fires, the data put before it must be visible."""

    def body(env, comm, coord):
        data = Memory.alloc(env, 1)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        data_src = Memory.alloc(env, 1)  # window creation is collective
        me = comm.global_rank()
        if me == 0:
            for it in range(1, 5):
                data_src.write(np.array([float(it)], np.float32))
                coord.post(data_src, data, 1, sig, it, 1, comm)
            comm.barrier(stream=coord.stream)
            return None
        seen = []
        for it in range(1, 5):
            coord.acknowledge(data, 1, sig, it, 0, comm)
            seen.append(float(data.read()[0]))
        comm.barrier(stream=coord.stream)
        return seen

    results = one_sided_run(2, body)
    assert results[1] == [1.0, 2.0, 3.0, 4.0]


def test_rma_post_requires_window_buffers():
    def body(env, comm, coord):
        plain = env.device.malloc(4, np.float32)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        with pytest.raises(UniconnError, match="window-backed"):
            coord.post(plain, plain, 4, sig, 1, 0, comm)
        return True

    assert all(one_sided_run(1, body))


def test_jacobi_over_one_sided_mpi_matches_serial():
    """The full solver runs unchanged over the RMA path."""
    from repro.apps.jacobi import JacobiConfig, assemble, run_variant, serial_jacobi

    cfg = JacobiConfig(nx=16, ny=18, iters=4, warmup=1)

    with configured(mpi_rma=True):
        results = launch(
            lambda ctx: run_variant(ctx, "uniconn:mpi", cfg, collect=True), 4
        )
    full = assemble(cfg, results)
    np.testing.assert_array_equal(full, serial_jacobi(cfg, iters=5))


def test_rma_slicing_addresses_peer_offsets():
    def body(env, comm, coord):
        buf = Memory.alloc(env, 8)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        src = Memory.alloc(env, 2)  # collective: both ranks allocate
        me = comm.global_rank()
        if me == 0:
            src.write(np.array([5.0, 6.0], np.float32))
            coord.post(src, buf.offset_by(3, 2), 2, sig, 1, 1, comm)
            comm.barrier(stream=coord.stream)
            return None
        coord.acknowledge(buf.offset_by(3, 2), 2, sig, 1, 0, comm)
        out = buf.read().tolist()
        comm.barrier(stream=coord.stream)
        return out

    results = one_sided_run(2, body)
    assert results[1] == [0, 0, 0, 5, 6, 0, 0, 0]
