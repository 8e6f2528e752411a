"""Asynchronous progress (paper Section III design goal): communication on
one stream overlaps computation on another, and grouped operations progress
independently."""

import numpy as np
import pytest

from repro.core import Communicator, Coordinator, Environment, Memory
from repro.gpu import kernel
from repro.hardware import KernelCost, perlmutter
from repro.launcher import launch

# A compute kernel lasting ~50us of simulated GPU time.
COMPUTE_SECONDS = 50e-6
busy = kernel(name="busy", cost=KernelCost(
    bytes_moved=perlmutter().gpu.mem_bandwidth * COMPUTE_SECONDS))(lambda ctx: None)


def overlap_run(backend, overlapped):
    """One big exchange + one big compute; overlapped or serialized."""
    n = 1 << 20  # 4 MiB

    def main(ctx):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        comm = Communicator(env)
        comm_stream = env.device.create_stream("comm")
        compute_stream = env.device.create_stream("compute")
        coord = Coordinator(env, stream=comm_stream)
        send = Memory.alloc(env, n)
        recv = Memory.alloc(env, n)
        sig = Memory.alloc(env, 1, dtype=np.uint64) if env.backend.supports_device_api else None
        peer = 1 - comm.global_rank()
        comm.barrier(stream=comm_stream)
        comm_stream.synchronize()

        t0 = env.engine.now
        if overlapped:
            # Communication rides its own stream; compute uses the other.
            coord.comm_start()
            coord.post(send, recv, n, sig, 1, peer, comm)
            coord.acknowledge(recv, n, sig, 1, peer, comm)
            coord.comm_end()
            env.device.launch(busy, 1, 128, stream=compute_stream)
        else:
            coord.comm_start()
            coord.post(send, recv, n, sig, 1, peer, comm)
            coord.acknowledge(recv, n, sig, 1, peer, comm)
            coord.comm_end()
            comm_stream.synchronize()  # serialize: compute after comm
            env.device.launch(busy, 1, 128, stream=compute_stream)
        comm_stream.synchronize()
        compute_stream.synchronize()
        dt = env.engine.now - t0
        env.close()
        return dt

    return max(launch(main, 2))


@pytest.mark.parametrize("backend", ["gpuccl", "gpushmem"])
def test_stream_backends_overlap_comm_with_compute(backend):
    t_overlap = overlap_run(backend, overlapped=True)
    t_serial = overlap_run(backend, overlapped=False)
    # Serialized = comm + compute; overlapped hides most of the smaller one.
    assert t_serial >= t_overlap + 0.5 * COMPUTE_SECONDS, (t_serial, t_overlap)


def test_mpi_backend_cannot_overlap_this_way():
    """MPI's host-blocking Post/Acknowledge occupy the CPU: launching the
    compute kernel after CommEnd cannot hide the communication (the paper's
    motivation for stream-aware backends)."""
    t_overlap = overlap_run("mpi", overlapped=True)
    t_serial = overlap_run("mpi", overlapped=False)
    # Both orderings pay comm + compute back to back.
    assert abs(t_overlap - t_serial) < 0.2 * COMPUTE_SECONDS


def test_grouped_operations_progress_together():
    """Inside one group, many exchanges progress concurrently: total time is
    far below the sum of individual exchange times (asynchronous progress)."""
    n = 1 << 18
    n_msgs = 8

    def main(ctx, grouped):
        env = Environment(ctx, backend="gpuccl")
        env.set_device(env.node_rank())
        comm = Communicator(env)
        stream = env.device.create_stream()
        coord = Coordinator(env, stream=stream)
        send = Memory.alloc(env, n * n_msgs)
        recv = Memory.alloc(env, n * n_msgs)
        peer = 1 - comm.global_rank()
        comm.barrier(stream=stream)
        stream.synchronize()
        t0 = env.engine.now
        if grouped:
            coord.comm_start()
        for i in range(n_msgs):
            if grouped:
                coord.post(send.offset_by(i * n, n), None, n, None, 0, peer, comm)
                coord.acknowledge(recv.offset_by(i * n, n), n, None, 0, peer, comm)
        if grouped:
            coord.comm_end()
        else:
            for i in range(n_msgs):
                coord.comm_start()
                coord.post(send.offset_by(i * n, n), None, n, None, 0, peer, comm)
                coord.acknowledge(recv.offset_by(i * n, n), n, None, 0, peer, comm)
                coord.comm_end()
        stream.synchronize()
        dt = env.engine.now - t0
        env.close()
        return dt

    t_grouped = max(launch(lambda c: main(c, True), 2))
    t_split = max(launch(lambda c: main(c, False), 2))
    # Per-group launch overhead is paid once instead of n_msgs times.
    m = perlmutter()
    saved = (n_msgs - 1) * m.gpuccl.comm_launch_overhead
    assert t_split - t_grouped > 0.5 * saved
