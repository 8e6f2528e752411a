"""Tests for the Coordinator: P2P, grouping, collectives, launch modes.

The central portability claim of the paper is tested literally here: ONE
exchange routine written against the Uniconn API runs unchanged over MPI,
GPUCCL, and GPUSHMEM (and, for the device modes, inside GPU kernels).
"""

import numpy as np
import pytest

from repro import Coordinator, IN_PLACE, LaunchMode, Memory, ThreadGroup
from repro.errors import UniconnError
from repro.gpu import device_kernel, kernel
from repro.hardware import KernelCost
from tests.core.conftest import ALL_BACKENDS, uniconn_run


def ring_exchange_once(env, comm, coord, iteration=1):
    """One neighbour exchange in a ring — the paper's halo pattern,
    written once for every backend."""
    p = comm.global_size()
    me = comm.global_rank()
    right, left = (me + 1) % p, (me - 1 + p) % p
    send = Memory.alloc(env, 4)
    recv = Memory.alloc(env, 4)
    sig = Memory.alloc(env, 2, dtype=np.uint64)
    send.write(np.full(4, float(me + 1), np.float32))
    comm.barrier(stream=coord.stream)

    coord.comm_start()
    coord.post(send, recv, 4, sig, iteration, right, comm)
    coord.acknowledge(recv, 4, sig, iteration, left, comm)
    coord.comm_end()
    coord.stream.synchronize()
    return recv.read().tolist()


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("nranks", [2, 4])
def test_same_exchange_code_runs_on_every_backend(backend, nranks):
    results = uniconn_run(nranks, backend, ring_exchange_once)
    for me, got in enumerate(results):
        left = (me - 1 + nranks) % nranks
        assert got == [float(left + 1)] * 4, f"backend={backend} rank={me}"


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_repeated_iterations_with_signal_values(backend):
    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        right, left = (me + 1) % p, (me - 1 + p) % p
        send = Memory.alloc(env, 2)
        recv = Memory.alloc(env, 2)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        seen = []
        for it in range(1, 4):
            send.write(np.full(2, float(me * 10 + it), np.float32))
            comm.barrier(stream=coord.stream)
            coord.comm_start()
            coord.post(send, recv, 2, sig, it, right, comm)
            coord.acknowledge(recv, 2, sig, it, left, comm)
            coord.comm_end()
            coord.stream.synchronize()
            seen.append(recv.read()[0])
        return seen

    results = uniconn_run(2, backend, body)
    assert results[0] == [11.0, 12.0, 13.0]
    assert results[1] == [1.0, 2.0, 3.0]


def test_comm_start_end_misuse_detected():
    def body(env, comm, coord):
        with pytest.raises(UniconnError, match="without comm_start"):
            coord.comm_end()
        coord.comm_start()
        with pytest.raises(UniconnError, match="inside an open group"):
            coord.comm_start()
        coord.comm_end()
        return True

    assert all(uniconn_run(1, "mpi", body))


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@pytest.mark.parametrize("op,expected", [("sum", 10.0), ("max", 4.0), ("min", 1.0), ("prod", 24.0)])
def test_all_reduce_ops(backend, op, expected):
    def body(env, comm, coord):
        send = Memory.alloc(env, 3)
        recv = Memory.alloc(env, 3)
        send.write(np.full(3, float(comm.global_rank() + 1), np.float32))
        coord.all_reduce(send, recv, 3, op, comm)
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(4, backend, body)
    assert all(r == [expected] * 3 for r in results)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_all_reduce_in_place(backend):
    def body(env, comm, coord):
        buf = Memory.alloc(env, 2)
        buf.write(np.full(2, float(comm.global_rank()), np.float32))
        coord.all_reduce(IN_PLACE, buf, 2, "sum", comm)
        coord.stream.synchronize()
        return buf.read().tolist()

    results = uniconn_run(4, backend, body)
    assert all(r == [6.0, 6.0] for r in results)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_reduce_to_root(backend):
    def body(env, comm, coord):
        send = Memory.alloc(env, 2)
        recv = Memory.alloc(env, 2)
        send.write(np.full(2, float(comm.global_rank() + 1), np.float32))
        coord.reduce(send, recv, 2, "sum", 1, comm)
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(3, backend, body)
    assert results[1] == [6.0, 6.0]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_broadcast(backend):
    def body(env, comm, coord):
        buf = Memory.alloc(env, 4)
        if comm.global_rank() == 0:
            buf.write(np.arange(4, dtype=np.float32))
        coord.broadcast(buf, 4, 0, comm)
        coord.stream.synchronize()
        return buf.read().tolist()

    results = uniconn_run(4, backend, body)
    assert all(r == [0, 1, 2, 3] for r in results)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_all_gather(backend):
    def body(env, comm, coord):
        p = comm.global_size()
        send = Memory.alloc(env, 2)
        recv = Memory.alloc(env, 2 * p)
        send.write(np.full(2, float(comm.global_rank()), np.float32))
        coord.all_gather(send, recv, 2, comm)
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(4, backend, body)
    expected = [0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert all(r == expected for r in results)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_all_gather_v_ragged(backend):
    counts = [1, 3, 2, 2]
    displs = [0, 1, 4, 6]

    def body(env, comm, coord):
        me = comm.global_rank()
        # Symmetric-heap contract: allocations must be identical on every
        # PE, so ragged contributions allocate the maximum block size.
        send = Memory.alloc(env, max(counts))
        recv = Memory.alloc(env, 8)
        send.write(np.full(max(counts), float(me + 1), np.float32))
        coord.all_gather_v(send, counts[me], recv, counts, displs, comm)
        coord.stream.synchronize()
        # One-sided backends complete remote writes at the barrier; the
        # stream sync above covers it on every backend.
        return recv.read().tolist()

    results = uniconn_run(4, backend, body)
    expected = [1, 2, 2, 2, 3, 3, 4, 4]
    assert all(r == expected for r in results), results


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_gather_and_scatter(backend):
    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        send = Memory.alloc(env, 2)
        gathered = Memory.alloc(env, 2 * p)
        send.write(np.full(2, float(me), np.float32))
        coord.gather(send, gathered, 2, 0, comm)
        coord.stream.synchronize()
        comm.barrier(stream=coord.stream)
        out = Memory.alloc(env, 2)
        coord.scatter(gathered, out, 2, 0, comm)
        coord.stream.synchronize()
        return gathered.read().tolist() if me == 0 else None, out.read().tolist()

    results = uniconn_run(4, backend, body)
    assert results[0][0] == [0, 0, 1, 1, 2, 2, 3, 3]
    for me, (_, got) in enumerate(results):
        assert got == [float(me)] * 2


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_all_to_all(backend):
    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        send = Memory.alloc(env, p)
        recv = Memory.alloc(env, p)
        send.write(np.array([me * 10.0 + c for c in range(p)], np.float32))
        coord.all_to_all(send, recv, 1, comm)
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(4, backend, body)
    for me, got in enumerate(results):
        assert got == [c * 10.0 + me for c in range(4)]


# --------------------------------------------------------------------- #
# Launch modes.
# --------------------------------------------------------------------- #


def test_device_modes_require_gpushmem():
    def body(env, comm, coord):
        return True

    with pytest.raises(UniconnError, match="requires a device-API backend"):
        uniconn_run(1, "mpi", body, launch_mode="PureDevice")


def test_bind_kernel_only_matching_mode_stored():
    host_k = kernel(cost=KernelCost(bytes_moved=1.0))(lambda ctx, out: out.append("host"))
    dev_k = device_kernel()(lambda ctx, out: out.append("dev"))

    def body(env, comm, coord):
        out = []
        coord.bind_kernel(LaunchMode.PureHost, host_k, 1, 32, args=(out,))
        coord.bind_kernel(LaunchMode.PureDevice, dev_k, 1, 32, args=(out,))
        coord.launch_kernel()
        coord.stream.synchronize()
        return out

    assert uniconn_run(1, "mpi", body, launch_mode="PureHost") == [["host"]]
    assert uniconn_run(1, "gpushmem", body, launch_mode="PureDevice") == [["dev"]]


def test_bind_kernel_kind_mismatch_rejected():
    dev_k = device_kernel()(lambda ctx: None)
    host_k = kernel()(lambda ctx: None)

    def body(env, comm, coord):
        with pytest.raises(UniconnError, match="compute-only"):
            coord.bind_kernel(LaunchMode.PureHost, dev_k, 1, 32)
        return True

    assert all(uniconn_run(1, "mpi", body, launch_mode="PureHost"))

    def body2(env, comm, coord):
        with pytest.raises(UniconnError, match="device_kernel"):
            coord.bind_kernel(LaunchMode.PureDevice, host_k, 1, 32)
        return True

    assert all(uniconn_run(1, "gpushmem", body2, launch_mode="PureDevice"))


def test_launch_without_binding_rejected():
    def body(env, comm, coord):
        with pytest.raises(UniconnError, match="no kernel bound"):
            coord.launch_kernel()
        return True

    assert all(uniconn_run(1, "mpi", body))


def test_pure_device_ring_exchange_inside_kernel():
    """Listing 5: Post/Acknowledge fully inside the kernel via ctx.uniconn."""

    @device_kernel()
    def exchange(ctx, send, recv, sig, comm_d, it, out):
        u = ctx.uniconn
        p, me = comm_d.size, comm_d.rank
        right, left = (me + 1) % p, (me - 1 + p) % p
        u.post(send, recv, 4, sig, it, right, comm_d, group=ThreadGroup.BLOCK)
        u.acknowledge(recv, 4, sig, it, left, comm_d)
        out.append(recv.read().tolist())

    def body(env, comm, coord):
        send = Memory.alloc(env, 4)
        recv = Memory.alloc(env, 4)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        send.write(np.full(4, float(comm.global_rank() + 1), np.float32))
        comm.barrier(stream=coord.stream)
        out = []
        comm_d = comm.to_device()
        coord.bind_kernel(LaunchMode.PureDevice, exchange, 2, 128,
                          args=(send, recv, sig, comm_d, 1, out))
        coord.launch_kernel()
        # Host Post/Acknowledge are no-ops in PureDevice mode.
        coord.comm_start()
        coord.post(send, recv, 4, sig, 1, 0, comm)
        coord.acknowledge(recv, 4, sig, 1, 0, comm)
        coord.comm_end()
        coord.stream.synchronize()
        return out[0]

    results = uniconn_run(4, "gpushmem", body, launch_mode="PureDevice")
    for me, got in enumerate(results):
        left = (me - 1 + 4) % 4
        assert got == [float(left + 1)] * 4


def test_partial_device_exchange():
    """Listing 6 pattern: device puts the payload (no signal); the host's
    Post sends the ordered signal and Acknowledge waits for it."""

    @device_kernel()
    def push_halo(ctx, send, recv, comm_d):
        u = ctx.uniconn
        p, me = comm_d.size, comm_d.rank
        right = (me + 1) % p
        u.post(send, recv, 4, None, 0, right, comm_d, group=ThreadGroup.BLOCK)

    def body(env, comm, coord):
        p, me = comm.global_size(), comm.global_rank()
        right, left = (me + 1) % p, (me - 1 + p) % p
        send = Memory.alloc(env, 4)
        recv = Memory.alloc(env, 4)
        sig = Memory.alloc(env, 1, dtype=np.uint64)
        send.write(np.full(4, float(me + 1), np.float32))
        comm.barrier(stream=coord.stream)
        comm_d = comm.to_device()
        coord.bind_kernel(LaunchMode.PartialDevice, push_halo, 2, 128,
                          args=(send, recv, comm_d))
        coord.launch_kernel()
        coord.comm_start()
        coord.post(send, recv, 4, sig, 1, right, comm)
        coord.acknowledge(recv, 4, sig, 1, left, comm)
        coord.comm_end()
        coord.stream.synchronize()
        return recv.read().tolist()

    results = uniconn_run(4, "gpushmem", body, launch_mode="PartialDevice")
    for me, got in enumerate(results):
        left = (me - 1 + 4) % 4
        assert got == [float(left + 1)] * 4


def test_thread_group_granularities_all_work():
    @device_kernel()
    def put_with(ctx, send, recv, sig, comm_d, group):
        ctx.uniconn.post(send, recv, 2, sig, 1, 1 - comm_d.rank, comm_d, group=group)
        ctx.uniconn.acknowledge(recv, 2, sig, 1, 1 - comm_d.rank, comm_d)

    def body_of(group):
        def body(env, comm, coord):
            send = Memory.alloc(env, 2)
            recv = Memory.alloc(env, 2)
            sig = Memory.alloc(env, 1, dtype=np.uint64)
            send.write(np.full(2, float(comm.global_rank() + 5), np.float32))
            comm.barrier(stream=coord.stream)
            comm_d = comm.to_device()
            coord.bind_kernel(LaunchMode.PureDevice, put_with, 1, 64,
                              args=(send, recv, sig, comm_d, group))
            coord.launch_kernel()
            coord.stream.synchronize()
            return recv.read().tolist()

        return body

    for group in (ThreadGroup.THREAD, ThreadGroup.WARP, ThreadGroup.BLOCK):
        results = uniconn_run(2, "gpushmem", body_of(group), launch_mode="PureDevice")
        assert results[0] == [6.0, 6.0]
        assert results[1] == [5.0, 5.0]
