"""Tests for the Uniconn Communicator across backends."""

import pytest

from repro.errors import UniconnError
from tests.core.conftest import uniconn_run


def test_global_rank_and_size(backend):
    def body(env, comm, coord):
        return comm.global_rank(), comm.global_size()

    results = uniconn_run(4, backend, body)
    assert results == [(r, 4) for r in range(4)]


def test_barrier_synchronizes_all_backends(backend):
    def body(env, comm, coord):
        env.engine.sleep(comm.global_rank() * 1e-5)
        comm.barrier()
        # For stream-ordered backends the barrier is complete only after the
        # stream drains; barrier(stream=None) must already have drained it.
        return env.engine.now

    results = uniconn_run(4, backend, body)
    assert all(t >= 3e-5 for t in results)


def test_barrier_on_stream_is_stream_ordered(backend):
    def body(env, comm, coord):
        t0 = env.engine.now
        comm.barrier(stream=coord.stream)
        host_dt = env.engine.now - t0
        coord.stream.synchronize()
        return host_dt

    results = uniconn_run(2, backend, body)
    if backend == "mpi":
        # MPI has no stream support: the host blocks in the barrier.
        assert all(dt > 0 for dt in results)
    else:
        # Only the dispatch cost is paid on the host; the op rides the stream.
        assert all(dt < 1e-6 for dt in results)


def test_split_all_backends(backend):
    def body(env, comm, coord):
        sub = comm.split(color=comm.global_rank() % 2)
        return sub.global_rank(), sub.global_size()

    results = uniconn_run(4, backend, body)
    assert results == [(0, 2), (0, 2), (1, 2), (1, 2)]


def test_to_device_only_on_gpushmem():
    def body(env, comm, coord):
        comm_d = comm.to_device()
        return comm_d.rank, comm_d.size

    results = uniconn_run(2, "gpushmem", body)
    assert results == [(0, 2), (1, 2)]

    def body_host(env, comm, coord):
        with pytest.raises(UniconnError, match="device API"):
            comm.to_device()
        return True

    assert all(uniconn_run(2, "mpi", body_host))
    assert all(uniconn_run(2, "gpuccl", body_host))
