"""Shared helpers for Uniconn core tests."""

import pytest

from repro import Communicator, Environment, launch

ALL_BACKENDS = ["mpi", "gpuccl", "gpushmem"]
HOST_BACKENDS = ["mpi", "gpuccl"]


def uniconn_run(nranks, backend, body, machine="perlmutter", launch_mode=None, **kwargs):
    """Run ``body(env, comm, coord_factory)`` per rank with a ready stack.

    ``coord_factory(stream)`` builds a Coordinator on a fresh stream bound
    to the requested launch mode.
    """
    from repro import Coordinator

    def main(ctx):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        comm = Communicator(env)
        stream = env.device.create_stream()
        coord = Coordinator(env, stream=stream, launch_mode=launch_mode)
        return body(env, comm, coord)

    return launch(main, nranks, machine=machine, **kwargs)


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    return request.param


@pytest.fixture(params=HOST_BACKENDS)
def host_backend(request):
    return request.param
