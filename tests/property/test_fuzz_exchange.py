"""Randomized cross-backend exchange fuzzing: arbitrary neighbour graphs
and message sizes must deliver exactly the right data on every backend."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Communicator, Coordinator, Environment, Memory, launch


def run_exchange(backend, nranks, edges, sizes, machine="perlmutter"):
    """``edges`` are (src, dst) pairs; rank src sends sizes[i] elements of
    value src*1000+i to dst. Returns what each rank received per edge."""

    def main(ctx):
        env = Environment(ctx, backend=backend)
        env.set_device(env.node_rank())
        comm = Communicator(env)
        stream = env.device.create_stream()
        coord = Coordinator(env, stream=stream)
        me = comm.global_rank()
        maxsize = max(sizes)
        # Symmetric contract: identical allocations everywhere.
        sends = [Memory.alloc(env, maxsize) for _ in edges]
        recvs = [Memory.alloc(env, maxsize) for _ in edges]
        sig = (Memory.alloc(env, len(edges), dtype=np.uint64)
               if env.backend.supports_device_api else None)
        for i, (src, dst) in enumerate(edges):
            if src == me:
                sends[i].write(np.full(sizes[i], float(src * 1000 + i), np.float32))
        comm.barrier(stream=stream)

        coord.comm_start()
        for i, (src, dst) in enumerate(edges):
            s = sig.offset_by(i, 1) if sig is not None else None
            if src == me:
                coord.post(sends[i], recvs[i], sizes[i], s, 1, dst, comm, tag=i)
        for i, (src, dst) in enumerate(edges):
            s = sig.offset_by(i, 1) if sig is not None else None
            if dst == me:
                coord.acknowledge(recvs[i], sizes[i], s, 1, src, comm, tag=i)
        coord.comm_end()
        stream.synchronize()

        got = {}
        for i, (src, dst) in enumerate(edges):
            if dst == me:
                got[i] = recvs[i].read()[: sizes[i]].copy()
        env.close()
        return got

    return launch(main, nranks, machine=machine)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fuzzed_exchanges_deliver_exact_data(data):
    nranks = data.draw(st.integers(min_value=2, max_value=5))
    n_edges = data.draw(st.integers(min_value=1, max_value=6))
    # Distinct (src, dst) pairs with src != dst; tags disambiguate repeats,
    # but one-sided backends share recv windows, so keep pairs unique.
    pairs = st.tuples(st.integers(0, nranks - 1), st.integers(0, nranks - 1)).filter(
        lambda p: p[0] != p[1]
    )
    edges = data.draw(st.lists(pairs, min_size=n_edges, max_size=n_edges, unique=True))
    sizes = data.draw(st.lists(st.integers(min_value=1, max_value=4096),
                               min_size=len(edges), max_size=len(edges)))
    backend = data.draw(st.sampled_from(["mpi", "gpuccl", "gpushmem"]))

    results = run_exchange(backend, nranks, edges, sizes)
    for i, (src, dst) in enumerate(edges):
        got = results[dst][i]
        expected = np.full(sizes[i], float(src * 1000 + i), np.float32)
        np.testing.assert_array_equal(got, expected,
                                      err_msg=f"{backend} edge {i}: {src}->{dst}")
