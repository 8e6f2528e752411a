"""Schedule IR + algorithm generators against the naive reference.

The pure-python executor validates the IR while running (per-pair FIFO
matching, no unconsumed messages), so this matrix is simultaneously a
correctness proof of every generator's data movement and a well-formedness
check of every schedule — including non-power-of-two 7 and 12 ranks and
non-zero roots.

The lowered ``schedule_cost`` is checked bit-for-bit against
:func:`walk_cost`, the per-step walk it replaced.
"""

import numpy as np
import pytest

from repro.coll import (ALGORITHMS, CHANNEL_COUNTS, KINDS, PROTOCOLS, Copy,
                        Recv, RecvReduce, Schedule, Send, cached_generate,
                        chunk_layout,
                        execute_schedule, generate, is_applicable,
                        protocol_spec, reference_collective, ring_neighbors,
                        schedule_cost)
from repro.coll.cost import Topology
from repro.hardware import Cluster, get_machine

RANK_COUNTS = (2, 3, 4, 7, 8, 12, 16)


def _topo(p, machine="perlmutter"):
    spec = get_machine(machine)
    return Topology(Cluster(spec, -(-p // spec.gpus_per_node)),
                    list(range(p)))


def _inputs(kind, p, count, seed=7):
    rng = np.random.default_rng(seed)
    per_rank = count * p if kind == "reduce_scatter" else count
    return [rng.integers(0, 1 << 20, per_rank).astype(np.float64)
            for _ in range(p)]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", RANK_COUNTS)
def test_generated_schedule_matches_reference(algorithm, kind, p):
    topo = _topo(p)
    if not is_applicable(algorithm, kind, p, topo):
        pytest.skip(f"{algorithm} not applicable to {kind} at p={p}")
    count = 12  # not divisible by every p: exercises ragged chunk layouts
    for root in (0, p - 1):
        sched = generate(algorithm, kind, p, count, topo=topo, root=root)
        assert sched is not None
        inputs = _inputs(kind, p, count)
        got = execute_schedule(sched, inputs, op="sum", root=root)
        want = reference_collective(kind, inputs, op="sum", root=root)
        for r in range(p):
            if want[r] is None:
                continue
            np.testing.assert_array_equal(got[r], want[r],
                                          err_msg=f"rank {r} root {root}")


@pytest.mark.parametrize("op", ["sum", "max", "min", "prod"])
def test_all_ops_supported(op):
    p, count = 7, 5
    topo = _topo(p)
    rng = np.random.default_rng(3)
    inputs = [rng.integers(1, 5, count).astype(np.float64) for _ in range(p)]
    sched = generate("tree", "all_reduce", p, count, topo=topo)
    got = execute_schedule(sched, inputs, op=op)
    want = reference_collective("all_reduce", inputs, op=op)
    for r in range(p):
        np.testing.assert_array_equal(got[r], want[r])


def test_count_smaller_than_ranks():
    """count < p forces zero-length chunks; they must be dropped cleanly."""
    p, count = 12, 5
    topo = _topo(p)
    inputs = _inputs("all_reduce", p, count)
    sched = generate("ring", "all_reduce", p, count, topo=topo)
    got = execute_schedule(sched, inputs, op="sum")
    want = reference_collective("all_reduce", inputs, op="sum")
    for r in range(p):
        np.testing.assert_array_equal(got[r], want[r])


def test_chunk_layout_properties():
    for count in (0, 1, 7, 12, 100):
        for parts in (1, 3, 7, 16):
            layout = chunk_layout(count, parts)
            assert len(layout) == parts
            assert sum(length for _, length in layout) == count
            # Contiguous, ordered, lengths differ by at most one.
            offset = 0
            lengths = []
            for off, length in layout:
                assert off == offset
                offset += length
                lengths.append(length)
            assert max(lengths) - min(lengths) <= 1


def test_ring_neighbors():
    assert ring_neighbors(0, 4) == (3, 1)
    assert ring_neighbors(3, 4) == (2, 0)
    assert ring_neighbors(0, 1) == (0, 0)


def test_executor_rejects_unbalanced_rounds():
    sched = Schedule.from_rounds("broadcast", "bogus", 2, 4, [{
        0: [Send(1, 0, 4), Send(1, 0, 4)],  # second send never consumed
        1: [Recv(0, 0, 4)],
    }])
    inputs = [np.ones(4), np.zeros(4)]
    with pytest.raises(ValueError, match="unconsumed"):
        execute_schedule(sched, inputs)

    sched2 = Schedule.from_rounds("broadcast", "bogus", 2, 4, [{
        1: [Recv(0, 0, 4)],  # receive with no send
    }])
    with pytest.raises(ValueError, match="no message"):
        execute_schedule(sched2, inputs)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown collective kind"):
        Schedule("scan", "ring", 4, 8)
    with pytest.raises(ValueError, match="unknown collective kind"):
        reference_collective("scan", [np.ones(2)] * 2)


def test_cost_model_sanity():
    """Cost is positive, grows with message size, and latency-bound
    algorithms beat the ring at small sizes on a multi-node topology."""
    p = 64
    topo = _topo(p)
    ring_small = schedule_cost(generate("ring", "all_reduce", p, 64,
                                        topo=topo), topo)
    tree_small = schedule_cost(generate("recdbl", "all_reduce", p, 64,
                                        topo=topo), topo)
    assert 0 < tree_small < ring_small
    big = 32 << 20
    ring_big = schedule_cost(generate("ring", "all_reduce", p, big,
                                      topo=topo), topo)
    tree_big = schedule_cost(generate("recdbl", "all_reduce", p, big,
                                      topo=topo), topo)
    assert ring_big > ring_small
    assert ring_big < tree_big  # bandwidth-optimal ring wins large


def test_applicability_rules():
    topo = _topo(8)
    one_node = _topo(4)
    assert not is_applicable("ring", "all_reduce", 1)
    assert not is_applicable("bruck", "all_reduce", 8, topo)
    assert is_applicable("bruck", "all_gather", 7)
    assert not is_applicable("recdbl", "all_gather", 7)
    assert is_applicable("recdbl", "all_gather", 8)
    assert is_applicable("recdbl", "all_reduce", 7)
    assert is_applicable("hier", "all_reduce", 8, topo)
    assert not is_applicable("hier", "all_reduce", 4, one_node)
    assert not is_applicable("nonsense", "all_reduce", 8, topo)


# --------------------------------------------------------------------- #
# Lowered costing vs the per-step walk (bit-for-bit).
# --------------------------------------------------------------------- #


def walk_cost(sched, topo, itemsize=1, *, bw_scale=1.0,
              per_round_overhead=0.0, staging_threshold=0,
              staging_inv_bw=0.0, protocol=None, channels=1):
    """Reference oracle: price every step in turn, in schedule order."""
    spec = protocol_spec(protocol)
    bw_factor = 1.0 if spec is None else spec.bw_factor
    ov_factor = 1.0 if spec is None else spec.overhead_factor
    lat_factor = 1.0 if spec is None else 1.0 + spec.rendezvous_factor
    eff_scale = min(channels * bw_scale, 1.0) * bw_factor
    local_bw = topo.local_bandwidth()
    total = 0.0
    for rnd in sched.rounds:
        round_cost = 0.0
        for rank, steps in rnd.items():
            rank_cost = 0.0
            for st in steps:
                if isinstance(st, Send):
                    nbytes = st.length * itemsize
                    lat, bw, ov = topo.path_params(rank, st.peer)
                    rank_cost += (lat * lat_factor + ov * ov_factor * channels
                                  + nbytes / (bw * eff_scale))
                    if staging_inv_bw and nbytes > staging_threshold:
                        rank_cost += nbytes * staging_inv_bw
                elif isinstance(st, RecvReduce):
                    nbytes = st.length * itemsize
                    rank_cost += nbytes / local_bw
                    if staging_inv_bw and nbytes > staging_threshold:
                        rank_cost += nbytes * staging_inv_bw
                elif isinstance(st, Recv):
                    nbytes = st.length * itemsize
                    if staging_inv_bw and nbytes > staging_threshold:
                        rank_cost += nbytes * staging_inv_bw
                elif isinstance(st, Copy):
                    rank_cost += st.length * itemsize / local_bw
            if rank_cost > round_cost:
                round_cost = rank_cost
        total += round_cost
    return total + per_round_overhead * sched.n_rounds


def _spread_topo(p, n_nodes=2, machine="perlmutter"):
    """Ranks dealt round-robin over ``n_nodes`` nodes: multi-node at every
    p, with per-node groups that are not contiguous rank ranges."""
    spec = get_machine(machine)
    gpn = spec.gpus_per_node
    nodes = max(n_nodes, -(-p // gpn))
    return Topology(Cluster(spec, nodes),
                    [(r % nodes) * gpn + r // nodes for r in range(p)])


# 3072 float32 elements: a p=3 ring chunk is exactly the 4 KiB eager
# threshold (not staged), full-vector sends are above it, and the small
# chunks of larger p fall below it.
COUNT, ITEMSIZE, THRESHOLD = 3072, 4, 4096
VARIANTS = [
    dict(protocol=protocol, channels=channels, **staging)
    for protocol in (None,) + PROTOCOLS
    for channels in CHANNEL_COUNTS
    for staging in (dict(bw_scale=0.85),
                    dict(per_round_overhead=2.5e-6,
                         staging_threshold=THRESHOLD,
                         staging_inv_bw=1.0 / 12e9))
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", (2, 3, 7, 8, 64))
def test_lowered_cost_matches_walk_bitwise(algorithm, kind, p):
    topo = _spread_topo(p)
    sched = generate(algorithm, kind, p, COUNT, topo=topo, root=p - 1)
    if sched is None:
        pytest.skip(f"{algorithm} not applicable to {kind} at p={p}")
    for variant in VARIANTS:
        want = walk_cost(sched, topo, ITEMSIZE, **variant)
        assert schedule_cost(sched, topo, ITEMSIZE, **variant) == want, variant
    # A second placement of the same schedule must not reuse the first
    # placement's lowering.
    flat = _topo(p)
    assert schedule_cost(sched, flat, ITEMSIZE) == walk_cost(sched, flat,
                                                              ITEMSIZE)


def test_lowered_cost_of_empty_schedules():
    topo = _topo(1)
    empty = Schedule("all_reduce", "ring", 1, COUNT)
    blank_rounds = Schedule.from_rounds("all_reduce", "ring", 1, COUNT,
                                        [{}, {}])
    for sched in (empty, blank_rounds):
        for variant in VARIANTS:
            want = walk_cost(sched, topo, ITEMSIZE, **variant)
            assert schedule_cost(sched, topo, ITEMSIZE, **variant) == want
    assert schedule_cost(blank_rounds, topo, per_round_overhead=1.5) == 3.0


def test_memo_keys_on_the_rank_layout():
    """Topologies with the same per-node groups share one schedule;
    a different grouping of the same ranks gets its own."""
    spread, flat = _spread_topo(8), _topo(8)
    assert spread.signature() == flat.signature()
    shared = cached_generate("hier", "all_reduce", 8, COUNT, topo=spread)
    assert shared is cached_generate("hier", "all_reduce", 8, COUNT,
                                     topo=_spread_topo(8))
    own = cached_generate("hier", "all_reduce", 8, COUNT, topo=flat)
    assert own is not shared
    inputs = _inputs("all_reduce", 8, COUNT)
    want = reference_collective("all_reduce", inputs)
    for sched in (shared, own):
        got = execute_schedule(sched, inputs)
        for r in range(8):
            np.testing.assert_array_equal(got[r], want[r])
