"""Columnar schedules against the object-building generators they replaced.

:mod:`tests.coll.reference_generators` keeps the generators that built
one ``Send``/``Recv``/``RecvReduce``/``Copy`` object per step. Every
columnar schedule must read back, through its lazy step view, as the
same rounds step for step (round index, rank order within the round,
step type and fields), with the same ``n_rounds``; and lowering its
columns must give the arrays a walk over the reference's step objects
gives.
"""

import numpy as np
import pytest

from repro.coll import (ALGORITHMS, KINDS, Copy, Recv, RecvReduce, Schedule,
                        Send, generate)
from repro.coll.cost import Topology, _Lowered
from repro.coll.schedule import COLUMNS, COPY, RECV, REDUCE, SEND, StepRows
from repro.hardware import Cluster, get_machine
from tests.coll.reference_generators import lower_reference, reference_generate

ORACLE_RANKS = (2, 3, 4, 5, 7, 8, 12, 16, 64)
ITEMSIZE = 4


class _SingleNode:
    """Every rank on one node: the only layout detail generators read."""

    def __init__(self, p):
        self._groups = [list(range(p))]

    def groups(self):
        return self._groups


def _blocked(p):
    """Four ranks per node, contiguous (16x4 at p=64)."""
    spec = get_machine("perlmutter")
    return Topology(Cluster(spec, -(-p // spec.gpus_per_node)), list(range(p)))


def _uneven(p):
    """Ranks dealt round-robin over one node more than needed, so per-node
    groups are uneven and not contiguous rank ranges."""
    spec = get_machine("perlmutter")
    gpn = spec.gpus_per_node
    nodes = -(-p // gpn) + 1
    return Topology(Cluster(spec, nodes),
                    [(r % nodes) * gpn + r // nodes for r in range(p)])


def _fields(step):
    return (type(step).__name__,) + tuple(getattr(step, a)
                                          for a in step.__slots__)


def _steps(rounds):
    """Rounds as nested lists: rank order and step order both count."""
    return [[(rank, [_fields(st) for st in steps])
             for rank, steps in rnd.items()]
            for rnd in rounds]


_CODES = {Send: SEND, Recv: RECV, RecvReduce: REDUCE}


def _rows(rounds):
    """Rounds of step objects as :data:`COLUMNS` lists, walked in order
    (round, then rank as the dict holds them, then step): equal rows mean
    equal rounds step for step, rank order included."""
    rows = []
    for i, rnd in enumerate(rounds):
        for rank, steps in rnd.items():
            for st in steps:
                if type(st) is Copy:
                    rows.append((i, rank, COPY, -1, st.src, st.dst, st.length))
                else:
                    rows.append((i, rank, _CODES[type(st)], st.peer,
                                 st.offset, 0, st.length))
    return [list(col) for col in zip(*rows)] or [[] for _ in COLUMNS]


def _check(algorithm, kind, p, count, root, layout, lower_topo):
    ref = reference_generate(algorithm, kind, p, count, topo=layout, root=root)
    sched = generate(algorithm, kind, p, count, topo=layout, root=root)
    where = (algorithm, kind, p, count, root)
    if ref is None:
        assert sched is None, where
        return
    assert sched.n_rounds == ref.n_rounds, where
    assert sched.workspace == ref.workspace, where
    assert len(sched.rounds) == sched.n_rounds, where
    columns = [getattr(sched, name).tolist() for name in COLUMNS]
    assert _rows(ref.rounds) == columns, where
    assert _rows(sched.rounds) == columns, where
    for r in (0, p - 1):
        assert ([[_fields(st) for st in steps] for steps in sched.rank_rounds(r)]
                == [[_fields(st) for st in rnd.get(r, [])] for rnd in ref.rounds])
    for name in COLUMNS:
        assert getattr(sched, name).dtype == np.int64, (where, name)
    lowered = _Lowered(sched, lower_topo, ITEMSIZE)
    want = lower_reference(ref.rounds, lower_topo, ITEMSIZE)
    got = (lowered.starts, lowered.pair, lowered.params, lowered.nbytes,
           lowered.stage)
    for name, g, w in zip(("starts", "pair", "params", "nbytes", "stage"),
                          got, want):
        assert g.shape == w.shape and np.array_equal(g, w), (where, name)


@pytest.mark.parametrize("p", ORACLE_RANKS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_columns_match_object_generators(algorithm, p):
    blocked = _blocked(p)
    layouts = [(blocked, blocked)]
    if algorithm == "hier":  # the only generator that reads the layout
        layouts += [(_SingleNode(p), blocked), (_uneven(p), _uneven(p))]
    for layout, lower_topo in layouts:
        for kind in KINDS:
            for count in sorted({1, p - 1, p, 1000, 1 << 20}):
                for root in (0, p - 1):
                    _check(algorithm, kind, p, count, root, layout, lower_topo)


def test_canonical_order_and_empty_rounds():
    """Rows sort by round, then by each rank's first emission in that
    round, then emission order; zero-length steps drop and empty rounds
    still count."""
    rows = StepRows(Schedule("all_reduce", "test", 3, 4))
    first = rows.new_rounds(3)
    rows.pairs(first + 2, 2, 1, 0, 0, 4)
    rows.pairs(first, [1, 0], [0, 2], 0, 0, [0, 4])  # 1->0 is zero-length
    rows.pairs(first + 2, 1, 0, 1, 2, 3, reduce=True)
    sched = rows.finish()
    assert sched.n_rounds == 3
    assert _steps(sched.rounds) == _steps([
        {0: [Send(2, 0, 4)], 2: [Recv(0, 0, 4)]},
        {},
        {2: [Send(1, 0, 4)], 1: [Recv(2, 0, 4), Send(0, 1, 3)],
         0: [RecvReduce(1, 2, 3)]},
    ])
    assert sched.round.tolist() == [0, 0, 2, 2, 2, 2]


def test_from_rounds_round_trips_the_view():
    sched = generate("bruck", "all_gather", 5, 3)
    again = Schedule.from_rounds("all_gather", "bruck", 5, 3, sched.rounds,
                                 workspace=sched.workspace)
    for name in COLUMNS:
        assert np.array_equal(getattr(again, name), getattr(sched, name))
    assert again.n_rounds == sched.n_rounds


@pytest.mark.parametrize("algorithm", ["ring", "recdbl", "bruck"])
def test_offsets_past_int32_stay_exact(algorithm):
    """A 64-rank all_gather of 2**26 elements per rank addresses workspace
    offsets past 2**31; generation alone (no payload) must keep them."""
    p, count = 64, 1 << 26
    sched = generate(algorithm, "all_gather", p, count)
    copy = sched.code == COPY
    ends = sched.offset + sched.length
    if algorithm == "bruck":
        # Copies read the rotated blocks up to (p-1)*count and the staged
        # vector at p*count, and stage into the top half of the workspace.
        assert sched.offset[copy & (sched.length == count)].max() == (p - 1) * count
        assert sched.offset.max() == p * count
        assert (sched.dst + sched.length)[copy].max() == sched.workspace
    else:
        assert sched.offset.max() == (p - 1) * count
        assert ends.max() == sched.workspace == p * count
    assert ends.max() > 1 << 31
    assert (ends <= sched.workspace).all() and (sched.offset >= 0).all()
