"""The collective Schedule IR (docs/COLLECTIVES.md).

A :class:`Schedule` is a backend-independent description of one collective
as synchronized *rounds* of per-rank steps over a scratch workspace. It
stores the steps as int64 columns (one row per step, in a canonical
order); the step objects below are a lazily built view of those rows:

- :class:`Send` / :class:`Recv` — move ``length`` workspace elements
  starting at ``offset`` to/from ``peer``;
- :class:`RecvReduce` — receive and fold into the workspace with the
  collective's reduction operator;
- :class:`Copy` — local workspace move (rotations, staging).

Workspace layout is a fixed convention per collective kind (see
:func:`workspace_size` and :func:`init_workspace`), so every backend and
the pure-python executor agree on what a schedule means. Within one round
every send payload is snapshotted first, then receives land, then local
copies run in step order; rounds are barriers in the *data-flow* sense only
(a backend may overlap rounds as long as per-pair FIFO order holds, which
is what the MPI executor relies on).

This module also hosts the shared ring/chunk arithmetic that used to be
re-derived independently by ``backends/gpuccl/rings.py`` and
``backends/gpushmem/collectives.py``: :func:`ring_neighbors`,
:func:`chunk_layout` and :func:`ring_path_params`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KINDS",
    "Send",
    "Recv",
    "RecvReduce",
    "Copy",
    "SEND",
    "RECV",
    "REDUCE",
    "COPY",
    "COLUMNS",
    "Schedule",
    "StepRows",
    "ring_neighbors",
    "chunk_layout",
    "ring_path_params",
    "workspace_size",
    "execute_schedule",
    "reference_collective",
]

#: Canonical collective kinds handled by the engine. ``count`` semantics
#: follow the backend APIs: total elements for all_reduce/broadcast/reduce,
#: per-rank elements for all_gather/reduce_scatter.
KINDS = ("all_reduce", "all_gather", "broadcast", "reduce", "reduce_scatter")


class _Step:
    __slots__ = ()


class Send(_Step):
    """Send ``length`` workspace elements at ``offset`` to ``peer``."""

    __slots__ = ("peer", "offset", "length")

    def __init__(self, peer: int, offset: int, length: int):
        self.peer = peer
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Send(->{self.peer}, {self.offset}+{self.length})"


class Recv(_Step):
    """Receive ``length`` elements from ``peer`` into ``offset``."""

    __slots__ = ("peer", "offset", "length")

    def __init__(self, peer: int, offset: int, length: int):
        self.peer = peer
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Recv(<-{self.peer}, {self.offset}+{self.length})"


class RecvReduce(_Step):
    """Receive ``length`` elements from ``peer`` and reduce into ``offset``."""

    __slots__ = ("peer", "offset", "length")

    def __init__(self, peer: int, offset: int, length: int):
        self.peer = peer
        self.offset = offset
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecvReduce(<-{self.peer}, {self.offset}+{self.length})"


class Copy(_Step):
    """Local workspace copy of ``length`` elements from ``src`` to ``dst``."""

    __slots__ = ("src", "dst", "length")

    def __init__(self, src: int, dst: int, length: int):
        self.src = src
        self.dst = dst
        self.length = length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Copy({self.src}->{self.dst}, {self.length})"


#: Values of a schedule's ``code`` column, one per step type.
SEND, RECV, REDUCE, COPY = range(4)

#: The int64 step columns of a :class:`Schedule`, in canonical order.
COLUMNS = ("round", "rank", "code", "peer", "offset", "dst", "length")

_EMPTY = np.zeros(0, dtype=np.int64)

_STEP_CODES = {Send: SEND, Recv: RECV, RecvReduce: REDUCE}


class Schedule:
    """A generated collective: per-rank step programs in global rounds.

    Steps are stored as int64 columns (:data:`COLUMNS`), one row per step:
    the round, the executing rank, the step ``code`` (:data:`SEND`,
    :data:`RECV`, :data:`REDUCE`, :data:`COPY`), the ``peer`` (-1 for a
    copy), the workspace ``offset`` (a copy's source), a copy's ``dst``
    (0 otherwise) and the ``length``. Rows are in *canonical order*:
    sorted by round; within a round, ranks in the order each first
    received a step; within a (round, rank), steps in emission order.
    Zero-length steps are dropped, while empty rounds still count in
    ``n_rounds``. :class:`StepRows` is the only writer.

    :attr:`rounds` / :meth:`rank_rounds` are a step-object view of the
    same rows, built on first use and cached, for the executors.
    """

    __slots__ = ("kind", "algorithm", "nranks", "count", "workspace",
                 "n_rounds", "_view") + COLUMNS

    def __init__(self, kind: str, algorithm: str, nranks: int, count: int,
                 workspace: Optional[int] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown collective kind {kind!r}")
        self.kind = kind
        self.algorithm = algorithm
        self.nranks = nranks
        self.count = count
        self.workspace = workspace_size(kind, nranks, count) if workspace is None else workspace
        self.n_rounds = 0
        for name in COLUMNS:
            setattr(self, name, _EMPTY)
        self._view: Optional[List[Dict[int, List[_Step]]]] = None

    @classmethod
    def from_rounds(cls, kind: str, algorithm: str, nranks: int, count: int,
                    rounds: Sequence[Dict[int, Sequence[_Step]]],
                    workspace: Optional[int] = None) -> "Schedule":
        """Build a schedule from step objects, ``rounds[i]`` mapping each
        rank to its steps in round ``i`` (hand-written schedules)."""
        table = []
        for i, rnd in enumerate(rounds):
            for rank, steps in rnd.items():
                for st in steps:
                    if isinstance(st, Copy):
                        table.append((i, rank, COPY, -1, st.src, st.dst, st.length))
                    else:
                        table.append((i, rank, _STEP_CODES[type(st)], st.peer,
                                      st.offset, 0, st.length))
        rows = StepRows(cls(kind, algorithm, nranks, count, workspace))
        rows.new_rounds(len(rounds))
        rows.append(*np.array(table, dtype=np.int64).reshape(-1, len(COLUMNS)).T)
        return rows.finish()

    @property
    def rounds(self) -> List[Dict[int, List[_Step]]]:
        """Per round, each rank's step objects (rank order as stored)."""
        view = self._view
        if view is None:
            view = self._view = self._build_view()
        return view

    def _build_view(self) -> List[Dict[int, List[_Step]]]:
        view: List[Dict[int, List[_Step]]] = [{} for _ in range(self.n_rounds)]
        transfers = (Send, Recv, RecvReduce)
        for rnd, rank, code, peer, offset, dst, length in zip(
                *(getattr(self, name).tolist() for name in COLUMNS)):
            if code == COPY:
                step: _Step = Copy(offset, dst, length)
            else:
                step = transfers[code](peer, offset, length)
            view[rnd].setdefault(rank, []).append(step)
        return view

    def rank_rounds(self, rank: int) -> List[List[_Step]]:
        """The per-round step lists of one rank (empty rounds included)."""
        return [rnd.get(rank, []) for rnd in self.rounds]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Schedule {self.algorithm}:{self.kind} p={self.nranks} "
                f"count={self.count} rounds={self.n_rounds}>")


class StepRows:
    """Steps of one schedule under construction, in emission order.

    Generators allocate rounds with :meth:`new_rounds` (in any order:
    phase builders fill rounds allocated earlier) and emit steps with the
    vector helpers :meth:`pairs` and :meth:`copies`; :meth:`finish`
    stores them in canonical order on the schedule. Emission order counts
    only within a round, so a helper may emit many rounds at once as long
    as each round's steps come out in the order a loop would emit them.
    """

    __slots__ = ("sched", "n_rounds", "_blocks")

    def __init__(self, sched: Schedule):
        self.sched = sched
        self.n_rounds = 0
        self._blocks: List[Tuple[np.ndarray, ...]] = []

    def new_rounds(self, n: int = 1) -> int:
        """Open ``n`` empty rounds; returns the index of the first."""
        first = self.n_rounds
        self.n_rounds += n
        return first

    def append(self, rnd, rank, code, peer, offset, dst, length) -> None:
        """Emit steps given column by column (scalars broadcast)."""
        arrays = np.broadcast_arrays(
            *(np.asarray(c, dtype=np.int64)
              for c in (rnd, rank, code, peer, offset, dst, length)))
        self._blocks.append(tuple(a.ravel() for a in arrays))

    def pairs(self, rnd, src, dst, s_off, d_off, length,
              reduce: bool = False) -> None:
        """Emit one transfer per element: ``src`` sends ``length`` elements
        at ``s_off`` to ``dst``, which receives (or, with ``reduce``,
        receives and folds) them at ``d_off``. Each send is emitted right
        before its matching receive; arguments broadcast together."""
        rnd, src, dst, s_off, d_off, length = (
            a.ravel() for a in np.broadcast_arrays(
                *(np.asarray(c, dtype=np.int64)
                  for c in (rnd, src, dst, s_off, d_off, length))))
        n = len(src)

        def interleave(send, recv) -> np.ndarray:
            out = np.empty(2 * n, dtype=np.int64)
            out[0::2] = send
            out[1::2] = recv
            return out

        self._blocks.append((
            interleave(rnd, rnd), interleave(src, dst),
            interleave(SEND, REDUCE if reduce else RECV),
            interleave(dst, src), interleave(s_off, d_off),
            np.zeros(2 * n, dtype=np.int64),
            interleave(length, length),
        ))

    def copies(self, rnd, rank, src, dst, length) -> None:
        """Emit local copies of ``length`` elements from ``src`` to ``dst``."""
        self.append(rnd, rank, COPY, -1, src, dst, length)

    def finish(self) -> Schedule:
        """Store the emitted steps on the schedule in canonical order."""
        sched = self.sched
        sched.n_rounds = self.n_rounds
        if not self._blocks:
            return sched
        cols = [np.concatenate(c) for c in zip(*self._blocks)]
        kept = np.flatnonzero(cols[6] > 0)  # zero-length steps drop
        perm = kept[_canonical_order(cols[0][kept], cols[1][kept],
                                     sched.nranks)]
        for name, col in zip(COLUMNS, cols):
            setattr(sched, name, col[perm])
        return sched


def _canonical_order(rnd: np.ndarray, rank: np.ndarray,
                     nranks: int) -> np.ndarray:
    """The permutation of emission-ordered rows into canonical order.

    Rows group by (round, rank) with emission order kept inside a group;
    groups sort by round, then by the emission index of their first row.
    """
    key = rnd * nranks + rank
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    head = np.flatnonzero(np.diff(sorted_key, prepend=-1))
    size = np.diff(np.append(head, len(key)))
    groups = np.lexsort((order[head], sorted_key[head] // nranks))
    seg_start, seg_size = head[groups], size[groups]
    return order[np.repeat(seg_start - (np.cumsum(seg_size) - seg_size),
                           seg_size) + np.arange(len(key))]


# --------------------------------------------------------------------- #
# Shared ring/chunk arithmetic (hoisted from the backends).
# --------------------------------------------------------------------- #


def ring_neighbors(rank: int, nranks: int) -> Tuple[int, int]:
    """(previous, next) neighbour of ``rank`` on the canonical ring."""
    return (rank - 1) % nranks, (rank + 1) % nranks


def chunk_layout(count: int, parts: int) -> List[Tuple[int, int]]:
    """Balanced partition of ``count`` elements into ``parts`` chunks.

    Returns ``[(offset, length), ...]``; the remainder is spread over the
    leading chunks, so lengths differ by at most one and ragged (including
    zero-length) chunks appear only at the tail.
    """
    base, rem = divmod(count, parts)
    out = []
    offset = 0
    for i in range(parts):
        length = base + (1 if i < rem else 0)
        out.append((offset, length))
        offset += length
    return out


def ring_path_params(cluster, gpu_ids: Sequence[int]) -> Tuple[float, float]:
    """(hop_latency, bottleneck_bandwidth) of the ring over ``gpu_ids``.

    The slowest hop governs a ring schedule: latency is the max path
    latency over successive hops and bandwidth the min path bandwidth —
    the arithmetic GPUCCL's ring model and GPUSHMEM's team model share.
    """
    p = len(gpu_ids)
    if p <= 1:
        return 0.0, float("inf")
    hops = [cluster.path(gpu_ids[i], gpu_ids[(i + 1) % p]) for i in range(p)]
    return max(h.latency for h in hops), min(h.bandwidth for h in hops)


# --------------------------------------------------------------------- #
# Workspace conventions.
# --------------------------------------------------------------------- #


def workspace_size(kind: str, nranks: int, count: int) -> int:
    """Scratch elements each rank needs to execute a schedule of ``kind``."""
    if kind in ("all_reduce", "broadcast", "reduce"):
        return count
    return nranks * count  # all_gather / reduce_scatter


def init_workspace(kind: str, rank: int, nranks: int, count: int,
                   data: np.ndarray, root: int, workspace: int) -> np.ndarray:
    """Build one rank's initial workspace from its input ``data``."""
    work = np.zeros(workspace, dtype=data.dtype)
    if kind in ("all_reduce", "reduce"):
        work[:count] = data[:count]
    elif kind == "broadcast":
        if rank == root:
            work[:count] = data[:count]
    elif kind == "all_gather":
        work[rank * count:(rank + 1) * count] = data[:count]
    else:  # reduce_scatter
        work[:nranks * count] = data[:nranks * count]
    return work


def extract_output(kind: str, rank: int, nranks: int, count: int,
                   work: np.ndarray, root: int) -> Optional[np.ndarray]:
    """Read one rank's result back out of its final workspace."""
    if kind in ("all_reduce", "broadcast"):
        return work[:count]
    if kind == "reduce":
        return work[:count] if rank == root else None
    if kind == "all_gather":
        return work[:nranks * count]
    return work[rank * count:(rank + 1) * count]  # reduce_scatter


# --------------------------------------------------------------------- #
# Pure-python executor + naive reference (the correctness oracle).
# --------------------------------------------------------------------- #


def _apply_op(op: str, acc: np.ndarray, other: np.ndarray) -> None:
    from ..backends.common import apply_reduce

    apply_reduce(op, acc, other)


def execute_schedule(sched: Schedule, inputs: Sequence[np.ndarray],
                     op: str = "sum", root: int = 0) -> List[Optional[np.ndarray]]:
    """Run a schedule functionally over per-rank numpy inputs.

    Validates the IR while executing: every send must be consumed by a
    matching receive of the same length within its round (per-pair FIFO),
    and no message may be left over. Used by the equivalence tests and by
    generator self-checks; backends have their own executors.
    """
    p = sched.nranks
    if len(inputs) != p:
        raise ValueError(f"need {p} inputs, got {len(inputs)}")
    work = [
        init_workspace(sched.kind, r, p, sched.count, np.asarray(inputs[r]),
                       root, sched.workspace)
        for r in range(p)
    ]
    for rnd_idx, rnd in enumerate(sched.rounds):
        # 1. Snapshot every send payload at round entry.
        mail: Dict[Tuple[int, int], List[np.ndarray]] = {}
        for rank, steps in rnd.items():
            for st in steps:
                if isinstance(st, Send):
                    mail.setdefault((rank, st.peer), []).append(
                        work[rank][st.offset:st.offset + st.length].copy()
                    )
        # 2. Receives land (FIFO per ordered pair), then local copies.
        for rank, steps in rnd.items():
            for st in steps:
                if isinstance(st, (Recv, RecvReduce)):
                    queue = mail.get((st.peer, rank))
                    if not queue:
                        raise ValueError(
                            f"round {rnd_idx}: rank {rank} receives from "
                            f"{st.peer} but no message was sent"
                        )
                    payload = queue.pop(0)
                    if payload.size != st.length:
                        raise ValueError(
                            f"round {rnd_idx}: size mismatch {st.peer}->{rank}: "
                            f"sent {payload.size}, expected {st.length}"
                        )
                    dst = work[rank][st.offset:st.offset + st.length]
                    if isinstance(st, RecvReduce):
                        _apply_op(op, dst, payload)
                    else:
                        dst[:] = payload
        for rank, steps in rnd.items():
            for st in steps:
                if isinstance(st, Copy):
                    work[rank][st.dst:st.dst + st.length] = \
                        work[rank][st.src:st.src + st.length]
        leftover = {k: len(v) for k, v in mail.items() if v}
        if leftover:
            raise ValueError(f"round {rnd_idx}: unconsumed messages {leftover}")
    return [
        extract_output(sched.kind, r, p, sched.count, work[r], root)
        for r in range(p)
    ]


def reference_collective(kind: str, inputs: Sequence[np.ndarray],
                         op: str = "sum", root: int = 0) -> List[Optional[np.ndarray]]:
    """The naive (rank-ordered) result every schedule must reproduce."""
    p = len(inputs)
    arrs = [np.asarray(a) for a in inputs]
    if kind in ("all_reduce", "reduce"):
        total = arrs[0].copy()
        for r in range(1, p):
            _apply_op(op, total, arrs[r])
        if kind == "all_reduce":
            return [total.copy() for _ in range(p)]
        return [total.copy() if r == root else None for r in range(p)]
    if kind == "broadcast":
        return [arrs[root].copy() for _ in range(p)]
    if kind == "all_gather":
        gathered = np.concatenate(arrs)
        return [gathered.copy() for _ in range(p)]
    if kind == "reduce_scatter":
        count = arrs[0].size // p
        total = arrs[0].copy()
        for r in range(1, p):
            _apply_op(op, total, arrs[r])
        return [total[r * count:(r + 1) * count].copy() for r in range(p)]
    raise ValueError(f"unknown collective kind {kind!r}")
