"""Alpha-beta cost model over Cluster paths (docs/COLLECTIVES.md).

:class:`Topology` is the communicator-shaped view of a
:class:`~repro.hardware.cluster.Cluster`: rank -> GPU placement, per-node
rank groups (what the hierarchical generator keys on) and memoized
``(latency, bandwidth, per_message_overhead)`` triples per rank pair. Its
:meth:`Topology.signature` string is the tuning-table key — two
communicators with the same machine, size and per-node layout share
selections.

:func:`schedule_cost` prices a schedule round by round: each rank pays
alpha + per-message overhead + bytes/beta for its sends (sender-side
serialization, so fan-outs cost what they should), a memory-bandwidth
term for reductions and local copies, and the round costs the maximum
over ranks. This deliberately ignores link contention — it is a ranking
function for the tuner, not a replacement for the event-driven link
occupancy the backends charge at execution time.

A schedule is lowered once per (placement, itemsize) into padded
per-(round, rank) addend arrays (:class:`_Lowered`); every protocol x
channels variant is then a few numpy passes over those arrays that keep
the IEEE operation order of the per-step walk, so costs are bit-identical
to pricing each step in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import attrgetter
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .algorithms import LruMemo
from .schedule import Copy, Recv, RecvReduce, Schedule, Send

__all__ = [
    "Topology",
    "ProtocolSpec",
    "PROTOCOLS",
    "PROTOCOL_SPECS",
    "CHANNEL_COUNTS",
    "protocol_spec",
    "schedule_cost",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """Wire-protocol behaviour knobs ("Demystifying NCCL", PAPERS.md).

    ``bw_factor`` is the fraction of path bandwidth the protocol's framing
    leaves for payload (LL interleaves a 4B flag with every 4B of data,
    LL128 spends 8B of every 128B line on flags), ``overhead_factor``
    scales the per-message overhead (flag-embedded protocols skip most of
    the per-message setup), and ``rendezvous_factor`` adds that many extra
    path latencies per message for the ready-to-receive handshake only the
    bandwidth-optimized Simple protocol performs.
    """

    name: str
    bw_factor: float
    overhead_factor: float
    rendezvous_factor: float


#: Protocol catalogue, latency-optimized to bandwidth-optimized.
PROTOCOL_SPECS: Dict[str, ProtocolSpec] = {
    # 4B data + 4B flag per 8B line: half bandwidth, no rendezvous, and
    # the flag write doubles as the arrival signal (no message setup).
    "LL": ProtocolSpec("LL", 0.5, 0.0, 0.0),
    # 120B data per 128B line: ~95% bandwidth, partial setup cost.
    "LL128": ProtocolSpec("LL128", 0.9375, 0.5, 0.0),
    # Full-bandwidth pipelined chunking, but every message pays a full
    # rendezvous round trip before the payload moves.
    "Simple": ProtocolSpec("Simple", 1.0, 1.0, 2.0),
}

PROTOCOLS: Tuple[str, ...] = tuple(PROTOCOL_SPECS)

#: Channel ("rail") counts the tuner explores. Channels divide a message
#: across parallel FIFOs that share the same physical wire, so they only
#: recover bandwidth a single channel leaves on the table (``bw_scale``)
#: while multiplying per-message overheads.
CHANNEL_COUNTS: Tuple[int, ...] = (1, 2, 4)


def protocol_spec(name: Union[str, ProtocolSpec, None]) -> Optional[ProtocolSpec]:
    """Resolve a protocol name to its spec (``None`` passes through)."""
    if name is None or isinstance(name, ProtocolSpec):
        return name
    try:
        return PROTOCOL_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; expected one of {PROTOCOLS}"
        ) from None


class Topology:
    """Rank -> GPU view of a cluster for one communicator."""

    def __init__(self, cluster, gpu_ids):
        self.cluster = cluster
        self.gpu_ids = list(gpu_ids)
        self.nranks = len(self.gpu_ids)
        self._params: Dict[Tuple[int, int], Tuple[float, float, float]] = {}
        self._groups: List[List[int]] = []
        seen: Dict[int, List[int]] = {}
        for rank, gpu in enumerate(self.gpu_ids):
            node = cluster.node_of(gpu)
            if node not in seen:
                seen[node] = []
                self._groups.append(seen[node])
            seen[node].append(rank)
        self._signature = "{}/p{}/{}".format(
            cluster.machine.name, self.nranks,
            "+".join(str(len(g)) for g in self._groups),
        )
        # Path parameters depend only on the machine and the GPU of each
        # rank, so topologies with equal keys share lowered schedules.
        self.placement = (cluster.machine, tuple(self.gpu_ids))

    def groups(self) -> List[List[int]]:
        """Ranks grouped by node, in first-appearance order."""
        return self._groups

    def n_nodes(self) -> int:
        return len(self._groups)

    def path_params(self, a: int, b: int) -> Tuple[float, float, float]:
        """(latency, bandwidth, per_message_overhead) of the a->b path."""
        key = (a, b)
        cached = self._params.get(key)
        if cached is None:
            path = self.cluster.path(self.gpu_ids[a], self.gpu_ids[b])
            overhead = max(l.per_message_overhead for l in path.links)
            cached = (path.latency, path.bandwidth, overhead)
            self._params[key] = cached
        return cached

    def local_bandwidth(self) -> float:
        """Effective local copy/reduce bandwidth (read + write of HBM)."""
        return self.cluster.machine.gpu.mem_bandwidth / 2.0

    def signature(self) -> str:
        """Tuning-table key: machine / size / per-node rank layout."""
        return self._signature

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Topology {self._signature}>"


_SEND, _RECV, _REDUCE, _COPY = range(4)
_STEP_CODES = {Send: _SEND, Recv: _RECV, RecvReduce: _REDUCE, Copy: _COPY}
_length = attrgetter("length")
_peer = attrgetter("peer")


class _Lowered:
    """One schedule's steps as padded ``(step column, row)`` arrays.

    A row is one rank's step list in one non-empty round; rows of a round
    are contiguous and ``starts`` indexes each round's first row. Step
    ``k`` of a row sits in column ``k`` (shorter rows are zero-padded):

    - ``pair`` indexes ``params``, the distinct (latency, bandwidth,
      per-message overhead) paths the sends use; entry 0 is the local
      pseudo-path of copies, reductions, plain receives and padding;
    - ``nbytes`` is a send's wire bytes or a copy/reduction's local bytes
      (0 for plain receives and padding);
    - ``stage`` is the bytes a step stages through a bounce buffer (0 for
      copies and padding).
    """

    __slots__ = ("starts", "pair", "params", "local_bw", "nbytes", "stage")

    def __init__(self, sched: Schedule, topo: Topology, itemsize: int):
        steps: List = []
        row_ranks: List[int] = []
        row_lens: List[int] = []
        starts: List[int] = []
        for rnd in sched.rounds:
            if not rnd:
                continue
            starts.append(len(row_lens))
            for rank, rank_steps in rnd.items():
                row_ranks.append(rank)
                row_lens.append(len(rank_steps))
                steps.extend(rank_steps)
        self.starts = np.array(starts, dtype=np.intp)
        self.local_bw = topo.local_bandwidth()
        lens = np.array(row_lens, dtype=np.intp)
        width = int(lens.max()) if len(lens) else 0
        row = np.repeat(np.arange(len(lens)), lens)
        col = np.arange(len(steps)) - np.repeat(np.cumsum(lens) - lens, lens)
        n = len(steps)
        code = np.fromiter(map(_STEP_CODES.__getitem__, map(type, steps)),
                           np.int8, n)
        send = code == _SEND
        nbytes = np.fromiter(map(_length, steps), np.int64, n) * itemsize
        nbytes = nbytes.astype(np.float64)
        src = np.array(row_ranks, dtype=np.int64)[row[send]]
        dst = np.fromiter(map(_peer, compress(steps, send.tolist())),
                          np.int64, int(send.sum()))
        keys, inverse = np.unique(src * topo.nranks + dst, return_inverse=True)
        self.params = np.array(
            [(0.0, self.local_bw, 0.0)]
            + [topo.path_params(*divmod(int(k), topo.nranks)) for k in keys],
            dtype=np.float64,
        ).reshape(-1, 3)
        shape = (width, len(lens))
        self.pair = np.zeros(shape, dtype=np.intp)
        self.pair[col[send], row[send]] = inverse.reshape(-1) + 1
        self.nbytes = np.zeros(shape)
        self.nbytes[col, row] = np.where(code == _RECV, 0.0, nbytes)
        self.stage = np.zeros(shape)
        self.stage[col, row] = np.where(code == _COPY, 0.0, nbytes)

    def cost(self, lat_factor: float, ov_factor: float, channels: int,
             eff_scale: float, staging_threshold: int,
             staging_inv_bw: float) -> float:
        """Sum over rounds of the per-round maximum rank cost.

        Keeps the per-step walk's operation order: each send adds
        ``lat*lat_factor + ov*ov_factor*channels + nbytes/(bw*eff_scale)``
        (local steps add ``0.0 + nbytes/local_bw``), a staged step adds
        its bounce-buffer charge right after, a row accumulates left to
        right, and rounds sum in order. Zero addends (padding, skipped
        staging) leave a non-negative float sum bit-identical.
        """
        if not len(self.pair):
            return 0.0
        lat, bw, ov = self.params[:, 0], self.params[:, 1], self.params[:, 2]
        fixed = lat * lat_factor + ov * ov_factor * channels
        denom = bw * eff_scale
        denom[0] = self.local_bw
        addend = fixed[self.pair] + self.nbytes / denom[self.pair]
        staged = None
        if staging_inv_bw:
            staged = np.where(self.stage > staging_threshold,
                              self.stage * staging_inv_bw, 0.0)
        acc = addend[0] if staged is None else addend[0] + staged[0]
        for k in range(1, len(addend)):
            acc = acc + addend[k]
            if staged is not None:
                acc = acc + staged[k]
        total = 0.0
        for round_cost in np.maximum.reduceat(acc, self.starts).tolist():
            total += round_cost
        return total


#: (schedule, placement, itemsize) -> lowered form. Schedules are never
#: mutated once generated, so a cached lowering stays valid.
_LOWERED = LruMemo()


def schedule_cost(sched: Schedule, topo: Topology, itemsize: int = 1, *,
                  bw_scale: float = 1.0, per_round_overhead: float = 0.0,
                  staging_threshold: int = 0,
                  staging_inv_bw: float = 0.0,
                  protocol: Union[str, ProtocolSpec, None] = None,
                  channels: int = 1) -> float:
    """Predicted seconds for one execution of ``sched`` on ``topo``.

    ``bw_scale`` discounts path bandwidth (e.g. GPUCCL ring efficiency),
    ``per_round_overhead`` adds a fixed charge per round (e.g. SHMEM host
    post cost), and ``staging_*`` model host bounce-buffer copies above an
    eager threshold (2x for the send+recv side is the caller's job).

    ``protocol`` applies a :class:`ProtocolSpec`'s framing/rendezvous
    terms to every send; ``channels`` stripes each message over that many
    parallel rails sharing the wire — each rail pays per-message overhead
    but the stripes together can recover bandwidth a single channel's
    ``bw_scale`` discount leaves idle (capped at the physical wire). The
    defaults (``None``, ``1``) price sends with arithmetic identical to
    the historical model, so legacy callers see bit-identical costs.
    """
    spec = protocol_spec(protocol)
    bw_factor = 1.0 if spec is None else spec.bw_factor
    ov_factor = 1.0 if spec is None else spec.overhead_factor
    lat_factor = 1.0 if spec is None else 1.0 + spec.rendezvous_factor
    eff_scale = min(channels * bw_scale, 1.0) * bw_factor
    lowered = _LOWERED.lookup((sched, topo.placement, itemsize),
                              lambda: _Lowered(sched, topo, itemsize))
    total = lowered.cost(
        lat_factor, ov_factor, channels, eff_scale, staging_threshold,
        staging_inv_bw)
    return total + per_round_overhead * sched.n_rounds
