"""Schedule generators: the algorithm catalogue (docs/COLLECTIVES.md).

Every generator produces a :class:`~repro.coll.schedule.Schedule` for one
``(kind, nranks, count)`` triple:

- ``ring`` — bandwidth-optimal chunked ring (reduce-scatter + allgather
  phases for allreduce, pipelined chunk rings for rooted collectives);
- ``tree`` — latency-optimal binomial tree;
- ``recdbl`` — recursive doubling / halving (any rank count for
  allreduce via the standard pre/post fold, power-of-two only for
  allgather and reduce-scatter);
- ``bruck`` — Bruck allgather (log-round, any rank count);
- ``hier`` — two-level hierarchical scheme per HiCCL: intra-node phase to
  per-node leaders, inter-node exchange among leaders, intra-node fan-out
  (requires a topology with at least two nodes).

Generators write step columns through :class:`~repro.coll.schedule.StepRows`,
whole rounds (or whole phases) per numpy call; no step objects are built.

:func:`cached_generate` is the shared, bounded schedule memo every
consumer goes through (the per-backend models, degraded-topology
selection and the MPI schedule executor): a schedule is generated once
per ``(algorithm, kind, nranks, count, root, topology layout)`` and the
instance is shared, so consumers must treat it as read-only.

Backends keep their native algorithm under its own name ("ring" for
GPUCCL, "tree" for GPUSHMEM, "native" for MPI) — selecting it routes
through the untouched legacy code path, which is what keeps default
traces byte-identical.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .schedule import Schedule, StepRows

__all__ = ["ALGORITHMS", "DEFAULT_ALGORITHM", "generate", "cached_generate",
           "is_applicable", "candidates", "MEMO_SIZE"]

#: Generator names, in catalogue order.
ALGORITHMS = ("ring", "tree", "recdbl", "bruck", "hier")

#: The algorithm each backend's legacy code path corresponds to.
DEFAULT_ALGORITHM = {"gpuccl": "ring", "gpushmem": "tree", "mpi": "native"}


def _ceil_log2(n: int) -> int:
    r = 0
    while (1 << r) < n:
        r += 1
    return r


def _chunks(count: int, parts: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.coll.schedule.chunk_layout` as (offsets, lengths)."""
    i = np.arange(parts, dtype=np.int64)
    base, rem = divmod(count, parts)
    return i * base + np.minimum(i, rem), base + (i < rem)


def _both_ways(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[0], b[0], a[1], b[1], ...``: an exchange emitted pair by pair."""
    return np.stack([a, b], axis=1).ravel()


# --------------------------------------------------------------------- #
# Reusable phase builders over an arbitrary participant list. ``members``
# is ordered by virtual rank: members[0] is the phase root. ``first`` is
# the first of the rounds to emit into (fresh rounds when None).
# --------------------------------------------------------------------- #


def _binomial_edges(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, v, u) of a binomial tree over ``n`` members: in step ``t``
    member ``v`` is paired with member ``u = v + 2**t``, ``v`` ascending."""
    t: List[int] = []
    v: List[int] = []
    for step in range(_ceil_log2(n)):
        k = min(1 << step, n - (1 << step))
        t += [step] * k
        v += range(k)
    t_arr = np.array(t, dtype=np.int64)
    v_arr = np.array(v, dtype=np.int64)
    return t_arr, v_arr, v_arr + (1 << t_arr)


def _binomial_bcast(rows: StepRows, members: Sequence[int], off: int,
                    length: int, first: Optional[int] = None) -> None:
    n = len(members)
    if first is None:
        first = rows.new_rounds(_ceil_log2(n))
    members = np.asarray(members)
    t, v, u = _binomial_edges(n)
    rows.pairs(first + t, members[v], members[u], off, off, length)


def _binomial_reduce(rows: StepRows, members: Sequence[int], off: int,
                     length: int, first: Optional[int] = None) -> None:
    n = len(members)
    n_rounds = _ceil_log2(n)
    if first is None:
        first = rows.new_rounds(n_rounds)
    members = np.asarray(members)
    t, v, u = _binomial_edges(n)
    rows.pairs(first + (n_rounds - 1) - t, members[u], members[v], off, off,
               length, reduce=True)


def _recdbl_allreduce(rows: StepRows, members: Sequence[int],
                      length: int) -> None:
    """Recursive doubling allreduce over ``members`` (any count).

    Non-power-of-two counts use the standard fold: the leading ``2*rem``
    members pair up (odd folds into even) before the exchange rounds and
    the evens fan the result back out afterwards.
    """
    members = np.asarray(members)
    n = len(members)
    m = n.bit_length() - 1
    pow2 = 1 << m
    rem = n - pow2
    evens = members[0:2 * rem:2]
    odds = members[1:2 * rem:2]
    if rem:
        rows.pairs(rows.new_rounds(), odds, evens, 0, 0, length, reduce=True)
    idx = np.arange(pow2)
    active = members[np.where(idx < rem, 2 * idx, idx + rem)]
    first = rows.new_rounds(m)
    t = np.arange(m)[:, None]
    partner = idx ^ (1 << t)
    lower = partner > idx  # each exchanging pair once, from its lower index
    t, lo, hi = (np.broadcast_to(a, lower.shape)[lower]
                 for a in (t, idx, partner))
    rows.pairs(np.repeat(first + t, 2), _both_ways(active[lo], active[hi]),
               _both_ways(active[hi], active[lo]), 0, 0, length, reduce=True)
    if rem:
        rows.pairs(rows.new_rounds(), evens, odds, 0, 0, length)


# --------------------------------------------------------------------- #
# Ring.
# --------------------------------------------------------------------- #


def _ring(kind: str, p: int, count: int, root: int) -> Schedule:
    rows = StepRows(Schedule(kind, "ring", p, count))
    if p <= 1:
        return rows.finish()
    # Round-major grids: step s (rows) x rank r (columns).
    s = np.arange(p - 1)[:, None]
    r = np.arange(p)
    nxt = (r + 1) % p
    if kind == "all_reduce":
        off, ln = _chunks(count, p)
        first = rows.new_rounds(p - 1)  # reduce-scatter phase
        idx = (r - s) % p
        rows.pairs(first + s, r, nxt, off[idx], off[idx], ln[idx], reduce=True)
        first = rows.new_rounds(p - 1)  # allgather phase
        idx = (r + 1 - s) % p
        rows.pairs(first + s, r, nxt, off[idx], off[idx], ln[idx])
    elif kind == "all_gather":
        first = rows.new_rounds(p - 1)
        idx = (r - s) % p
        rows.pairs(first + s, r, nxt, idx * count, idx * count, count)
    elif kind == "reduce_scatter":
        first = rows.new_rounds(p - 1)
        idx = (r - s - 1) % p
        rows.pairs(first + s, r, nxt, idx * count, idx * count, count,
                   reduce=True)
    else:
        # broadcast pipelines chunk k through hop d in round k + d; reduce
        # is that pipeline reversed, folding toward root.
        off, ln = _chunks(count, p)
        first = rows.new_rounds(2 * p - 2)
        t = np.arange(2 * p - 2)[:, None]
        if kind == "broadcast":
            d = np.arange(p - 1)
            src, dst, k = (root + d) % p, (root + d + 1) % p, t - d
        else:
            d = np.arange(1, p)
            src, dst, k = (root + d) % p, (root + d - 1) % p, t - (p - 1 - d)
        live = (0 <= k) & (k < p)
        t, src, dst, k = (np.broadcast_to(a, live.shape)[live]
                          for a in (t, src, dst, k))
        rows.pairs(first + t, src, dst, off[k], off[k], ln[k],
                   reduce=kind == "reduce")
    return rows.finish()


# --------------------------------------------------------------------- #
# Binomial tree.
# --------------------------------------------------------------------- #


def _tree(kind: str, p: int, count: int, root: int) -> Schedule:
    rows = StepRows(Schedule(kind, "tree", p, count))
    if p <= 1:
        return rows.finish()
    ranks = np.arange(p)
    by_vrank = (root + ranks) % p
    if kind == "broadcast":
        _binomial_bcast(rows, by_vrank, 0, count)
    elif kind == "reduce":
        _binomial_reduce(rows, by_vrank, 0, count)
    elif kind == "all_reduce":
        _binomial_reduce(rows, ranks, 0, count)
        _binomial_bcast(rows, ranks, 0, count)
    elif kind == "all_gather":
        # Binomial gather of contiguous block ranges to rank 0, then a
        # binomial broadcast of the assembled vector.
        first = rows.new_rounds(_ceil_log2(p))
        for t in range(_ceil_log2(p)):
            step = 1 << t
            v = np.arange(step, p, 2 * step)
            rows.pairs(first + t, v, v - step, v * count, v * count,
                       np.minimum(step, p - v) * count)
        _binomial_bcast(rows, ranks, 0, p * count)
    else:  # reduce_scatter: reduce the full vector to 0, then scatter
        _binomial_reduce(rows, ranks, 0, p * count)
        r = ranks[1:]
        rows.pairs(rows.new_rounds(), 0, r, r * count, r * count, count)
    return rows.finish()


# --------------------------------------------------------------------- #
# Recursive doubling / halving.
# --------------------------------------------------------------------- #


def _recdbl(kind: str, p: int, count: int, root: int) -> Optional[Schedule]:
    pow2 = p & (p - 1) == 0
    if kind == "all_reduce":
        rows = StepRows(Schedule(kind, "recdbl", p, count))
        if p > 1:
            _recdbl_allreduce(rows, range(p), count)
        return rows.finish()
    if not pow2:
        return None
    rows = StepRows(Schedule(kind, "recdbl", p, count))
    if p <= 1:
        return rows.finish()
    ranks = np.arange(p)
    if kind == "all_gather":
        for t in range(_ceil_log2(p)):
            step = 1 << t
            r = ranks[(ranks ^ step) > ranks]
            q = r ^ step
            src, dst = _both_ways(r, q), _both_ways(q, r)
            off = (src >> t << t) * count
            rows.pairs(rows.new_rounds(), src, dst, off, off, step * count)
        return rows.finish()
    if kind == "reduce_scatter":
        cur = p
        while cur > 1:
            half = cur // 2
            g = ranks // cur * cur
            lower = ranks < g + half
            r, g = ranks[lower], g[lower]
            off = _both_ways(g + half, g) * count
            rows.pairs(rows.new_rounds(), _both_ways(r, r + half),
                       _both_ways(r + half, r), off, off, half * count,
                       reduce=True)
            cur = half
        return rows.finish()
    return None


# --------------------------------------------------------------------- #
# Bruck allgather.
# --------------------------------------------------------------------- #


def _bruck(kind: str, p: int, count: int, root: int) -> Optional[Schedule]:
    if kind != "all_gather":
        return None
    # Double workspace: [0, p*count) is the rotated working area, the top
    # half stages the un-rotated result before the final copy back.
    rows = StepRows(Schedule(kind, "bruck", p, count, workspace=2 * p * count))
    if p <= 1:
        return rows.finish()
    ranks = np.arange(p)
    rows.copies(rows.new_rounds(), ranks[1:], ranks[1:] * count, 0, count)
    k = 1
    while k < p:
        rows.pairs(rows.new_rounds(), ranks, (ranks - k) % p, 0, k * count,
                   min(k, p - k) * count)
        k <<= 1
    # Per rank: un-rotate block j into the staging half, then copy the
    # staged vector back to the front.
    r, j = ranks[:, None], ranks[None, :]
    src = np.empty((p, p + 1), dtype=np.int64)
    dst = np.empty_like(src)
    length = np.empty_like(src)
    src[:, :p], dst[:, :p], length[:, :p] = j * count, (p + (r + j) % p) * count, count
    src[:, p], dst[:, p], length[:, p] = p * count, 0, p * count
    rows.copies(rows.new_rounds(), r, src, dst, length)
    return rows.finish()


# --------------------------------------------------------------------- #
# Two-level hierarchical (HiCCL-style leaders).
# --------------------------------------------------------------------- #


def _hier_groups(topo, root: int):
    """Per-node rank groups with the phase leader first in each group."""
    groups = [list(g) for g in topo.groups()]
    ordered = []
    root_gi = 0
    for gi, g in enumerate(groups):
        if root in g:
            g = [root] + [r for r in g if r != root]
            root_gi = gi
        ordered.append(g)
    # Root's group leads the inter-node phase for rooted collectives.
    ordered = [ordered[root_gi]] + ordered[:root_gi] + ordered[root_gi + 1:]
    return ordered


def _hier(kind: str, p: int, count: int, root: int, topo) -> Optional[Schedule]:
    if topo is None:
        return None
    groups = _hier_groups(topo, root)
    if len(groups) < 2:
        return None
    if kind not in ("all_reduce", "broadcast", "all_gather", "reduce_scatter"):
        return None
    leaders = [g[0] for g in groups]
    nl = len(leaders)
    rows = StepRows(Schedule(kind, "hier", p, count))
    # Each non-leader next to its node's leader, node by node.
    members = np.array([r for g in groups for r in g[1:]], dtype=np.int64)
    heads = np.array([g[0] for g in groups for _ in g[1:]], dtype=np.int64)

    def intra_rounds() -> int:
        return rows.new_rounds(max(_ceil_log2(len(g)) for g in groups))

    def leader_ring(shift: int, reduce: bool) -> None:
        # Ring over leaders at node granularity: in step s leader i
        # forwards every block of node (i - s - shift) to leader i + 1.
        rnd, src, dst, blocks = [], [], [], []
        first = rows.new_rounds(nl - 1)
        for s in range(nl - 1):
            for i in range(nl):
                g = groups[(i - s - shift) % nl]
                rnd += [first + s] * len(g)
                src += [leaders[i]] * len(g)
                dst += [leaders[(i + 1) % nl]] * len(g)
                blocks += g
        off = np.array(blocks, dtype=np.int64) * count
        rows.pairs(rnd, src, dst, off, off, count, reduce=reduce)

    if kind == "all_reduce":
        first = intra_rounds()
        for g in groups:
            _binomial_reduce(rows, g, 0, count, first)
        _recdbl_allreduce(rows, leaders, count)
        first = intra_rounds()
        for g in groups:
            _binomial_bcast(rows, g, 0, count, first)
    elif kind == "broadcast":
        _binomial_bcast(rows, leaders, 0, count)
        first = intra_rounds()
        for g in groups:
            _binomial_bcast(rows, g, 0, count, first)
    elif kind == "all_gather":
        rows.pairs(rows.new_rounds(), members, heads, members * count,
                   members * count, count)
        leader_ring(0, reduce=False)
        rows.pairs(rows.new_rounds(), heads, members, 0, 0, p * count)
    else:  # reduce_scatter
        rows.pairs(rows.new_rounds(), members, heads, 0, 0, p * count,
                   reduce=True)
        leader_ring(1, reduce=True)
        rows.pairs(rows.new_rounds(), heads, members, members * count,
                   members * count, count)
    return rows.finish()


# --------------------------------------------------------------------- #
# Entry points.
# --------------------------------------------------------------------- #


def is_applicable(algorithm: str, kind: str, nranks: int, topo=None) -> bool:
    """Whether ``algorithm`` can generate ``kind`` at this size/topology."""
    if nranks <= 1:
        return False
    if algorithm == "ring" or algorithm == "tree":
        return True
    if algorithm == "recdbl":
        if kind == "all_reduce":
            return True
        return kind in ("all_gather", "reduce_scatter") and nranks & (nranks - 1) == 0
    if algorithm == "bruck":
        return kind == "all_gather"
    if algorithm == "hier":
        return (topo is not None and len(topo.groups()) >= 2
                and kind in ("all_reduce", "all_gather", "broadcast",
                             "reduce_scatter"))
    return False


def candidates(kind: str, nranks: int, topo=None) -> List[str]:
    """Catalogue algorithms applicable to this collective instance."""
    return [a for a in ALGORITHMS if is_applicable(a, kind, nranks, topo)]


def generate(algorithm: str, kind: str, nranks: int, count: int, *,
             topo=None, root: int = 0) -> Optional[Schedule]:
    """Build the schedule, or None when the combination is inapplicable."""
    if not is_applicable(algorithm, kind, nranks, topo):
        return None
    if algorithm == "ring":
        return _ring(kind, nranks, count, root)
    if algorithm == "tree":
        return _tree(kind, nranks, count, root)
    if algorithm == "recdbl":
        return _recdbl(kind, nranks, count, root)
    if algorithm == "bruck":
        return _bruck(kind, nranks, count, root)
    if algorithm == "hier":
        return _hier(kind, nranks, count, root, topo)
    raise ValueError(f"unknown algorithm {algorithm!r}")


#: Entry bound of the shared schedule memo and of the lowered-cost cache
#: (:mod:`repro.coll.cost`). A 64-GPU tuning table touches 112 distinct
#: schedules.
MEMO_SIZE = 256


class LruMemo(OrderedDict):
    """A memo bounded to :data:`MEMO_SIZE` entries, least recently used
    evicted first. Values must be pure functions of their key: callers in
    one process share them."""

    def lookup(self, key, make):
        """The value for ``key``, built by ``make()`` on a miss."""
        try:
            self.move_to_end(key)
        except KeyError:
            value = self[key] = make()
            if len(self) > MEMO_SIZE:
                self.popitem(last=False)
            return value
        return self[key]


_MEMO = LruMemo()


def cached_generate(algorithm: str, kind: str, nranks: int, count: int, *,
                    topo=None, root: int = 0) -> Optional[Schedule]:
    """:func:`generate` through the shared memo.

    Generators read the topology only through its per-node rank groups,
    so the key holds that layout rather than the topology object: every
    model, policy and communicator over the same placement shares one
    instance. The returned schedule is shared and must not be mutated.
    """
    layout = None if topo is None else tuple(map(tuple, topo.groups()))
    return _MEMO.lookup(
        (algorithm, kind, nranks, count, root, layout),
        lambda: generate(algorithm, kind, nranks, count, topo=topo, root=root))
