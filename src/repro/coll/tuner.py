"""Algorithm selection: tuning tables, runtime policy, and the tuner.

Three layers (docs/COLLECTIVES.md):

- :class:`CollTable` — a persisted selection table: per topology
  signature, backend and collective kind, a list of
  ``[ceiling_nbytes, algorithm, protocol, channels]`` size bands
  (exclusive ceilings, last band open-ended). JSON round-trips through
  :mod:`repro.coll.schema` validation; v1 documents migrate on load.
- :class:`CollPolicy` — what backends consult at run time via
  ``engine.coll``; ``None`` (the default) means "no engine installed" and
  costs the backends a single attribute check. A policy runs in one of
  three modes: a *fixed* selection, a *table* lookup, or *auto* (score
  the catalogue on demand with the per-backend cost models and cache the
  winner). Selections are counted in the ``repro.obs`` metrics registry
  as ``coll_selected_total``.
- :class:`CollTuner` — builds tables offline by scoring
  (algorithm x protocol x channels) combinations over a probe-size grid
  on a synthetic cluster (``repro tune --coll``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .._compat import warn_once
from .algorithms import (DEFAULT_ALGORITHM, cached_generate, candidates,
                         is_applicable)
# Kept importable here: tracing tools patch ``generate`` by this name.
from .algorithms import generate  # noqa: F401
from .cost import CHANNEL_COUNTS, PROTOCOLS, Topology
from .models import CANONICAL_SHMEM_KINDS, GpucclModel, MpiModel, ShmemModel
from .schema import (SCHEMA_NAME, SCHEMA_VERSION, CollTableError, migrate_v1,
                     validate_table)

__all__ = ["CollSelection", "CollTable", "CollPolicy", "CollTuner",
           "resolve_policy", "ENV_TABLE"]

#: Environment variable naming a tuning-table JSON to install by default.
ENV_TABLE = "REPRO_COLL_TABLE"

#: Canonical kind -> the native kind name each backend model prices.
_SHMEM_NATIVE = {v: k for k, v in CANONICAL_SHMEM_KINDS.items()}

_TUNABLE_KINDS = ("all_reduce", "all_gather", "broadcast", "reduce_scatter")


class CollSelection(str):
    """An algorithm pick plus its wire protocol and channel count.

    A ``str`` subclass so every existing consumer that compares the
    selection against an algorithm name (slot mismatch checks, metric
    labels, ``algorithm == "ring"`` fast paths) keeps working unchanged;
    the protocol/channel knobs ride along as attributes. ``protocol`` is
    ``None`` for the backend's legacy wire behaviour and ``channels`` is
    ``1`` for a single rail — ``CollSelection("ring")`` is
    indistinguishable from the plain string ``"ring"`` downstream.
    """

    __slots__ = ("protocol", "channels")

    def __new__(cls, algorithm: str, protocol: Optional[str] = None,
                channels: int = 1) -> "CollSelection":
        self = super().__new__(cls, algorithm)
        self.protocol = protocol
        self.channels = int(channels)
        return self

    def describe(self) -> str:
        """``algo[+protocol][/channels]``, the CLI/doc spelling."""
        out = str(self)
        if self.protocol is not None:
            out += f"+{self.protocol}"
        if self.channels != 1:
            out += f"/{self.channels}"
        return out

    def spec_string(self) -> str:
        """Canonical re-serialization: every spelling of the same
        selection (``ring/1``, ``ring``) renders identically, so config
        hashes built on it never cache-miss on formatting differences.
        Round trip: ``CollSelection.parse(s.spec_string()) == s``."""
        return self.describe()

    @classmethod
    def parse(cls, text: str) -> "CollSelection":
        """Inverse of :meth:`describe` (``ring+LL/2`` etc.)."""
        algo, channels = text, 1
        if "/" in algo:
            algo, _, tail = algo.partition("/")
            channels = int(tail)
        protocol = None
        if "+" in algo:
            algo, _, protocol = algo.partition("+")
            if protocol not in PROTOCOLS:
                raise ValueError(
                    f"unknown protocol {protocol!r} in {text!r}; "
                    f"expected one of {PROTOCOLS}")
        return cls(algo, protocol, channels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CollSelection {self.describe()}>"


def _model_for(backend: str, topo: Topology):
    machine = topo.cluster.machine
    if backend == "gpuccl":
        return GpucclModel(topo.cluster, machine.gpuccl, topo.gpu_ids)
    if backend == "mpi":
        return MpiModel(topo.cluster, machine.mpi, topo.gpu_ids)
    if backend == "gpushmem":
        if machine.gpushmem is None:
            return None
        return ShmemModel(topo.cluster, machine.gpushmem, topo.gpu_ids)
    raise ValueError(f"unknown backend {backend!r}")


def _score(model, backend: str, kind: str, selection: str,
           nbytes: int) -> float:
    protocol = getattr(selection, "protocol", None)
    channels = getattr(selection, "channels", 1)
    if backend == "gpushmem":
        return model.duration(_SHMEM_NATIVE[kind], nbytes, str(selection),
                              protocol, channels)
    return model.duration(kind, nbytes, str(selection), protocol, channels)


def _combos(backend: str, kind: str, nranks: int,
            topo: Optional[Topology]) -> List[CollSelection]:
    """The (algorithm x protocol x channels) space one backend tunes over.

    The first entry is always the backend's legacy default (no explicit
    protocol, one channel) so ties preserve historical behaviour. MPI has
    no GPU wire protocols — it tunes (algorithm x channels) only — and
    its ``native`` path ignores both knobs, so it appears exactly once.
    """
    default = DEFAULT_ALGORITHM[backend]
    algos = [default] + [a for a in candidates(kind, nranks, topo)
                         if a != default]
    combos = [CollSelection(default)]
    if backend == "mpi":
        for algo in algos:
            if algo == default:
                continue
            for channels in CHANNEL_COUNTS:
                combos.append(CollSelection(algo, None, channels))
        return combos
    for algo in algos:
        for protocol in PROTOCOLS:
            for channels in CHANNEL_COUNTS:
                combos.append(CollSelection(algo, protocol, channels))
    return combos


class CollTable:
    """Banded (algorithm, protocol, channels) selections per topology.

    Band ceilings are *exclusive* (``nbytes < ceiling`` selects the band)
    and agree with :meth:`CollTuner.best` at every probe size: a band's
    ceiling is the first message size the next band's winner wins.
    """

    def __init__(self, machine: str = "", entries: Optional[Dict] = None):
        self.machine = machine
        # sig -> backend -> kind ->
        #   [[ceiling_nbytes|None, algorithm, protocol|None, channels], ...]
        self.entries: Dict[str, Dict[str, Dict[str, List]]] = entries or {}

    def set_bands(self, sig: str, backend: str, kind: str,
                  bands: Sequence[Sequence]) -> None:
        """Install bands; each entry is ``(ceiling, selection)`` where the
        selection may be a :class:`CollSelection`, a plain algorithm name
        (legacy protocol, one channel), or an explicit
        ``(ceiling, algorithm, protocol, channels)`` quadruple."""
        normalized = []
        for band in bands:
            if len(band) == 2:
                ceiling, sel = band
                protocol = getattr(sel, "protocol", None)
                channels = getattr(sel, "channels", 1)
                normalized.append([ceiling, str(sel), protocol, channels])
            elif len(band) == 4:
                ceiling, algo, protocol, channels = band
                normalized.append([ceiling, str(algo), protocol,
                                   int(channels)])
            else:
                raise CollTableError(
                    f"band {band!r} must be (ceiling, selection) or "
                    "(ceiling, algorithm, protocol, channels)")
        self.entries.setdefault(sig, {}).setdefault(backend, {})[kind] = \
            normalized

    def lookup(self, sig: str, backend: str, kind: str,
               nbytes: int) -> Optional[CollSelection]:
        bands = self.entries.get(sig, {}).get(backend, {}).get(kind)
        if not bands:
            return None
        for ceiling, algo, protocol, channels in bands:
            if ceiling is None or nbytes < ceiling:
                return CollSelection(algo, protocol, channels)
        return None

    def covers(self, sig: str) -> bool:
        """Whether this table was tuned for topology signature ``sig``."""
        return sig in self.entries

    # ------------------------------------------------------------------ #

    def to_doc(self) -> Dict[str, Any]:
        return validate_table({
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "machine": self.machine,
            "entries": self.entries,
        })

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "CollTable":
        """Build from a JSON document; v1 documents migrate transparently,
        unknown versions raise :class:`CollTableError`."""
        if not isinstance(doc, dict):
            raise CollTableError(
                f"invalid {SCHEMA_NAME} document: expected object, "
                f"got {type(doc).__name__}")
        version = doc.get("version")
        if version == 1:
            doc = migrate_v1(doc)
        elif version != SCHEMA_VERSION:
            raise CollTableError(
                f"invalid {SCHEMA_NAME} document: unknown schema version "
                f"{version!r} (supported: 1, {SCHEMA_VERSION})")
        validate_table(doc)
        return cls(machine=doc["machine"], entries=doc["entries"])

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CollTable":
        with open(path) as fh:
            return cls.from_doc(json.load(fh))


class CollPolicy:
    """Runtime algorithm selector installed as ``engine.coll``."""

    def __init__(self, *, mode: str, algorithm: Optional[str] = None,
                 table: Optional[CollTable] = None, env_source: bool = False):
        if mode not in ("fixed", "table", "auto"):
            raise ValueError(f"unknown policy mode {mode!r}")
        self.mode = mode
        self.algorithm = algorithm
        self.table = table
        # True when the table came from the REPRO_COLL_TABLE env override:
        # a signature miss then warns and falls back to auto selection
        # instead of silently running a table tuned for another cluster.
        self.env_source = env_source
        self._cache: Dict[Tuple[str, str, str, int], Optional[str]] = {}
        self._models: Dict[Tuple[str, str], Any] = {}
        # Degraded-topology selections (persistent link down): keyed with
        # the dead-pair set so the same policy serves healthy and degraded
        # phases of one run without mixing caches.
        self._degraded: Dict[Tuple, Optional[str]] = {}

    @classmethod
    def fixed(cls, algorithm: str, protocol: Optional[str] = None,
              channels: int = 1) -> "CollPolicy":
        return cls(mode="fixed",
                   algorithm=CollSelection(str(algorithm),
                                           getattr(algorithm, "protocol",
                                                   protocol),
                                           getattr(algorithm, "channels",
                                                   channels)))

    @classmethod
    def from_table(cls, table: CollTable,
                   env_source: bool = False) -> "CollPolicy":
        return cls(mode="table", table=table, env_source=env_source)

    @classmethod
    def auto(cls) -> "CollPolicy":
        return cls(mode="auto")

    # ------------------------------------------------------------------ #

    def _model(self, backend: str, topo: Topology):
        model = self._models.get((backend, topo.signature()))
        if model is None:
            model = _model_for(backend, topo)
            if model is None:
                return None
            self._models[(backend, topo.signature())] = model
        return model

    def _auto_select(self, backend: str, kind: str, nbytes: int,
                     topo: Topology) -> Optional[CollSelection]:
        model = self._model(backend, topo)
        if model is None:
            return None
        combos = _combos(backend, kind, topo.nranks, topo)
        best_sel = combos[0]
        best_cost = _score(model, backend, kind, best_sel, nbytes)
        for sel in combos[1:]:
            cost = _score(model, backend, kind, sel, nbytes)
            if cost < best_cost:
                best_sel, best_cost = sel, cost
        return best_sel

    # ------------------------------------------------------------------ #
    # Degraded-topology rescheduling (repro.resilience).
    # ------------------------------------------------------------------ #

    #: Cost surcharge for a schedule that sends over a dead pair: any live
    #: alternative wins, however slow the alpha-beta model prices it.
    DEAD_PAIR_PENALTY = 1e6

    def _dead_penalty(self, algorithm: str, backend: str, kind: str,
                      nbytes: int, topo: Topology, dead) -> float:
        """0.0 when the algorithm's generated schedule avoids every dead
        pair, else :data:`DEAD_PAIR_PENALTY`. The legacy "native" path is
        approximated by its closest catalogue shape (binomial tree)."""
        from .schedule import Send

        name = "tree" if algorithm == "native" else algorithm
        sched = cached_generate(name, kind, topo.nranks, max(1, int(nbytes)),
                                topo=topo)
        if sched is None:
            return self.DEAD_PAIR_PENALTY
        for rnd in sched.rounds:
            for rank, steps in rnd.items():
                for st in steps:
                    if isinstance(st, Send) and (rank, st.peer) in dead:
                        return self.DEAD_PAIR_PENALTY
        return 0.0

    def _select_degraded(self, backend: str, kind: str, nbytes: int,
                         topo: Topology, dead, engine) -> Optional[str]:
        """Re-run selection over the degraded topology: every candidate is
        re-priced with the alpha-beta model plus a prohibitive surcharge
        for schedules that communicate over a dead pair — the ring->tree
        fallback when a ring link dies. Applies in every policy mode (a
        fixed "ring" policy must not stay wedged on a dead ring)."""
        key = (backend, topo.signature(), kind, int(nbytes), dead)
        if key not in self._degraded:
            algo: Optional[str] = None
            model = self._model(backend, topo)
            if model is not None:
                best_algo = DEFAULT_ALGORITHM[backend]
                best_cost = _score(model, backend, kind, best_algo, nbytes) \
                    + self._dead_penalty(best_algo, backend, kind, nbytes, topo, dead)
                for cand in candidates(kind, topo.nranks, topo):
                    if cand == best_algo:
                        continue
                    cost = _score(model, backend, kind, cand, nbytes) \
                        + self._dead_penalty(cand, backend, kind, nbytes, topo, dead)
                    if cost < best_cost:
                        best_algo, best_cost = cand, cost
                algo = CollSelection(best_algo)
            self._degraded[key] = algo
            if engine is not None:
                if engine.metrics.enabled:
                    engine.metrics.inc(
                        "reschedules_total", backend=backend, kind=kind,
                        cause="link_down",
                    )
                injector = engine.fault_injector
                if injector is not None:
                    # "coll" not "kind": record() owns the kind parameter.
                    injector.record(
                        "recover.reschedule", backend=backend, coll=kind,
                        algorithm=algo, dead_pairs=sorted(dead),
                    )
        return self._count(engine, backend, kind, nbytes, self._degraded[key])

    # ------------------------------------------------------------------ #

    def _count(self, engine, backend: str, kind: str, nbytes: int,
               algo: Optional[str]) -> Optional[str]:
        if engine is not None and engine.metrics.enabled:
            from ..obs import size_class

            engine.metrics.inc(
                "coll_selected_total", backend=backend, kind=kind,
                algorithm=algo if algo is not None else "default",
                protocol=getattr(algo, "protocol", None) or "-",
                channels=str(getattr(algo, "channels", 1)),
                size=size_class(int(nbytes)),
            )
        return algo

    def _table_fallback(self, topo: Topology) -> bool:
        """True when an env-installed table doesn't cover this cluster.

        A ``REPRO_COLL_TABLE`` tuned on another machine or rank layout
        must not be applied (its bands encode the wrong crossovers) and
        must not silently disable tuning either — warn once and let auto
        selection take over. Explicitly passed tables keep the historical
        contract: a signature miss means "no selection" (legacy path).
        """
        if not self.env_source or self.table is None:
            return False
        sig = topo.signature()
        if self.table.covers(sig) and (
                not self.table.machine
                or self.table.machine == topo.cluster.machine.name):
            return False
        warn_once(
            f"coll-table-mismatch:{sig}",
            f"{ENV_TABLE} table (machine {self.table.machine!r}) does not "
            f"cover topology {sig!r}; falling back to auto selection",
        )
        return True

    def select(self, backend: str, kind: str, nbytes: int, topo: Topology,
               engine=None) -> Optional[CollSelection]:
        """The selection to run, or None to stay on the legacy path."""
        if topo.nranks <= 1:
            return None
        if engine is not None:
            injector = engine.fault_injector
            if injector is not None and injector.plan.link_faults:
                dead = injector.dead_pairs_for(topo)
                if dead:
                    return self._select_degraded(
                        backend, kind, int(nbytes), topo, dead, engine)
        key = (backend, topo.signature(), kind, int(nbytes))
        if key in self._cache:
            algo = self._cache[key]
        else:
            if self.mode == "fixed":
                algo = self.algorithm
                if algo != DEFAULT_ALGORITHM[backend] and not is_applicable(
                        str(algo), kind, topo.nranks, topo):
                    algo = None
            elif self.mode == "table":
                if self._table_fallback(topo):
                    algo = self._auto_select(backend, kind, int(nbytes), topo)
                else:
                    algo = self.table.lookup(topo.signature(), backend, kind,
                                             int(nbytes))
                if algo is not None and algo != DEFAULT_ALGORITHM[backend] \
                        and not is_applicable(str(algo), kind, topo.nranks,
                                              topo):
                    algo = None
            else:
                algo = self._auto_select(backend, kind, int(nbytes), topo)
            self._cache[key] = algo
        return self._count(engine, backend, kind, nbytes, algo)


class CollTuner:
    """Builds tuning tables by scoring the catalogue on a synthetic cluster."""

    #: Probe grid: message sizes the table is scored at (bytes).
    PROBE_SIZES = (64, 1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20, 32 << 20)

    def __init__(self, machine, n_gpus: int, n_nodes: Optional[int] = None):
        from ..hardware.cluster import Cluster
        from ..hardware.machines import get_machine

        spec = get_machine(machine) if isinstance(machine, str) else machine
        if n_nodes is None:
            n_nodes = -(-n_gpus // spec.gpus_per_node)
        self.machine = spec
        self.cluster = Cluster(spec, n_nodes)
        self.topo = Topology(self.cluster, list(range(n_gpus)))
        self._models: Dict[str, Any] = {}

    def model(self, backend: str):
        if backend not in self._models:
            self._models[backend] = _model_for(backend, self.topo)
        return self._models[backend]

    def backends(self) -> List[str]:
        return [b for b in ("mpi", "gpuccl", "gpushmem")
                if self.model(b) is not None]

    def best(self, backend: str, kind: str,
             nbytes: int) -> Tuple[CollSelection, float]:
        """(winner, predicted seconds) over (algorithm x protocol x
        channels); ties go to the earliest combination, so the backend's
        legacy default wins exact draws."""
        model = self.model(backend)
        combos = _combos(backend, kind, self.topo.nranks, self.topo)
        best_sel = combos[0]
        best_cost = _score(model, backend, kind, best_sel, nbytes)
        for sel in combos[1:]:
            cost = _score(model, backend, kind, sel, nbytes)
            if cost < best_cost:
                best_sel, best_cost = sel, cost
        return best_sel, best_cost

    @staticmethod
    def _key(sel: CollSelection) -> Tuple:
        return (str(sel), getattr(sel, "protocol", None),
                getattr(sel, "channels", 1))

    def build_table(self, kinds: Sequence[str] = _TUNABLE_KINDS,
                    sizes: Optional[Sequence[int]] = None) -> CollTable:
        """Probe the size grid and emit bands with *exclusive* ceilings: a
        band closes at the first probe size its successor wins, so
        ``CollTable.lookup`` agrees with :meth:`best` at every probe."""
        sizes = sorted(sizes or self.PROBE_SIZES)
        table = CollTable(machine=self.machine.name)
        sig = self.topo.signature()
        for backend in self.backends():
            for kind in kinds:
                winners = [self.best(backend, kind, s)[0] for s in sizes]
                bands: List[Tuple[Optional[int], CollSelection]] = []
                current = winners[0]
                for size, winner in zip(sizes[1:], winners[1:]):
                    if self._key(winner) != self._key(current):
                        bands.append((size, current))
                        current = winner
                bands.append((None, current))
                table.set_bands(sig, backend, kind, bands)
        return table

    def crossovers(self, backend: str, kind: str,
                   sizes: Optional[Sequence[int]] = None
                   ) -> List[Tuple[int, CollSelection, CollSelection]]:
        """(boundary_nbytes, smaller_side, larger_side) switches; the
        boundary is the first probe size the larger-side winner wins
        (the exclusive band ceiling it induces in the table)."""
        sizes = sorted(sizes or self.PROBE_SIZES)
        winners = [self.best(backend, kind, s)[0] for s in sizes]
        out = []
        for cur_size, prev, cur in zip(sizes[1:], winners, winners[1:]):
            if self._key(prev) != self._key(cur):
                out.append((cur_size, prev, cur))
        return out


def resolve_policy(coll) -> Optional[CollPolicy]:
    """Map ``launch(coll=...)`` / the env override to a policy (or None).

    Accepts: None (env lookup, else off), "off"/False (force off), "auto"
    or "tuned" (cost-model policy), an algorithm name or a fixed-selection
    string ``algo[+protocol][/channels]`` (e.g. ``ring+LL/2``), a
    :class:`CollTable`, a table path, or a ready :class:`CollPolicy`.
    A table installed via the ``REPRO_COLL_TABLE`` env override carries
    ``env_source=True`` so a topology-signature mismatch at run time
    warns and falls back to auto selection.
    """
    if coll is None:
        path = os.environ.get(ENV_TABLE)
        if not path:
            return None
        return CollPolicy.from_table(CollTable.load(path), env_source=True)
    if coll is False or coll == "off":
        return None
    if isinstance(coll, CollPolicy):
        return coll
    if isinstance(coll, CollTable):
        return CollPolicy.from_table(coll)
    if isinstance(coll, str):
        if coll in ("auto", "tuned"):
            return CollPolicy.auto()
        from .algorithms import ALGORITHMS

        known = set(ALGORITHMS) | set(DEFAULT_ALGORITHM.values())
        if coll in known:
            return CollPolicy.fixed(coll)
        if ("+" in coll or "/" in coll) and not os.path.exists(coll):
            try:
                sel = CollSelection.parse(coll)
            except ValueError:
                sel = None
            if sel is not None and str(sel) in known:
                return CollPolicy.fixed(sel)
        if os.path.exists(coll):
            return CollPolicy.from_table(CollTable.load(coll))
        raise ValueError(f"unknown coll policy {coll!r}")
    raise TypeError(f"coll must be None, str, CollTable or CollPolicy, "
                    f"got {type(coll).__name__}")
