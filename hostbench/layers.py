"""Per-layer host-time attribution for traced benchmark jobs.

The simulator runs every simulated task on its own thread, but exactly one
thread executes at a time, and a task gives up the host only inside
``Engine.block``. That makes exact self-time accounting possible without a
sampler:

- every wrapped call emits an *enter* and an *exit* event stamped with
  ``perf_counter_ns`` and the calling thread;
- the interval between two consecutive events from *different* threads is
  a handoff (``sim.handoff_s``): the host was passing control between
  tasks;
- every other interval belongs to the innermost open span of the thread
  that was running, or to ``other`` when that thread had none open.

The intervals tile the job, so the layer self times, the handoff time and
``other`` add up to the traced job time exactly (in integer nanoseconds).

Wrappers are installed from this file only; nothing in ``src/`` knows about
them. Each wrapper replaces a function under every name its callers look it
up by: a class attribute for methods, and every ``repro.*`` module global
bound to a module-level function (``repro.coll.tuner`` binds its own names
from ``.algorithms``, for example). Timer callbacks are wrapped when they
are scheduled, in a span of the layer whose module defined them, so a
delivery callback fired inside another task's ``block`` still counts for
the backend that scheduled it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "TARGETS", "SpanClock", "LayerTrace", "snapshot_sites"]

#: Layer -> (module, attribute, methods) targets. A class attribute with
#: ``methods=None`` has every public method it defines wrapped.
TARGETS: Dict[str, List[Tuple[str, str, Optional[Tuple[str, ...]]]]] = {
    "sim": [
        ("repro.sim.engine", "Engine",
         ("block", "sleep", "spawn", "run", "join", "defer_busy")),
        ("repro.sim.sync", "SimEvent", None),
        ("repro.sim.sync", "Broadcast", None),
        ("repro.sim.sync", "SimQueue", None),
        ("repro.sim.sync", "Counter", None),
        ("repro.sim.sync", "wait_until", None),
        ("repro.sim.spmd", "run_spmd", None),
    ],
    "gpu": [
        ("repro.gpu.buffer", "DeviceBuffer", None),
        ("repro.gpu.stream", "Stream", None),
        ("repro.gpu.device", "Device", None),
        ("repro.gpu.event", "GpuEvent", None),
        ("repro.gpu.event", "elapsed", None),
    ],
    "mpi": [
        ("repro.backends.mpi.comm", "MpiContext", None),
        ("repro.backends.mpi.comm", "MpiCommunicator", None),
        ("repro.backends.mpi.matching", "MessageEngine", None),
        ("repro.backends.mpi.request", "Request", None),
        ("repro.backends.mpi.request", "waitall", None),
        ("repro.backends.mpi.rma", "MpiWindow", None),
    ],
    "gpuccl": [
        ("repro.backends.gpuccl.comm", "GpucclComm", None),
        ("repro.backends.gpuccl.comm", "group_start", None),
        ("repro.backends.gpuccl.comm", "group_end", None),
        ("repro.backends.gpuccl.comm", "get_unique_id", None),
    ],
    "hardware": [
        ("repro.hardware.link", "Link", ("reserve",)),
        ("repro.hardware.link", "Path", ("reserve",)),
        ("repro.hardware.cluster", "Cluster", ("path",)),
    ],
    "core": [
        ("repro.core.environment", "Environment", None),
        ("repro.core.communicator", "Communicator", None),
        ("repro.core.coordinator", "Coordinator", None),
        ("repro.core.memory", "Memory", None),
    ],
    "coll": [
        ("repro.coll.tuner", "CollPolicy", ("select",)),
        ("repro.coll.tuner", "CollTuner", None),
        ("repro.coll.models", "GpucclModel", None),
        ("repro.coll.models", "MpiModel", None),
        ("repro.coll.models", "ShmemModel", None),
        ("repro.coll.algorithms", "generate", None),
        ("repro.coll.cost", "schedule_cost", None),
    ],
    "obs": [
        ("repro.obs.metrics", "MetricsRegistry", ("inc", "observe", "set_gauge")),
        ("repro.obs.metrics", "record_transfer", None),
        ("repro.obs.spans", "spans_enabled", None),
        ("repro.obs.spans", "begin_span", None),
        ("repro.obs.spans", "end_span", None),
    ],
    "launcher": [
        ("repro.launcher", "launch", None),
    ],
}

#: Module prefix -> layer, for timer callbacks and app kernels. Longest
#: prefixes first. ``apps`` spans only the kernel bodies (KernelSpec.fn).
_MODULE_LAYERS = (
    ("repro.backends.mpi", "mpi"),
    ("repro.backends.gpuccl", "gpuccl"),
    ("repro.launcher", "launcher"),
    ("repro.hardware", "hardware"),
    ("repro.apps", "apps"),
    ("repro.coll", "coll"),
    ("repro.core", "core"),
    ("repro.gpu", "gpu"),
    ("repro.obs", "obs"),
    ("repro.sim", "sim"),
)

#: Every layer a traced job reports, in report order.
LAYERS = ("sim", "gpu", "mpi", "gpuccl", "hardware", "core", "coll", "obs", "apps",
          "launcher")


class SpanClock:
    """Online self-time accounting over span enter/exit events.

    ``clock`` and ``ident`` default to ``time.perf_counter_ns`` and
    ``threading.get_ident``; tests pass fakes to drive a schedule by hand.
    Not thread-safe by design: the simulator runs one thread at a time.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 ident: Callable[[], int] = threading.get_ident):
        self._clock = clock
        self._ident = ident
        self.begin()

    def begin(self) -> None:
        """Start a new accounting window on the calling thread."""
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.handoff_ns = 0
        self.other_ns = 0
        self._stacks: Dict[int, List[str]] = {}
        self._last_tid = self._ident()
        self._t0 = self._last_t = self._clock()

    def _advance(self, tid: int) -> List[str]:
        t = self._clock()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        if tid != self._last_tid:
            self.handoff_ns += t - self._last_t
            self._last_tid = tid
        elif stack:
            self.self_ns[stack[-1]] += t - self._last_t
        else:
            self.other_ns += t - self._last_t
        self._last_t = t
        return stack

    def enter(self, layer: str) -> None:
        self._advance(self._ident()).append(layer)

    def exit(self) -> None:
        self._advance(self._ident()).pop()

    def finish(self) -> int:
        """Close the window on the calling thread; returns its length (ns)."""
        self._advance(self._ident())
        return self._last_t - self._t0

    def open_spans(self) -> int:
        """Spans entered but not exited (0 after a well-formed job)."""
        return sum(len(s) for s in self._stacks.values())


def _layer_of_module(module: Optional[str]) -> Optional[str]:
    if not module:
        return None
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class LayerTrace:
    """Installs the layer wrappers, counts calls, and restores everything.

    Besides per-layer call counts it keeps the counts the per-layer report
    names: bytes written through ``DeviceBuffer.write``/``fill``, and the
    ``repro.coll`` selection, generation and costing calls (with the set of
    distinct ``generate`` arguments).
    """

    def __init__(self, clock: Optional[SpanClock] = None):
        self.clock = clock if clock is not None else SpanClock()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.generate_keys: set = set()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._module_layers: Dict[str, Optional[str]] = {}

    # ------------------------------------------------------------------ #
    # Counting.

    def reset(self) -> None:
        """Zero every count and start a new clock window."""
        self.calls.clear()
        self.counts.clear()
        self.generate_keys.clear()
        self.clock.begin()

    def _probe(self, qualname: str) -> Optional[Callable]:
        counts = self.counts
        if qualname in ("DeviceBuffer.write", "DeviceBuffer.fill"):
            from repro.gpu.buffer import DeviceBuffer

            def written(args, kwargs) -> None:
                buf = args[0]
                if qualname == "DeviceBuffer.fill":
                    counts["gpu.bytes_written"] += buf.nbytes
                    return
                src = args[1] if len(args) > 1 else kwargs["src"]
                count = args[2] if len(args) > 2 else kwargs.get("count")
                if count is None:
                    count = src.size if isinstance(src, DeviceBuffer) else _size(src)
                counts["gpu.bytes_written"] += count * buf.itemsize

            return written
        if qualname == "generate":
            keys = self.generate_keys

            def generated(args, kwargs) -> None:
                counts["coll.generate_calls"] += 1
                topo = kwargs.get("topo")
                keys.add((tuple(str(a) for a in args), kwargs.get("root", 0),
                          None if topo is None else topo.signature()))

            return generated
        if qualname == "schedule_cost":
            return lambda args, kwargs: counts.update(("coll.cost_calls",))
        if qualname == "CollPolicy.select":
            return lambda args, kwargs: counts.update(("coll.selects",))
        return None

    # ------------------------------------------------------------------ #
    # Wrapping.

    def _wrap(self, fn: Callable, layer: str, probe: Optional[Callable]) -> Callable:
        enter, exit_ = self.clock.enter, self.clock.exit
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[layer] += 1
            if probe is not None:
                probe(args, kwargs)
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def _callback_layer(self, callback: Callable) -> Optional[str]:
        module = getattr(callback, "__module__", None)
        if module not in self._module_layers:
            self._module_layers[module] = _layer_of_module(module)
        return self._module_layers[module]

    def _wrap_schedule(self, fn: Callable) -> Callable:
        """``Engine.schedule``: a sim span that also wraps the callback in
        a span of the layer whose module defined it."""
        enter, exit_ = self.clock.enter, self.clock.exit
        calls = self.calls
        layer_of = self._callback_layer

        def in_span(layer: str, callback: Callable) -> Callable:
            def fire() -> None:
                enter(layer)
                try:
                    callback()
                finally:
                    exit_()

            return fire

        @functools.wraps(fn)
        def schedule(engine, delay, callback):
            layer = layer_of(callback)
            if layer is not None:
                callback = in_span(layer, callback)
            calls["sim"] += 1
            enter("sim")
            try:
                return fn(engine, delay, callback)
            finally:
                exit_()

        return schedule

    def _wrapper(self, layer: str, raw: Any) -> Any:
        if isinstance(raw, (staticmethod, classmethod)):
            return type(raw)(self._wrapper(layer, raw.__func__))
        if raw.__qualname__ == "Engine.schedule":
            return self._wrap_schedule(raw)
        return self._wrap(raw, layer, self._probe(raw.__qualname__))

    def install(self) -> "LayerTrace":
        """Patch every site; returns self."""
        if self._patches:
            raise RuntimeError("layer trace already installed")
        try:
            for owner, name, layer, frozen in list(_sites()):
                if frozen:
                    original = getattr(owner, name)
                    object.__setattr__(owner, name, self._wrap(original, layer, None))
                else:
                    original = owner.__dict__[name]
                    setattr(owner, name, self._wrapper(layer, original))
                self._patches.append((owner, name, original, frozen))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original, frozen = self._patches.pop()
            if frozen:
                object.__setattr__(owner, name, original)
            else:
                setattr(owner, name, original)

    def installed(self) -> int:
        """Number of attributes currently patched."""
        return len(self._patches)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _repro_modules() -> List[Any]:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))]


def _public_methods(cls: type) -> List[str]:
    """Public plain, static and class methods a class defines itself
    (properties, generators and inherited methods are left alone)."""
    names = []
    for name, raw in vars(cls).items():
        if name.startswith("_"):
            continue
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
            names.append(name)
    return names


def _sites() -> Iterator[Tuple[Any, str, str, bool]]:
    """Every attribute a trace patches: ``(owner, name, layer, frozen)``.

    ``frozen`` marks a frozen-dataclass field (``KernelSpec.fn``).
    """
    from repro.gpu.kernel import KernelSpec

    for layer, targets in TARGETS.items():
        for module_name, attr, methods in targets:
            obj = getattr(importlib.import_module(module_name), attr)
            if isinstance(obj, type):
                for name in methods or _public_methods(obj):
                    yield obj, name, layer, False
                continue
            for mod in _repro_modules():
                for name, value in list(vars(mod).items()):
                    if value is obj:
                        yield mod, name, layer, False
    yield importlib.import_module("repro.sim.engine").Engine, "schedule", "sim", False
    seen = set()
    for mod in _repro_modules():
        if not mod.__name__.startswith("repro.apps."):
            continue
        for value in list(vars(mod).values()):
            if isinstance(value, KernelSpec) and id(value) not in seen:
                seen.add(id(value))
                yield value, "fn", "apps", True


def snapshot_sites() -> Dict[Tuple[int, str], Any]:
    """Current value of every patch site, to prove a trace left none behind."""
    return {(id(owner), name): (getattr(owner, name) if frozen else owner.__dict__[name])
            for owner, name, _, frozen in _sites()}


def _size(src: Any) -> int:
    import numpy as np

    return int(np.asarray(src).size)
