"""Outside-in per-layer cost ledger.

The ledger wraps, at class level, every method of every class defined in
a layer's modules (plus the modules' top-level functions) with a timing
shim. The shim opens a span only when control crosses from one layer
into another; a call that stays inside the current layer runs unwrapped
logic at the cost of one comparison. Every layer transition charges the
wall time elapsed since the previous transition to the layer that was
running, so a layer's total is exactly its span time minus the time its
child spans cover (its *self* time), and the self times of all layers,
the benchmark's own ``bench`` layer included, sum to the traced wall
time to the nanosecond.

Nothing in the program is edited: the wrappers are installed before a
deployment is built (``Network.add_node`` caches ``node.deliver`` and
``FifoServer.submit`` hands callbacks to the completion strip, so a
bound method captured before installation would bypass its shim) and
removed again by :meth:`Ledger.uninstall`. Code in a module that belongs
to no layer (messages, configs, value stores) is charged to the layer
that called it.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from enum import Enum
from typing import Callable, Iterable

ROOT = "bench"

# Layer name -> the modules whose classes and functions it owns. Helper
# modules whose methods run as kernel callbacks (the coordinator's batcher
# timer, failover timers) join the layer that owns them; passive helpers
# (messages, configs, value stores) stay unwrapped and bill their caller.
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.kernel": (
        "repro.sim.simulator", "repro.sim.events", "repro.sim.completion",
        "repro.sim.process",
    ),
    "sim.server": ("repro.sim.server", "repro.sim.cpu", "repro.sim.disk"),
    "sim.network": (
        "repro.sim.network", "repro.sim.topology", "repro.sim.loss",
        "repro.sim.node", "repro.sim.faults",
    ),
    "ringpaxos.coordinator": (
        "repro.ringpaxos.coordinator", "repro.ringpaxos.batcher",
        "repro.ringpaxos.reconfig",
    ),
    "ringpaxos.acceptor": ("repro.ringpaxos.acceptor",),
    "ringpaxos.learner": ("repro.ringpaxos.learner",),
    "ringpaxos.proposer": ("repro.ringpaxos.proposer",),
    "core.merge": ("repro.core.merge",),
    "core.skip": ("repro.core.skip",),
    "core.learner": ("repro.core.learner",),
    "core.proposer": ("repro.core.proposer", "repro.core.admission"),
    "core.deployment": (
        "repro.core.deployment", "repro.core.groups", "repro.core.placement",
        "repro.core.reconfig",
    ),
    "paxos.storage": ("repro.paxos.storage",),
    "workload": (
        "repro.workload.generator", "repro.workload.population",
        "repro.workload.rates",
    ),
    "smr": (
        "repro.smr.replica", "repro.smr.client", "repro.smr.kvstore",
        "repro.smr.partitioning", "repro.smr.queueservice",
        "repro.smr.statemachine",
    ),
    "obs.probe": ("repro.obs.probe",),
    "check": (
        "repro.check.driver", "repro.check.oracles", "repro.check.schedule",
        "repro.check.generator",
    ),
    "metrics": (
        "repro.metrics.counters", "repro.metrics.histogram",
        "repro.metrics.registry", "repro.metrics.timeseries",
    ),
}

# Dunder methods worth a span: construction and callable objects. The
# rest (__len__, __eq__, __repr__, ...) are cheap and often called from C.
_DUNDERS = frozenset({"__init__", "__call__"})


class Ledger:
    """Per-layer call counts and self time, gathered by class-level shims.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, layers: Iterable[str], clock: Callable[[], int] = time.perf_counter_ns):
        self.names = [ROOT, *layers]
        if len(set(self.names)) != len(self.names):
            raise ValueError("layer names must be unique")
        self._index = {name: i for i, name in enumerate(self.names)}
        self._clock = clock
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        # [running layer index, time of the last layer transition]
        self._state = [0, 0]
        self._started_at: int | None = None
        self.wall_ns = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str) -> Callable:
        """Return ``fn`` behind a span shim attributed to ``layer``."""
        idx = self._index[layer]
        state = self._state
        self_ns = self.self_ns
        calls = self.calls
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = state[0]
            if outer == idx:
                return fn(*args, **kwargs)
            now = clock()
            self_ns[outer] += now - state[1]
            calls[idx] += 1
            state[0] = idx
            state[1] = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                self_ns[idx] += now - state[1]
                state[0] = outer
                state[1] = now

        return traced

    def patch(self, owner: object, name: str, replacement: object) -> None:
        """Set ``owner.name`` to ``replacement``; undone by :meth:`uninstall`."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install_class(self, cls: type, layer: str) -> None:
        """Wrap every method defined on ``cls`` itself (not inherited)."""
        for name, attr in list(vars(cls).items()):
            if name.startswith("__") and name not in _DUNDERS:
                continue
            if isinstance(attr, staticmethod):
                self.patch(cls, name, staticmethod(self.wrap(attr.__func__, layer)))
            elif isinstance(attr, classmethod):
                self.patch(cls, name, classmethod(self.wrap(attr.__func__, layer)))
            elif isinstance(attr, types.FunctionType):
                self.patch(cls, name, self.wrap(attr, layer))

    def install_module(self, module: types.ModuleType, layer: str) -> None:
        """Wrap the classes and top-level functions ``module`` defines."""
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere: owned by its own module
            if isinstance(obj, type):
                if issubclass(obj, (BaseException, Enum)) or getattr(obj, "_is_protocol", False):
                    continue
                self.install_class(obj, layer)
            elif isinstance(obj, types.FunctionType):
                self.patch(module, name, self.wrap(obj, layer))

    def install(self, layers: dict[str, tuple[str, ...]]) -> "Ledger":
        """Wrap every module of every layer in ``layers``; returns self."""
        for layer, modules in layers.items():
            for module_name in modules:
                self.install_module(importlib.import_module(module_name), layer)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin charging time; the benchmark's own code is the root layer."""
        now = self._clock()
        self._started_at = now
        self._state[0] = 0
        self._state[1] = now

    def stop(self) -> None:
        """Charge the tail to the running layer and fix the wall time."""
        if self._started_at is None:
            raise RuntimeError("ledger was not started")
        now = self._clock()
        self.self_ns[self._state[0]] += now - self._state[1]
        self._state[1] = now
        self.wall_ns = now - self._started_at
        self._started_at = None

    def self_time(self, layer: str) -> int:
        """Nanoseconds charged to ``layer``."""
        return self.self_ns[self._index[layer]]

    def entries(self, layer: str) -> int:
        """Calls that entered ``layer`` from another layer."""
        return self.calls[self._index[layer]]
