"""Outside-in instrumentation: every hook is installed from here, none in ``src/``.

Two pieces, both installed in a fresh interpreter before the system under
test is built:

- :class:`Probe` (always on) times the event loop — the calls into
  ``Scheduler.run`` — and attaches the benchmark's observers to every
  ``Simulation`` the workload builds. It adds two wrapped calls per run.
- :class:`Ledger` (traced runs only) wraps the public functions and
  methods of each layer, keeps a span stack so nested calls yield self
  time, and counts calls so the counts can be checked against the
  program's own counters.

A function imported by name into another module is a second reference the
wrapper must replace, or calls through it go unseen. :func:`_rebind`
therefore swaps every module-level alias in every loaded ``repro`` module,
and ``run.py`` checks the call counts against the program's own counters
to catch whatever is missed.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter, process_time
from typing import Any, Callable

#: layer -> (module, qualified name) of every public entry point it owns.
#: Observer ``on_event`` methods join "auditors" at install time.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "sim.scheduler": (
        ("repro.sim.runner", "Simulation._dispatch"),
        ("repro.sim.runner", "Simulation.set_timer"),
        ("repro.sim.runner", "Simulation.cancel_timer"),
        ("repro.sim.scheduler", "Scheduler.schedule"),
        ("repro.sim.scheduler", "Scheduler.schedule_at"),
        ("repro.sim.scheduler", "Scheduler.cancel"),
    ),
    "sim.trace": (("repro.sim.trace", "TraceStore.record"),),
    "auditors": (),
    "sim.network": (("repro.sim.network", "Network.submit"),),
    "faults.channel": (
        ("repro.faults.channel", "ReliableProcess.on_message"),
        ("repro.faults.channel", "ReliableProcess.on_timer"),
        ("repro.faults.channel", "ReliableChannel.send"),
        ("repro.faults.channel", "ReliableChannel.handle_message"),
        ("repro.faults.channel", "ReliableChannel.handle_timer"),
    ),
    "crypto.serialize": (
        ("repro.crypto.serialize", "canonical_bytes"),
        ("repro.crypto.serialize", "content_hash"),
        ("repro.crypto.serialize", "type_fingerprint"),
    ),
    "crypto.signatures": (
        ("repro.crypto.signatures", "Signer.sign"),
        ("repro.crypto.signatures", "SignatureScheme.verify"),
    ),
    "consensus.usig": (
        ("repro.consensus.usig", "USIG.create_ui"),
        ("repro.consensus.usig", "USIGVerifier.verify_ui"),
        ("repro.hardware.trinc", "Trinket.attest"),
        ("repro.hardware.trinc", "TrincAuthority.check"),
    ),
    "consensus.replica": (
        ("repro.consensus.minbft", "MinBFTReplica.on_message"),
        ("repro.consensus.minbft", "MinBFTReplica.on_timer"),
        ("repro.consensus.pbft", "PBFTReplica.on_message"),
        ("repro.consensus.pbft", "PBFTReplica.on_timer"),
    ),
    "consensus.client": (
        ("repro.consensus.client", "BFTClient.on_message"),
        ("repro.consensus.client", "BFTClient.on_timer"),
    ),
    "service": (
        ("repro.service.ingress", "IngressProcess.on_message"),
        ("repro.service.ingress", "IngressProcess.on_timer"),
        ("repro.service.ingress", "TenantClient.on_message"),
        ("repro.service.ingress", "TenantClient.on_timer"),
    ),
    "sim.shared_memory": (
        ("repro.sim.shared_memory", "SharedMemorySystem.invoke"),
        ("repro.sim.shared_memory", "SharedMemorySystem.linearize"),
        ("repro.sim.shared_memory", "SharedMemorySystem.complete"),
    ),
    "core.rounds": (
        ("repro.core.rounds", "RoundProcess.on_message"),
        ("repro.core.rounds", "RoundProcess.on_timer"),
        ("repro.core.rounds", "RoundProcess.on_op_result"),
    ),
    "core.srb": (
        ("repro.core.srb_from_uni", "validate_l1_item"),
        ("repro.core.srb_from_uni", "validate_l2"),
        ("repro.core.srb_from_uni", "SRBFromUnidirectional.broadcast"),
        ("repro.core.srb_from_uni", "SRBFromUnidirectional.on_round_message"),
        ("repro.core.srb_from_uni", "SRBFromUnidirectional.on_round_complete"),
    ),
}

#: entry points only counted, never timed: the proof-memo misses of the
#: validators above, whose ratio to validator calls is the memo hit ratio
COUNTED: tuple[tuple[str, str], ...] = (
    ("repro.core.srb_from_uni", "_validate_l1_item_uncached"),
    ("repro.core.srb_from_uni", "_validate_l2_uncached"),
)

#: modules imported before wrapping so that classes and functions defined
#: in lazily imported modules are wrapped too
_EAGER = ("repro.service.soak", "repro.faults.chaos", "repro.core.srb")


def _resolve(module: str, qualname: str) -> tuple[Any, str, Any]:
    """(owner, attribute, original) for ``module:qualname``."""
    owner: Any = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _rebind(owner: Any, attr: str, original: Any, wrapper: Any) -> None:
    """Install ``wrapper`` on its owner and on every module-level alias."""
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for alias, value in list(vars(module).items()):
            if value is original:
                setattr(module, alias, wrapper)


class Probe:
    """Event-loop timer and observer wiring, on in every run.

    ``loop_s`` sums the wall time spent inside ``Scheduler.run`` and
    ``loop_cpu_s`` the process CPU time spent there;
    ``first_dispatch`` is the ``perf_counter`` reading at its first entry,
    which ends the set-up phase. ``events`` sums the loop's own
    ``events_processed``. Every ``Simulation`` built is kept in ``sims``
    and gets the observers passed to :meth:`watch`; ``log`` is the
    benchmark's own observer, attached where a workload watches it.
    """

    def __init__(self, log: Any) -> None:
        self.log = log
        self.observers: list[Any] = []
        self.sims: list[Any] = []
        self.first_dispatch: float | None = None
        self.loop_s = 0.0
        self.loop_cpu_s = 0.0
        self.events = 0
        self.on_loop_enter: Callable[[], None] = lambda: None
        self.on_loop_exit: Callable[[], None] = lambda: None

    def watch(self, observer: Any) -> Any:
        """Attach ``observer`` to every simulation built from now on."""
        self.observers.append(observer)
        return observer

    def install(self) -> None:
        from repro.sim.runner import Simulation
        from repro.sim.scheduler import Scheduler

        probe = self
        run = Scheduler.run
        init = Simulation.__init__

        @functools.wraps(run)
        def timed_run(sched, *args, **kwargs):
            probe.on_loop_enter()
            c0 = process_time()
            t0 = perf_counter()
            if probe.first_dispatch is None:
                probe.first_dispatch = t0
            try:
                stats = run(sched, *args, **kwargs)
            finally:
                probe.loop_s += perf_counter() - t0
                probe.loop_cpu_s += process_time() - c0
                probe.on_loop_exit()
            probe.events += stats.events_processed
            return stats

        @functools.wraps(init)
        def watched_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            probe.sims.append(sim)
            for observer in probe.observers:
                sim.attach_observer(observer)

        Scheduler.run = timed_run
        Simulation.__init__ = watched_init


class Ledger:
    """Per-layer call counts and self times, measured from outside.

    Self time is a span's wall time minus that of the spans nested in it.
    Only time inside the event loop is kept (the probe brackets each loop
    with :meth:`enter_loop` / :meth:`exit_loop`); calls are counted over
    the whole run so they can be compared with the program's counters.
    """

    def __init__(self) -> None:
        self.layers: list[str] = list(LAYERS) + ["benchmark"]
        self._layer_index = {name: i for i, name in enumerate(self.layers)}
        self.calls: dict[str, list[int]] = {}
        self._self_s = [0.0] * len(self.layers)
        self._loop_self_s = [0.0] * len(self.layers)
        self._snapshot = [0.0] * len(self.layers)
        # one child-time accumulator per open span; the root sums the
        # durations of top-level spans
        self._stack = [0.0]
        self._root_at_enter = 0.0
        self.top_level_s = 0.0

    # -- installing ---------------------------------------------------------

    def install(self, probe: Probe) -> None:
        for module in _EAGER:
            importlib.import_module(module)
        for layer, entries in LAYERS.items():
            for module, qualname in entries:
                self._wrap(layer, module, qualname)
        for module, qualname in COUNTED:
            owner, attr, original = _resolve(module, qualname)
            counter = self.calls.setdefault(f"{module}:{qualname}", [0])

            @functools.wraps(original)
            def counted(*args, _fn=original, _c=counter, **kwargs):
                _c[0] += 1
                return _fn(*args, **kwargs)

            _rebind(owner, attr, original, counted)
        self._wrap_auditors()
        # the benchmark's own observer is not a program layer: its time
        # must not count as sim.trace self time
        self._wrap_instance(probe.log, "on_event", "benchmark")
        probe.on_loop_enter = self.enter_loop
        probe.on_loop_exit = self.exit_loop

    def _wrap_auditors(self) -> None:
        from repro.sim.trace import TraceObserver

        seen: list[type] = []
        todo = list(TraceObserver.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls.__module__.startswith("repro") and "on_event" in cls.__dict__:
                seen.append(cls)
        for cls in sorted(seen, key=lambda c: (c.__module__, c.__qualname__)):
            self._wrap("auditors", cls.__module__, f"{cls.__qualname__}.on_event")

    def _wrap(self, layer: str, module: str, qualname: str) -> None:
        owner, attr, original = _resolve(module, qualname)
        counter = self.calls.setdefault(f"{module}:{qualname}", [0])
        _rebind(owner, attr, original,
                self._span(original, self._layer_index[layer], counter))

    def _wrap_instance(self, obj: Any, attr: str, layer: str) -> None:
        counter = self.calls.setdefault(f"{type(obj).__qualname__}.{attr}", [0])
        setattr(obj, attr,
                self._span(getattr(obj, attr), self._layer_index[layer], counter))

    def _span(self, fn: Callable, layer: int, counter: list[int]) -> Callable:
        stack = self._stack
        self_s = self._self_s
        push = stack.append
        pop = stack.pop

        @functools.wraps(fn)
        def span(*args, **kwargs):
            counter[0] += 1
            push(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[layer] += dt - pop()
                stack[-1] += dt

        return span

    # -- the loop window ----------------------------------------------------

    def enter_loop(self) -> None:
        if len(self._stack) != 1:
            raise RuntimeError("event loop entered inside a layer span")
        self._snapshot = list(self._self_s)
        self._root_at_enter = self._stack[0]

    def exit_loop(self) -> None:
        for i, total in enumerate(self._self_s):
            self._loop_self_s[i] += total - self._snapshot[i]
        self.top_level_s += self._stack[0] - self._root_at_enter

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer inside the event loop, plus the time of the
        benchmark's own observer under ``benchmark``."""
        return dict(zip(self.layers, self._loop_self_s))
