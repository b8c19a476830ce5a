"""Host-speed gauge for the untraced event loop.

The benchmark runs on a few cores of a shared host whose speed for pure
Python work swings by up to ~1.6x from moment to moment, and the mix of
fast and slow moments drifts over tens of seconds. A median over runs cannot remove a
drift that long, so the gauge measures the host's speed *during* the
loop: every :data:`INTERVAL_S` of loop time a ``SIGALRM`` handler runs a
fixed reference kernel and times it, and at the end each slice of loop
time between two kernel calls is scaled by :data:`REF_KERNEL_S` over the
mean time of the two kernels around it. The result, :attr:`norm_s`, is
the loop's time on a host where one kernel call takes exactly
:data:`REF_KERNEL_S`; :attr:`raw_s` is the same loop's wall time with
the kernel calls taken out.

The kernel does the kind of work the program does (heap operations,
small dicts and tuples, canonical JSON, HMAC-SHA256) on its own objects,
with the cyclic collector paused so that it never pays for collecting
the program's heap. It touches no program state, so the program's
results are the same with or without the gauge. Only untraced runs use
it: its time would otherwise land inside the ledger's layer spans.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import hmac
import json
import signal
from time import perf_counter

#: loop time between two kernel calls
INTERVAL_S = 0.05
#: the host speed ``norm_s`` is expressed at: one kernel call per millisecond
REF_KERNEL_S = 1e-3
#: events per kernel call (about a millisecond on a 2-vCPU cloud host)
KERNEL_EVENTS = 80

_KEY = b"perfbench-reference-kernel-key!!"


def kernel() -> int:
    """A fixed slice of event-simulation-like work."""
    heap: list = []
    seen: dict = {}
    acc = 0
    for i in range(KERNEL_EVENTS):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.001, i, ("m", i % 13)))
    while heap:
        t, seq, msg = heapq.heappop(heap)
        rec = {"t": t, "seq": seq, "kind": msg[0], "pid": msg[1]}
        blob = json.dumps(rec, sort_keys=True, separators=(",", ":")).encode()
        tag = hmac.new(_KEY, blob, hashlib.sha256).digest()
        seen[(msg[1], seq % 7)] = tag
        acc += len(seen) + tag[0]
    return acc


def timed_kernel() -> tuple[float, float]:
    """(start, end) ``perf_counter`` readings around one kernel call."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return t0, perf_counter()
    finally:
        if was_enabled:
            gc.enable()


class SpeedGauge:
    """Brackets event loops (``enter``/``exit``) and samples the host's
    speed inside them; see the module docstring."""

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.norm_s = 0.0
        self.kernel_s: list[float] = []
        """Every kernel call's duration, in the loop and around it."""
        self.in_loop_kernel_s = 0.0
        """Kernel time spent inside loops, which the probe's loop time
        includes and :attr:`raw_s` does not."""
        self._marks: list[tuple[float, float]] = []
        self._active = False
        self._busy = False
        self._previous = signal.SIG_DFL

    def _tick(self, _signum, _frame) -> None:
        if self._active and not self._busy:
            self._busy = True
            self._marks.append(timed_kernel())
            self._busy = False

    def enter(self) -> None:
        self._marks = [timed_kernel()]
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def exit(self) -> None:
        self._active = False
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        marks = self._marks
        inside = marks[1:]
        self.in_loop_kernel_s += sum(b - a for a, b in inside)
        marks.append(timed_kernel())
        # the loop slices run from the end of one kernel call to the start
        # of the next; the last one ends when the loop did
        starts = [b for _a, b in marks[:-1]]
        stops = [a for a, _b in inside] + [end]
        durations = [b - a for a, b in marks]
        self.kernel_s += durations
        for i, (s0, s1) in enumerate(zip(starts, stops)):
            kernel_s = (durations[i] + durations[i + 1]) / 2
            self.raw_s += s1 - s0
            self.norm_s += (s1 - s0) * REF_KERNEL_S / kernel_s
