"""Host-speed normalisation of the benchmark's end-to-end host times.

A shared 2-vCPU virtual host can change speed by up to ~1.7x, flipping
between a fast and a slow state every few milliseconds to seconds, in
proportions that drift over minutes (the CPU time of a fixed loop slows
just as much as its wall time, so it is not stolen time but a slower
core).  A pass's raw wall time then measures the host as much as the
program.

A :class:`Sampler` runs a fixed pure-Python probe (a small register
machine, the same kind of work as the simulator's interpreter loops)
from a ``SIGPROF`` interval timer every :data:`PERIOD_S` of the
process's CPU time, so probes are spread evenly over the work they
calibrate.  Over a window, the program did ``(wall - probe time) x
mean speed`` seconds of work at reference speed, where a probe's speed
is :data:`REFERENCE_PROBE_S` divided by its time.  That product is what
:func:`at_reference` returns: seconds the window would have taken
on a host where the probe takes :data:`REFERENCE_PROBE_S` (the fast
state of a 2-vCPU Intel Xeon virtual host).

The probe and the constants are part of the benchmark's definition:
changing them changes every normalised number.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: Process CPU time between two probes (each probe costs ~2% of it).
PERIOD_S = 0.02
#: The probe's time on the reference host.
REFERENCE_PROBE_S = 0.00028
#: Probes run back to back when a window caught none.
FALLBACK_PROBES = 5

_ITERATIONS = 40
_CODE = tuple((i % 5, i % 31 + 1, (i * 7) % 31 + 1) for i in range(64))


def probe() -> int:
    """A fixed amount of interpreter work: register file, memory dict,
    32-bit masking, as an instruction-set simulator does."""
    regs = [0] * 32
    mem = {}
    acc = 0
    for it in range(_ITERATIONS):
        for op, a, b in _CODE:
            if op == 0:
                regs[a] = (regs[a] + regs[b] + it) & 0xFFFFFFFF
            elif op == 1:
                regs[a] ^= regs[b]
            elif op == 2:
                mem[(regs[b] & 0xFF) << 2] = regs[a]
            elif op == 3:
                regs[a] = mem.get((regs[b] & 0xFF) << 2, 0)
            else:
                regs[a] = (regs[a] * (regs[b] | 1)) & 0xFFFFFFFF
        acc ^= regs[it & 31]
    return acc


def timed_probe() -> Tuple[float, float]:
    """``(start, duration)`` of one probe, on ``time.perf_counter``."""
    start = time.perf_counter()
    probe()
    return start, time.perf_counter() - start


def speed(durations: List[float]) -> float:
    """Mean probe speed relative to the reference host (1.0 = as fast)."""
    return statistics.fmean(REFERENCE_PROBE_S / d for d in durations)


def at_reference(elapsed: float, probed: float, factor: float) -> float:
    """``elapsed`` host seconds, ``probed`` of them spent in probes that
    measured mean speed ``factor``, as seconds at reference speed."""
    return max(elapsed - probed, 0.0) * factor


class Sampler:
    """Probes taken from a CPU-time interval timer while work runs."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        self.samples.append(timed_probe())

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """``(probe seconds, mean speed)`` of the probes that began in
        ``[start, end)`` on ``time.perf_counter``.  A window that caught
        no probe is priced by probes run now, outside it."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            return 0.0, speed([timed_probe()[1]
                               for _ in range(FALLBACK_PROBES)])
        return sum(inside), speed(inside)
