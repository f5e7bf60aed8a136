"""Machine-speed probe: the timed phase measured in units of a fixed reference kernel.

The shared hosts this benchmark runs on change speed by up to 2x, for spells
of one to tens of seconds; the CPU time of a fixed loop moves with its wall
time, so the process is slowed, not descheduled.  A run of a minute or less
cannot average that out.  While the probe is active, a ``SIGALRM`` handler runs
:func:`reference_kernel` every :data:`INTERVAL_S` seconds of wall time and
records how long it took.  A stretch of work that lasted ``t`` seconds while
the kernel took ``r(t)`` is credited ``integral dt / r(t)`` reference kernels:
the number of kernels that would have run in its place.  That count moves with
the program's own speed but not with the machine's, as long as the program and
the kernel slow down alike; the kernel therefore mixes the three kinds of work
setcoh does (interpreted arithmetic, string-keyed dicts, small numpy arrays).

The kernel is the benchmark's own code and never changes with the program, so
two commits compare on it directly.  Probe time is subtracted from every wall
time measured while the probe is active (:meth:`SpeedProbe.elapsed`).

Set-up time is reported in seconds: its reference kernels times
:data:`REFERENCE_S`, the kernel's median duration on the machine described in
bench/README.md, so set-up time in seconds at that machine's usual speed.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05       # one sample per 50 ms of wall time: about 2% of it
REFERENCE_S = 1.1e-3    # seconds per reference kernel at the usual speed (see above)

_MATRIX = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)


def reference_kernel() -> float:
    """Fixed work of about a millisecond on the machine described in bench/README.md."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    table: dict[str, int] = {}
    for i in range(600):
        key = f"w{i % 97}"
        table[key] = table.get(key, 0) + i
    x = _MATRIX
    for _ in range(40):
        x = np.tanh(x @ _MATRIX * 0.05)
    return float(total + len(table) + x[0, 0])


class SpeedProbe:
    """Samples the reference kernel's duration every ``interval`` seconds while active.

    Use as a context manager around the timed phase, in the main thread.  A probe
    that is never entered installs nothing and samples only where called explicitly;
    the traced pass gets one, so that its times need no separate code.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> float:
        """Run the kernel once and record it; returns the time it ended."""
        if self._busy:          # a timer signal that arrived during an explicit sample
            return perf_counter()
        self._busy = True
        start = perf_counter()
        reference_kernel()
        end = perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self._busy = False
        return end

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _range(self, start: float, end: float) -> range:
        return range(bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end))

    def busy(self, start: float, end: float) -> float:
        """Seconds the probe ran between ``start`` and ``end``."""
        return sum(self.durations[i] for i in self._range(start, end))

    def elapsed(self, start: float, end: float) -> float:
        """Wall seconds from ``start`` to ``end`` without the probe's own."""
        return end - start - self.busy(start, end)

    def measure(self, start: float) -> tuple[float, float]:
        """Close a stretch of work begun at ``start`` (a :meth:`sample`'s return value).

        Samples once more and returns (wall seconds of the work without the probe's own
        time, reference kernels credited to it).
        """
        end = self.sample()
        inside = self._range(start, end)
        wall = end - start - sum(self.durations[i] for i in inside)
        return wall, wall * float(np.mean([1.0 / self.durations[i] for i in inside]))
