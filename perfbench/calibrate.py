"""Machine-speed calibration for wall-clock metrics on a shared machine.

On a small shared box the speed at which this process executes drifts by
tens of percent within seconds: a fixed pure-Python loop runs anywhere
from about 500 to 800 passes per second, and the program's call rate
follows it.  A wall-clock rate measured in one run therefore says as
much about the neighbours as about the program.

The benchmark runs a fixed reference kernel, which is part of the
benchmark and never changes with the program, every ``EVERY_NS`` or so
while it measures (:class:`ScaledClock`).  The wall and cpu time between
two kernel runs is multiplied by ``REFERENCE_NS / kernel_ns``, the mean of
the two runs, which expresses it at the reference machine speed.  The raw
figures are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import struct
import time

#: kernel time, in ns, that defines the reference machine speed (near
#: the median on a 2-core 2.1 GHz Xeon VM when its neighbours are quiet)
REFERENCE_NS = 2_000_000
#: least wall time between two kernel runs of a :class:`ScaledClock`
EVERY_NS = 20_000_000

_PAIR = struct.Struct("<IQ")
_SOURCE = bytes(range(256)) * 40


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def _step(point: _Point, table: dict, buf: bytes, i: int) -> int:
    table[i & 255] = point.x + point.y
    return len(buf[i & 1023:(i & 1023) + 24])


def reference_kernel() -> int:
    """A fixed mix of what the datapath spends its time on: Python calls
    and attribute reads, dict stores, struct packing, slicing and
    kilobyte copies."""
    point, table, total = _Point(3, 4), {}, 0
    frame = bytearray(10240)
    for i in range(4000):
        total += _step(point, table, _SOURCE, i)
        total += _PAIR.unpack_from(_PAIR.pack(i, total), 0)[0]
    for i in range(40):
        frame[i:i + 8192] = _SOURCE[:8192]
        total += len(bytes(frame))
    return total


def kernel_ns() -> int:
    """Wall time of one reference kernel run."""
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


class ScaledClock:
    """Wall and cpu clocks that leave out the kernel's own runs, and the
    machine-speed scale of each stretch between two kernel runs.

    While started, :meth:`tick` runs the kernel when ``EVERY_NS`` has
    passed since the last run; the benchmark calls it between passes of
    its loop and from its own callbacks inside a pass, never from the
    program.  :func:`mapper` turns readings of :meth:`now` and
    :meth:`cpu_now` into scaled time."""

    def __init__(self) -> None:
        self.paused_ns = 0
        self.paused_cpu_ns = 0
        #: one per stretch: (wall reading, cpu reading, scale) at its start
        self.stretches: list[tuple[int, int, float]] = []
        self._kernel = 0
        self._due = None  # perf_counter_ns of the next kernel run, if started

    def now(self) -> int:
        return time.perf_counter_ns() - self.paused_ns

    def cpu_now(self) -> int:
        return time.process_time_ns() - self.paused_cpu_ns

    def _run_kernel(self) -> int:
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        kernel = kernel_ns()
        t1 = time.perf_counter_ns()
        self.paused_ns += t1 - t0
        self.paused_cpu_ns += time.process_time_ns() - c0
        self._due = t1 + EVERY_NS
        return kernel

    def start(self) -> None:
        """Run the kernel and open the first stretch."""
        self.stretches = []
        self._kernel = self._run_kernel()
        self._open = (self.now(), self.cpu_now())

    def tick(self) -> None:
        due = self._due
        if due is not None and time.perf_counter_ns() >= due:
            self._close()

    def stop(self) -> None:
        """Close the last stretch; ticks do nothing until the next start."""
        self._close()
        self._due = None

    def _close(self) -> None:
        wall, cpu = self._open
        after = self._run_kernel()
        self.stretches.append((wall, cpu, REFERENCE_NS / ((self._kernel + after) / 2)))
        self._kernel = after
        self._open = (self.now(), self.cpu_now())


def mapper(stretches, index: int):
    """Map raw readings to scaled time (ns, arbitrary origin): ``index`` 0
    for wall readings of :meth:`ScaledClock.now`, 1 for cpu readings of
    :meth:`ScaledClock.cpu_now`.  Readings before the first stretch use
    its scale."""
    starts = [s[index] for s in stretches]
    scales = [s[2] for s in stretches]
    offsets, total = [], 0.0
    for i, start in enumerate(starts):
        if i:
            total += (start - starts[i - 1]) * scales[i - 1]
        offsets.append(total)

    def at(reading: int) -> float:
        j = max(bisect.bisect_right(starts, reading) - 1, 0)
        return offsets[j] + (reading - starts[j]) * scales[j]

    return at
