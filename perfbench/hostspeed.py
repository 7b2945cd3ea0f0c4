"""Host-speed normalization: a fixed pure-Python reference kernel.

Wall time on a small shared VM drifts by up to 2x within a minute, and most
of the drift slows every interpreted instruction alike.  The benchmark
therefore runs a fixed reference kernel *in the same thread, interleaved
with the work*, and expresses every time in host-speed-normalized
seconds::

    normalized = wall * (nominal reference time / measured reference time)

A host that is twice as slow for a while roughly doubles both the work's
wall time and the kernel's, and the ratio stays put.  (Measured on a
2-CPU VM, the program's wall time grows by about 0.7 of the kernel's, so
a slow stretch still nudges normalized figures up a little.)  The
kernel's working set is a few hundred bytes, so it measures interpreter
speed, not cache pressure from the program under test.

Two interleavings exist:

* :class:`BatchNormalizer` -- the timed phase runs ops in fixed-size
  batches and one kernel chunk after each batch; each batch is scaled by
  the mean of the chunks around it.
* :class:`SetupNormalizer` -- set-up is a handful of long library calls,
  so an interval timer interrupts it and the signal handler runs a small
  kernel chunk.  The handler subtracts its own time from the set-up time.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from typing import List

#: nominal nanoseconds per kernel round: the kernel's speed on the host
#: the benchmark was calibrated on (2-CPU VM, Python 3.11).  It only fixes
#: the scale of the normalized numbers; any constant would do.
NOMINAL_NS_PER_ROUND = 500.0

#: kernel rounds between two timed-phase batches (~0.25 ms nominal)
BATCH_ROUNDS = 500
#: kernel rounds per set-up timer tick (~0.25 ms nominal)
SETUP_ROUNDS = 500
#: set-up timer period; with SETUP_ROUNDS the kernel takes ~2.5% of set-up
SETUP_TICK_S = 0.01
#: batches on each side of a batch whose kernel chunks set its scale
WINDOW = 3


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0
        self.count = 0

    def bump(self, x: int) -> int:
        self.value += x
        self.count += 1
        return self.value


def reference_kernel(rounds: int) -> int:
    """Fixed interpreter work shaped like the simulator's hot loops:
    dict probes, slotted attribute updates, method calls, list swaps and
    small-int arithmetic over a tiny working set."""
    table: dict = {}
    cells = [_Cell() for _ in range(16)]
    slots = list(range(64))
    acc = 0
    for i in range(rounds):
        k = (i * 2654435761) & 255
        table[k] = table.get(k, 0) + 1
        acc += cells[k & 15].bump(k) & 0xFFFF
        a, b = i & 63, k & 63
        slots[a], slots[b] = slots[b], slots[a]
        if not k & 3:
            acc += len(str(k))
    return acc


def time_kernel(rounds: int) -> float:
    """Seconds one kernel chunk of *rounds* takes right now."""
    t0 = time.perf_counter()
    reference_kernel(rounds)
    return time.perf_counter() - t0


def nominal_s(rounds: int) -> float:
    return rounds * NOMINAL_NS_PER_ROUND * 1e-9


class BatchNormalizer:
    """Kernel chunks between op batches, and the per-batch scale factors.

    Call :meth:`sample` once before the first batch and once after every
    batch; batch *b* lies between samples *b* and *b + 1*.
    """

    def __init__(self, batches: int, rounds: int = BATCH_ROUNDS) -> None:
        self.rounds = rounds
        self.samples = array("d", bytes(8 * (batches + 1)))
        self.n = 0

    def sample(self) -> None:
        self.samples[self.n] = time_kernel(self.rounds)
        self.n += 1

    def factors(self) -> List[float]:
        """Scale factor of each batch: nominal chunk time over the mean
        chunk time of the 2 * WINDOW + 2 samples around the batch.

        A mean, not a median: a descheduling gap that lands in a chunk
        lands in the batches at the same rate, and the scale must see it.
        """
        samples = self.samples[:self.n]
        nominal = nominal_s(self.rounds)
        out = []
        for b in range(self.n - 1):
            lo = max(0, b - WINDOW)
            hi = min(self.n, b + WINDOW + 2)
            out.append(nominal * (hi - lo) / sum(samples[lo:hi]))
        return out

    def kernel_us(self) -> float:
        """Median raw chunk time in microseconds (raw host speed)."""
        return statistics.median(self.samples[:self.n]) * 1e6


class SetupNormalizer:
    """Time a set-up phase with kernel chunks from an interval timer.

    Use as a context manager; afterwards :attr:`raw_s` is the set-up's own
    wall time (handler time subtracted) and :attr:`normalized_s` the same
    time scaled to nominal host speed.
    """

    def __init__(self, tick_s: float = SETUP_TICK_S,
                 rounds: int = SETUP_ROUNDS) -> None:
        self.tick_s = tick_s
        self.rounds = rounds
        self.samples: List[float] = []
        self.handler_s = 0.0
        self.raw_s = 0.0
        self.normalized_s = 0.0
        self._previous = None

    def _on_tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel(self.rounds)
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def __enter__(self) -> "SetupNormalizer":
        # one chunk up front, so even a set-up shorter than a tick has a
        # host-speed sample
        self.samples.append(time_kernel(self.rounds))
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        # one chunk after, for the same reason as the one before
        self.samples.append(time_kernel(self.rounds))
        self.raw_s = wall - self.handler_s
        self.normalized_s = self.raw_s * (
            nominal_s(self.rounds) / statistics.fmean(self.samples))
        return False
