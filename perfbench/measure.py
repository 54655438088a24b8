"""Timing statistics, the host-speed reference and the single-client closed loop."""

from __future__ import annotations

import gc
import statistics
import sys
import time
from fractions import Fraction

# Percentiles the tail is read from.  A fixed ladder keeps the reported
# percentile from creeping with every change in throughput; each rung holds
# for a fivefold or wider range of sample counts (40-199 samples give p75,
# 200-999 p95), so a run-to-run swing in machine speed rarely moves it.
TAIL_LADDER = (50.0, 75.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10

# The host is a share of a machine whose speed for this process drifts by up
# to 1.8x over minutes (other tenants, shared cores), and pure-Python code
# drifts with it.  A fixed reference is timed before every operation, and each
# operation's time is scaled by REFERENCE_S over the mean reference time
# around it.  Times are therefore seconds on a host where the reference takes
# exactly REFERENCE_S; the reference does not touch productmix, so the
# program's own speed still shows.
#
# * The reference has two halves shaped like productmix's two kinds of hot
#   code: an integer max-surplus scan like the demand kernels, and Fraction
#   region tests like validity's.  Either half alone tracks some workloads
#   worse (the integer scan over-corrects the numpy-heavy SFM of wide goods).
# * The mean, not the median: the speed also flickers within a second, and an
#   operation's time adds up every fast and slow moment, as the mean does.
#   Only the highest and lowest tenth of a window are dropped, for the odd
#   sample the scheduler cut into.
# * Garbage collection is held off while the reference runs: a collection it
#   triggered would be paid for the heap the operations built.
REFERENCE_S = 1e-3
SCAN_PASSES = 16  # about REFERENCE_S / 2 on a 2-core x86-64 VM
REGION_PASSES = 2  # likewise
SPEED_WINDOW = 10  # reference samples on each side of an operation
_SCAN_ROWS = tuple(tuple((7 * i + 13 * j) % 101 for j in range(4)) for i in range(64))
_SCAN_PRICE = (50, 40, 30, 20)
_REGION_BIDS = tuple(
    tuple(Fraction((7 * i + 13 * j) % 41, 1 + i % 3) for j in range(3)) for i in range(48)
)


def reference_seconds() -> float:
    """Time of one pass of the fixed reference."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = 0
    for _ in range(SCAN_PASSES):
        for row in _SCAN_ROWS:
            best = 0
            for j in range(4):
                s = row[j] - _SCAN_PRICE[j]
                if s > best:
                    best = s
            total += best
    for k in range(REGION_PASSES):
        beta, anchor = Fraction(k, 2), _REGION_BIDS[k]
        for bid in _REGION_BIDS:
            if all(v - beta <= a for v, a in zip(bid, anchor)):
                total += 1
    seconds = time.perf_counter() - start
    if collecting:
        gc.enable()
    return seconds


def trimmed_mean(values) -> float:
    """Mean without the highest and lowest tenth of the values."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def host_scale() -> float:
    """REFERENCE_S over the trimmed mean of as many reference times, taken
    now, as an operation's window holds."""
    samples = 2 * SPEED_WINDOW + 2
    return REFERENCE_S / trimmed_mean(reference_seconds() for _ in range(samples))


def scaled(latencies, references, window: int = SPEED_WINDOW) -> list[float]:
    """Each latency times REFERENCE_S over the trimmed mean reference near it.

    ``references[i]`` was taken just before operation ``i``, so the window
    i-window .. i+window+1 holds the samples on both sides of it.
    """
    out = []
    for i, seconds in enumerate(latencies):
        near = references[max(0, i - window) : i + window + 2]
        out.append(seconds * REFERENCE_S / trimmed_mean(near))
    return out


def nearest_rank(sorted_values, pct: float):
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, -(-round(pct * 10) * n // 1000))  # ceil(pct/100 * n)
    return sorted_values[rank - 1], n - rank


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    that still has at least ten samples beyond it.

    With fewer than twenty samples no rung qualifies and the median is
    returned with however many samples lie beyond it.
    """
    ordered = sorted(values)
    best = (TAIL_LADDER[0], *nearest_rank(ordered, TAIL_LADDER[0]))
    for pct in TAIL_LADDER[1:]:
        value, beyond = nearest_rank(ordered, pct)
        if beyond < MIN_BEYOND:
            break
        best = (pct, value, beyond)
    return best


class Loop:
    """One client sending the next operation only after the last returns.

    Operations cycle through the prepared inputs in order.  The reference scan
    is timed just before each operation.  Each output is checked after its
    timing is taken; an operation that raises or returns a wrong output counts
    as failed, and its time still counts.
    """

    def __init__(self, op, inputs: int, checker):
        self._op = op  # (index) -> output
        self._inputs = inputs
        self._checker = checker
        self.order: list[int] = []
        self.latencies: list[float] = []  # wall seconds
        self.references: list[float] = []  # reference seconds before each
        self.failed = 0

    def step(self, index: int) -> float:
        self.references.append(reference_seconds())
        start = time.perf_counter()
        try:
            output = self._op(index)
        except Exception as exc:
            seconds = time.perf_counter() - start
            self._fail(index, f"raised {exc!r}")
        else:
            seconds = time.perf_counter() - start
            try:
                if not self._checker.ok(index, output):
                    self._fail(index, f"wrong output {output!r}")
            except Exception as exc:
                self._fail(index, f"output {output!r} failed its check: {exc!r}")
        self.order.append(index)
        self.latencies.append(seconds)
        return seconds

    def _fail(self, index: int, why: str) -> None:
        if not self.failed:
            print(f"first failure, input {index}: {why}", file=sys.stderr)
        self.failed += 1

    def for_seconds(self, seconds: float) -> None:
        busy = 0.0
        index = 0
        while busy < seconds:
            busy += self.step(index % self._inputs)
            index += 1

    def replay(self, order) -> None:
        for index in order:
            self.step(index)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def scaled(self) -> list[float]:
        """Latencies in seconds at the reference host speed."""
        return scaled(self.latencies, self.references)
