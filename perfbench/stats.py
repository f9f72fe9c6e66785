"""Latency histograms and the per-run summary, shared by run.py and worker.py."""

from __future__ import annotations

import math
import statistics
import time

# Latencies keep their 12 leading bits (0.025 % resolution), which bounds the
# histogram's size, and so the benchmark's own memory, whatever the run length.
KEPT_BITS = 12


class Latencies:
    """Histogram of operation latencies and the work those operations did:
    percentiles without keeping every sample."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.n = 0
        self.total_ns = 0
        self.work = 0

    def add(self, ns: int, work: int = 1) -> None:
        self.n += 1
        self.total_ns += ns
        self.work += work
        shift = ns.bit_length() - KEPT_BITS
        if shift > 0:
            ns = ns >> shift << shift
        self.counts[ns] = self.counts.get(ns, 0) + 1

    def merge(self, other: "Latencies") -> None:
        for ns, count in other.counts.items():
            self.counts[ns] = self.counts.get(ns, 0) + count
        self.n += other.n
        self.total_ns += other.total_ns
        self.work += other.work

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile, q in (0, 1]."""
        rank = max(1, math.ceil(q * self.n))
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= rank:
                return value / 1e6
        raise ValueError("no samples")

    def per_second(self) -> float:
        """Work per second of time spent in the operations."""
        return self.work / (self.total_ns / 1e9)


_SHAPES = ((0, 4, 7), (0, 3, 7), (0, 4, 7, 10), (0, 3, 6, 10), (0, 1, 4, 6, 8, 10),
           (0, 1, 3, 5, 7, 9))


# The reference job's time on the build machine when nothing else loads it.
REFERENCE_S = 0.005


def reference_s() -> float:
    """Time a fixed pure-Python job that does not touch nearsym (sets,
    sorting, tuples and dicts, like the program): the machine's speed now."""
    start = time.perf_counter()
    for _ in range(12):
        table = {}
        for root in range(12):
            for shape in _SHAPES:
                pcs = frozenset((root + i) % 12 for i in shape)
                ordered = sorted(pcs)
                forms = []
                for i in range(len(ordered)):
                    rotation = ordered[i:] + [v + 12 for v in ordered[:i]]
                    forms.append(tuple(v - rotation[0] for v in rotation))
                table[pcs] = min(forms)
    return time.perf_counter() - start


class Reference:
    """The reference job timed between operations, and the scale it gives
    each operation.

    Other load on a shared machine changes its speed by a factor of two or
    more, for seconds to minutes at a time.  An operation's time is scaled by
    REFERENCE_S over the reference time measured around it, so that it reads
    as it would at the speed where the reference job takes REFERENCE_S.
    """

    def __init__(self) -> None:
        self.samples = [reference_s()]

    def sample(self) -> float:
        self.samples.append(reference_s())
        return self.samples[-1]

    def scale_last(self) -> float:
        """Scale for the operation that just ended: time the job again and
        use the mean of this time and the previous one."""
        before = self.samples[-1]
        return 2 * REFERENCE_S / (before + self.sample())

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1000


class Blocks:
    """End-to-end figures of one run, cut into blocks of equal mix.

    ``p50_ms`` is the median of the block medians and ``throughput`` the
    median of the block rates, after scaling (see Reference).
    """

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.run = Latencies()
        self.medians: list[float] = []
        self.rates: list[float] = []
        self.busy_s: list[float] = []
        self.scales: list[float] = []

    def add(self, block: Latencies, scale: float = 1.0) -> None:
        """A block of latencies, already scaled or to be scaled by ``scale``."""
        self.medians.append(block.percentile_ms(0.5) * scale)
        self.rates.append(block.per_second() / scale)
        self.busy_s.append(block.total_ns / 1e9 * scale)
        self.scales.append(scale)
        self.run.merge(block)

    def summary(self) -> dict:
        scale = statistics.median(self.scales)
        return {
            "p50_ms": statistics.median(self.medians),
            "throughput": statistics.median(self.rates),
            "run_p90_ms": self.run.percentile_ms(0.9) * scale,
            "run_p99_ms": self.run.percentile_ms(0.99) * scale,
            "busy_s": sum(self.busy_s),
            "reference_ms": self.reference.median_ms(),
            "samples": self.run.n,
            "blocks": len(self.medians),
        }
