"""Measurement helpers shared by the benchmark's processes.

Pure functions and one span clock; no I/O. The unit tests in
``perfbench/tests`` pin down the three rules a later change must not
bend silently: which percentile a tail reports, how a span's self time
is derived from its children, and how the coordinator's own share of a
scatter is computed.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, List, Sequence

# Candidate percentiles for a ``*_tail_ms`` metric, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

# A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` percentile of
    ``count`` samples."""
    if count <= 0:
        return 0
    rank = max(1, math.ceil(round(pct * count / 100.0, 9)))
    return count - rank


def tail_percentile(count: int) -> float:
    """The highest percentile of :data:`TAIL_LADDER` with at least
    :data:`MIN_BEYOND` samples beyond it (the median when none has)."""
    for pct in TAIL_LADDER:
        if beyond(count, pct) >= MIN_BEYOND:
            return pct
    return 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def coordinator_us(wall_s: float, busy_s: Sequence[float]) -> float:
    """Coordinator time of one scatter: its wall time minus the busy
    time of the slowest worker, in microseconds. Never clamped: a
    negative value means the two clocks disagree, and shows."""
    slowest = max(busy_s) if busy_s else 0.0
    return (wall_s - slowest) * 1e6


def shard_skew(busy_s: Sequence[float]) -> float:
    """Slowest worker's busy time over the mean worker's (1 = even)."""
    if not busy_s:
        return 0.0
    mean = sum(busy_s) / len(busy_s)
    return max(busy_s) / mean if mean > 0 else 0.0


class SpanClock:
    """Per-thread span stacks that total calls, inclusive time and self
    time per span name.

    A span's self time is its duration minus the durations of the
    spans opened inside it on the same thread. Spans on one thread nest
    strictly, so the children never overlap and their sum is the part
    of the parent they cover.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._tables: List[Dict[str, List[float]]] = []
        self._tables_lock = threading.Lock()

    def _state(self):
        local = self._local
        try:
            return local.stack, local.table
        except AttributeError:
            local.stack = []
            local.table = {}
            with self._tables_lock:
                self._tables.append(local.table)
            return local.stack, local.table

    def depth(self, name: str) -> int:
        """How many spans named ``name`` are open on this thread."""
        stack, _ = self._state()
        return sum(1 for frame in stack if frame[0] == name)

    def parent(self) -> str:
        """Name of the innermost open span on this thread ('' if none)."""
        stack, _ = self._state()
        return stack[-1][0] if stack else ""

    def begin(self, name: str) -> list:
        stack, _ = self._state()
        frame = [name, self._clock(), 0.0]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        """Close ``frame``; return its duration in seconds."""
        stack, table = self._state()
        duration = self._clock() - frame[1]
        stack.pop()
        if stack:
            stack[-1][2] += duration
        row = table.get(frame[0])
        if row is None:
            row = table[frame[0]] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[2]
        return duration

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "total_s", "self_s"}}`` over all threads."""
        merged: Dict[str, List[float]] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in list(table.items()):
                into = merged.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    into[i] += row[i]
        return {
            name: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
            for name, row in merged.items()
        }
