"""Metric math of the end-to-end benchmark.

Percentile selection, self time, idle share, result digests and run-to-run
spread.  Stdlib only: ``run.py``, the comparison helper (``compare.py``)
and their tests import it without numpy.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

TAIL_LADDER = (99, 95, 90, 80, 75)
"""Candidate tail percentiles, highest first."""

MIN_BEYOND = 10
"""A tail percentile is reported only with this many samples above it."""


def nearest_rank(values: Sequence[float], percentile: int) -> float:
    """The ``percentile``-th value by the nearest-rank rule (a real sample)."""
    if not values:
        raise ValueError("no samples")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = sorted(values)
    rank = -(-percentile * len(ordered) // 100)  # ceil without float error
    return ordered[rank - 1]


def samples_beyond(count: int, percentile: int) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, -(-percentile * count // 100))


def tail_percentile(count: int) -> Optional[int]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it, or ``None`` when ``count`` is too small for any."""
    for percentile in TAIL_LADDER:
        if samples_beyond(count, percentile) >= MIN_BEYOND:
            return percentile
    return None


def summarize(values: Sequence[float]) -> Dict:
    """Median plus the highest percentile with >= 10 samples beyond it.

    ``tail_p`` is ``None`` (and ``tail`` the maximum) when there are too
    few samples for any ladder percentile; ``n`` is always reported.
    """
    percentile = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail_p": percentile,
        "tail": (nearest_rank(values, percentile) if percentile is not None
                 else max(values)),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def idle_share(busy_s: float, dispatch_s: float, workers: int) -> float:
    """Share of dispatch capacity not spent in client work.

    ``1 - busy / (dispatch * workers)``, floored at 0: merged worker spans
    are placed by offset, so a busy total can overshoot by clock skew.
    """
    if dispatch_s <= 0 or workers < 1:
        return 0.0
    return max(0.0, 1.0 - busy_s / (dispatch_s * workers))


def result_digest(result_json) -> str:
    """sha256 of a cell result in the run store's canonical JSON encoding."""
    text = json.dumps(result_json, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _add(totals: Dict[str, float], key: str, value: float) -> None:
    totals[key] = totals.get(key, 0) + value


class _ThreadTotals:
    """One thread's call stack and totals (no locking on the hot path)."""

    def __init__(self):
        self.stack: List[list] = []
        self.sections: Dict[str, Dict[str, float]] = {
            "inclusive": {}, "self": {}, "calls": {}, "counts": {}}


class LayerClock:
    """Inclusive and self time per ``phase/layer`` key from nested calls.

    Each thread keeps its own stack and totals; :meth:`totals` merges
    them.  A layer's self time is its elapsed time minus the time of the
    layers called inside it, so self times of different layers never
    overlap and can be summed.  Inclusive time counts only the outermost
    call of a layer that calls itself.  ``phase`` is shared by all
    threads and prefixes every key recorded while it is set.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._threads: List[_ThreadTotals] = []
        self._register = threading.Lock()
        self.phase = "round"

    def _mine(self) -> _ThreadTotals:
        mine = getattr(self._local, "totals", None)
        if mine is None:
            mine = self._local.totals = _ThreadTotals()
            with self._register:
                self._threads.append(mine)
        return mine

    def enter(self, layer: str) -> None:
        self._mine().stack.append([f"{self.phase}/{layer}", self._clock(), 0.0])

    def exit(self) -> None:
        mine = self._mine()
        key, start, inner = mine.stack.pop()
        elapsed = self._clock() - start
        if all(frame[0] != key for frame in mine.stack):
            _add(mine.sections["inclusive"], key, elapsed)
        _add(mine.sections["self"], key, elapsed - inner)
        _add(mine.sections["calls"], key, 1)
        if mine.stack:
            mine.stack[-1][2] += elapsed

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a plain counter under the current phase."""
        _add(self._mine().sections["counts"], f"{self.phase}/{name}", value)

    def totals(self, section: str) -> Dict[str, float]:
        """``inclusive``, ``self``, ``calls`` or ``counts``, over all threads."""
        merged: Dict[str, float] = {}
        with self._register:
            threads = list(self._threads)
        for totals in threads:
            for key, value in totals.sections[section].items():
                _add(merged, key, value)
        return merged
