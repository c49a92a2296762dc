"""Profile reports over run-store telemetry sidecars.

``repro profile <store>`` loads every ``<store>/telemetry/*.jsonl``
sidecar and renders, per cell: total time per phase (sample, dispatch,
aggregate, checkpoint, ...), client-update statistics including the
*straggler spread* (slowest client minus the round median — the paper's
device-heterogeneity regime makes this the primary scheduling signal),
per-worker busy time, and counter totals.  A cross-cell counter summary
closes the report.

Everything here is read-only and stdlib-only; the sidecars are
diagnostics living outside the hashed records, so profiling can never
perturb a result.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from .export import CellTelemetry, parse_sidecar

__all__ = [
    "CorruptSidecar",
    "load_store_telemetry",
    "PhaseStat",
    "ClientStats",
    "CellProfile",
    "profile_cell",
    "render_profile",
]

# Phase-span names aggregated into the per-cell phase table, in display
# order.  Worker-side task spans (CLIENT_SPAN_NAMES) are reported
# separately with distribution statistics rather than a plain total.
PHASE_ORDER = (
    "round",
    "sample",
    "dispatch",
    "aggregate",
    "checkpoint",
    "eval",
    "history_write",
    "personalize",
)

# The session now records every training task as ``cohort_update`` (a
# per-client round is a plan of singleton cohorts); ``client_update``
# stays so sidecars written by older versions still profile.
CLIENT_SPAN_NAMES = ("client_update", "cohort_update", "cohort_personalize")


class CorruptSidecar(ValueError):
    """A telemetry sidecar does not parse: a torn or malformed line.
    Raised on load, naming the file and the line."""


def load_store_telemetry(store_root: str) -> List[Tuple[str, CellTelemetry]]:
    """All sidecars under ``<store>/telemetry/``, sorted by fingerprint.

    Raises :class:`CorruptSidecar` for the first one that does not parse.
    """
    telemetry_dir = os.path.join(store_root, "telemetry")
    if not os.path.isdir(telemetry_dir):
        return []
    cells = []
    for name in sorted(os.listdir(telemetry_dir)):
        if not name.endswith(".jsonl"):
            continue
        path = os.path.join(telemetry_dir, name)
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            cells.append((name[:-len(".jsonl")], parse_sidecar(text)))
        except ValueError as error:
            raise CorruptSidecar(
                f"corrupt telemetry sidecar {path}: {error}") from error
    return cells


class PhaseStat:
    """Aggregate of one span name inside a cell."""

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total_s += duration
        self.max_s = max(self.max_s, duration)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class ClientStats:
    """Distribution of per-client update spans across a cell's rounds.

    ``straggler_spread_s`` is the mean over rounds of (slowest client −
    round median) — how much tail latency the synchronous round barrier
    pays to its slowest participant.
    """

    def __init__(self, durations_by_round: Dict[int, List[float]],
                 unrounded: List[float]):
        self.durations_by_round = durations_by_round
        self.unrounded = unrounded

    @property
    def all_durations(self) -> List[float]:
        merged = list(self.unrounded)
        for durations in self.durations_by_round.values():
            merged.extend(durations)
        return merged

    @property
    def count(self) -> int:
        return len(self.all_durations)

    @property
    def total_s(self) -> float:
        return sum(self.all_durations)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    @property
    def median_s(self) -> float:
        return _median(self.all_durations)

    @property
    def max_s(self) -> float:
        return max(self.all_durations, default=0.0)

    @property
    def straggler_spread_s(self) -> float:
        spreads = [max(durations) - _median(durations)
                   for durations in self.durations_by_round.values()
                   if durations]
        if not spreads:
            return 0.0
        return sum(spreads) / len(spreads)


class CellProfile:
    """Everything ``repro profile`` reports about one cell."""

    def __init__(self, fingerprint: str, cell: CellTelemetry):
        self.fingerprint = fingerprint
        self.meta = cell.meta
        self.counters = cell.counters
        self.phases: Dict[str, PhaseStat] = {}
        self.clients: Dict[str, ClientStats] = {}
        self.worker_busy_s: Dict[Tuple[int, int], float] = {}
        self.cell_duration_s = 0.0
        self.rounds = 0
        self._aggregate(cell)

    def _aggregate(self, cell: CellTelemetry) -> None:
        index = cell.span_index()
        client_rounds: Dict[str, Dict[int, List[float]]] = {}
        client_unrounded: Dict[str, List[float]] = {}
        for span in cell.spans:
            if span.name == "cell":
                self.cell_duration_s = max(self.cell_duration_s,
                                           span.duration)
            if span.name == "round":
                self.rounds += 1
            if span.name in PHASE_ORDER:
                self.phases.setdefault(span.name, PhaseStat()).add(
                    span.duration)
            if span.name in CLIENT_SPAN_NAMES:
                round_index = _round_of(span, index)
                if round_index is None:
                    client_unrounded.setdefault(span.name, []).append(
                        span.duration)
                else:
                    client_rounds.setdefault(span.name, {}).setdefault(
                        round_index, []).append(span.duration)
                key = (span.pid, span.tid)
                self.worker_busy_s[key] = (
                    self.worker_busy_s.get(key, 0.0) + span.duration)
        for name in set(client_rounds) | set(client_unrounded):
            self.clients[name] = ClientStats(
                client_rounds.get(name, {}), client_unrounded.get(name, []))


def _round_of(span, index) -> Optional[int]:
    """The round index a span belongs to: its own attr, or an ancestor's."""
    seen = set()
    current = span
    while current is not None and current.span_id not in seen:
        seen.add(current.span_id)
        value = current.attrs.get("round")
        if value is not None:
            return int(value)
        if current.name == "round":
            return None
        current = index.get(current.parent_id) \
            if current.parent_id is not None else None
    return None


def profile_cell(fingerprint: str, cell: CellTelemetry) -> CellProfile:
    return CellProfile(fingerprint, cell)


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def render_profile(cells: Sequence[Tuple[str, CellTelemetry]],
                   top: int = 0) -> str:
    """The full ``repro profile`` report as text."""
    if not cells:
        return "no telemetry sidecars found (run a sweep with telemetry on)\n"
    lines: List[str] = []
    totals: Dict[str, float] = {}
    for fingerprint, cell in cells:
        profile = profile_cell(fingerprint, cell)
        label = profile.meta.get("label") or ""
        header = f"cell {fingerprint[:12]}"
        if label:
            header += f"  [{label}]"
        header += (f"  rounds={profile.rounds}"
                   f"  wall={_fmt_s(profile.cell_duration_s).strip()}")
        lines.append(header)
        for name in PHASE_ORDER:
            stat = profile.phases.get(name)
            if stat is None or name == "round":
                continue
            lines.append(f"  {name:<14} n={stat.count:<4}"
                         f" total={_fmt_s(stat.total_s)}"
                         f" mean={_fmt_s(stat.mean_s)}"
                         f" max={_fmt_s(stat.max_s)}")
        # Mid-round dropouts never produce a client span, so the straggler
        # spread silently excludes them; attribute them explicitly or the
        # spread reads as "fleet health" when part of the fleet vanished.
        dropped = profile.counters.get("round.dropouts", 0.0)
        for name in CLIENT_SPAN_NAMES:
            stats = profile.clients.get(name)
            if stats is None:
                continue
            dropped_text = (f" dropped={dropped:g}"
                            if dropped and name != "cohort_personalize" else "")
            lines.append(f"  {name:<14} n={stats.count:<4}"
                         f" total={_fmt_s(stats.total_s)}"
                         f" median={_fmt_s(stats.median_s)}"
                         f" max={_fmt_s(stats.max_s)}"
                         f" straggler_spread={_fmt_s(stats.straggler_spread_s)}"
                         f"{dropped_text}")
        if profile.worker_busy_s and profile.cell_duration_s > 0:
            busiest = sorted(profile.worker_busy_s.items(),
                             key=lambda item: -item[1])
            shown = busiest[:top] if top else busiest
            for (pid, tid), busy in shown:
                utilization = min(1.0, busy / profile.cell_duration_s)
                lines.append(f"  worker pid={pid} tid={tid}"
                             f" busy={_fmt_s(busy)}"
                             f" utilization={utilization:6.1%}")
        if profile.counters:
            for name, value in sorted(profile.counters.items()):
                lines.append(f"  counter {name:<28} {value:g}")
                totals[name] = totals.get(name, 0.0) + value
        lines.append("")
    if totals:
        lines.append("counter totals across cells")
        for name, value in sorted(totals.items()):
            lines.append(f"  {name:<36} {value:g}")
        lines.append("")
    return "\n".join(lines)
