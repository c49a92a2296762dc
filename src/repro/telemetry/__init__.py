"""repro.telemetry — span tracing, counters, and trace/profile exports.

Stdlib-only (numpy-free, like :mod:`repro.analysis`), observation-only:
telemetry never feeds results, records, or fingerprints.  See
``docs/observability.md`` for the span taxonomy and counter catalogue.
"""

from .export import (
    TELEMETRY_SCHEMA,
    CellTelemetry,
    chrome_trace,
    chrome_trace_from_cells,
    parse_sidecar,
    sidecar_lines,
    validate_chrome_trace,
)
from .profile import (
    CorruptSidecar,
    load_store_telemetry,
    profile_cell,
    render_profile,
)
from .spans import (
    InstrumentedTask,
    Span,
    TaskOutcome,
    TelemetryFragment,
    Tracer,
    count,
    current_tracer,
)

__all__ = [
    "TELEMETRY_SCHEMA",
    "CellTelemetry",
    "CorruptSidecar",
    "InstrumentedTask",
    "Span",
    "TaskOutcome",
    "TelemetryFragment",
    "Tracer",
    "chrome_trace",
    "chrome_trace_from_cells",
    "count",
    "current_tracer",
    "load_store_telemetry",
    "parse_sidecar",
    "profile_cell",
    "render_profile",
    "sidecar_lines",
    "validate_chrome_trace",
]
