"""End-to-end observability: the hub, span tracing, exporters.

The metrics registry lives in :mod:`repro.sim.monitor` (every
instrument owner already imports ``sim``); its names are re-exported
here.  See docs/OBSERVABILITY.md for the naming conventions and span
taxonomy, and ``python -m repro.obs report`` for the
resource-attribution CLI.
"""

from repro.obs.export import (
    TraceSchemaError,
    chrome_trace,
    render_critical_path,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.observability import (
    MILESTONES,
    PHASES,
    Observability,
    PhaseBreakdown,
)
from repro.obs.spans import Instant, Span, SpanTracer
from repro.sim.monitor import Counter, Gauge, MetricNameError, MetricsRegistry

__all__ = [
    "MILESTONES",
    "PHASES",
    "Counter",
    "Gauge",
    "Instant",
    "MetricNameError",
    "MetricsRegistry",
    "Observability",
    "PhaseBreakdown",
    "Span",
    "SpanTracer",
    "TraceSchemaError",
    "chrome_trace",
    "render_critical_path",
    "validate_chrome_trace",
    "write_chrome_trace",
]
