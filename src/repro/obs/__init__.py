"""Unified telemetry layer: metrics, request spans, prediction calibration.

``repro.obs`` is the one place the rest of the codebase reports what it is
doing:

* :mod:`repro.obs.metrics` — counters / gauges / log-scale histograms with
  labels, a cheap no-op mode, and snapshot/diff/merge for multi-process
  experiment runs;
* :mod:`repro.obs.spans` — request-span tracing on top of
  :mod:`repro.sim.tracing`: each read/update's life (selection,
  sequencing, deferral, retries, hedges) as spans that stitch into one
  tree;
* :mod:`repro.obs.calibration` — reliability diagrams and Brier scores for
  predicted ``P_c(d)`` vs. observed deadline outcomes, per strategy;
* :mod:`repro.obs.export` — JSONL event streams and Prometheus-style text;
* :mod:`repro.obs.timeseries` — simulation-clock time series over registry
  snapshots: fixed-interval deltas and a commutative cross-worker merge;
* :mod:`repro.obs.slo` — declarative SLOs over timelines: rolling
  compliance, multi-window error-budget burn alerts, and the per-read
  staleness attribution summary.

See DESIGN.md §10 and §15 for the architecture.
"""

from repro.obs.calibration import CalibrationBucket, CalibrationTracker
from repro.obs.detection import (
    DetectionReport,
    FaultDetection,
    score_detection,
)
from repro.obs.export import (
    metrics_event,
    prometheus_text,
    prometheus_timeseries_text,
    summarize_histogram,
    write_jsonl,
)
from repro.obs.slo import (
    ATTRIBUTION_COMPONENTS,
    BurnAlert,
    SloEngine,
    SloReport,
    SloSpec,
    attribution_summary,
    parse_series,
)
from repro.obs.timeseries import Timeline, TimeseriesRecorder
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
)
from repro.obs.spans import SPAN_CATEGORY, emit_span, span_root

__all__ = [
    "ATTRIBUTION_COMPONENTS",
    "BurnAlert",
    "CalibrationBucket",
    "CalibrationTracker",
    "Counter",
    "DEFAULT_TIME_BUCKETS",
    "DetectionReport",
    "FaultDetection",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "SPAN_CATEGORY",
    "SloEngine",
    "SloReport",
    "SloSpec",
    "Timeline",
    "TimeseriesRecorder",
    "attribution_summary",
    "emit_span",
    "metrics_event",
    "parse_series",
    "prometheus_text",
    "prometheus_timeseries_text",
    "span_root",
    "score_detection",
    "summarize_histogram",
    "write_jsonl",
]
