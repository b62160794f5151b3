//! # asyncinv-obs — structured tracing and metrics
//!
//! The observability layer of the `asyncinv` reproduction of *"Improving
//! Asynchronous Invocation Performance in Client-server Systems"* (ICDCS
//! 2018). The paper's headline results are profiling claims — context
//! switches per request (Tables I/II) and write spins per response size
//! (Tables III/IV) — so the repro treats measurement as a first-class
//! subsystem:
//!
//! * [`TraceEvent`]/[`TraceKind`] — a compact, `Copy` event schema for the
//!   moments those tables count: request arrival, queue enter/exit, thread
//!   dispatch (= context switch) and park, write calls and spins,
//!   send-buffer drains, completions.
//! * [`TraceRing`] — a bounded ring buffer with a sampling knob; per-kind
//!   *counts* stay exact no matter what the ring retains.
//! * [`Observer`] — the trait engines report through. [`NoopObserver`]'s
//!   methods are empty defaults that compile away, and the engines guard
//!   every reporting site with a cached `bool`, so untraced runs stay at
//!   full speed.
//! * [`Recorder`] — the recording observer: ring + exact counters +
//!   request-id assignment + a [`MetricsRegistry`] of named
//!   counters/gauges/[`LogHistogram`]s.
//! * [`export`] — Chrome trace-event JSON (one track per simulated thread,
//!   loadable in Perfetto/`about:tracing`) and JSON Lines.
//! * [`audit`](fn@audit) — recomputes the paper-table quantities from the
//!   trace and asserts they match the engine's `RunSummary` bit-for-bit.
//! * [`span`]/[`critical_path`] — folds the flat event stream into one
//!   causal span tree per logical request (attempt children across
//!   retries, shards and hedges) and attributes each request's
//!   end-to-end response time to phases, bitwise-conserved;
//!   [`span_audit`](fn@span_audit) reconciles the forest against the
//!   exact per-kind totals and [`span_export`] renders nested
//!   Chrome-trace async spans and a spans JSONL format.
//!
//! See `docs/observability.md` for the event schema and exporter formats.
//!
//! ```
//! use asyncinv_obs::{Observer, Recorder, TraceEvent, TraceKind};
//! use asyncinv_simcore::SimTime;
//!
//! let mut rec = Recorder::new(1024);
//! rec.record(TraceEvent::new(SimTime::ZERO, TraceKind::RequestArrive).conn(0));
//! assert_eq!(rec.total(TraceKind::RequestArrive), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
pub mod critical_path;
mod event;
pub mod export;
mod observer;
mod registry;
mod ring;
pub mod span;
pub mod span_export;

pub use asyncinv_metrics::LogHistogram;
pub use audit::{audit, disposition, AuditCheck, AuditReport, Disposition};
pub use critical_path::{classify, Phase, PhaseBreakdown, PhaseSegment, Step};
pub use event::{TraceEvent, TraceKind, NONE};
pub use observer::{NoopObserver, Observer, Recorder};
pub use registry::MetricsRegistry;
pub use ring::TraceRing;
pub use span::{
    span_audit, AttemptKind, AttemptOutcome, AttemptSpan, LeftoverCounts, RequestSpan,
    SpanAssembler, SpanAuditReport, SpanCheck, SpanForest, SpanStatus,
};
pub use span_export::{phase_color, spans_chrome_json, spans_jsonl, validate_span_trace};
