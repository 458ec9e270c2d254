//! Zero-dependency observability for memory-anonymous substrates.
//!
//! The paper's claims are claims about *runs*: how many registers a solo
//! run touches (§6's covering sets), how long a process runs without
//! interference before its algorithm must make progress (obstruction
//! freedom, §2/§4), how the state space grows with processes and
//! registers. This crate makes those quantities observable on every
//! execution substrate in the workspace without changing what the
//! substrates compute:
//!
//! * [`Probe`] — the sink trait. Substrates (`anonreg-runtime`'s driver,
//!   `anonreg-sim`'s explorer, `anonreg-lower`'s covering builder) are
//!   generic over a probe and emit counters, gauges, histograms, spans and
//!   events into it. [`NoopProbe`] has [`Probe::ENABLED`]` == false` and
//!   compiles every hook away — experiment E18's `driver_noop_speed`
//!   row measures the default path against the uninstrumented cost. [`MemProbe`]
//!   aggregates in memory and yields a deterministic
//!   [`MetricsSnapshot`].
//! * [`json`] — a hand-rolled JSON value type, writer and strict parser
//!   (the workspace builds offline; no serde), plus the
//!   [`JsonEncode`]/[`JsonDecode`] codec traits register values and
//!   events implement for lossless trace round-trips.
//! * [`schema`] — the versioned JSONL wire format every tool emits, with
//!   a validator CI runs against real output. Schema v1 is the snapshot
//!   format; schema v2 adds the live-stream record types
//!   (`delta`/`progress`/`profile`/`snapshot`).
//! * [`export`] — the live streaming exporter: a background thread
//!   diffs successive [`MemProbe`] snapshots into schema-v2 delta
//!   records while a run is in flight; [`schema::validate_jsonl`]
//!   checks a stream whole and rejects a truncated or reordered one.
//! * [`profile`] — the wall-clock profiler: per-worker
//!   [`profile::PhaseTimer`] phase stacks collected by a
//!   [`profile::Profiler`], exported as schema-v2 `profile` records and
//!   collapsed-stack flamegraph text.
//! * [`trace_io`] — `Trace` ⇄ JSONL with a replay schedule, so any
//!   recorded run is a shareable, re-checkable artifact.
//! * [`heatmap`] — an ASCII per-register contention heatmap for quick
//!   terminal triage.
//!
//! # Example
//!
//! ```
//! use anonreg_obs::{MemProbe, Metric, Probe};
//!
//! let probe = MemProbe::new();
//! probe.counter(Metric::RegWrite, 3, 1); // physical register 3 written
//! let snapshot = probe.into_snapshot();
//! assert_eq!(snapshot.counter_total(Metric::RegWrite), 1);
//! let jsonl = anonreg_obs::emit::snapshot_to_jsonl(&snapshot);
//! anonreg_obs::schema::validate_jsonl(&jsonl).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod export;
pub mod heatmap;
pub mod json;
pub mod probe;
pub mod profile;
pub mod schema;
pub mod trace_io;

pub use export::{
    delta_record, Progress, ProgressTracker, StreamExporter, StreamOptions, StreamSummary,
};
pub use heatmap::Heatmap;
pub use json::{Json, JsonDecode, JsonEncode, JsonError};
pub use probe::{
    EventRecord, GaugeStat, HistogramStat, MemProbe, Metric, MetricsSnapshot, NoopProbe, Probe,
    Span, SpanRecord,
};
pub use profile::{Phase, PhaseTimer, Profiler, WorkerProfile};
pub use schema::{SchemaError, SCHEMA_VERSION, STREAM_SCHEMA_VERSION};
pub use trace_io::{register_stats, schedule_of, trace_from_jsonl, trace_to_jsonl, TraceMeta};
