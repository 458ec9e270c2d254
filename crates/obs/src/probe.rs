//! The [`Probe`] trait — span/event/counter/histogram sinks — and its two
//! standard implementations.
//!
//! Every execution substrate (the real-thread `Driver`, the simulator's
//! `explore`, the covering-attack builder) is generic over a probe. The
//! hooks are designed to compile away: [`NoopProbe`] sets
//! [`Probe::ENABLED`] to `false`, and every instrumentation site guards its
//! *bookkeeping* (value clones, comparisons) behind `P::ENABLED`, so the
//! default path monomorphizes to the uninstrumented loop — experiment E18's
//! `driver_noop_speed` row measures it against a hand-rolled loop.
//!
//! Metric and span names are closed enums, not strings: the JSONL schema is
//! versioned (see [`crate::schema`]) and a golden-file test pins every
//! name, so the emitted vocabulary cannot drift silently.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// A named metric. The wire name of each variant is part of schema v1 —
/// renaming one is a schema bump.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Metric {
    /// Atomic reads, keyed by physical register.
    RegRead,
    /// Atomic writes, keyed by physical register.
    RegWrite,
    /// Contention hits: a read observed a value another process must have
    /// written since this process last touched the register. Keyed by
    /// physical register.
    RegContention,
    /// Randomized-backoff invocations (driver).
    BackoffInvoked,
    /// Spin iterations per backoff (histogram).
    BackoffSpins,
    /// Distinct states discovered by the explorer.
    ExploreStates,
    /// Transitions recorded by the explorer.
    ExploreEdges,
    /// Dedup hits: transitions that landed on an already-known state.
    ExploreDedup,
    /// Frontier size (gauge, sampled periodically).
    ExploreFrontier,
    /// Maximum discovery depth (gauge).
    ExploreDepth,
    /// Work items stolen from another worker's frontier deque, keyed by
    /// the stealing worker (parallel explorer only).
    ExploreSteals,
    /// Memory operations needed by one solo run (histogram; the
    /// obstruction-freedom checker's per-run cost).
    SoloOps,
    /// Size of a covering attack's write set (`|write(y, q)|`).
    CoverWriteSet,
    /// Faults injected by a `FaultyDriver` (crash, stall or restart),
    /// keyed by the faulted process identifier.
    FaultInjected,
    /// Recoveries: a crashed process restarted as a fresh machine with
    /// the same identifier and a new random view. Keyed by the process
    /// identifier.
    FaultRecovered,
    /// Symmetry-reduction hits: states whose canonicalization chose a
    /// non-identity orbit representative — i.e. states the reduction
    /// actually moved. Keyed by engine (0 sequential, worker index
    /// parallel).
    SymmetryHits,
    /// Total nanoseconds spent canonicalizing states, same keying as
    /// [`Metric::SymmetryHits`]. Only emitted when a symmetry mode is
    /// active.
    CanonTime,
    /// Missing happens-before edges flagged by the ordering sanitizer: a
    /// read consumed a foreign store with no synchronizes-with path.
    /// Keyed by physical register.
    OrderingViolations,
    /// Acquire/release synchronizes-with edges the sanitizer observed
    /// (an acquire read consuming a release store). Keyed by physical
    /// register.
    HbEdges,
    /// Sanitizer reads that returned a store older than the newest one —
    /// the observation model's bounded staleness actually biting. Keyed
    /// by physical register.
    StaleReads,
    /// Fault-injection stress schedules completed, keyed by the family's
    /// index in the sweep — the live heartbeat `check stress --stream`
    /// publishes.
    StressSchedules,
    /// Stress schedules whose safety invariant was violated, same keying
    /// as [`Metric::StressSchedules`].
    StressViolations,
    /// Expanded states whose ample-set reduction fired: at least one
    /// register-free successor existed, so the register successors were
    /// pruned. Keyed like [`Metric::SymmetryHits`]. Only emitted when
    /// partial-order reduction is enabled.
    PorAmple,
    /// Successor transitions the ample-set reduction pruned, same keying
    /// as [`Metric::PorAmple`].
    PorPruned,
    /// Canonical code bytes written to the on-disk spill tier.
    SpillBytes,
    /// Dedup verifications served by reading a spilled code back from
    /// disk (LRU miss).
    SpillReads,
    /// Dedup hits accepted on the 128-bit fingerprint alone because the
    /// candidate's code was still buffered in another worker's unflushed
    /// spill chunk.
    DedupUnverified,
}

impl Metric {
    /// The stable wire name (schema v1).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::RegRead => "reg_read",
            Metric::RegWrite => "reg_write",
            Metric::RegContention => "reg_contention",
            Metric::BackoffInvoked => "backoff_invoked",
            Metric::BackoffSpins => "backoff_spins",
            Metric::ExploreStates => "explore_states",
            Metric::ExploreEdges => "explore_edges",
            Metric::ExploreDedup => "explore_dedup",
            Metric::ExploreFrontier => "explore_frontier",
            Metric::ExploreDepth => "explore_depth",
            Metric::ExploreSteals => "explore_steals",
            Metric::SoloOps => "solo_ops",
            Metric::CoverWriteSet => "cover_write_set",
            Metric::FaultInjected => "fault_injected",
            Metric::FaultRecovered => "fault_recovered",
            Metric::SymmetryHits => "symmetry_hits",
            Metric::CanonTime => "canon_time",
            Metric::OrderingViolations => "ordering_violations",
            Metric::HbEdges => "hb_edges",
            Metric::StaleReads => "stale_reads",
            Metric::StressSchedules => "stress_schedules",
            Metric::StressViolations => "stress_violations",
            Metric::PorAmple => "por_ample",
            Metric::PorPruned => "por_pruned",
            Metric::SpillBytes => "spill_bytes",
            Metric::SpillReads => "spill_reads",
            Metric::DedupUnverified => "dedup_unverified",
        }
    }
}

/// A span kind: a named window of execution with a measured length.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Span {
    /// A contention-free window observed by the driver: consecutive memory
    /// operations during which no foreign write was observed. Length is in
    /// memory operations. These are the solo windows obstruction freedom
    /// (§2, §4) needs.
    SoloWindow,
    /// One solo run of the obstruction-freedom checker, keyed by process.
    /// Length is in memory operations.
    SoloRun,
    /// The covering attack's step 1: the victim's solo run to its
    /// milestone. Length is in memory operations.
    CoverSolo,
    /// The covering attack's step 2: placing the coverers. Length is the
    /// number of coverers placed.
    CoverPlace,
    /// The covering attack's step 3: the block write. Length is the number
    /// of poised writes released.
    CoverBlock,
    /// One state-space exploration. Length is the number of states.
    Explore,
    /// One worker thread's share of a parallel exploration, keyed by
    /// worker index. Length is the number of states the worker expanded.
    ExploreWorker,
}

impl Span {
    /// The stable wire name (schema v1).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Span::SoloWindow => "solo_window",
            Span::SoloRun => "solo_run",
            Span::CoverSolo => "cover_solo",
            Span::CoverPlace => "cover_place",
            Span::CoverBlock => "cover_block",
            Span::Explore => "explore",
            Span::ExploreWorker => "explore_worker",
        }
    }
}

/// A sink for structured observations.
///
/// All methods default to no-ops so implementations override only what
/// they record. `key` disambiguates instances of the same metric (physical
/// register index, process slot, …); pass `0` when there is no natural key.
pub trait Probe: Send + Sync {
    /// `false` only for [`NoopProbe`]: instrumentation sites use this to
    /// skip even the *bookkeeping* for their observations (cloning values
    /// for contention detection, say), so the no-op path costs nothing.
    const ENABLED: bool = true;

    /// Adds `delta` to a monotonic counter.
    fn counter(&self, metric: Metric, key: u64, delta: u64) {
        let _ = (metric, key, delta);
    }

    /// Sets the current value of a gauge.
    fn gauge(&self, metric: Metric, key: u64, value: u64) {
        let _ = (metric, key, value);
    }

    /// Records one sample of a distribution.
    fn histogram(&self, metric: Metric, key: u64, value: u64) {
        let _ = (metric, key, value);
    }

    /// Opens a span. Pairing is by `(span, key)`, caller-managed.
    fn span_open(&self, span: Span, key: u64) {
        let _ = (span, key);
    }

    /// Closes a span, reporting its measured length.
    fn span_close(&self, span: Span, key: u64, length: u64) {
        let _ = (span, key, length);
    }

    /// Announces a one-off structured event.
    fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        let _ = (name, fields);
    }
}

/// The zero-cost probe: every hook is a no-op and [`Probe::ENABLED`] is
/// `false`, so instrumentation sites compile to nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const ENABLED: bool = false;
}

impl<P: Probe> Probe for &P {
    const ENABLED: bool = P::ENABLED;

    fn counter(&self, metric: Metric, key: u64, delta: u64) {
        (**self).counter(metric, key, delta);
    }

    fn gauge(&self, metric: Metric, key: u64, value: u64) {
        (**self).gauge(metric, key, value);
    }

    fn histogram(&self, metric: Metric, key: u64, value: u64) {
        (**self).histogram(metric, key, value);
    }

    fn span_open(&self, span: Span, key: u64) {
        (**self).span_open(span, key);
    }

    fn span_close(&self, span: Span, key: u64, length: u64) {
        (**self).span_close(span, key, length);
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        (**self).event(name, fields);
    }
}

/// Aggregated statistics of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramStat {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Power-of-two buckets: `buckets[i]` counts samples whose value `v`
    /// satisfies `v == 0 ? i == 0 : v.ilog2() + 1 == i` (bucket 0 holds
    /// zeros, bucket `i ≥ 1` holds `[2^(i-1), 2^i)`), saturating at the
    /// last bucket.
    pub buckets: [u64; 20],
}

impl HistogramStat {
    fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let bucket = if value == 0 {
            0
        } else {
            (value.ilog2() as usize + 1).min(self.buckets.len() - 1)
        };
        self.buckets[bucket] += 1;
    }
}

/// Last/max/sample-count aggregate of one gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeStat {
    /// The most recent value.
    pub last: u64,
    /// The largest value seen.
    pub max: u64,
    /// How many times the gauge was set.
    pub samples: u64,
}

/// One closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span kind.
    pub span: Span,
    /// The caller's key.
    pub key: u64,
    /// The reported length.
    pub length: u64,
}

/// One announced event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// The event name.
    pub name: &'static str,
    /// Its fields.
    pub fields: Vec<(&'static str, u64)>,
}

/// Caps on the record lists a [`MemProbe`] retains verbatim. Counters,
/// gauges and histograms aggregate and are unaffected.
const MAX_SPANS: usize = 65_536;
const MAX_EVENTS: usize = 4_096;

#[derive(Debug, Default)]
struct MemProbeState {
    counters: BTreeMap<(Metric, u64), u64>,
    gauges: BTreeMap<(Metric, u64), GaugeStat>,
    histograms: BTreeMap<(Metric, u64), HistogramStat>,
    spans: Vec<SpanRecord>,
    open_spans: u64,
    dropped_spans: u64,
    events: Vec<EventRecord>,
    dropped_events: u64,
}

/// An in-memory recording probe.
///
/// Counters, gauges and histograms are aggregated (bounded memory no
/// matter how hot the instrumented loop); closed spans and events are kept
/// verbatim up to a cap, with a drop counter beyond it — a truncated
/// recording says so instead of silently looking complete.
#[derive(Debug, Default)]
pub struct MemProbe {
    state: Mutex<MemProbeState>,
}

impl MemProbe {
    /// Creates an empty recording probe.
    #[must_use]
    pub fn new() -> Self {
        MemProbe::default()
    }

    /// Consumes the probe and returns everything it recorded.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn into_snapshot(self) -> MetricsSnapshot {
        let state = self.state.into_inner().expect("probe lock poisoned");
        MetricsSnapshot::from_state(state)
    }

    /// Copies out everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let state = self.state.lock().expect("probe lock poisoned");
        MetricsSnapshot {
            counters: state
                .counters
                .iter()
                .map(|(&(m, k), &v)| (m, k, v))
                .collect(),
            gauges: state.gauges.iter().map(|(&(m, k), &g)| (m, k, g)).collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(&(m, k), h)| (m, k, h.clone()))
                .collect(),
            spans: state.spans.clone(),
            dropped_spans: state.dropped_spans,
            events: state.events.clone(),
            dropped_events: state.dropped_events,
        }
    }
}

impl Probe for MemProbe {
    fn counter(&self, metric: Metric, key: u64, delta: u64) {
        let mut state = self.state.lock().expect("probe lock poisoned");
        *state.counters.entry((metric, key)).or_insert(0) += delta;
    }

    fn gauge(&self, metric: Metric, key: u64, value: u64) {
        let mut state = self.state.lock().expect("probe lock poisoned");
        let stat = state.gauges.entry((metric, key)).or_default();
        stat.last = value;
        stat.max = stat.max.max(value);
        stat.samples += 1;
    }

    fn histogram(&self, metric: Metric, key: u64, value: u64) {
        let mut state = self.state.lock().expect("probe lock poisoned");
        state
            .histograms
            .entry((metric, key))
            .or_default()
            .record(value);
    }

    fn span_open(&self, _span: Span, _key: u64) {
        let mut state = self.state.lock().expect("probe lock poisoned");
        state.open_spans += 1;
    }

    fn span_close(&self, span: Span, key: u64, length: u64) {
        let mut state = self.state.lock().expect("probe lock poisoned");
        state.open_spans = state.open_spans.saturating_sub(1);
        if state.spans.len() < MAX_SPANS {
            state.spans.push(SpanRecord { span, key, length });
        } else {
            state.dropped_spans += 1;
        }
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        let mut state = self.state.lock().expect("probe lock poisoned");
        if state.events.len() < MAX_EVENTS {
            state.events.push(EventRecord {
                name,
                fields: fields.to_vec(),
            });
        } else {
            state.dropped_events += 1;
        }
    }
}

/// Everything a [`MemProbe`] recorded, in deterministic order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(metric, key, total)` triples, sorted by metric then key.
    pub counters: Vec<(Metric, u64, u64)>,
    /// `(metric, key, stat)` triples, sorted by metric then key.
    pub gauges: Vec<(Metric, u64, GaugeStat)>,
    /// `(metric, key, stat)` triples, sorted by metric then key.
    pub histograms: Vec<(Metric, u64, HistogramStat)>,
    /// Closed spans in close order (capped).
    pub spans: Vec<SpanRecord>,
    /// Spans dropped beyond the cap.
    pub dropped_spans: u64,
    /// Events in announce order (capped).
    pub events: Vec<EventRecord>,
    /// Events dropped beyond the cap.
    pub dropped_events: u64,
}

impl MetricsSnapshot {
    fn from_state(state: MemProbeState) -> Self {
        MetricsSnapshot {
            counters: state
                .counters
                .into_iter()
                .map(|((m, k), v)| (m, k, v))
                .collect(),
            gauges: state
                .gauges
                .into_iter()
                .map(|((m, k), g)| (m, k, g))
                .collect(),
            histograms: state
                .histograms
                .into_iter()
                .map(|((m, k), h)| (m, k, h))
                .collect(),
            spans: state.spans,
            dropped_spans: state.dropped_spans,
            events: state.events,
            dropped_events: state.dropped_events,
        }
    }

    /// The total of a counter across all keys.
    #[must_use]
    pub fn counter_total(&self, metric: Metric) -> u64 {
        self.counters
            .iter()
            .filter(|(m, _, _)| *m == metric)
            .map(|(_, _, v)| v)
            .sum()
    }

    /// The per-key totals of a counter, sorted by key.
    #[must_use]
    pub fn counter_by_key(&self, metric: Metric) -> Vec<(u64, u64)> {
        self.counters
            .iter()
            .filter(|(m, _, _)| *m == metric)
            .map(|(_, k, v)| (*k, *v))
            .collect()
    }

    /// The aggregate of a histogram under key 0 (the common single-key
    /// case), if any samples were recorded.
    #[must_use]
    pub fn histogram_stat(&self, metric: Metric) -> Option<&HistogramStat> {
        self.histograms
            .iter()
            .find(|(m, k, _)| *m == metric && *k == 0)
            .map(|(_, _, h)| h)
    }

    /// The gauge under key 0, if it was ever set.
    #[must_use]
    pub fn gauge_stat(&self, metric: Metric) -> Option<GaugeStat> {
        self.gauges
            .iter()
            .find(|(m, k, _)| *m == metric && *k == 0)
            .map(|(_, _, g)| *g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_disabled() {
        const { assert!(!NoopProbe::ENABLED) };
        const { assert!(!<&NoopProbe as Probe>::ENABLED) };
        // And callable without effect.
        NoopProbe.counter(Metric::RegRead, 0, 1);
        NoopProbe.span_open(Span::SoloRun, 0);
        NoopProbe.event("x", &[]);
    }

    #[test]
    fn mem_probe_aggregates_counters() {
        let probe = MemProbe::new();
        probe.counter(Metric::RegRead, 0, 1);
        probe.counter(Metric::RegRead, 0, 2);
        probe.counter(Metric::RegRead, 3, 5);
        probe.counter(Metric::RegWrite, 0, 7);
        let snap = probe.into_snapshot();
        assert_eq!(snap.counter_total(Metric::RegRead), 8);
        assert_eq!(snap.counter_by_key(Metric::RegRead), vec![(0, 3), (3, 5)]);
        assert_eq!(snap.counter_total(Metric::RegWrite), 7);
        assert_eq!(snap.counter_total(Metric::RegContention), 0);
    }

    #[test]
    fn mem_probe_histograms_bucket_by_power_of_two() {
        let probe = MemProbe::new();
        for v in [0, 1, 2, 3, 4, 1024] {
            probe.histogram(Metric::BackoffSpins, 0, v);
        }
        let snap = probe.into_snapshot();
        let stat = snap.histogram_stat(Metric::BackoffSpins).unwrap();
        assert_eq!(stat.count, 6);
        assert_eq!(stat.sum, 1034);
        assert_eq!(stat.min, 0);
        assert_eq!(stat.max, 1024);
        assert_eq!(stat.buckets[0], 1); // 0
        assert_eq!(stat.buckets[1], 1); // 1
        assert_eq!(stat.buckets[2], 2); // 2, 3
        assert_eq!(stat.buckets[3], 1); // 4
        assert_eq!(stat.buckets[11], 1); // 1024
    }

    #[test]
    fn mem_probe_gauges_track_last_and_max() {
        let probe = MemProbe::new();
        probe.gauge(Metric::ExploreFrontier, 0, 10);
        probe.gauge(Metric::ExploreFrontier, 0, 90);
        probe.gauge(Metric::ExploreFrontier, 0, 40);
        let snap = probe.into_snapshot();
        let g = snap.gauge_stat(Metric::ExploreFrontier).unwrap();
        assert_eq!(g.last, 40);
        assert_eq!(g.max, 90);
        assert_eq!(g.samples, 3);
    }

    #[test]
    fn mem_probe_records_spans_and_events() {
        let probe = MemProbe::new();
        probe.span_open(Span::SoloRun, 2);
        probe.span_close(Span::SoloRun, 2, 14);
        probe.event("explore_done", &[("states", 5)]);
        let snap = probe.into_snapshot();
        assert_eq!(
            snap.spans,
            vec![SpanRecord {
                span: Span::SoloRun,
                key: 2,
                length: 14
            }]
        );
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].name, "explore_done");
        assert_eq!(snap.dropped_spans, 0);
        assert_eq!(snap.dropped_events, 0);
    }

    #[test]
    fn snapshot_and_into_snapshot_agree() {
        let probe = MemProbe::new();
        probe.counter(Metric::RegWrite, 1, 4);
        probe.span_close(Span::SoloWindow, 0, 3);
        let copy = probe.snapshot();
        let owned = probe.into_snapshot();
        assert_eq!(copy, owned);
    }

    #[test]
    fn metric_and_span_names_are_stable() {
        // Schema v1 vocabulary — a rename here is a schema bump.
        assert_eq!(Metric::RegRead.name(), "reg_read");
        assert_eq!(Metric::ExploreDedup.name(), "explore_dedup");
        assert_eq!(Metric::ExploreSteals.name(), "explore_steals");
        assert_eq!(Metric::FaultInjected.name(), "fault_injected");
        assert_eq!(Metric::FaultRecovered.name(), "fault_recovered");
        assert_eq!(Metric::SymmetryHits.name(), "symmetry_hits");
        assert_eq!(Metric::CanonTime.name(), "canon_time");
        assert_eq!(Metric::OrderingViolations.name(), "ordering_violations");
        assert_eq!(Metric::HbEdges.name(), "hb_edges");
        assert_eq!(Metric::StaleReads.name(), "stale_reads");
        assert_eq!(Metric::PorAmple.name(), "por_ample");
        assert_eq!(Metric::PorPruned.name(), "por_pruned");
        assert_eq!(Metric::SpillBytes.name(), "spill_bytes");
        assert_eq!(Metric::SpillReads.name(), "spill_reads");
        assert_eq!(Metric::DedupUnverified.name(), "dedup_unverified");
        assert_eq!(Span::SoloWindow.name(), "solo_window");
        assert_eq!(Span::CoverBlock.name(), "cover_block");
        assert_eq!(Span::ExploreWorker.name(), "explore_worker");
    }
}
