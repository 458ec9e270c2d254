//! Live streaming export: schema-v2 delta records from a running
//! [`MemProbe`].
//!
//! A [`StreamExporter`] owns a background thread that periodically
//! snapshots a shared probe, diffs against the previous snapshot, and
//! appends one `{"v":2,"t":"delta",...}` record per tick to a JSONL
//! sink — counters as *deltas*, gauge/histogram stats as overwrites,
//! new spans and events verbatim — followed by a `progress` record
//! derived from the explorer's standard metrics. [`StreamExporter::finish`]
//! writes the last delta, any [`Profiler`] frames as `profile` records,
//! a `snapshot` end-marker, and then the complete plain **v1** snapshot,
//! so a v1-only consumer that skips `v:2` lines still reads the final
//! state (see [`crate::schema::validate_jsonl_v1`]).
//!
//! A killed run leaves a partial last line or no end-marker, never a
//! file that looks finished: [`crate::schema::validate_jsonl`] (behind
//! `check obs validate`) rejects such a stream, and one whose records
//! were reordered.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::emit::snapshot_to_jsonl;
use crate::json::Json;
use crate::probe::{MemProbe, Metric, MetricsSnapshot};
use crate::profile::Profiler;
use crate::schema::{meta_line, STREAM_SCHEMA_VERSION};

fn v2_envelope(t: &str, seq: u64, run: &str, elapsed_ms: u64) -> Vec<(&'static str, Json)> {
    vec![
        ("v", Json::U64(STREAM_SCHEMA_VERSION)),
        ("t", Json::Str(t.to_string())),
        ("seq", Json::U64(seq)),
        ("run", Json::Str(run.to_string())),
        ("elapsed_ms", Json::U64(elapsed_ms)),
    ]
}

/// Trims trailing empty buckets, mirroring the v1 `hist` emitter so a
/// delta's histogram and the final snapshot's agree byte for byte.
fn trim_buckets(buckets: &[u64]) -> Vec<u64> {
    let filled = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    buckets[..filled].to_vec()
}

/// Builds one schema-v2 `delta` record: everything that changed in
/// `curr` relative to `prev`. Counters carry the increment; gauges and
/// histograms carry their full new stat (overwrite semantics); spans
/// and events carry only the records appended since `prev`.
#[must_use]
pub fn delta_record(
    prev: &MetricsSnapshot,
    curr: &MetricsSnapshot,
    seq: u64,
    run: &str,
    elapsed_ms: u64,
) -> Json {
    let prev_counters: BTreeMap<(Metric, u64), u64> =
        prev.counters.iter().map(|&(m, k, v)| ((m, k), v)).collect();
    let counters = curr
        .counters
        .iter()
        .filter_map(|&(m, k, v)| {
            let before = prev_counters.get(&(m, k)).copied();
            // New keys are reported even at zero so a reader learns
            // about them; known keys only when they moved.
            let delta = v - before.unwrap_or(0);
            (before.is_none() || delta > 0).then(|| {
                Json::obj(vec![
                    ("name", Json::Str(metric_wire_name(m))),
                    ("key", Json::U64(k)),
                    ("delta", Json::U64(delta)),
                ])
            })
        })
        .collect();
    let prev_gauges: BTreeMap<(Metric, u64), _> =
        prev.gauges.iter().map(|&(m, k, g)| ((m, k), g)).collect();
    let gauges = curr
        .gauges
        .iter()
        .filter(|&&(m, k, g)| prev_gauges.get(&(m, k)) != Some(&g))
        .map(|&(m, k, g)| {
            Json::obj(vec![
                ("name", Json::Str(metric_wire_name(m))),
                ("key", Json::U64(k)),
                ("last", Json::U64(g.last)),
                ("max", Json::U64(g.max)),
                ("samples", Json::U64(g.samples)),
            ])
        })
        .collect();
    let prev_hists: BTreeMap<(Metric, u64), _> = prev
        .histograms
        .iter()
        .map(|(m, k, h)| ((*m, *k), h))
        .collect();
    let hists = curr
        .histograms
        .iter()
        .filter(|(m, k, h)| prev_hists.get(&(*m, *k)) != Some(&h))
        .map(|(m, k, h)| {
            Json::obj(vec![
                ("name", Json::Str(metric_wire_name(*m))),
                ("key", Json::U64(*k)),
                ("count", Json::U64(h.count)),
                ("sum", Json::U64(h.sum)),
                ("min", Json::U64(h.min)),
                ("max", Json::U64(h.max)),
                (
                    "buckets",
                    Json::Arr(
                        trim_buckets(&h.buckets)
                            .into_iter()
                            .map(Json::U64)
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let spans = curr.spans[prev.spans.len().min(curr.spans.len())..]
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("name", Json::Str(s.span.name().to_string())),
                ("key", Json::U64(s.key)),
                ("length", Json::U64(s.length)),
            ])
        })
        .collect();
    let events = curr.events[prev.events.len().min(curr.events.len())..]
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("name", Json::Str(e.name.to_string())),
                (
                    "fields",
                    Json::Obj(
                        e.fields
                            .iter()
                            .map(|&(k, v)| (k.to_string(), Json::U64(v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let mut fields = v2_envelope("delta", seq, run, elapsed_ms);
    fields.push(("counters", Json::Arr(counters)));
    fields.push(("gauges", Json::Arr(gauges)));
    fields.push(("hists", Json::Arr(hists)));
    fields.push(("spans", Json::Arr(spans)));
    fields.push(("events", Json::Arr(events)));
    fields.push(("dropped_spans", Json::U64(curr.dropped_spans)));
    fields.push(("dropped_events", Json::U64(curr.dropped_events)));
    Json::obj(fields)
}

fn metric_wire_name(m: Metric) -> String {
    m.name().to_string()
}

/// Live run statistics distilled from one snapshot, for `progress`
/// records and human one-liners.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Progress {
    /// Distinct states discovered so far.
    pub states: u64,
    /// Current frontier size (sum over workers' last-sampled gauges).
    pub frontier: u64,
    /// Deepest discovery depth sampled so far.
    pub depth: u64,
    /// Discovery rate since the previous observation.
    pub states_per_sec: f64,
    /// Fraction of transitions that landed on an already-known state.
    pub dedup_rate: f64,
    /// Completion estimate from the frontier drain trend, `0` when the
    /// frontier is still growing (no estimate).
    pub eta_ms: u64,
}

impl Progress {
    /// Renders the schema-v2 `progress` record.
    #[must_use]
    pub fn record(&self, seq: u64, run: &str, elapsed_ms: u64) -> Json {
        let mut fields = v2_envelope("progress", seq, run, elapsed_ms);
        fields.push(("states", Json::U64(self.states)));
        fields.push(("frontier", Json::U64(self.frontier)));
        fields.push(("depth", Json::U64(self.depth)));
        fields.push(("eta_ms", Json::U64(self.eta_ms)));
        fields.push(("states_per_sec", Json::F64(self.states_per_sec)));
        fields.push(("dedup_rate", Json::F64(self.dedup_rate)));
        Json::obj(fields)
    }

    /// Renders the human live line the CLI echoes to stderr.
    #[must_use]
    pub fn human(&self, elapsed_ms: u64) -> String {
        let eta = if self.eta_ms == 0 {
            "eta ?".to_string()
        } else {
            format!("eta {:.1}s", self.eta_ms as f64 / 1000.0)
        };
        format!(
            "[{:7.1}s] {} states ({:.0}/s) frontier {} depth {} dedup {:.0}% {eta}",
            elapsed_ms as f64 / 1000.0,
            self.states,
            self.states_per_sec,
            self.frontier,
            self.depth,
            self.dedup_rate * 100.0,
        )
    }
}

/// Derives [`Progress`] observations from successive snapshots,
/// remembering just enough history for rates and the frontier trend.
#[derive(Debug, Default)]
pub struct ProgressTracker {
    last_states: u64,
    last_frontier: u64,
    last_elapsed_ms: u64,
    seeded: bool,
}

impl ProgressTracker {
    /// Creates a fresh tracker.
    #[must_use]
    pub fn new() -> Self {
        ProgressTracker::default()
    }

    /// Observes one snapshot taken `elapsed_ms` into the run.
    pub fn observe(&mut self, snap: &MetricsSnapshot, elapsed_ms: u64) -> Progress {
        let states = snap.counter_total(Metric::ExploreStates);
        let frontier: u64 = snap
            .gauges
            .iter()
            .filter(|(m, _, _)| *m == Metric::ExploreFrontier)
            .map(|(_, _, g)| g.last)
            .sum();
        let depth = snap
            .gauges
            .iter()
            .filter(|(m, _, _)| *m == Metric::ExploreDepth)
            .map(|(_, _, g)| g.last)
            .max()
            .unwrap_or(0);
        let edges = snap.counter_total(Metric::ExploreEdges);
        let dedup = snap.counter_total(Metric::ExploreDedup);
        let dt_ms = elapsed_ms.saturating_sub(self.last_elapsed_ms);
        let states_per_sec = if self.seeded && dt_ms > 0 {
            (states.saturating_sub(self.last_states)) as f64 * 1000.0 / dt_ms as f64
        } else {
            0.0
        };
        // ETA from the frontier trend: a draining frontier at the
        // current drain rate empties in frontier / rate ticks.
        let eta_ms = if self.seeded && frontier > 0 && frontier < self.last_frontier && dt_ms > 0 {
            let drain_per_ms = (self.last_frontier - frontier) as f64 / dt_ms as f64;
            (frontier as f64 / drain_per_ms) as u64
        } else {
            0
        };
        self.last_states = states;
        self.last_frontier = frontier;
        self.last_elapsed_ms = elapsed_ms;
        self.seeded = true;
        Progress {
            states,
            frontier,
            depth,
            states_per_sec,
            dedup_rate: if edges > 0 {
                dedup as f64 / edges as f64
            } else {
                0.0
            },
            eta_ms,
        }
    }
}

/// Options for [`StreamExporter::start`].
#[derive(Clone, Debug)]
pub struct StreamOptions {
    /// Tool name stamped into the leading v1 `meta` line.
    pub tool: String,
    /// Run identifier carried by every v2 record.
    pub run: String,
    /// Snapshot/emit period.
    pub interval: Duration,
    /// Echo the human progress line to stderr on every tick.
    pub echo: bool,
}

impl StreamOptions {
    /// Sensible defaults: 50 ms ticks (so even sub-second runs emit
    /// several deltas), no echo.
    #[must_use]
    pub fn new(tool: &str, run: &str) -> Self {
        StreamOptions {
            tool: tool.to_string(),
            run: run.to_string(),
            interval: Duration::from_millis(50),
            echo: false,
        }
    }
}

/// What [`StreamExporter::finish`] reports back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSummary {
    /// `delta` records written (including the final flush delta).
    pub deltas: u64,
    /// Total v2 records written (deltas + progress + profiles + marker).
    pub records: u64,
    /// Wall-clock covered by the stream.
    pub elapsed_ms: u64,
}

/// The background streaming exporter. Construct with
/// [`StreamExporter::start`] *before* the instrumented run begins and
/// call [`StreamExporter::finish`] after it ends (and after any
/// profiler timers have been flushed).
#[derive(Debug)]
pub struct StreamExporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<StreamSummary>>>,
}

impl StreamExporter {
    /// Opens `path`, writes the v1 `meta` header, and spawns the
    /// exporter thread over `probe` (and optionally `profiler`, whose
    /// flushed frames become `profile` records at finish time).
    ///
    /// # Errors
    ///
    /// Propagates file creation/write errors.
    pub fn start(
        path: impl AsRef<Path>,
        opts: StreamOptions,
        probe: Arc<MemProbe>,
        profiler: Option<Arc<Profiler>>,
    ) -> io::Result<StreamExporter> {
        let mut writer = BufWriter::new(File::create(path)?);
        let header = meta_line(
            &opts.tool,
            &[
                ("run", Json::Str(opts.run.clone())),
                (
                    "stream_interval_ms",
                    Json::U64(opts.interval.as_millis() as u64),
                ),
            ],
        );
        writer.write_all(header.render().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-stream".to_string())
            .spawn(move || {
                stream_loop(
                    &mut writer,
                    &opts,
                    &probe,
                    profiler.as_deref(),
                    &thread_stop,
                )
            })
            .expect("spawn exporter thread");
        Ok(StreamExporter {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the exporter: writes the final delta, profile records, the
    /// `snapshot` end-marker and the full v1 snapshot, then joins.
    ///
    /// # Errors
    ///
    /// Propagates any write error the exporter thread hit.
    ///
    /// # Panics
    ///
    /// Panics if the exporter thread itself panicked.
    pub fn finish(mut self) -> io::Result<StreamSummary> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .take()
            .expect("finish called once")
            .join()
            .expect("exporter thread panicked")
    }
}

impl Drop for StreamExporter {
    fn drop(&mut self) {
        // A dropped (not finished) exporter still stops its thread, which
        // seals the stream as `finish` does but loses any write error.
        // Only a killed process leaves the stream without its end-marker,
        // which `check obs validate` rejects as truncated.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn stream_loop(
    writer: &mut BufWriter<File>,
    opts: &StreamOptions,
    probe: &MemProbe,
    profiler: Option<&Profiler>,
    stop: &AtomicBool,
) -> io::Result<StreamSummary> {
    let start = Instant::now();
    let mut prev = MetricsSnapshot::default();
    let mut tracker = ProgressTracker::new();
    let mut seq = 0u64;
    let mut deltas = 0u64;
    let mut tick = |writer: &mut BufWriter<File>,
                    prev: &mut MetricsSnapshot,
                    seq: &mut u64,
                    deltas: &mut u64|
     -> io::Result<()> {
        let elapsed_ms = start.elapsed().as_millis() as u64;
        let curr = probe.snapshot();
        let delta = delta_record(prev, &curr, *seq, &opts.run, elapsed_ms);
        *seq += 1;
        *deltas += 1;
        writer.write_all(delta.render().as_bytes())?;
        writer.write_all(b"\n")?;
        let progress = tracker.observe(&curr, elapsed_ms);
        let record = progress.record(*seq, &opts.run, elapsed_ms);
        *seq += 1;
        writer.write_all(record.render().as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if opts.echo {
            eprintln!("{}", progress.human(elapsed_ms));
        }
        *prev = curr;
        Ok(())
    };
    while !stop.load(Ordering::Acquire) {
        // Sleep in short slices so finish() is prompt even with long
        // intervals.
        let deadline = Instant::now() + opts.interval;
        while Instant::now() < deadline && !stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(2).min(opts.interval));
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        tick(writer, &mut prev, &mut seq, &mut deltas)?;
    }
    // Final flush: one last delta so nothing recorded after the last
    // tick is lost, then profiles, marker, and the v1 snapshot.
    tick(writer, &mut prev, &mut seq, &mut deltas)?;
    let elapsed_ms = start.elapsed().as_millis() as u64;
    if let Some(profiler) = profiler {
        for line in profiler.profile_lines(seq, &opts.run, elapsed_ms) {
            seq += 1;
            writer.write_all(line.render().as_bytes())?;
            writer.write_all(b"\n")?;
        }
    }
    let marker = Json::obj(v2_envelope("snapshot", seq, &opts.run, elapsed_ms));
    seq += 1;
    writer.write_all(marker.render().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.write_all(snapshot_to_jsonl(&prev).as_bytes())?;
    writer.flush()?;
    Ok(StreamSummary {
        deltas,
        records: seq,
        elapsed_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, Span};
    use crate::schema::validate_jsonl;

    fn snap(probe: &MemProbe) -> MetricsSnapshot {
        probe.snapshot()
    }

    #[test]
    fn delta_record_reports_only_changes() {
        let probe = MemProbe::new();
        probe.counter(Metric::ExploreStates, 0, 10);
        probe.gauge(Metric::ExploreFrontier, 0, 4);
        let first = snap(&probe);
        probe.counter(Metric::ExploreStates, 0, 5);
        probe.span_close(Span::Explore, 0, 15);
        let second = snap(&probe);
        let d = delta_record(&first, &second, 3, "r", 100);
        crate::schema::validate_value(&d, 1).unwrap();
        let counters = d.get("counters").and_then(Json::as_arr).unwrap();
        assert_eq!(counters.len(), 1);
        assert_eq!(counters[0].get("delta").and_then(Json::as_u64), Some(5));
        // The gauge did not change between snapshots: not re-sent.
        assert!(d.get("gauges").and_then(Json::as_arr).unwrap().is_empty());
        assert_eq!(d.get("spans").and_then(Json::as_arr).unwrap().len(), 1);
    }

    #[test]
    fn exporter_end_to_end_stream_is_valid_and_sums_to_its_snapshot() {
        let dir = std::env::temp_dir().join(format!("obs_export_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let probe = Arc::new(MemProbe::new());
        let opts = StreamOptions {
            interval: Duration::from_millis(10),
            ..StreamOptions::new("test", "run-exporter")
        };
        let exporter = StreamExporter::start(&path, opts, Arc::clone(&probe), None).unwrap();
        for i in 0..20 {
            probe.counter(Metric::ExploreStates, 0, 3);
            probe.counter(Metric::ExploreEdges, i % 2, 1);
            probe.gauge(Metric::ExploreFrontier, 0, 20 - i);
            probe.histogram(Metric::BackoffSpins, 0, 1 << (i % 4));
            probe.span_close(Span::Explore, i, i + 1);
            probe.event("explore_done", &[("states", i)]);
            std::thread::sleep(Duration::from_millis(5));
        }
        let summary = exporter.finish().unwrap();
        assert!(summary.deltas >= 3, "expected >= 3 deltas: {summary:?}");
        let text = std::fs::read_to_string(&path).unwrap();
        // Every line (v1 and v2) validates, and the stream is whole.
        validate_jsonl(&text).unwrap();
        // A v1-only consumer skips the stream records without error.
        let (v1, skipped) = crate::schema::validate_jsonl_v1(&text).unwrap();
        assert!(v1 >= 2 && skipped as u64 >= summary.deltas);

        // The format's promise, against the probe's final snapshot:
        // counters stream as deltas, gauge and histogram stats as
        // overwrites, spans and events once each.
        let (mut counters, mut gauges, mut hists) =
            (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        let (mut deltas, mut spans, mut events) = (0, 0, 0);
        for record in text.lines().map(|l| Json::parse(l).unwrap()) {
            if record.get("t").and_then(Json::as_str) != Some("delta") {
                continue;
            }
            deltas += 1;
            let entries = |field| record.get(field).and_then(Json::as_arr).unwrap();
            let num = |entry: &Json, field| entry.get(field).and_then(Json::as_u64).unwrap();
            let name = |entry: &Json| {
                entry
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            };
            for c in entries("counters") {
                *counters.entry((name(c), num(c, "key"))).or_insert(0) += num(c, "delta");
            }
            for g in entries("gauges") {
                let stat = (num(g, "last"), num(g, "max"), num(g, "samples"));
                gauges.insert((name(g), num(g, "key")), stat);
            }
            for h in entries("hists") {
                hists.insert((name(h), num(h, "key")), (num(h, "count"), num(h, "sum")));
            }
            spans += entries("spans").len();
            events += entries("events").len();
        }
        let last = probe.snapshot();
        let named = |m: Metric, k: u64| (m.name().to_string(), k);
        let want: BTreeMap<_, _> = last
            .counters
            .iter()
            .map(|&(m, k, v)| (named(m, k), v))
            .collect();
        assert_eq!(counters, want);
        let want: BTreeMap<_, _> = last
            .gauges
            .iter()
            .map(|&(m, k, g)| (named(m, k), (g.last, g.max, g.samples)))
            .collect();
        assert_eq!(gauges, want);
        let want: BTreeMap<_, _> = last
            .histograms
            .iter()
            .map(|(m, k, h)| (named(*m, *k), (h.count, h.sum)))
            .collect();
        assert_eq!(hists, want);
        assert_eq!(deltas, summary.deltas);
        assert_eq!((spans, events), (20, 20));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn progress_tracker_rates_and_eta() {
        let probe = MemProbe::new();
        probe.counter(Metric::ExploreStates, 0, 100);
        probe.counter(Metric::ExploreEdges, 0, 200);
        probe.counter(Metric::ExploreDedup, 0, 50);
        probe.gauge(Metric::ExploreFrontier, 0, 40);
        probe.gauge(Metric::ExploreDepth, 0, 7);
        let mut tracker = ProgressTracker::new();
        let first = tracker.observe(&snap(&probe), 100);
        assert_eq!(first.states, 100);
        assert_eq!(first.frontier, 40);
        assert_eq!(first.depth, 7);
        assert!((first.dedup_rate - 0.25).abs() < 1e-9);
        assert_eq!(first.eta_ms, 0); // no history yet
        probe.counter(Metric::ExploreStates, 0, 100);
        probe.gauge(Metric::ExploreFrontier, 0, 20);
        let second = tracker.observe(&snap(&probe), 200);
        assert!((second.states_per_sec - 1000.0).abs() < 1e-6);
        // Frontier drained 40 -> 20 in 100 ms: ~100 ms to empty.
        assert_eq!(second.eta_ms, 100);
        let rec = second.record(9, "r", 200);
        crate::schema::validate_value(&rec, 1).unwrap();
        assert!(second.human(200).contains("states"));
    }
}
