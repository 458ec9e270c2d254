//! The batch loop every workload shares, and the figures both explorer
//! workloads derive from their batches.

use std::time::{Duration, Instant};

use crate::layers::{self, CallCosts, PhaseTimes};
use crate::report::{median, metric, quantile, secs, Metric};
use crate::Config;

/// Runs `batch(index, tracing)` at least [`Config::min_batches`] times,
/// then again while the next batch, assumed as long as the last one,
/// still ends within `cfg.seconds`. In a traced run every second batch is
/// traced; returns the untraced and the traced batches.
pub fn run_batches<B>(cfg: &Config, mut batch: impl FnMut(u64, bool) -> B) -> (Vec<B>, Vec<B>) {
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = Duration::ZERO;
    let mut index = 0;
    while index < cfg.min_batches() || start.elapsed() + last <= budget {
        let tracing = cfg.trace && index % 2 == 1;
        let began = Instant::now();
        let b = batch(index, tracing);
        last = began.elapsed();
        if tracing {
            traced.push(b);
        } else {
            plain.push(b);
        }
        index += 1;
    }
    (plain, traced)
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// An explorer workload's set-up, [`SETUP_REPS`] times: `prepare` builds
/// every problem's explorer, then one warm-up exploration of the minimal
/// space runs at `cap` on `threads` (graph mode if `graph`). Returns the
/// set-up times and the warm-up times alone.
pub fn measure_setups<P>(
    prepare: impl Fn() -> P,
    cap: usize,
    threads: usize,
    graph: bool,
) -> (Vec<Duration>, Vec<Duration>) {
    (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            let prepared = prepare();
            let fixed = layers::warm_up(cap, threads, graph);
            drop(prepared);
            (start.elapsed(), fixed)
        })
        .unzip()
}

/// One pass of an explorer workload over its problems.
#[derive(Debug, Default)]
pub struct ExploreBatch {
    /// Wall-clock of the whole pass.
    pub wall: Duration,
    /// Time inside `Explorer::run`/`run_stats`.
    pub explore: Duration,
    pub states: u64,
    pub edges: u64,
    /// Dedup hits (successors already interned).
    pub dedup: u64,
    /// Per-problem latency: explore, judge, drop.
    pub latencies_us: Vec<f64>,
    pub safety: Duration,
    pub livelock: Duration,
    pub obstruction: Duration,
    pub drop: Duration,
}

/// What an explorer workload measured besides its batches.
pub struct ExplorerRun {
    pub plain: Vec<ExploreBatch>,
    pub traced: Vec<ExploreBatch>,
    /// Set-up repetitions: building every problem plus one warm-up
    /// exploration of the minimal space at the workload's cap.
    pub setups: Vec<Duration>,
    /// The warm-up explorations alone.
    pub fixed: Vec<Duration>,
    pub phases: PhaseTimes,
    pub costs: CallCosts,
    /// Explorer calls per batch.
    pub calls: usize,
}

impl ExplorerRun {
    /// End-to-end figures of the untraced batches: the gated ones, then
    /// the ones only printed.
    pub fn e2e(&self) -> (Vec<Metric>, Vec<Metric>) {
        let b = &self.plain;
        let latencies: Vec<f64> = b.iter().flat_map(|x| x.latencies_us.clone()).collect();
        let states_per_s = median(
            &b.iter()
                .map(|x| x.states as f64 / secs(x.explore).max(1e-9))
                .collect::<Vec<_>>(),
        );
        let gated = vec![
            metric(
                "setup_s",
                median(&self.setups.iter().map(|d| secs(*d)).collect::<Vec<_>>()),
                "s",
            ),
            metric(
                "wall_s",
                median(&b.iter().map(|x| secs(x.wall)).collect::<Vec<_>>()),
                "s",
            ),
            metric("work_per_s", states_per_s, "1/s"),
        ];
        let printed = vec![
            metric("states_per_s", states_per_s, "1/s"),
            metric("problem_p50_us", quantile(&latencies, 0.5), "us"),
            metric("problem_p99_us", quantile(&latencies, 0.99), "us"),
            metric("batches", b.len() as f64, "count"),
        ];
        (gated, printed)
    }

    /// Per-layer figures of the traced batches, averaged per batch.
    pub fn layers(&self) -> Vec<Metric> {
        let t = &self.traced;
        let n = t.len().max(1) as f64;
        let avg = |f: &dyn Fn(&ExploreBatch) -> f64| t.iter().map(f).sum::<f64>() / n;
        let wall =
            |bs: &[ExploreBatch]| median(&bs.iter().map(|x| secs(x.wall)).collect::<Vec<_>>());
        let fixed: Vec<f64> = self.fixed.iter().map(|d| secs(*d) * 1e3).collect();
        let mut out = vec![
            metric("sim.explore.busy_s", avg(&|x| secs(x.explore)), "s"),
            metric("sim.explore.calls", self.calls as f64, "count"),
            metric("sim.explore.states", avg(&|x| x.states as f64), "count"),
            metric("sim.explore.edges", avg(&|x| x.edges as f64), "count"),
            metric(
                "sim.explore.dedup_ratio",
                avg(&|x| x.dedup as f64) / avg(&|x| x.edges as f64).max(1.0),
                "ratio",
            ),
            metric("sim.explore.fixed_ms", median(&fixed), "ms"),
        ];
        out.extend(self.phases.seconds("sim.explore", t.len()));
        out.push(metric(
            "sim.explore.coverage",
            self.phases.coverage(),
            "ratio",
        ));
        out.push(metric("sim.graph.safety_s", avg(&|x| secs(x.safety)), "s"));
        out.push(metric(
            "sim.graph.livelock_s",
            avg(&|x| secs(x.livelock)),
            "s",
        ));
        out.push(metric(
            "sim.graph.obstruction_s",
            avg(&|x| secs(x.obstruction)),
            "s",
        ));
        out.push(metric("sim.graph.drop_s", avg(&|x| secs(x.drop)), "s"));
        out.extend(self.costs.metrics());
        out.push(metric(
            "trace.overhead",
            wall(t) / wall(&self.plain).max(1e-12),
            "ratio",
        ));
        out
    }
}
