//! The repository benchmark: three workloads over the explorer and the
//! real-thread runtime, timed from outside through the crates' public
//! APIs.
//!
//! ```text
//! perfbench --workload <verify-batch|explore-par|runtime-contended|all>
//!           --seed N --seconds S --trace 0|1 [--tiny] [--inject-wrong]
//!           [--rev REV]
//! perfbench --fixed-cost-table
//! ```
//!
//! Prints a provenance line, one `metric <name> <value> <unit>` line per
//! figure, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`. See `perfbench/README.md`.

mod batch;
mod explore_par;
mod layers;
mod report;
mod runtime;
mod verify;

use std::process::ExitCode;

use report::{json_fields, metric, result_line, Metric, Outcome};

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny problem sizes, for the self-test.
    pub tiny: bool,
    /// Corrupt one expectation per batch, for the self-test.
    pub inject: bool,
    pub rev: String,
}

impl Config {
    /// Batches every run makes at least; a traced run alternates
    /// untraced and traced batches, so it needs a pair.
    pub fn min_batches(&self) -> u64 {
        if self.trace {
            2
        } else {
            1
        }
    }
}

/// What a workload returns: the checked outcome and its figures.
pub struct Measured {
    pub outcome: Outcome,
    /// End-to-end metrics of the untraced batches.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics of the traced batches (empty untraced).
    pub layer: Vec<Metric>,
    /// Further figures for the report, not gated.
    pub report: Vec<Metric>,
}

pub const WORKLOADS: [&str; 3] = ["verify-batch", "explore-par", "runtime-contended"];

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("sim.explore.busy_s", "s"),
    ("sim.explore.calls", "count"),
    ("sim.explore.states", "count"),
    ("sim.explore.edges", "count"),
    ("sim.explore.dedup_ratio", "ratio"),
    ("sim.explore.fixed_ms", "ms"),
    ("sim.explore.step_s", "s"),
    ("sim.explore.canon_s", "s"),
    ("sim.explore.dedup_s", "s"),
    ("sim.explore.steal_s", "s"),
    ("sim.explore.idle_s", "s"),
    ("sim.explore.coverage", "ratio"),
    ("sim.graph.safety_s", "s"),
    ("sim.graph.livelock_s", "s"),
    ("sim.graph.obstruction_s", "s"),
    ("sim.graph.drop_s", "s"),
    ("sim.simulation.step_ns", "ns"),
    ("sim.canon.code_ns.off", "ns"),
    ("sim.canon.code_ns.full", "ns"),
    ("model.fingerprint.fp128_ns", "ns"),
    ("model.fingerprint.code_bytes", "bytes"),
    ("runtime.facade.enter_p99_us", "us"),
    ("runtime.facade.exit_p99_us", "us"),
    ("runtime.facade.ops_per_acquire", "count"),
    ("runtime.facade.new_us", "us"),
    ("runtime.facade.handle_us", "us"),
    ("runtime.facade.propose_p99_us", "us"),
    ("runtime.facade.rename_p99_us", "us"),
    ("runtime.driver.doorway_s", "s"),
    ("runtime.driver.waiting_s", "s"),
    ("runtime.driver.critical_s", "s"),
    ("trace.overhead", "ratio"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1 \
         [--tiny] [--inject-wrong] [--rev REV]\n       \
         perfbench --fixed-cost-table",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Config> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject: false,
        rev: "unknown".into(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => cfg.workload = it.next()?.clone(),
            "--seed" => cfg.seed = it.next()?.parse().ok()?,
            "--seconds" => cfg.seconds = it.next()?.parse().ok()?,
            "--trace" => cfg.trace = it.next()?.parse::<u8>().ok()? == 1,
            "--rev" => cfg.rev = it.next()?.clone(),
            "--tiny" => cfg.tiny = true,
            "--inject-wrong" => cfg.inject = true,
            _ => return None,
        }
    }
    (cfg.workload == "all" || WORKLOADS.contains(&cfg.workload.as_str())).then_some(cfg)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `--fixed-cost-table`: the explorer's fixed cost on the minimal space
/// for caps 10⁶, 10⁷, 10⁸ at 1 and 2 threads, stats mode.
fn fixed_cost_table() {
    println!(
        "cap\tthreads\tfixed_ms (median of 3, stats mode, nproc {})",
        nproc()
    );
    for cap in [1_000_000, 10_000_000, 100_000_000] {
        for threads in [1, 2] {
            let mut ms: Vec<f64> = (0..3)
                .map(|_| layers::warm_up(cap, threads, false).as_secs_f64() * 1e3)
                .collect();
            ms.sort_by(f64::total_cmp);
            println!("{cap}\t{threads}\t{:.1}", ms[1]);
        }
    }
}

/// Runs one workload and prints its report; returns its outcome, whose
/// `metrics` are the result line's.
fn run_workload(cfg: &Config) -> Outcome {
    let (threads, caps) = match cfg.workload.as_str() {
        "verify-batch" => (1, verify::CAP.to_string()),
        "explore-par" => (explore_par::THREADS, explore_par::cap(cfg.tiny).to_string()),
        _ => (2, "none".to_string()),
    };
    println!(
        "provenance {}",
        json_fields(&[
            ("workload", cfg.workload.clone()),
            ("rev", cfg.rev.clone()),
            ("nproc", nproc().to_string()),
            ("threads", threads.to_string()),
            ("max_states", caps),
            ("seed", cfg.seed.to_string()),
            ("seconds", cfg.seconds.to_string()),
            ("traced", u8::from(cfg.trace).to_string()),
            ("size", if cfg.tiny { "tiny" } else { "full" }.to_string()),
        ])
    );
    let Measured {
        mut outcome,
        e2e,
        layer,
        report,
    } = match cfg.workload.as_str() {
        "verify-batch" => verify::run(cfg),
        "explore-par" => explore_par::run(cfg),
        _ => runtime::run(cfg),
    };
    outcome.metrics = if cfg.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                layer
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| metric(name, 0.0, unit))
            })
            .collect()
    } else {
        let mut all = e2e;
        all.push(metric("peak_rss_mb", report::peak_rss_mb(), "MiB"));
        all
    };
    for m in outcome.metrics.iter().chain(&report) {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric failed_share {} ratio ({} of {} operations)",
        outcome.failed_share(),
        outcome.failed,
        outcome.attempted
    );
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    outcome
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--fixed-cost-table") {
        fixed_cost_table();
        return ExitCode::SUCCESS;
    }
    let Some(cfg) = parse(&args) else {
        return usage();
    };
    if cfg.workload != "all" {
        let outcome = run_workload(&cfg);
        println!("{}", result_line(&outcome));
        return ExitCode::SUCCESS;
    }
    // Every workload in this process, one after the other; the merged
    // result names each metric `<workload>.<metric>`. The peak-RSS mark
    // is reset before each workload so that its `peak_rss_mb` is its own;
    // where the kernel refuses the reset, the later workloads leave
    // `peak_rss_mb` out rather than report an earlier one's peak.
    let mut merged = Outcome::default();
    for (i, workload) in WORKLOADS.into_iter().enumerate() {
        let own_peak = report::reset_peak_rss() || i == 0;
        let outcome = run_workload(&Config {
            workload: workload.to_string(),
            ..cfg.clone()
        });
        println!("result {workload} {}", result_line(&outcome));
        merged.attempted += outcome.attempted;
        merged.failed += outcome.failed;
        merged.metrics.extend(
            outcome
                .metrics
                .into_iter()
                .filter(|m| own_peak || m.name != "peak_rss_mb")
                .map(|m| Metric {
                    name: format!("{workload}.{}", m.name),
                    ..m
                }),
        );
    }
    println!("{}", result_line(&merged));
    ExitCode::SUCCESS
}
