//! `check` — exhaustively verify a configuration of the paper's algorithms
//! from the command line.
//!
//! ```text
//! check mutex     --m 4 --shift 2           # Figure 1, 2 procs, rotated view
//! check hybrid    --m 4 --shift 1           # §8 hybrid (m anonymous + 1 named)
//! check consensus --n 2 --registers 1       # Figure 2, possibly under-provisioned
//! check renaming  --n 2
//! check mutex     --m 4 --dot livelock.dot  # export the livelock component
//! ```
//!
//! Every verdict is decided by exhaustive state-space exploration; the tool
//! prints reachable-state counts, safety, deadlock-freedom and
//! starvation-freedom (for mutual exclusion), or agreement/validity and
//! obstruction freedom (for the one-shot algorithms).

use std::collections::HashMap;
use std::process::ExitCode;

use anonreg::consensus::AnonConsensus;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::{AnonMutex, MutexEvent, Section};
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::AnonRenaming;
use anonreg::{Pid, View};
use anonreg_sim::obstruction::check_obstruction_freedom;
use anonreg_sim::prelude::*;
use anonreg_sim::viz::{to_dot, DotOptions};

fn usage() -> ExitCode {
    eprintln!(
        "usage: check <mutex|hybrid|ordered|consensus|renaming> [--m N] [--n N] \
         [--registers N] [--shift N] [--max-states N] [--threads N] [--crashes] [--por] \
         [--spill] [--dot FILE]\n\
         \x20      check explore [--n N] [--registers N] [--threads N] [--max-states N] \
         [--json FILE] [--stream FILE] [--stream-interval-ms N]   \
         parallel-explorer scaling benchmark (E14); --stream tails live schema-v2 \
         deltas + progress to FILE\n\
         \x20      check explore --symmetry <off|registers|full> [--n N] [--registers N] \
         [--threads N] [--max-states N] [--json FILE] [--stream FILE]   \
         symmetry-reduction benchmark (E16) with verdict parity\n\
         \x20      check explore --scale [--quick] [--threads N] [--max-states N] \
         [--json FILE] [--stream FILE]   stats-mode scale run (E19) \
         with POR + disk spill; --quick runs the CI-sized space with the exact-count anchor\n\
         \x20      check profile [--full] [--threads N] [--max-states N] [--entries N] \
         [--flamegraph FILE] [--json FILE]   wall-clock phase profiles (E18): explorer \
         workers + runtime driver, collapsed-stack flamegraph export; gate the exported \
         coverage with bench-diff --require coverage=FLOOR\n\
         \x20      check bench-diff BEFORE AFTER [--max-time-ratio X] [--max-drop-ratio X] \
         [--allow-missing] [--require NAME=FLOOR] [--exact-counts] [--reduced-marker SEG]   \
         compare two bench JSONL files (reduction-mode runs compare states/edges \
         lower-better; parity runs exact); exits non-zero on regression\n\
         \x20      check lint <--all|ALGO|fixtures>   static analysis (L1-L6); \
         ALGO in {{mutex,hybrid,ordered,consensus,election,renaming,baselines}}\n\
         \x20      check stress [--schedules N] [--seed N] [--family F] [--replay SEED] \
         [--quick] [--json FILE] [--broken] [--stream FILE] [--stream-interval-ms N]   \
         fault-injection stress sweeps (E15); violations print the seed and exit \
         non-zero; --stream tails per-schedule heartbeats to FILE\n\
         \x20      check sanitize [--schedules N] [--seed N] [--family F] [--quick] \
         [--json FILE]   memory-ordering inference: certify per-site minimal orderings (E17)\n\
         \x20      check sanitize --broken [--quick]   negative controls: the broken fixtures \
         must be flagged (exits non-zero when they are; CI asserts the failure)\n\
         \x20      check sanitize --family F --replay SEED [--read ORD] [--claim ORD] \
         [--clear ORD]   rerun one sanitized schedule (F may be a fixture name); \
         ORD in {{relaxed,acquire,release,seqcst}}\n\
         \x20      check obs [--m N] [--shift N] [--entries N] [--max-states N] \
         [--json FILE] [--trace FILE]   probed run + contention heatmap\n\
         \x20      check obs validate FILE            schema-validate a JSONL file\n\
         \x20      check obs replay FILE              replay an exported trace"
    );
    ExitCode::FAILURE
}

/// Runs the static analyzer: `check lint --all`, `check lint <algo>`, or
/// `check lint fixtures`. The exit code always reflects the verdicts, so
/// the fixtures run — every lint firing on its negative fixture, witness
/// attached — exits non-zero by design (CI asserts the failure).
fn lint_main(selector: Option<&str>) -> ExitCode {
    use anonreg_bench::lintsuite;

    let reports = match selector {
        Some("--all") | None => lintsuite::lint_all(),
        Some("fixtures") => lintsuite::lint_fixtures(),
        Some(name) => match lintsuite::lint_algorithm(name) {
            Some(reports) => reports,
            None => {
                eprintln!(
                    "unknown algorithm {name:?}; expected one of {:?}, fixtures, or --all",
                    lintsuite::ALGORITHMS
                );
                return ExitCode::FAILURE;
            }
        },
    };

    let mut clean = true;
    for report in &reports {
        print!("{report}");
        clean &= report.passed();
    }
    let failed = reports.iter().filter(|r| !r.passed()).count();
    println!(
        "\n{} subjects linted; {}",
        reports.len(),
        if clean {
            "all clean".to_string()
        } else {
            format!("{failed} FAILED")
        }
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `check obs` — drive the Figure 1 mutex on real threads and under the
/// model checker with a live [`MemProbe`](anonreg_obs::MemProbe), print the per-register
/// contention heatmap, and optionally export the metrics (`--json`) or a
/// replayable trace (`--trace`). `validate FILE` and `replay FILE` consume
/// files produced this way.
fn obs_main(raw: &[String]) -> ExitCode {
    use anonreg_bench::workload::run_randomized;
    use anonreg_obs::emit::snapshot_to_jsonl;
    use anonreg_obs::schema::{meta_line, validate_jsonl};
    use anonreg_obs::{
        register_stats, schedule_of, trace_from_jsonl, trace_to_jsonl, Heatmap, Json, MemProbe,
        Metric, Span,
    };
    use anonreg_runtime::{AnonymousMemory, Backoff, Driver, PackedAtomicRegister};

    match raw.first().map(String::as_str) {
        Some("validate") => {
            let Some(path) = raw.get(1) else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            return match validate_jsonl(&text) {
                Ok(lines) => {
                    let (v1, skipped) =
                        anonreg_obs::schema::validate_jsonl_v1(&text).unwrap_or((lines, 0));
                    println!(
                        "{path}: {lines} schema-valid lines ({v1} v1, {skipped} v2 stream \
                         records a v1 consumer would skip)"
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: INVALID at line {}: {}", e.line, e.reason);
                    ExitCode::FAILURE
                }
            };
        }
        Some("replay") => {
            let Some(path) = raw.get(1) else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let trace: anonreg_model::trace::Trace<u64, MutexEvent> = match trace_from_jsonl(&text)
            {
                Ok(trace) => trace,
                Err(e) => {
                    eprintln!("{path}: not a valid trace: {}", e.reason);
                    return ExitCode::FAILURE;
                }
            };
            let stats = register_stats(&trace);
            println!(
                "replayed {} ops across {} processes",
                trace.len(),
                schedule_of(&trace).iter().max().map_or(0, |&p| p + 1)
            );
            println!("{}", Heatmap::from_register_stats(&stats).render());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }

    let Some(args) = parse(raw) else {
        return usage();
    };
    let mut json_path = None;
    let mut trace_path = None;
    let mut entries: u64 = 200;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => json_path = it.next().cloned(),
            "--trace" => trace_path = it.next().cloned(),
            "--entries" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => entries = n,
                None => return usage(),
            },
            _ => {}
        }
    }
    let m = args.m;
    let probe = MemProbe::new();

    // 1. Real threads: two probed drivers race for the Figure 1 lock.
    println!(
        "probed run: Figure 1 mutex, m = {m}, 2 threads x {entries} critical sections, \
         second view rotated by {}",
        args.shift % m
    );
    let mem: AnonymousMemory<PackedAtomicRegister<u64>> = AnonymousMemory::new(m);
    std::thread::scope(|s| {
        for (id, shift) in [(1u64, 0usize), (2, args.shift % m)] {
            let view = mem.view(View::rotated(m, shift));
            let probe = &probe;
            s.spawn(move || {
                let machine = AnonMutex::new(pid(id), m).unwrap().with_cycles(entries);
                let mut driver = Driver::new(machine, view)
                    .with_backoff(Backoff {
                        min_spins: 1,
                        max_spins: 64,
                    })
                    .with_probe(probe);
                driver.run_to_halt();
            });
        }
    });

    // 2. The model checker over the same configuration, same probe.
    let sim = Simulation::builder()
        .process(AnonMutex::new(pid(1), m).unwrap(), View::identity(m))
        .process(
            AnonMutex::new(pid(2), m).unwrap(),
            View::rotated(m, args.shift % m),
        )
        .build()
        .unwrap();
    let limits = ExploreConfig {
        max_states: args.max_states,
        crashes: args.crashes,
        parallelism: args.threads,
        ..ExploreConfig::default()
    };
    if let Err(e) = Explorer::new(sim).limits(limits).probe(&probe).run() {
        eprintln!("exploration failed: {e}");
        return ExitCode::FAILURE;
    }

    let snapshot = probe.snapshot();
    println!(
        "registers        : {} reads, {} writes, {} contended reads",
        snapshot.counter_total(Metric::RegRead),
        snapshot.counter_total(Metric::RegWrite),
        snapshot.counter_total(Metric::RegContention),
    );
    if let Some(hist) = snapshot.histogram_stat(Metric::BackoffSpins) {
        println!(
            "backoff          : {} invocations, {} spins total (max {})",
            hist.count, hist.sum, hist.max
        );
    }
    let windows = snapshot
        .spans
        .iter()
        .filter(|s| s.span == Span::SoloWindow)
        .count();
    println!("solo windows     : {windows} (maximal uncontended op runs)");
    println!(
        "exploration      : {} states, {} edges, {} dedup hits",
        snapshot.counter_total(Metric::ExploreStates),
        snapshot.counter_total(Metric::ExploreEdges),
        snapshot.counter_total(Metric::ExploreDedup),
    );

    let per_register = |metric: Metric| -> Vec<u64> {
        let by_key = snapshot.counter_by_key(metric);
        let mut counts = vec![0u64; m];
        for (key, value) in by_key {
            if let Some(slot) = counts.get_mut(usize::try_from(key).unwrap_or(usize::MAX)) {
                *slot = value;
            }
        }
        counts
    };
    let mut heatmap = Heatmap::new();
    heatmap
        .row("reads", per_register(Metric::RegRead))
        .row("writes", per_register(Metric::RegWrite))
        .row("contention", per_register(Metric::RegContention));
    println!(
        "\nper-register heatmap (threaded run):\n{}",
        heatmap.render()
    );

    // 3. A fully symmetric sibling space (both processes behind the
    //    *same* identity view, so the slot swap is a genuine S₂
    //    symmetry for any m) under full reduction, on a fresh probe:
    //    orbit-dedup hits and canonicalization time are keyed per
    //    engine worker (key 0 = the first, or only, worker).
    let sym_probe = MemProbe::new();
    let sym_sim = Simulation::builder()
        .process(AnonMutex::new(pid(1), m).unwrap(), View::identity(m))
        .process(AnonMutex::new(pid(2), m).unwrap(), View::identity(m))
        .build()
        .unwrap();
    if let Err(e) = Explorer::new(sym_sim)
        .limits(limits)
        .probe(&sym_probe)
        .symmetry(SymmetryMode::Full)
        .run()
    {
        eprintln!("symmetry-reduced exploration failed: {e}");
        return ExitCode::FAILURE;
    }
    let sym = sym_probe.snapshot();
    println!(
        "symmetry (full)  : {} states, {} orbit hits, {:.2} ms canonicalizing \
         (identity-view sibling space)",
        sym.counter_total(Metric::ExploreStates),
        sym.counter_total(Metric::SymmetryHits),
        sym.counter_total(Metric::CanonTime) as f64 / 1e6,
    );
    let workers = args.threads.max(1);
    let per_worker = |metric: Metric| -> Vec<u64> {
        let by_key = sym.counter_by_key(metric);
        let mut counts = vec![0u64; workers];
        for (key, value) in by_key {
            if let Some(slot) = counts.get_mut(usize::try_from(key).unwrap_or(usize::MAX)) {
                *slot = value;
            }
        }
        counts
    };
    let mut sym_heatmap = Heatmap::new();
    sym_heatmap
        .axis("worker")
        .row("orbit hits", per_worker(Metric::SymmetryHits))
        .row(
            "canon us",
            per_worker(Metric::CanonTime)
                .into_iter()
                .map(|ns| ns / 1_000)
                .collect(),
        );
    println!(
        "\nper-worker symmetry heatmap (full mode):\n{}",
        sym_heatmap.render()
    );

    if let Some(path) = &trace_path {
        let machines: Vec<AnonMutex> = (1..=2)
            .map(|id| AnonMutex::new(pid(id), m).unwrap().with_cycles(2))
            .collect();
        let sim = run_randomized(machines, 1, 4 * m, 100_000 * m);
        let jsonl = trace_to_jsonl(sim.trace());
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "trace written to {path} ({} ops; replay with `check obs replay {path}`)",
            sim.trace().len()
        );
    }
    if let Some(path) = &json_path {
        let mut out = meta_line(
            "check-obs",
            &[("m", Json::U64(m as u64)), ("entries", Json::U64(entries))],
        )
        .render();
        out.push('\n');
        out.push_str(&snapshot_to_jsonl(&snapshot));
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path} (validate with `check obs validate {path}`)");
    }
    ExitCode::SUCCESS
}

/// Live-stream plumbing shared by `check explore` and `check stress`:
/// a probe + profiler pair with a background [`StreamExporter`](anonreg_obs::StreamExporter) tailing
/// schema-v2 deltas and progress lines to the requested file.
struct LiveStream {
    probe: std::sync::Arc<anonreg_obs::MemProbe>,
    profiler: std::sync::Arc<anonreg_obs::Profiler>,
    exporter: anonreg_obs::StreamExporter,
    path: String,
}

impl LiveStream {
    /// Opens the stream file and spawns the exporter thread; returns
    /// `Err` with a printed message if the file cannot be created.
    fn start(tool: &str, path: &str, interval_ms: u64) -> Result<LiveStream, ExitCode> {
        use anonreg_obs::{MemProbe, Profiler, StreamExporter, StreamOptions};
        use std::sync::Arc;

        let probe = Arc::new(MemProbe::new());
        let profiler = Arc::new(Profiler::new());
        let mut opts = StreamOptions::new(tool, &format!("{tool}-{}", std::process::id()));
        opts.interval = std::time::Duration::from_millis(interval_ms.max(1));
        opts.echo = true;
        match StreamExporter::start(path, opts, Arc::clone(&probe), Some(Arc::clone(&profiler))) {
            Ok(exporter) => Ok(LiveStream {
                probe,
                profiler,
                exporter,
                path: path.to_string(),
            }),
            Err(e) => {
                eprintln!("failed to open stream file {path}: {e}");
                Err(ExitCode::FAILURE)
            }
        }
    }

    /// The instrumentation view the experiment modules accept.
    fn instruments(&self) -> anonreg_bench::live::Instruments<'_> {
        anonreg_bench::live::Instruments {
            probe: Some(&self.probe),
            profiler: Some(std::sync::Arc::clone(&self.profiler)),
        }
    }

    /// Flushes the final delta/profile/snapshot records and reports.
    fn finish(self) -> Result<(), ExitCode> {
        match self.exporter.finish() {
            Ok(summary) => {
                println!(
                    "live stream: {} delta(s), {} v2 record(s) over {} ms -> {} \
                     (validate with `check obs validate {}`)",
                    summary.deltas, summary.records, summary.elapsed_ms, self.path, self.path
                );
                Ok(())
            }
            Err(e) => {
                eprintln!("stream export to {} failed: {e}", self.path);
                Err(ExitCode::FAILURE)
            }
        }
    }
}

/// `check explore --symmetry MODE` — the symmetry-reduction benchmark
/// (experiment E16): explore the symmetric Figure 2 consensus space
/// under all three symmetry modes at `threads` threads (verdict parity
/// is hard-asserted inside
/// [`e16_symmetry::rows`](anonreg_bench::e16_symmetry::rows)) and print the
/// reduction table; `mode` is recorded in the JSONL meta line.
fn explore_symmetry_main(
    mode: SymmetryMode,
    n: usize,
    registers: usize,
    threads: usize,
    max_states: usize,
    json_path: Option<&String>,
    stream: Option<(&str, u64)>,
) -> ExitCode {
    use anonreg_bench::live::Instruments;
    use anonreg_bench::{benchjson, e16_symmetry};
    use anonreg_obs::schema::meta_line;
    use anonreg_obs::Json;

    let workload = e16_symmetry::Workload::SymmetricConsensus { n, registers };
    println!(
        "symmetry-reduced exploration: symmetric Figure 2 consensus, n = {n}, \
         {registers} registers, {threads} threads, off vs registers vs full"
    );
    let live = match stream {
        Some((path, interval_ms)) => {
            match LiveStream::start("check-explore-symmetry", path, interval_ms) {
                Ok(live) => Some(live),
                Err(code) => return code,
            }
        }
        None => None,
    };
    let ins = match &live {
        Some(l) => l.instruments(),
        None => Instruments::none(),
    };
    let rows = match e16_symmetry::rows_with(workload, threads, max_states, &ins) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("exploration failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(ins);
    if let Some(live) = live {
        if let Err(code) = live.finish() {
            return code;
        }
    }
    println!("{}", e16_symmetry::render(&rows));
    println!("verdict parity across off/registers/full: ok");

    if let Some(path) = json_path {
        let mut out = meta_line(
            "check-explore-symmetry",
            &[
                ("n", Json::U64(n as u64)),
                ("registers", Json::U64(registers as u64)),
                ("threads", Json::U64(threads as u64)),
                ("mode", Json::Str(mode.to_string())),
            ],
        )
        .render();
        out.push('\n');
        out.push_str(&benchjson::to_jsonl(&e16_symmetry::metrics(&rows)));
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path} (validate with `check obs validate {path}`)");
    }
    ExitCode::SUCCESS
}

/// `check explore --scale` — experiment E19: stats-mode exploration at
/// scale with ample-set POR and disk spill. Runs the full-scale trio
/// (fully loaded m = 3 ring, m = 4 ring, consensus n = 4) under `por`
/// and `por_spill` configurations, or with `--quick` the CI-sized
/// consensus space with the exact-count `off` anchor included; prints
/// the throughput table and optionally exports JSONL (`--json`).
fn explore_scale_main(
    quick: bool,
    threads: usize,
    max_states: usize,
    json_path: Option<&String>,
    stream: Option<(&str, u64)>,
) -> ExitCode {
    use anonreg_bench::e16_symmetry::Workload;
    use anonreg_bench::live::Instruments;
    use anonreg_bench::{benchjson, e19_scale};
    use anonreg_obs::schema::meta_line;
    use anonreg_obs::Json;

    let workloads: Vec<_> = if quick {
        e19_scale::quick().to_vec()
    } else {
        e19_scale::full_scale().to_vec()
    };
    let slugs: Vec<String> = workloads.iter().map(Workload::slug).collect();
    println!(
        "model checking at scale (E19): {} at {threads} threads, stats mode, \
         max {max_states} states{}",
        slugs.join(" + "),
        if quick {
            " [quick: off anchor + por + por_spill]"
        } else {
            " [por + por_spill]"
        }
    );
    let live = match stream {
        Some((path, interval_ms)) => {
            match LiveStream::start("check-explore-scale", path, interval_ms) {
                Ok(live) => Some(live),
                Err(code) => return code,
            }
        }
        None => None,
    };
    let ins = match &live {
        Some(l) => l.instruments(),
        None => Instruments::none(),
    };
    let rows = match e19_scale::rows_with(&workloads, quick, threads, max_states, &ins) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("exploration failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(ins);
    if let Some(live) = live {
        if let Err(code) = live.finish() {
            return code;
        }
    }
    println!("{}", e19_scale::render(&rows));
    println!("spill count-invariance and POR monotonicity: ok");

    if let Some(path) = json_path {
        let mut out = meta_line(
            "check-explore-scale",
            &[
                ("threads", Json::U64(threads as u64)),
                ("max_states", Json::U64(max_states as u64)),
                ("quick", Json::Bool(quick)),
            ],
        )
        .render();
        out.push('\n');
        out.push_str(&benchjson::to_jsonl(&e19_scale::metrics(&rows)));
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path} (validate with `check obs validate {path}`)");
    }
    ExitCode::SUCCESS
}

/// `check explore` — the parallel-explorer scaling benchmark (experiment
/// E14): explore the Figure 2 consensus space once at 1 thread and once at
/// `--threads`, refuse to report a speedup unless both runs produce the
/// exact same state and edge counts, print the scaling table, and
/// optionally export schema-v1 JSONL (`--json`). Floors on the exported
/// metrics are enforced by `check bench-diff --require`.
/// With `--symmetry`, runs the E16 symmetry-reduction flow instead.
fn explore_main(raw: &[String]) -> ExitCode {
    use anonreg_bench::{benchjson, e14_scaling};
    use anonreg_obs::schema::meta_line;
    use anonreg_obs::Json;

    let mut n = 3usize;
    let mut registers = 2usize;
    let mut threads = 4usize;
    let mut max_states: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut symmetry: Option<SymmetryMode> = None;
    let mut scale = false;
    let mut quick = false;
    let mut stream_path: Option<String> = None;
    let mut stream_interval_ms = 50u64;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                scale = true;
                continue;
            }
            "--quick" => {
                quick = true;
                continue;
            }
            _ => {}
        }
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--json" => json_path = Some(value.clone()),
            "--stream" => stream_path = Some(value.clone()),
            "--stream-interval-ms" => {
                let Ok(v) = value.parse::<u64>() else {
                    return usage();
                };
                stream_interval_ms = v;
            }
            "--symmetry" => {
                symmetry = Some(match value.as_str() {
                    "off" => SymmetryMode::Off,
                    "registers" => SymmetryMode::Registers,
                    "full" => SymmetryMode::Full,
                    _ => return usage(),
                });
            }
            "--n" | "--registers" | "--threads" | "--max-states" => {
                let Ok(v) = value.parse::<usize>() else {
                    return usage();
                };
                match flag.as_str() {
                    "--n" => n = v,
                    "--registers" => registers = v,
                    "--threads" => threads = v,
                    _ => max_states = Some(v),
                }
            }
            _ => return usage(),
        }
    }
    if scale {
        return explore_scale_main(
            quick,
            threads,
            // Stats mode stores fingerprints, not states: the scale
            // default is an order of magnitude past the E14/E16 cap.
            max_states.unwrap_or(100_000_000),
            json_path.as_ref(),
            stream_path.as_deref().map(|p| (p, stream_interval_ms)),
        );
    }
    let max_states = max_states.unwrap_or(4_000_000);
    if let Some(mode) = symmetry {
        return explore_symmetry_main(
            mode,
            n,
            registers,
            threads,
            max_states,
            json_path.as_ref(),
            stream_path.as_deref().map(|p| (p, stream_interval_ms)),
        );
    }
    if quick {
        eprintln!("--quick requires --scale");
        return usage();
    }

    println!(
        "parallel explorer scaling: Figure 2 consensus, n = {n}, {registers} registers, \
         1 vs {threads} threads"
    );
    let live = match &stream_path {
        Some(path) => match LiveStream::start("check-explore", path, stream_interval_ms) {
            Ok(live) => Some(live),
            Err(code) => return code,
        },
        None => None,
    };
    let ins = match &live {
        Some(l) => l.instruments(),
        None => anonreg_bench::live::Instruments::none(),
    };
    let rows = match e14_scaling::rows_with(n, registers, &[1, threads], max_states, &ins) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("exploration failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(ins);
    if let Some(live) = live {
        if let Err(code) = live.finish() {
            return code;
        }
    }
    println!("{}", e14_scaling::render(&rows));

    if let Some(path) = &json_path {
        let mut out = meta_line(
            "check-explore",
            &[
                ("n", Json::U64(n as u64)),
                ("registers", Json::U64(registers as u64)),
                ("threads", Json::U64(threads as u64)),
            ],
        )
        .render();
        out.push('\n');
        out.push_str(&benchjson::to_jsonl(&e14_scaling::metrics(&rows)));
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path} (validate with `check obs validate {path}`)");
    }
    ExitCode::SUCCESS
}

/// `check stress` — experiment E15's seeded fault-injection stress
/// sweeps. The default run draws `--schedules` random fault plans per
/// family (crashes, stalls, restarts), drives every algorithm family on
/// real threads under them, and asserts the family's safety invariant;
/// any violation prints a replay command carrying the exact seed and the
/// exit code goes non-zero. `--broken` swaps in the deliberately
/// unprotected doorway fixture, which *must* violate — CI asserts that
/// run fails.
fn stress_main(raw: &[String]) -> ExitCode {
    use anonreg_bench::{benchjson, e15_faults};
    use anonreg_obs::schema::meta_line;
    use anonreg_obs::Json;

    let mut schedules: Option<u64> = None;
    let mut seed: u64 = 1;
    let mut family_arg: Option<String> = None;
    let mut replay: Option<u64> = None;
    let mut quick = false;
    let mut broken = false;
    let mut json_path: Option<String> = None;
    let mut stream_path: Option<String> = None;
    let mut stream_interval_ms = 50u64;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--broken" => broken = true,
            "--stream" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                stream_path = Some(v.clone());
            }
            "--stream-interval-ms" => {
                let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                stream_interval_ms = v;
            }
            "--schedules" | "--seed" | "--replay" => {
                let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                match flag.as_str() {
                    "--schedules" => schedules = Some(v),
                    "--seed" => seed = v,
                    _ => replay = Some(v),
                }
            }
            "--family" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                family_arg = Some(v.clone());
            }
            "--json" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                json_path = Some(v.clone());
            }
            _ => return usage(),
        }
    }

    let selected: Vec<&'static str> = if broken {
        vec![e15_faults::BROKEN]
    } else if let Some(name) = &family_arg {
        let known = e15_faults::FAMILIES
            .iter()
            .find(|f| **f == *name)
            .copied()
            .or_else(|| (name == e15_faults::BROKEN).then_some(e15_faults::BROKEN));
        match known {
            Some(f) => vec![f],
            None => {
                eprintln!(
                    "unknown family {name:?}; expected one of {:?} or {:?}",
                    e15_faults::FAMILIES,
                    e15_faults::BROKEN
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        e15_faults::FAMILIES.to_vec()
    };

    if let Some(replay_seed) = replay {
        let mut bad = false;
        for fam in &selected {
            let report = e15_faults::run_one(fam, replay_seed);
            println!(
                "{fam}: seed {replay_seed}: {} crash(es), {} stall(s), {} restart(s) scheduled{}",
                report.crashes,
                report.stalls,
                report.restarts,
                if report.timed_out { ", timed out" } else { "" }
            );
            match &report.violation {
                Some(v) => {
                    println!("  VIOLATION: {v}");
                    bad = true;
                }
                None => println!("  safety invariant held"),
            }
        }
        return if bad {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let per_family = schedules.unwrap_or(if quick { 25 } else { 150 });
    println!(
        "fault-injection stress (E15): {per_family} seeded schedule(s) x {} family(ies), \
         base seed {seed}",
        selected.len()
    );
    let live = match &stream_path {
        Some(path) => match LiveStream::start("check-stress", path, stream_interval_ms) {
            Ok(live) => Some(live),
            Err(code) => return code,
        },
        None => None,
    };
    let rows: Vec<e15_faults::Row> = selected
        .iter()
        .enumerate()
        .map(|(i, f)| {
            e15_faults::sweep_with(
                f,
                seed,
                per_family,
                live.as_ref().map(|l| &*l.probe),
                i as u64,
            )
        })
        .collect();
    if let Some(live) = live {
        if let Err(code) = live.finish() {
            return code;
        }
    }
    println!("{}", e15_faults::render(&rows));

    if let Some(path) = &json_path {
        let mut out = meta_line(
            "check-stress",
            &[
                ("schedules", Json::U64(per_family)),
                ("seed", Json::U64(seed)),
                ("families", Json::U64(selected.len() as u64)),
            ],
        )
        .render();
        out.push('\n');
        out.push_str(&benchjson::to_jsonl(&e15_faults::metrics(&rows)));
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path} (validate with `check obs validate {path}`)");
    }

    let mut bad = false;
    for row in &rows {
        if let Some(s) = row.first_violation_seed {
            bad = true;
            eprintln!(
                "{}: {} violation(s); replay deterministically with \
                 `check stress --family {} --replay {s}`",
                row.family, row.violations, row.family
            );
        }
    }
    if bad {
        return ExitCode::FAILURE;
    }
    if broken {
        eprintln!(
            "broken fixture did NOT violate — the harness failed to detect an \
             unprotected doorway"
        );
    } else {
        println!(
            "no safety violations across {} schedule(s)",
            per_family * selected.len() as u64
        );
    }
    ExitCode::SUCCESS
}

/// `check profile` — experiment E18's wall-clock phase profiles: every
/// E16 workload explored under `off` and `full` symmetry with per-worker
/// phase timers (`step`/`canon`/`dedup`/`steal`/`idle`), plus the
/// Figure 1 mutex raced on real threads with the driver's protocol
/// phases (`doorway`/`waiting`/`critical`). Prints the per-run phase
/// breakdown, optionally writes a collapsed-stack flamegraph
/// (`--flamegraph`, speedscope/inferno format) and bench JSONL
/// (`--json`). The JSONL carries each long-enough explorer run's
/// self-time coverage of its wall-clock as `<slug>_coverage`, which CI
/// floors with `check bench-diff F F --allow-missing --require
/// coverage=0.7`.
fn profile_main(raw: &[String]) -> ExitCode {
    use anonreg_bench::{benchjson, e18_profile};
    use anonreg_obs::schema::meta_line;
    use anonreg_obs::Json;

    let mut full = false;
    let mut threads = 4usize;
    let mut max_states = 8_000_000usize;
    let mut entries = 200u64;
    let mut flamegraph: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--full" => full = true,
            "--threads" | "--max-states" | "--entries" => {
                let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                match flag.as_str() {
                    "--threads" => threads = v as usize,
                    "--max-states" => max_states = v as usize,
                    _ => entries = v,
                }
            }
            "--flamegraph" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                flamegraph = Some(v.clone());
            }
            "--json" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                json_path = Some(v.clone());
            }
            _ => return usage(),
        }
    }

    println!(
        "wall-clock phase profiles (E18): {} workloads x {{off, full}} at {threads} thread(s), \
         + Figure 1 driver x2 threads ({entries} entries)",
        if full { "full-scale" } else { "quick" }
    );
    let mut runs = match e18_profile::rows(full, threads, max_states) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("exploration failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    runs.push(e18_profile::profile_runtime(3, entries));
    println!("{}", e18_profile::render(&runs));

    if let Some(path) = &flamegraph {
        let collapsed: String = runs
            .iter()
            .map(e18_profile::ProfiledRun::collapsed)
            .collect();
        if let Err(e) = std::fs::write(path, &collapsed) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "collapsed-stack flamegraph ({} frames) written to {path} \
             (render with inferno/speedscope)",
            collapsed.lines().count()
        );
    }
    if let Some(path) = &json_path {
        let mut out = meta_line(
            "check-profile",
            &[
                ("threads", Json::U64(threads as u64)),
                ("full", Json::Bool(full)),
            ],
        )
        .render();
        out.push('\n');
        out.push_str(&benchjson::to_jsonl(&e18_profile::metrics(&runs)));
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path} (validate with `check obs validate {path}`)");
    }

    ExitCode::SUCCESS
}

/// `check bench-diff` — compare two bench JSONL files (a committed
/// baseline and a fresh run) and exit non-zero on regression: `ms`
/// metrics may grow by at most `--max-time-ratio`, `x`/`ops_per_s`
/// metrics may shrink by at most `--max-drop-ratio`, and counting units
/// (states/edges/bool) must match exactly. `--require NAME=FLOOR` adds
/// absolute floors on fresh metrics (suffix-matched), replacing
/// bespoke per-experiment gates in CI.
fn bench_diff_main(raw: &[String]) -> ExitCode {
    use anonreg_bench::benchdiff;

    let mut files: Vec<&String> = Vec::new();
    let mut thresholds = benchdiff::Thresholds::default();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--allow-missing" => thresholds.allow_missing = true,
            "--exact-counts" => thresholds.reduced_markers.clear(),
            "--reduced-marker" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                thresholds.reduced_markers.push(v.clone());
            }
            "--max-time-ratio" | "--max-drop-ratio" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    return usage();
                };
                if arg == "--max-time-ratio" {
                    thresholds.max_time_ratio = v;
                } else {
                    thresholds.max_drop_ratio = v;
                }
            }
            "--require" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                let Some((name, floor)) = v.split_once('=') else {
                    eprintln!("--require wants NAME=FLOOR, got {v:?}");
                    return usage();
                };
                let Ok(floor) = floor.parse::<f64>() else {
                    return usage();
                };
                thresholds.require.push((name.to_string(), floor));
            }
            _ if arg.starts_with("--") => return usage(),
            _ => files.push(arg),
        }
    }
    let [before_path, after_path] = files.as_slice() else {
        eprintln!("bench-diff wants exactly two files (BEFORE AFTER)");
        return usage();
    };

    let read = |path: &str| -> Result<Vec<benchdiff::ParsedMetric>, ExitCode> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            eprintln!("failed to read {path}: {e}");
            ExitCode::FAILURE
        })?;
        benchdiff::parse_bench_jsonl(&text).map_err(|e| {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        })
    };
    let before = match read(before_path) {
        Ok(m) => m,
        Err(code) => return code,
    };
    let after = match read(after_path) {
        Ok(m) => m,
        Err(code) => return code,
    };

    println!(
        "bench-diff: {before_path} ({} metric(s)) vs {after_path} ({} metric(s)); \
         time limit {:.2}x, drop limit {:.2}x",
        before.len(),
        after.len(),
        thresholds.max_time_ratio,
        thresholds.max_drop_ratio
    );
    let diff = benchdiff::diff(&before, &after, &thresholds);
    println!("{}", benchdiff::render(&diff));
    if diff.regressed() {
        eprintln!("{} regression(s) against {before_path}", diff.regressions());
        return ExitCode::FAILURE;
    }
    println!("no regressions against {before_path}");
    ExitCode::SUCCESS
}

/// `check sanitize` — experiment E17's memory-ordering inference over the
/// vector-clock sanitizer substrate. The default run certifies per-site
/// minimal orderings for every family (greedy ladders, seeded sweeps, half
/// the schedules under injected faults), prints the certificates the
/// runtime's relaxed sites cite, and exits non-zero if any family fails to
/// verify clean at its certified plan. `--broken` runs the deliberately
/// defective fixtures instead, which *must* be flagged — that run exits
/// non-zero by design and CI asserts the failure. `--family F --replay
/// SEED` reruns exactly one sanitized schedule (`F` may be a fixture
/// name), optionally under explicit per-site orderings.
fn sanitize_main(raw: &[String]) -> ExitCode {
    use anonreg_bench::{benchjson, e17_ordering};
    use anonreg_obs::schema::meta_line;
    use anonreg_obs::Json;
    use anonreg_sanitizer::{
        certify_family, explorer_site_notes, fixtures, run_family, runtime_site_notes,
        OrderingPlan, FAMILIES,
    };
    use std::sync::atomic::Ordering as MemOrdering;

    fn parse_ordering(value: &str) -> Option<MemOrdering> {
        Some(match value {
            "relaxed" => MemOrdering::Relaxed,
            "acquire" => MemOrdering::Acquire,
            "release" => MemOrdering::Release,
            "seqcst" => MemOrdering::SeqCst,
            _ => return None,
        })
    }

    let mut schedules: Option<u64> = None;
    let mut seed: u64 = 1;
    let mut family_arg: Option<String> = None;
    let mut replay: Option<u64> = None;
    let mut quick = false;
    let mut broken = false;
    let mut with_faults = false;
    let mut json_path: Option<String> = None;
    let mut plan = OrderingPlan::seq_cst();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--broken" => broken = true,
            "--faults" => with_faults = true,
            "--schedules" | "--seed" | "--replay" => {
                let Some(v) = it.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                match flag.as_str() {
                    "--schedules" => schedules = Some(v),
                    "--seed" => seed = v,
                    _ => replay = Some(v),
                }
            }
            "--family" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                family_arg = Some(v.clone());
            }
            "--json" => {
                let Some(v) = it.next() else {
                    return usage();
                };
                json_path = Some(v.clone());
            }
            "--read" | "--claim" | "--clear" => {
                let Some(ordering) = it.next().and_then(|v| parse_ordering(v)) else {
                    return usage();
                };
                match flag.as_str() {
                    "--read" => plan.read = ordering,
                    "--claim" => plan.claim = ordering,
                    _ => plan.clear = ordering,
                }
            }
            _ => return usage(),
        }
    }

    if let Some(replay_seed) = replay {
        let Some(name) = &family_arg else {
            eprintln!("--replay requires --family (an algorithm family or a fixture name)");
            return ExitCode::FAILURE;
        };
        // A fixture name replays the fixture's own defective plan.
        let (family, replay_plan) = match fixtures::fixture(name) {
            Some(f) => (f.family, f.plan),
            None => match FAMILIES.iter().find(|f| **f == *name) {
                Some(&f) => (f, plan),
                None => {
                    eprintln!(
                        "unknown family {name:?}; expected one of {FAMILIES:?} or a fixture name"
                    );
                    return ExitCode::FAILURE;
                }
            },
        };
        let outcome = run_family(family, replay_plan, replay_seed, with_faults);
        println!(
            "{family}: seed {replay_seed}: plan {}, {} violation(s), {} hb edge(s), \
             {} stale read(s), {} steps{}",
            replay_plan.label(),
            outcome.ordering_violations,
            outcome.hb_edges,
            outcome.stale_reads,
            outcome.steps,
            if outcome.timed_out { ", timed out" } else { "" },
        );
        let mut bad = false;
        if let Some(v) = &outcome.first_violation {
            print!("  VIOLATION: {v}");
            bad = true;
        }
        if let Some(s) = &outcome.safety {
            println!("  SAFETY: {s}");
            bad = true;
        }
        if !bad {
            println!("  no ordering or safety violations");
        }
        return if bad {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if broken {
        let outcomes = e17_ordering::fixture_outcomes(seed);
        println!(
            "negative controls: {} broken fixture(s), base seed {seed}",
            outcomes.len()
        );
        println!("{}", e17_ordering::render_fixtures(&outcomes));
        for o in &outcomes {
            if let (Some(firing_seed), Some(v)) = (o.seed, &o.violation) {
                println!(
                    "{}: flagged at seed {firing_seed}; replay with \
                     `check sanitize --family {} --replay {firing_seed}`",
                    o.name, o.name
                );
                print!("{v}");
            }
        }
        return if outcomes
            .iter()
            .all(anonreg_sanitizer::FixtureOutcome::flagged)
        {
            // Expected: the sanitizer fired on every defective fixture.
            // Exit non-zero so CI can assert `! check sanitize --broken`.
            ExitCode::FAILURE
        } else {
            eprintln!(
                "some broken fixture was NOT flagged — the sanitizer failed to \
                 detect a missing happens-before edge"
            );
            ExitCode::SUCCESS
        };
    }

    let selected: Vec<&'static str> = if let Some(name) = &family_arg {
        match FAMILIES.iter().find(|f| **f == *name) {
            Some(&f) => vec![f],
            None => {
                eprintln!(
                    "unknown family {name:?}; expected one of {FAMILIES:?} \
                     (fixtures run under --broken)"
                );
                return ExitCode::FAILURE;
            }
        }
    } else {
        FAMILIES.to_vec()
    };

    let per_family = schedules.unwrap_or(if quick {
        e17_ordering::QUICK_SCHEDULES
    } else {
        e17_ordering::DEFAULT_SCHEDULES
    });
    println!(
        "memory-ordering inference (E17): {per_family} schedule(s) per sweep x {} \
         family(ies), base seed {seed}",
        selected.len()
    );
    let certs: Vec<_> = selected
        .iter()
        .map(|&f| certify_family(f, seed, per_family))
        .collect();
    println!("{}", e17_ordering::render(&certs));

    println!("certificates:");
    for c in &certs {
        for cert in &c.certificates {
            println!("  {cert}");
        }
        for r in &c.rejected {
            println!("    rejected {:?} at {}: {}", r.ordering, r.site, r.reason);
        }
    }
    println!("structural runtime certificates:");
    for (id, why) in runtime_site_notes() {
        println!("  {id}: {why}");
    }
    println!("structural explorer certificates:");
    for (id, why) in explorer_site_notes() {
        println!("  {id}: {why}");
    }

    if let Some(path) = &json_path {
        let mut out = meta_line(
            "check-sanitize",
            &[
                ("schedules", Json::U64(per_family)),
                ("seed", Json::U64(seed)),
                ("families", Json::U64(selected.len() as u64)),
            ],
        )
        .render();
        out.push('\n');
        out.push_str(&benchjson::to_jsonl(&e17_ordering::metrics(&certs, &[])));
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path} (validate with `check obs validate {path}`)");
    }

    let mut bad = false;
    for c in &certs {
        if !c.clean {
            bad = true;
            eprintln!(
                "{}: {} violation(s) at the certified plan {} — the inference pass \
                 failed to converge",
                c.family,
                c.violations_at_plan,
                c.plan.label()
            );
        }
    }
    if bad {
        return ExitCode::FAILURE;
    }
    println!(
        "all {} family(ies) verified clean at their certified plans",
        certs.len()
    );
    ExitCode::SUCCESS
}

struct Args {
    m: usize,
    n: usize,
    registers: Option<usize>,
    shift: usize,
    max_states: usize,
    threads: usize,
    crashes: bool,
    por: bool,
    spill: bool,
    dot: Option<String>,
}

fn parse(raw: &[String]) -> Option<Args> {
    let mut args = Args {
        m: 3,
        n: 2,
        registers: None,
        shift: 1,
        max_states: 4_000_000,
        threads: 1,
        crashes: false,
        por: false,
        spill: false,
        dot: None,
    };
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--crashes" {
            args.crashes = true;
            continue;
        }
        if flag == "--por" {
            args.por = true;
            continue;
        }
        if flag == "--spill" {
            args.spill = true;
            continue;
        }
        let value = it.next()?;
        map.insert(flag.clone(), value.clone());
    }
    if let Some(v) = map.get("--m") {
        args.m = v.parse().ok()?;
    }
    if let Some(v) = map.get("--n") {
        args.n = v.parse().ok()?;
    }
    if let Some(v) = map.get("--registers") {
        args.registers = Some(v.parse().ok()?);
    }
    if let Some(v) = map.get("--shift") {
        args.shift = v.parse().ok()?;
    }
    if let Some(v) = map.get("--max-states") {
        args.max_states = v.parse().ok()?;
    }
    if let Some(v) = map.get("--threads") {
        args.threads = v.parse().ok()?;
    }
    if let Some(v) = map.get("--dot") {
        args.dot = Some(v.clone());
    }
    Some(args)
}

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

fn mutex_report<M>(graph: &StateGraph<M>, section: impl Fn(&M) -> Section + Copy, dot: Option<&str>)
where
    M: anonreg::Machine<Event = MutexEvent> + Eq + std::hash::Hash,
{
    println!(
        "reachable states: {}  transitions: {}",
        graph.state_count(),
        graph.edge_count()
    );
    let unsafe_state = graph.find_state(|s| {
        s.machines()
            .filter(|m| section(m) == Section::Critical)
            .count()
            >= 2
    });
    match unsafe_state {
        Some(id) => {
            println!("mutual exclusion : VIOLATED (state {id})");
            println!("  adversary schedule: {:?}", graph.schedule_to(id));
        }
        None => println!("mutual exclusion : holds in every reachable state"),
    }
    let livelock = graph.find_fair_livelock(
        |m| section(m) == Section::Entry,
        |e| *e == MutexEvent::Enter,
    );
    match &livelock {
        Some(scc) => println!(
            "deadlock-freedom : VIOLATED (fair livelock, {} states)",
            scc.len()
        ),
        None => println!("deadlock-freedom : holds (no fair livelock)"),
    }
    for victim in 0..2 {
        let starvation = graph.find_fair_starvation(
            victim,
            |m| section(m) == Section::Entry,
            |e| *e == MutexEvent::Enter,
        );
        match starvation {
            Some(scc) => println!(
                "starvation (p{victim})  : possible (fair component of {} states)",
                scc.len()
            ),
            None => {
                println!("starvation (p{victim})  : impossible (starvation-free for p{victim})");
            }
        }
    }
    if let Some(path) = dot {
        let highlight = livelock.unwrap_or_default();
        let rendered = to_dot(
            graph,
            &DotOptions {
                name: "check".into(),
                max_states: 400,
                highlight,
            },
            |s| format!("{:?}", s.registers()),
        );
        std::fs::write(path, rendered).expect("write dot file");
        println!("state graph written to {path} (first 400 states)");
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(kind) = raw.first().cloned() else {
        return usage();
    };
    if kind == "lint" {
        return lint_main(raw.get(1).map(String::as_str));
    }
    if kind == "obs" {
        return obs_main(&raw[1..]);
    }
    if kind == "explore" {
        return explore_main(&raw[1..]);
    }
    if kind == "stress" {
        return stress_main(&raw[1..]);
    }
    if kind == "sanitize" {
        return sanitize_main(&raw[1..]);
    }
    if kind == "profile" {
        return profile_main(&raw[1..]);
    }
    if kind == "bench-diff" {
        return bench_diff_main(&raw[1..]);
    }
    let Some(args) = parse(&raw[1..]) else {
        return usage();
    };
    let limits = ExploreConfig {
        max_states: args.max_states,
        crashes: args.crashes,
        parallelism: args.threads,
        por: args.por,
        spill: args.spill,
    };

    match kind.as_str() {
        "mutex" => {
            println!(
                "Figure 1 mutex: m = {}, 2 processes, second view rotated by {}",
                args.m, args.shift
            );
            let sim = Simulation::builder()
                .process(
                    AnonMutex::new(pid(1), args.m).unwrap(),
                    View::identity(args.m),
                )
                .process(
                    AnonMutex::new(pid(2), args.m).unwrap(),
                    View::rotated(args.m, args.shift % args.m),
                )
                .build()
                .unwrap();
            match Explorer::new(sim).limits(limits).run() {
                Ok(graph) => mutex_report(&graph, AnonMutex::section, args.dot.as_deref()),
                Err(e) => {
                    eprintln!("exploration failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "ordered" => {
            println!(
                "Ordered mutex (§2 arbitrary comparisons): m = {}, 2 processes, shift {}",
                args.m, args.shift
            );
            let sim = Simulation::builder()
                .process(
                    OrderedMutex::new(pid(1), args.m).unwrap(),
                    View::identity(args.m),
                )
                .process(
                    OrderedMutex::new(pid(2), args.m).unwrap(),
                    View::rotated(args.m, args.shift % args.m),
                )
                .build()
                .unwrap();
            match Explorer::new(sim).limits(limits).run() {
                Ok(graph) => mutex_report(&graph, OrderedMutex::section, args.dot.as_deref()),
                Err(e) => {
                    eprintln!("exploration failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "hybrid" => {
            println!(
                "Hybrid mutex: {} anonymous + 1 named, 2 processes, shift {}",
                args.m, args.shift
            );
            let anon: Vec<usize> = (0..args.m).map(|j| (j + args.shift) % args.m).collect();
            let sim = Simulation::builder()
                .process(
                    HybridMutex::new(pid(1), args.m).unwrap(),
                    named_view(args.m, (0..args.m).collect()).unwrap(),
                )
                .process(
                    HybridMutex::new(pid(2), args.m).unwrap(),
                    named_view(args.m, anon).unwrap(),
                )
                .build()
                .unwrap();
            match Explorer::new(sim).limits(limits).run() {
                Ok(graph) => mutex_report(&graph, HybridMutex::section, args.dot.as_deref()),
                Err(e) => {
                    eprintln!("exploration failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "consensus" => {
            let registers = args.registers.unwrap_or(2 * args.n - 1);
            println!(
                "Figure 2 consensus: n = {}, {} registers{}",
                args.n,
                registers,
                if registers < 2 * args.n - 1 {
                    " (UNDER-PROVISIONED)"
                } else {
                    ""
                }
            );
            let mut builder = Simulation::builder();
            for i in 0..args.n {
                builder = builder.process(
                    AnonConsensus::new(pid(i as u64 + 1), args.n, i as u64 + 1)
                        .unwrap()
                        .with_registers(registers),
                    View::rotated(registers, (i * args.shift) % registers),
                );
            }
            let sim = builder.build().unwrap();
            match Explorer::new(sim).limits(limits).run() {
                Ok(graph) => {
                    println!(
                        "reachable states: {}  transitions: {}",
                        graph.state_count(),
                        graph.edge_count()
                    );
                    let disagreement = graph.find_state(|s| {
                        let d: Vec<u64> = s
                            .machines()
                            .filter(|m| m.has_decided())
                            .map(anonreg::consensus::AnonConsensus::preference)
                            .collect();
                        d.windows(2).any(|w| w[0] != w[1])
                    });
                    match disagreement {
                        Some(id) => {
                            println!("agreement        : VIOLATED (state {id})");
                            println!("  adversary schedule: {:?}", graph.schedule_to(id));
                        }
                        None => println!("agreement        : holds in every reachable state"),
                    }
                    match check_obstruction_freedom(&graph, 4 * registers * (registers + 2) + 64) {
                        Ok(report) => println!(
                            "obstruction-free : holds (worst solo cost {} ops over {} runs)",
                            report.max_solo_ops, report.solo_runs
                        ),
                        Err(v) => println!("obstruction-free : VIOLATED ({v})"),
                    }
                }
                Err(e) => {
                    eprintln!("exploration failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "renaming" => {
            let registers = args.registers.unwrap_or(2 * args.n - 1);
            println!("Figure 3 renaming: n = {}, {} registers", args.n, registers);
            let mut builder = Simulation::builder();
            for i in 0..args.n {
                builder = builder.process(
                    AnonRenaming::new(pid(i as u64 + 1), args.n)
                        .unwrap()
                        .with_registers(registers),
                    View::rotated(registers, (i * args.shift) % registers),
                );
            }
            let sim = builder.build().unwrap();
            match Explorer::new(sim).limits(limits).run() {
                Ok(graph) => {
                    println!(
                        "reachable states: {}  transitions: {}",
                        graph.state_count(),
                        graph.edge_count()
                    );
                    // Replay every terminal state and spec-check names.
                    let mut violations = 0;
                    let mut terminals = 0;
                    for (id, state) in graph.states() {
                        if !state.all_halted() {
                            continue;
                        }
                        terminals += 1;
                        let schedule = graph.schedule_to(id);
                        let mut replay_builder = Simulation::builder();
                        for i in 0..args.n {
                            replay_builder = replay_builder.process(
                                AnonRenaming::new(pid(i as u64 + 1), args.n)
                                    .unwrap()
                                    .with_registers(registers),
                                View::rotated(registers, (i * args.shift) % registers),
                            );
                        }
                        let mut sim = replay_builder.build().unwrap();
                        for &p in &schedule {
                            sim.step(p).unwrap();
                        }
                        if anonreg::spec::check_renaming(sim.trace(), args.n as u32).is_err() {
                            violations += 1;
                        }
                    }
                    println!(
                        "uniqueness+range : {} ({} terminal states checked)",
                        if violations == 0 { "hold" } else { "VIOLATED" },
                        terminals
                    );
                }
                Err(e) => {
                    eprintln!("exploration failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
