//! `runtime-contended`: two long-lived threads in a closed loop on the
//! real-thread facades.
//!
//! Phase A: both threads loop enter → short critical section → exit on
//! one [`AnonymousMutex`]; an occupancy counter checks mutual exclusion.
//! Phase B: rounds of a fresh [`AnonymousConsensus`] and a fresh
//! [`AnonymousRenaming`] for two, each round leasing fresh pids, driven
//! by the same two threads; decisions and names are checked.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use anonreg::mutex::{AnonMutex, MutexEvent};
use anonreg::{Pid, View};
use anonreg_model::rng::Rng64;
use anonreg_obs::{Phase, Profiler};
use anonreg_runtime::{
    AnonymousConsensus, AnonymousMemory, AnonymousMutex, AnonymousRenaming, Backoff, Driver,
    MutexHandle, PackedAtomicRegister,
};

use crate::batch::run_batches;
use crate::layers::PhaseTimes;
use crate::report::{median, metric, micros, quantile, secs, Metric, Outcome};
use crate::{Config, Measured};

/// Registers of the phase-A lock.
pub const M: usize = 5;

/// The phases E18's classifier sorts the driver's steps into.
const DRIVER_PHASES: &[&str] = &["doorway", "waiting", "critical"];

struct Sizes {
    acquires: usize,
    rounds: usize,
    driver_entries: u64,
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            acquires: 200,
            rounds: 20,
            driver_entries: 50,
        }
    } else {
        Sizes {
            acquires: 120_000,
            rounds: 250,
            driver_entries: 5_000,
        }
    }
}

/// The latency series a batch records.
#[derive(Clone, Copy)]
enum Series {
    /// `MutexHandle::enter`, phase A.
    Enter,
    /// Dropping the guard (the exit code), phase A.
    Exit,
    /// `AnonymousConsensus::new` plus `AnonymousRenaming::new`.
    New,
    /// `AnonymousConsensus::handle`: the pid lease.
    Handle,
    Propose,
    /// `AnonymousRenaming::handle` plus `acquire`.
    Rename,
    /// One whole phase-B round, as thread 0 sees it.
    Round,
}

const SERIES: usize = 7;

/// Per-thread samples of one batch, in microseconds.
#[derive(Default)]
struct ThreadSamples {
    us: [Vec<f64>; SERIES],
    ops: u64,
    violations: Vec<String>,
    checks: u64,
}

impl ThreadSamples {
    fn push(&mut self, series: Series, d: Duration) {
        self.us[series as usize].push(micros(d));
    }
}

/// One round's objects, shared by the two threads.
struct Round {
    consensus: AnonymousConsensus,
    renaming: AnonymousRenaming,
    pids: [Pid; 2],
    inputs: [u64; 2],
}

/// One thread's part of a round: its decision and name, or the facade
/// error that stopped it.
type Part = Result<(u64, u32), String>;

/// What both threads see.
struct Shared {
    /// Brackets each phase: the two threads and the timing coordinator.
    phases: Barrier,
    /// Paces the rounds of phase B between the two threads.
    pair: Barrier,
    occupancy: AtomicU64,
    entries: AtomicU64,
    /// The current round's objects, or why they could not be built.
    round: Mutex<Option<Result<Arc<Round>, String>>>,
    results: Mutex<[Part; 2]>,
}

/// The seeded source of pids and inputs: nonzero 31-bit values, so they
/// pack into the facades' 32-bit fields.
fn draw(rng: &mut Rng64) -> u64 {
    1 + rng.next_u64() % ((1 << 31) - 1)
}

fn distinct_pids(rng: &mut Rng64) -> [Pid; 2] {
    let a = draw(rng);
    let mut b = draw(rng);
    while b == a {
        b = draw(rng);
    }
    [a, b].map(|v| Pid::new(v).expect("nonzero"))
}

fn phase_a(handle: &mut MutexHandle, shared: &Shared, n: usize, out: &mut ThreadSamples) {
    let ops_before = handle.ops();
    for _ in 0..n {
        let t0 = Instant::now();
        let guard = handle.enter();
        let t1 = Instant::now();
        if shared.occupancy.fetch_add(1, Ordering::SeqCst) != 0 {
            out.violations
                .push("two threads inside the critical section".into());
        }
        shared.entries.fetch_add(1, Ordering::Relaxed);
        shared.occupancy.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        let t2 = Instant::now();
        out.push(Series::Enter, t1 - t0);
        out.push(Series::Exit, t2 - t1);
        out.checks += 1;
    }
    out.ops += handle.ops() - ops_before;
}

/// One thread's part of a round: lease a handle, propose, take a name.
fn play(me: usize, round: &Round, out: &mut ThreadSamples) -> Part {
    let pid = round.pids[me];
    let t = Instant::now();
    let handle = round
        .consensus
        .handle(pid)
        .map_err(|e| format!("consensus handle: {e}"))?;
    out.push(Series::Handle, t.elapsed());
    let t = Instant::now();
    let decision = handle
        .propose(round.inputs[me])
        .map_err(|e| format!("propose: {e}"))?;
    out.push(Series::Propose, t.elapsed());
    let t = Instant::now();
    let name = round
        .renaming
        .handle(pid)
        .map_err(|e| format!("renaming handle: {e}"))?
        .acquire();
    out.push(Series::Rename, t.elapsed());
    Ok((decision, name))
}

/// Whether both threads decided the same input and took distinct names
/// in `1..=top`; otherwise everything that went wrong.
fn judge(round: &Round, parts: &[Part; 2], top: u32) -> Result<(), String> {
    let [(d0, n0), (d1, n1)] = [parts[0].clone()?, parts[1].clone()?];
    let mut wrong = Vec::new();
    if d0 != d1 || !round.inputs.contains(&d0) {
        wrong.push(format!(
            "decisions {d0}, {d1} for inputs {:?}",
            round.inputs
        ));
    }
    if n0 == n1 || !(1..=top).contains(&n0) || !(1..=top).contains(&n1) {
        wrong.push(format!("names {n0}, {n1}"));
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(wrong.join("; "))
    }
}

/// One phase-B round. Thread 0 builds the objects and judges the
/// results; both threads play their part. A facade error ends a thread's
/// part, not the thread, so both always reach the barriers; a round is
/// one checked operation, failed at most once.
fn round(me: usize, shared: &Shared, rng: &mut Rng64, inject: bool, out: &mut ThreadSamples) {
    let t0 = Instant::now();
    if me == 0 {
        let t = Instant::now();
        let built = AnonymousConsensus::new(2)
            .and_then(|consensus| Ok((consensus, AnonymousRenaming::new(2)?)));
        out.push(Series::New, t.elapsed());
        let (pids, inputs) = (distinct_pids(rng), [draw(rng), draw(rng)]);
        *shared.round.lock().expect("round slot") = Some(
            built
                .map(|(consensus, renaming)| {
                    Arc::new(Round {
                        consensus,
                        renaming,
                        pids,
                        inputs,
                    })
                })
                .map_err(|e| format!("construction: {e}")),
        );
    }
    shared.pair.wait();
    let slot = shared.round.lock().expect("round slot").clone();
    let part = match slot {
        Some(Ok(round)) => play(me, &round, out),
        Some(Err(e)) => Err(e),
        None => Err("round not published".into()),
    };
    shared.results.lock().expect("results")[me] = part;
    shared.pair.wait();
    if me == 0 {
        let slot = shared.round.lock().expect("round slot").take();
        let parts = shared.results.lock().expect("results").clone();
        let top = if inject { 1 } else { 2 };
        let verdict = match slot {
            Some(Ok(round)) => judge(&round, &parts, top),
            Some(Err(e)) => Err(e),
            None => Err("round not published".into()),
        };
        out.checks += 1;
        if let Err(what) = verdict {
            out.violations.push(what);
        }
        out.push(Series::Round, t0.elapsed());
    }
}

fn mutex_phase(event: &MutexEvent) -> Option<Phase> {
    match event {
        MutexEvent::Enter => Some(Phase::Critical),
        MutexEvent::Exit | MutexEvent::Aborted => Some(Phase::Doorway),
    }
}

/// One profiled pass of the Figure 1 machine through
/// [`Driver::with_profiler`], as in E18.
fn driver_pass(
    mem: &AnonymousMemory<PackedAtomicRegister<u64>>,
    view: View,
    pid: Pid,
    entries: u64,
    profiler: &Arc<Profiler>,
) {
    let view = mem.view(view);
    let machine = AnonMutex::new(pid, M).expect("m >= 1").with_cycles(entries);
    Driver::new(machine, view)
        .with_backoff(Backoff {
            min_spins: 1,
            max_spins: 1 << 10,
        })
        .with_profiler(Arc::clone(profiler), mutex_phase)
        .run_to_halt();
}

/// One batch, reduced to per-series quantiles so a run keeps no raw
/// samples (and its memory does not grow with its length).
struct Batch {
    setup: Duration,
    wall_a: Duration,
    wall_b: Duration,
    ops: u64,
    p50: [f64; SERIES],
    p99: [f64; SERIES],
}

pub fn run(cfg: &Config) -> Measured {
    let sizes = sizes(cfg.tiny);
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    let mut outcome = Outcome::default();
    let mut driver = PhaseTimes::new(DRIVER_PHASES);
    // Round latencies of every untraced batch: a batch has too few rounds
    // for its own p99.
    let mut rounds_us: Vec<f32> = Vec::new();
    let (batches, traced_batches) = run_batches(cfg, |_, tracing| {
        // Set-up: the lock, its two handles under seeded pids, and the two
        // long-lived threads parked on the phase barrier.
        let setup_start = Instant::now();
        let lock = AnonymousMutex::new(M).expect("odd m >= 3");
        let handles = distinct_pids(&mut rng).map(|pid| lock.handle(pid).expect("two handles"));
        let shared = Shared {
            phases: Barrier::new(3),
            pair: Barrier::new(2),
            occupancy: AtomicU64::new(0),
            entries: AtomicU64::new(0),
            round: Mutex::new(None),
            results: Mutex::new([Ok((0, 0)), Ok((0, 0))]),
        };
        let round_seed = rng.next_u64();
        let (setup, wall_a, wall_b, samples) = std::thread::scope(|s| {
            let workers: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(me, mut handle)| {
                    let shared = &shared;
                    s.spawn(move || {
                        let mut out = ThreadSamples::default();
                        let mut rng = Rng64::seed_from_u64(round_seed);
                        shared.phases.wait();
                        phase_a(&mut handle, shared, sizes.acquires / 2, &mut out);
                        shared.phases.wait();
                        shared.phases.wait();
                        for _ in 0..sizes.rounds {
                            round(me, shared, &mut rng, cfg.inject, &mut out);
                        }
                        shared.phases.wait();
                        out
                    })
                })
                .collect();
            shared.phases.wait();
            let setup = setup_start.elapsed();
            let t = Instant::now();
            shared.phases.wait();
            let wall_a = t.elapsed();
            shared.phases.wait();
            let t = Instant::now();
            shared.phases.wait();
            let wall_b = t.elapsed();
            let samples: Vec<ThreadSamples> = workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect();
            let samples: [ThreadSamples; 2] = samples.try_into().ok().expect("two workers");
            (setup, wall_a, wall_b, samples)
        });
        let entries = shared.entries.load(Ordering::Relaxed);
        outcome.check(entries == (sizes.acquires / 2 * 2) as u64, || {
            format!("{entries} critical sections counted")
        });
        if tracing {
            let mem: AnonymousMemory<PackedAtomicRegister<u64>> = AnonymousMemory::new(M);
            let views = [
                View::identity(M),
                View::rotated(M, 1 + rng.gen_index(M - 1)),
            ];
            let pids = distinct_pids(&mut rng);
            let profiler = Arc::new(Profiler::new());
            let start = Instant::now();
            std::thread::scope(|s| {
                for (view, pid) in views.into_iter().zip(pids) {
                    let (mem, profiler) = (&mem, &profiler);
                    s.spawn(move || driver_pass(mem, view, pid, sizes.driver_entries, profiler));
                }
            });
            driver.add(&profiler, 2, start.elapsed());
        }
        let mut batch = Batch {
            setup,
            wall_a,
            wall_b,
            ops: 0,
            p50: [0.0; SERIES],
            p99: [0.0; SERIES],
        };
        for s in &samples {
            outcome.attempted += s.checks;
            outcome.failed += s.violations.len() as u64;
            outcome
                .failures
                .extend(s.violations.iter().take(8).cloned());
            batch.ops += s.ops;
        }
        if !tracing {
            let round = &samples[0].us[Series::Round as usize];
            rounds_us.extend(round.iter().map(|&us| us as f32));
        }
        for i in 0..SERIES {
            let pooled: Vec<f64> = samples
                .iter()
                .flat_map(|s| s.us[i].iter().copied())
                .collect();
            batch.p50[i] = quantile(&pooled, 0.5);
            batch.p99[i] = quantile(&pooled, 0.99);
        }
        batch
    });

    let med =
        |bs: &[Batch], f: &dyn Fn(&Batch) -> f64| median(&bs.iter().map(f).collect::<Vec<_>>());
    let b = &batches;
    let rounds_us: Vec<f64> = rounds_us.into_iter().map(f64::from).collect();
    let enter = Series::Enter as usize;
    let wall = med(b, &|x| secs(x.wall_a + x.wall_b));
    let acquires_per_s = med(b, &|x| sizes.acquires as f64 / secs(x.wall_a));
    // The gated figures: `work_per_s` is phase A's throughput; `wall_s`
    // is phase A plus phase B, sized so phase B's heavy-tailed rounds are
    // about a quarter of it. Acquire percentiles are per batch, then the
    // median over batches; round percentiles pool every batch.
    let e2e = vec![
        metric("setup_s", med(b, &|x| secs(x.setup)), "s"),
        metric("wall_s", wall, "s"),
        metric("work_per_s", acquires_per_s, "1/s"),
    ];
    let report = vec![
        metric("acquires_per_s", acquires_per_s, "1/s"),
        metric("acquire_p50_us", med(b, &|x| x.p50[enter]), "us"),
        metric("acquire_p99_us", med(b, &|x| x.p99[enter]), "us"),
        metric(
            "oneshot_rounds_per_s",
            med(b, &|x| sizes.rounds as f64 / secs(x.wall_b)),
            "1/s",
        ),
        metric("oneshot_p50_us", quantile(&rounds_us, 0.5), "us"),
        metric("oneshot_p99_us", quantile(&rounds_us, 0.99), "us"),
        metric("batches", b.len() as f64, "count"),
        metric("acquires_per_batch", sizes.acquires as f64, "count"),
        metric("rounds_per_batch", sizes.rounds as f64, "count"),
    ];

    let mut layer: Vec<Metric> = Vec::new();
    if cfg.trace {
        let tb = &traced_batches;
        let p99 = |s: Series| med(tb, &|x| x.p99[s as usize]);
        let p50 = |s: Series| med(tb, &|x| x.p50[s as usize]);
        let ops: u64 = tb.iter().map(|x| x.ops).sum();
        let acquires = (tb.len() * sizes.acquires).max(1) as f64;
        layer.push(metric(
            "runtime.facade.enter_p99_us",
            p99(Series::Enter),
            "us",
        ));
        layer.push(metric(
            "runtime.facade.exit_p99_us",
            p99(Series::Exit),
            "us",
        ));
        layer.push(metric(
            "runtime.facade.ops_per_acquire",
            ops as f64 / acquires,
            "count",
        ));
        layer.push(metric("runtime.facade.new_us", p50(Series::New), "us"));
        layer.push(metric(
            "runtime.facade.handle_us",
            p50(Series::Handle),
            "us",
        ));
        layer.push(metric(
            "runtime.facade.propose_p99_us",
            p99(Series::Propose),
            "us",
        ));
        layer.push(metric(
            "runtime.facade.rename_p99_us",
            p99(Series::Rename),
            "us",
        ));
        layer.extend(driver.seconds("runtime.driver", tb.len()));
        // The traced batches time the same calls as the untraced ones and
        // run the profiled driver pass outside the timed phases, so this
        // reads about 1 here by construction.
        let traced_wall = med(tb, &|x| secs(x.wall_a + x.wall_b));
        layer.push(metric(
            "trace.overhead",
            traced_wall / wall.max(1e-12),
            "ratio",
        ));
    }
    Measured {
        outcome,
        e2e,
        layer,
        report,
    }
}
