//! E18 — wall-clock phase profiling of the E16 exploration workloads
//! and the runtime driver.
//!
//! `BENCH_explore.json` says *that* the mutex `m = 3, ℓ = 3` sweep costs
//! 121 s — this experiment says *where* the time goes. Each E16 workload
//! is explored with a [`Profiler`] attached: every engine worker drives
//! a phase timer (`step`/`canon`/`dedup`/`steal`/`idle`) and flushes its
//! per-phase self-time tree at exit. The same machinery profiles the
//! runtime [`Driver`] on real threads (`doorway`/`waiting`/`critical`,
//! with backoff windows nested as `…;waiting`), mapping the paper's §2
//! operations onto measured wall-clock.
//!
//! Self-times are *exhaustive* by construction — a worker is always in
//! exactly one phase between its first transition and its flush — so
//! the per-run **coverage** (total self-time over workers × wall-clock)
//! must account for most of the run. [`metrics`] exports it as
//! `<slug>_coverage` for every explorer run of at least
//! [`COVERAGE_MIN_WALL`], and CI floors it with `check bench-diff
//! --require coverage=0.7`. It cannot reach 1.0 exactly: the wall also
//! covers setup, final graph assembly and the table's teardown, which
//! are not worker self-time. The collapsed-stack export
//! ([`ProfiledRun::collapsed`]) is the `inferno`/speedscope flamegraph
//! format, one `run;worker;phase ns` line per frame.
//!
//! One more row checks that instrumentation is free when it is off:
//! [`driver_noop_speed`] times a solo Figure 1 mutex under a
//! [`NoopProbe`](anonreg_obs::NoopProbe) [`Driver`] against a
//! hand-rolled `resume` loop over the same memory, exported as
//! `driver_noop_speed` (hand-rolled ÷ driver, unit `x`) and floored by
//! CI with `check bench-diff --require noop_speed=0.5`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anonreg::mutex::{AnonMutex, MutexEvent};
use anonreg::{Machine, Pid, Step, View};
use anonreg_obs::{Phase, Profiler, WorkerProfile};
use anonreg_runtime::{AnonymousMemory, Backoff, Driver, PackedAtomicRegister};
use anonreg_sim::prelude::*;

use crate::benchjson::BenchMetric;
use crate::e16_symmetry::{mutex_ring_sim, symmetric_consensus_sim, Workload};
use crate::live::Instruments;
use crate::table::Table;

/// Explorer runs shorter than this export no coverage metric: thread
/// spawn and graph assembly dominate them, so their coverage says
/// nothing about the phase timers.
pub const COVERAGE_MIN_WALL: Duration = Duration::from_millis(20);

/// The event→phase map for the paper's mutual-exclusion events:
/// `Enter` begins the critical section, `Exit`/`Aborted` return the
/// process to its doorway/remainder code.
#[must_use]
pub fn mutex_phase(event: &MutexEvent) -> Option<Phase> {
    match event {
        MutexEvent::Enter => Some(Phase::Critical),
        MutexEvent::Exit | MutexEvent::Aborted => Some(Phase::Doorway),
    }
}

/// One profiled exploration of an E16 workload.
#[derive(Debug)]
pub struct ProfiledRun {
    /// A short identifier, e.g. `mutex_m2_l2_full_t1` for explorations
    /// or `driver_m3` for the runtime run.
    pub slug: String,
    /// Worker threads the run used (runtime: racing processes).
    pub threads: usize,
    /// States stored (0 for runtime runs).
    pub states: usize,
    /// Wall-clock of the instrumented section: the exploration call, or
    /// the driver race.
    pub wall: Duration,
    /// Every worker's flushed phase tree.
    pub profiles: Vec<WorkerProfile>,
}

impl ProfiledRun {
    /// Total self-time across all workers and frames.
    #[must_use]
    pub fn total_self_ns(&self) -> u64 {
        self.profiles.iter().map(WorkerProfile::total_self_ns).sum()
    }

    /// Self-time coverage of the measured wall-clock: total self-time
    /// divided by `workers × wall`. Near 1.0 when the phase timers
    /// account for (almost) everything the workers did.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let workers = self.profiles.len().max(1) as f64;
        self.total_self_ns() as f64 / (workers * self.wall.as_nanos().max(1) as f64)
    }

    /// Whether [`metrics`] exports this run's coverage: explorer runs
    /// (runtime runs store no states) of at least [`COVERAGE_MIN_WALL`].
    #[must_use]
    pub fn coverage_is_meaningful(&self) -> bool {
        self.states > 0 && self.wall >= COVERAGE_MIN_WALL
    }

    /// Per-stack self-time aggregated over workers, sorted by
    /// descending self-time.
    #[must_use]
    pub fn phase_breakdown(&self) -> Vec<(String, u64)> {
        let mut by_stack = std::collections::BTreeMap::<&str, u64>::new();
        for w in &self.profiles {
            for (stack, ns) in &w.frames {
                *by_stack.entry(stack).or_insert(0) += ns;
            }
        }
        let mut out: Vec<(String, u64)> = by_stack
            .into_iter()
            .map(|(s, ns)| (s.to_string(), ns))
            .collect();
        out.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
        out
    }

    /// Collapsed-stack flamegraph lines for this run, rooted at the run
    /// slug: `mutex_m2_l2_off_t1;worker0;step 12345`.
    #[must_use]
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for w in &self.profiles {
            for (stack, ns) in &w.frames {
                out.push_str(&format!("{};worker{};{stack} {ns}\n", self.slug, w.worker));
            }
        }
        out
    }
}

/// Explores one E16 workload under `mode` with the profiler attached.
/// The wall-clock stops when the exploration returns, before the
/// returned graph is dropped: freeing it is this harness's work, not
/// the explorer's, and no phase could account for it.
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`].
pub fn profile_workload(
    workload: Workload,
    mode: SymmetryMode,
    threads: usize,
    max_states: usize,
) -> Result<ProfiledRun, ExploreError> {
    let profiler = Arc::new(Profiler::new());
    let ins = Instruments {
        probe: None,
        profiler: Some(Arc::clone(&profiler)),
    };
    let start = Instant::now();
    let (states, wall) = match workload {
        Workload::MutexRing { m, procs } => {
            let graph =
                crate::live::explore(mutex_ring_sim(m, procs), mode, threads, max_states, &ins)?;
            (graph.state_count(), start.elapsed())
        }
        Workload::SymmetricConsensus { n, registers } => {
            let graph = crate::live::explore(
                symmetric_consensus_sim(n, registers),
                mode,
                threads,
                max_states,
                &ins,
            )?;
            (graph.state_count(), start.elapsed())
        }
    };
    Ok(ProfiledRun {
        slug: format!("{}_{}_t{}", workload.slug(), mode, threads),
        threads,
        states,
        wall,
        profiles: profiler.profiles(),
    })
}

/// Profiles the runtime driver: two real threads race the Figure 1
/// lock (`m` registers, second view rotated by 1, `entries` critical
/// sections each, randomized backoff on) with phase timers keyed by
/// pid. The resulting frames are the §2 protocol operations:
/// `doorway`, `critical`, and nested `…;waiting` backoff windows.
#[must_use]
pub fn profile_runtime(m: usize, entries: u64) -> ProfiledRun {
    let profiler = Arc::new(Profiler::new());
    let mem: AnonymousMemory<PackedAtomicRegister<u64>> = AnonymousMemory::new(m);
    let start = Instant::now();
    std::thread::scope(|s| {
        for (id, shift) in [(1u64, 0usize), (2, 1 % m)] {
            let view = mem.view(View::rotated(m, shift));
            let profiler = Arc::clone(&profiler);
            s.spawn(move || {
                let machine = AnonMutex::new(Pid::new(id).unwrap(), m)
                    .unwrap()
                    .with_cycles(entries);
                let mut driver = Driver::new(machine, view)
                    .with_backoff(Backoff {
                        min_spins: 1,
                        max_spins: 1 << 10,
                    })
                    .with_profiler(profiler, mutex_phase);
                driver.run_to_halt();
            });
        }
    });
    let wall = start.elapsed();
    ProfiledRun {
        slug: format!("driver_m{m}"),
        threads: 2,
        states: 0,
        wall,
        profiles: profiler.profiles(),
    }
}

/// Registers of the solo mutex [`driver_noop_speed`] times.
const SOLO_M: usize = 3;
/// Critical sections per timed solo run.
const SOLO_CYCLES: u64 = 2_000;
/// Timed runs per median.
const SOLO_SAMPLES: usize = 15;
/// Medians compared per variant; the best ratio rides out scheduler
/// noise.
const SOLO_ATTEMPTS: usize = 5;

fn solo_mutex() -> AnonMutex {
    AnonMutex::new(Pid::new(1).unwrap(), SOLO_M)
        .unwrap()
        .with_cycles(SOLO_CYCLES)
}

fn solo_memory() -> AnonymousMemory<PackedAtomicRegister<u64>> {
    AnonymousMemory::new(SOLO_M)
}

/// The floor: the machine over the view, no driver and no probe.
fn handrolled_solo() -> u64 {
    let mem = solo_memory();
    let view = mem.view(View::identity(SOLO_M));
    let mut machine = solo_mutex();
    let mut pending = None;
    let mut events = 0u64;
    loop {
        match machine.resume(pending.take()) {
            Step::Read(local) => pending = Some(view.read(local)),
            Step::Write(local, value) => view.write(local, value),
            Step::Event(_) => events += 1,
            Step::Halt => return events,
        }
    }
}

fn driver_noop_solo() -> u64 {
    let mem = solo_memory();
    let mut driver = Driver::new(solo_mutex(), mem.view(View::identity(SOLO_M)));
    driver.run_to_halt().len() as u64
}

fn median_solo_ns(run: fn() -> u64) -> u128 {
    let mut times: Vec<u128> = (0..SOLO_SAMPLES)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(run(), 2 * SOLO_CYCLES, "Enter + Exit per cycle");
            start.elapsed().as_nanos().max(1)
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// How fast the default no-op-probe [`Driver`] runs a solo Figure 1
/// mutex (`m = 3`, 2,000 cycles) relative to a hand-rolled `resume`
/// loop over the same atomic memory: hand-rolled median ÷ driver
/// median, over 15-sample medians, best of 5 attempts. 1.0 would mean
/// the driver adds nothing to the bare loop; it does count ops into its
/// report and collect the events it returns, and measures about 0.6 on
/// a 2-core x86-64 host. A probe hook that did not compile away would
/// add per-op work and push the ratio lower.
#[must_use]
pub fn driver_noop_speed() -> f64 {
    (0..SOLO_ATTEMPTS)
        .map(|_| {
            let floor = median_solo_ns(handrolled_solo);
            let noop = median_solo_ns(driver_noop_solo);
            floor as f64 / noop as f64
        })
        .fold(0.0, f64::max)
}

/// The default profiling sweep: both E16 workloads under `off` and
/// `full`, at `threads` threads — full-scale shapes, or for the quick
/// sweep the `m = 2` ring and the full-scale consensus space.
///
/// # Errors
///
/// Propagates [`ExploreError::StateLimitExceeded`].
pub fn rows(
    full_scale: bool,
    threads: usize,
    max_states: usize,
) -> Result<Vec<ProfiledRun>, ExploreError> {
    let workloads = if full_scale {
        Workload::full_scale().to_vec()
    } else {
        // At ~1 s a run, the full-scale consensus space gives the quick
        // sweep runs long enough to export coverage.
        vec![
            Workload::MutexRing { m: 2, procs: 2 },
            Workload::SymmetricConsensus { n: 3, registers: 2 },
        ]
    };
    let mut out = Vec::new();
    for workload in workloads {
        for mode in [SymmetryMode::Off, SymmetryMode::Full] {
            out.push(profile_workload(workload, mode, threads, max_states)?);
        }
    }
    Ok(out)
}

/// Renders the per-run phase breakdown table, then the no-op driver
/// speed ([`driver_noop_speed`]).
#[must_use]
pub fn render(runs: &[ProfiledRun], noop_speed: f64) -> String {
    let mut t = Table::new(vec!["run", "phase stack", "self ms", "share", "coverage"]);
    for run in runs {
        let total = run.total_self_ns().max(1);
        let mut first = true;
        for (stack, ns) in run.phase_breakdown() {
            t.row(vec![
                run.slug.clone(),
                stack,
                format!("{:.2}", ns as f64 / 1e6),
                format!("{:.1}%", ns as f64 * 100.0 / total as f64),
                if first {
                    format!("{:.1}%", run.coverage() * 100.0)
                } else {
                    String::new()
                },
            ]);
            first = false;
        }
    }
    format!(
        "{}\nno-op driver speed: {noop_speed:.2}x of the hand-rolled resume loop",
        t.render()
    )
}

/// Machine-readable metrics for the given runs (experiment `E18`):
/// per-stack self-milliseconds and wall-clock per run, coverage for
/// the runs where it is meaningful
/// ([`ProfiledRun::coverage_is_meaningful`]), and `driver_noop_speed`.
#[must_use]
pub fn metrics(runs: &[ProfiledRun], noop_speed: f64) -> Vec<BenchMetric> {
    let mut out = Vec::new();
    for run in runs {
        let family = if run.slug.starts_with("consensus") {
            "consensus"
        } else {
            "mutex"
        };
        for (stack, ns) in run.phase_breakdown() {
            out.push(BenchMetric::new(
                "E18",
                family,
                format!("{}_{}_ms", run.slug, stack.replace(';', ".")),
                ns as f64 / 1e6,
                "ms",
            ));
        }
        out.push(BenchMetric::new(
            "E18",
            family,
            format!("{}_wall_ms", run.slug),
            run.wall.as_secs_f64() * 1000.0,
            "ms",
        ));
        if run.coverage_is_meaningful() {
            out.push(BenchMetric::new(
                "E18",
                family,
                format!("{}_coverage", run.slug),
                run.coverage(),
                "x",
            ));
        }
    }
    out.push(BenchMetric::new(
        "E18",
        "mutex",
        "driver_noop_speed",
        noop_speed,
        "x",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_explore_profile_covers_the_wall_clock() {
        let run = profile_workload(
            Workload::SymmetricConsensus { n: 2, registers: 2 },
            SymmetryMode::Off,
            1,
            200_000,
        )
        .unwrap();
        assert_eq!(run.profiles.len(), 1, "parallelism 1 is one worker");
        assert!(run.states > 100);
        let stacks: Vec<&str> = run.profiles[0]
            .frames
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        assert!(stacks.contains(&"step"), "missing step in {stacks:?}");
        assert!(stacks.contains(&"dedup"), "missing dedup in {stacks:?}");
        // The timer runs from the first state popped to engine exit, so
        // self-times must account for (nearly) the whole exploration.
        assert!(
            run.coverage() > 0.8,
            "coverage {:.3} too low ({:?} wall, {} self ns)",
            run.coverage(),
            run.wall,
            run.total_self_ns()
        );
    }

    #[test]
    fn full_mode_profile_shows_canon_time() {
        let run = profile_workload(
            Workload::MutexRing { m: 2, procs: 2 },
            SymmetryMode::Full,
            1,
            200_000,
        )
        .unwrap();
        assert!(
            run.phase_breakdown().iter().any(|(s, _)| s == "canon"),
            "full-mode exploration must charge canon time: {:?}",
            run.phase_breakdown()
        );
    }

    #[test]
    fn parallel_profile_has_one_tree_per_worker() {
        let run = profile_workload(
            Workload::SymmetricConsensus { n: 2, registers: 2 },
            SymmetryMode::Off,
            2,
            200_000,
        )
        .unwrap();
        assert_eq!(run.profiles.len(), 2);
        let collapsed = run.collapsed();
        assert!(collapsed.contains("worker0;"));
        assert!(collapsed.contains("worker1;"));
        assert!(collapsed
            .lines()
            .all(|l| l.starts_with("consensus_n2_r2_off_t2;")));
    }

    /// Coverage is exported only for explorer runs of at least
    /// [`COVERAGE_MIN_WALL`]; the runtime row and short runs emit none.
    #[test]
    fn coverage_metric_only_for_long_explorer_runs() {
        let run = |slug: &str, states, wall| ProfiledRun {
            slug: slug.to_string(),
            threads: 2,
            states,
            wall,
            profiles: Vec::new(),
        };
        let runs = [
            run("mutex_m2_l2_off_t2", 40, Duration::from_millis(3)),
            run(
                "consensus_n2_r2_full_t2",
                60,
                COVERAGE_MIN_WALL - Duration::from_nanos(1),
            ),
            run("consensus_n3_r2_off_t2", 9_000, COVERAGE_MIN_WALL),
            run("driver_m3", 0, Duration::from_secs(1)),
        ];
        let coverage: Vec<String> = metrics(&runs, 1.0)
            .into_iter()
            .map(|m| m.name)
            .filter(|name| name.ends_with("_coverage"))
            .collect();
        assert_eq!(coverage, ["consensus_n3_r2_off_t2_coverage"]);
        // Every run still reports its wall-clock.
        let walls = metrics(&runs, 1.0)
            .iter()
            .filter(|m| m.name.ends_with("_wall_ms"))
            .count();
        assert_eq!(walls, runs.len());
    }

    #[test]
    fn runtime_profile_charges_protocol_phases() {
        let run = profile_runtime(3, 50);
        assert_eq!(run.profiles.len(), 2, "one tree per racing process");
        let breakdown = run.phase_breakdown();
        assert!(breakdown.iter().any(|(s, _)| s == "doorway"));
        assert!(breakdown.iter().any(|(s, _)| s == "critical"));
        let m = metrics(std::slice::from_ref(&run), 1.0);
        assert!(m.iter().any(|x| x.name == "driver_m3_wall_ms"));
        assert!(m.iter().all(|x| x.experiment == "E18"));
    }

    #[test]
    fn noop_speed_is_a_positive_ratio_exported_in_x() {
        let speed = driver_noop_speed();
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
        let m = metrics(&[], speed);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].name, "driver_noop_speed");
        assert_eq!(m[0].unit, "x");
        assert!(render(&[], speed).contains("no-op driver speed"));
    }

    /// One solo cycle costs 4m ops, as E10 bounds it on the simulator:
    /// m claim reads + m claim writes, then m view reads + m restore
    /// writes. Here the runtime driver's probe must count the same.
    #[test]
    fn probed_solo_driver_counts_2m_reads_and_2m_writes_per_cycle() {
        let probe = anonreg_obs::MemProbe::new();
        let mem = solo_memory();
        let mut driver =
            Driver::new(solo_mutex(), mem.view(View::identity(SOLO_M))).with_probe(&probe);
        assert_eq!(driver.run_to_halt().len() as u64, 2 * SOLO_CYCLES);
        let snap = probe.snapshot();
        let per_kind = 2 * SOLO_CYCLES * SOLO_M as u64;
        assert_eq!(snap.counter_total(anonreg_obs::Metric::RegRead), per_kind);
        assert_eq!(snap.counter_total(anonreg_obs::Metric::RegWrite), per_kind);
    }
}
