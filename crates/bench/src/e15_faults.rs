//! E15 — fault-injection stress sweeps across every algorithm family.
//!
//! The paper's §2 failure model lets a process crash at any point of its
//! protocol, leaving the shared registers exactly as written; the model
//! checker explores that adversary exhaustively for small configurations
//! (`Explorer::crashes(true)`), and this experiment drives the *same*
//! crash model on real threads at scale. Each seeded schedule draws a
//! [`FaultPlan`] (crashes, stalls, optional restarts), runs one
//! coordination object of the family under it, and checks the safety
//! invariant that must survive any crash pattern:
//!
//! * mutual exclusion (`mutex`, `hybrid`, `ordered`, `baseline`) — never
//!   two live processes in the critical section;
//! * consensus / election — agreement and validity among the deciders;
//! * renaming — names distinct and within `{1..n}`.
//!
//! Liveness is *not* asserted: a crash mid-doorway may legitimately block
//! the survivor forever (mutual exclusion does not tolerate crashes for
//! progress), so budget exhaustions are counted as `timeouts`, never as
//! violations. Every schedule is a pure function of its seed — a
//! violation report prints the seed, and
//! `check stress --family F --replay SEED` reruns exactly that schedule.
//!
//! The [`BROKEN`] pseudo-family is a deliberately unprotected doorway
//! (write one register, walk straight in) used to prove the harness can
//! detect violations at all; `check stress --broken` is expected to fail.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use anonreg::baseline::Peterson;
use anonreg::mutex::{MutexEvent, Section};
use anonreg::ordered::OrderedMutex;
use anonreg::{Machine, Pid, View};
use anonreg_model::rng::Rng64;
use anonreg_model::Step;
use anonreg_obs::{MemProbe, Metric, Probe as _};
use anonreg_runtime::{
    AnonymousConsensus, AnonymousElection, AnonymousMemory, AnonymousMutex, AnonymousRenaming,
    DriveOutcome, FaultCell, FaultKind, FaultPlan, FaultProfile, FaultyDriver, FaultyLockHandle,
    FaultyStep, HybridAnonymousMutex, LockMachine, PackedAtomicRegister, Register,
};

use crate::benchjson::BenchMetric;
use crate::table::Table;

/// The algorithm families swept by `check stress` (all expected clean).
pub const FAMILIES: [&str; 7] = [
    "mutex",
    "hybrid",
    "ordered",
    "baseline",
    "consensus",
    "election",
    "renaming",
];

/// The deliberately broken fixture family (expected to violate).
pub const BROKEN: &str = "broken";

/// Machine-step budget for one lock entry or exit attempt.
const LOCK_BUDGET: u64 = 200_000;

/// Critical-section entries each lock participant attempts.
const LOCK_CYCLES: u64 = 3;

/// Spin iterations a participant dwells inside the critical section,
/// widening the overlap window a safety violation would need.
const DWELL_SPINS: u64 = 64;

/// Machine-step budget for one one-shot protocol run (consensus,
/// election, renaming).
const ONESHOT_BUDGET: u64 = 2_000_000;

/// Read steps the broken doorway dwells in its "critical section" —
/// long enough that two live survivors overlap with near certainty.
const BROKEN_DWELL: u64 = 20_000;

/// Outcome of one seeded schedule of one family cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Crashes the plan scheduled (including points the run never reached).
    pub crashes: u64,
    /// Stalls the plan scheduled.
    pub stalls: u64,
    /// Restarts the plan scheduled.
    pub restarts: u64,
    /// Some process exhausted its step budget (liveness loss, not a
    /// safety violation — expected when a crash blocks a doorway).
    pub timed_out: bool,
    /// Human-readable description of a safety violation, if any.
    pub violation: Option<String>,
}

/// Aggregated sweep results for one family.
#[derive(Clone, Debug)]
pub struct Row {
    /// Family name (one of [`FAMILIES`] or [`BROKEN`]).
    pub family: &'static str,
    /// Seeded schedules run.
    pub schedules: u64,
    /// Total crashes scheduled across all plans.
    pub crashes: u64,
    /// Total stalls scheduled.
    pub stalls: u64,
    /// Total restarts scheduled.
    pub restarts: u64,
    /// Schedules that finished with neither a timeout nor a violation.
    pub completed: u64,
    /// Schedules in which some process ran out of step budget.
    pub timeouts: u64,
    /// Schedules that violated the family's safety invariant.
    pub violations: u64,
    /// Seed of the first violating schedule, for replay.
    pub first_violation_seed: Option<u64>,
}

/// The seed of schedule `index` in a sweep based on `base_seed` — the
/// exact value `check stress --replay` accepts.
#[must_use]
pub fn schedule_seed(base_seed: u64, index: u64) -> u64 {
    base_seed.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Runs one seeded schedule of `family` and reports what happened.
///
/// # Panics
///
/// Panics if `family` is not in [`FAMILIES`] and not [`BROKEN`].
#[must_use]
pub fn run_one(family: &str, seed: u64) -> CellReport {
    match family {
        "mutex" => mutex_cell(seed),
        "hybrid" => hybrid_cell(seed),
        "ordered" => ordered_cell(seed),
        "baseline" => baseline_cell(seed),
        "consensus" => consensus_cell(seed),
        "election" => election_cell(seed),
        "renaming" => renaming_cell(seed),
        _ if family == BROKEN => broken_cell(seed),
        other => panic!("unknown stress family {other:?}"),
    }
}

/// Sweeps `schedules` seeded schedules of one family.
#[must_use]
pub fn sweep(family: &'static str, base_seed: u64, schedules: u64) -> Row {
    sweep_with(family, base_seed, schedules, None, 0)
}

/// [`sweep`] with a live heartbeat: after every schedule the probe's
/// [`Metric::StressSchedules`] counter (keyed by `family_key`, the
/// family's index in the sweep) ticks, and [`Metric::StressViolations`]
/// ticks on violations — what `check stress --stream` snapshots.
#[must_use]
pub fn sweep_with(
    family: &'static str,
    base_seed: u64,
    schedules: u64,
    probe: Option<&MemProbe>,
    family_key: u64,
) -> Row {
    let mut row = Row {
        family,
        schedules,
        crashes: 0,
        stalls: 0,
        restarts: 0,
        completed: 0,
        timeouts: 0,
        violations: 0,
        first_violation_seed: None,
    };
    for index in 0..schedules {
        let seed = schedule_seed(base_seed, index);
        let report = run_one(family, seed);
        row.crashes += report.crashes;
        row.stalls += report.stalls;
        row.restarts += report.restarts;
        if report.timed_out {
            row.timeouts += 1;
        }
        if report.violation.is_some() {
            row.violations += 1;
            if row.first_violation_seed.is_none() {
                row.first_violation_seed = Some(seed);
            }
        } else if !report.timed_out {
            row.completed += 1;
        }
        if let Some(p) = probe {
            p.counter(Metric::StressSchedules, family_key, 1);
            if report.violation.is_some() {
                p.counter(Metric::StressViolations, family_key, 1);
            }
        }
    }
    row
}

/// Sweeps every clean family (the default `check stress` workload).
#[must_use]
pub fn rows(base_seed: u64, schedules: u64) -> Vec<Row> {
    FAMILIES
        .iter()
        .map(|&family| sweep(family, base_seed, schedules))
        .collect()
}

/// Renders the stress table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let mut t = Table::new(vec![
        "family",
        "schedules",
        "crashes",
        "stalls",
        "restarts",
        "completed",
        "timeouts",
        "violations",
        "first bad seed",
    ]);
    for r in rows {
        t.row(vec![
            r.family.to_string(),
            r.schedules.to_string(),
            r.crashes.to_string(),
            r.stalls.to_string(),
            r.restarts.to_string(),
            r.completed.to_string(),
            r.timeouts.to_string(),
            r.violations.to_string(),
            r.first_violation_seed
                .map_or_else(|| "-".to_string(), |s| s.to_string()),
        ]);
    }
    t.render()
}

/// Machine-readable metrics for the given rows (experiment `E15`).
#[must_use]
pub fn metrics(rows: &[Row]) -> Vec<BenchMetric> {
    let mut out = Vec::new();
    for r in rows {
        for (name, value) in [
            ("schedules", r.schedules),
            ("crashes", r.crashes),
            ("stalls", r.stalls),
            ("restarts", r.restarts),
            ("completed", r.completed),
            ("timeouts", r.timeouts),
            ("violations", r.violations),
        ] {
            out.push(BenchMetric::new(
                "E15",
                r.family,
                format!("{}_{name}", r.family),
                value as f64,
                "count",
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------------

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

/// How one participant's run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadEnd {
    Completed,
    Crashed,
    TimedOut,
}

/// Counts the fault points a plan schedules across `pids`.
fn plan_counts(plan: &FaultPlan, pids: &[Pid]) -> (u64, u64, u64) {
    let (mut crashes, mut stalls, mut restarts) = (0, 0, 0);
    for &p in pids {
        for point in plan.for_pid(p) {
            match point.kind {
                FaultKind::Crash => crashes += 1,
                FaultKind::Stall { .. } => stalls += 1,
                FaultKind::Restart => restarts += 1,
            }
        }
    }
    (crashes, stalls, restarts)
}

fn scheduled_crash(plan: &FaultPlan, p: Pid) -> bool {
    plan.for_pid(p)
        .iter()
        .any(|point| point.kind == FaultKind::Crash)
}

/// The common shape of every fault-injected lock participant: bounded
/// entry and bounded exit, both of which may observe a crash.
trait FaultyLock: Send {
    fn try_enter(&mut self, max_steps: u64) -> DriveOutcome;
    fn exit(&mut self, max_steps: u64) -> DriveOutcome;
}

impl<M: LockMachine> FaultyLock for FaultyLockHandle<M> {
    fn try_enter(&mut self, max_steps: u64) -> DriveOutcome {
        FaultyLockHandle::try_enter(self, max_steps)
    }
    fn exit(&mut self, max_steps: u64) -> DriveOutcome {
        FaultyLockHandle::exit(self, max_steps)
    }
}

/// A raw [`FaultyDriver`] over any mutex machine with a section map —
/// how the ordered and named-baseline families join the sweep without
/// dedicated facades.
struct RawLock<M: Machine, R> {
    driver: FaultyDriver<M, R>,
    section: fn(&M) -> Section,
}

impl<M, R> FaultyLock for RawLock<M, R>
where
    M: Machine,
    R: Register<M::Value> + Send + Sync,
{
    fn try_enter(&mut self, max_steps: u64) -> DriveOutcome {
        let section = self.section;
        self.driver
            .run_until_bounded(|m| section(m) == Section::Critical, max_steps)
    }
    fn exit(&mut self, max_steps: u64) -> DriveOutcome {
        let section = self.section;
        self.driver
            .run_until_bounded(|m| section(m) == Section::Remainder, max_steps)
    }
}

/// Drives a set of lock participants through [`LOCK_CYCLES`] critical
/// sections each, under one shared overlap monitor. The monitor counts
/// *live* occupants only: the count is raised after entry is granted and
/// lowered before the exit protocol starts, and a process that crashes
/// can only do so inside `try_enter`/`exit` (faults fire at machine
/// steps, never during the dwell spin), so a crashed process never
/// inflates the count — matching §2, where a crashed process is not in
/// its critical section.
fn lock_cell(locks: Vec<Box<dyn FaultyLock>>, plan: &FaultPlan, pids: &[Pid]) -> CellReport {
    let in_cs = AtomicUsize::new(0);
    let max_in_cs = AtomicUsize::new(0);
    let barrier = Barrier::new(locks.len());
    let ends: Vec<ThreadEnd> = std::thread::scope(|s| {
        let joins: Vec<_> = locks
            .into_iter()
            .map(|mut lock| {
                let (in_cs, max_in_cs, barrier) = (&in_cs, &max_in_cs, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut cycles = 0;
                    loop {
                        match lock.try_enter(LOCK_BUDGET) {
                            DriveOutcome::Satisfied => {}
                            DriveOutcome::Crashed => return ThreadEnd::Crashed,
                            DriveOutcome::Halted => return ThreadEnd::Completed,
                            DriveOutcome::OutOfBudget => return ThreadEnd::TimedOut,
                        }
                        let now = in_cs.fetch_add(1, Ordering::SeqCst) + 1;
                        max_in_cs.fetch_max(now, Ordering::SeqCst);
                        for _ in 0..DWELL_SPINS {
                            std::hint::spin_loop();
                        }
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        match lock.exit(LOCK_BUDGET) {
                            DriveOutcome::Satisfied | DriveOutcome::Halted => {
                                cycles += 1;
                                if cycles == LOCK_CYCLES {
                                    return ThreadEnd::Completed;
                                }
                            }
                            DriveOutcome::Crashed => return ThreadEnd::Crashed,
                            DriveOutcome::OutOfBudget => return ThreadEnd::TimedOut,
                        }
                    }
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("lock participant panicked"))
            .collect()
    });
    let overlap = max_in_cs.load(Ordering::SeqCst);
    let (crashes, stalls, restarts) = plan_counts(plan, pids);
    CellReport {
        crashes,
        stalls,
        restarts,
        timed_out: ends.contains(&ThreadEnd::TimedOut),
        violation: (overlap >= 2).then(|| {
            format!("mutual exclusion violated: {overlap} live processes in the critical section")
        }),
    }
}

// ---------------------------------------------------------------------------
// Family cells
// ---------------------------------------------------------------------------

fn mutex_cell(seed: u64) -> CellReport {
    let pids = [pid(1), pid(2)];
    let plan = FaultPlan::random(seed, &pids, &FaultProfile::default());
    let mutex = AnonymousMutex::new(5).expect("5 is odd and >= 3");
    let locks: Vec<Box<dyn FaultyLock>> = pids
        .iter()
        .map(|&p| {
            Box::new(mutex.faulty_handle(p, &plan).expect("fresh pid and slot"))
                as Box<dyn FaultyLock>
        })
        .collect();
    lock_cell(locks, &plan, &pids)
}

fn hybrid_cell(seed: u64) -> CellReport {
    let pids = [pid(1), pid(2)];
    let plan = FaultPlan::random(seed, &pids, &FaultProfile::default());
    let mutex = HybridAnonymousMutex::new(2).expect("any m >= 2 works");
    let locks: Vec<Box<dyn FaultyLock>> = pids
        .iter()
        .map(|&p| {
            Box::new(mutex.faulty_handle(p, &plan).expect("fresh pid and slot"))
                as Box<dyn FaultyLock>
        })
        .collect();
    lock_cell(locks, &plan, &pids)
}

fn ordered_cell(seed: u64) -> CellReport {
    let pids = [pid(1), pid(2)];
    let plan = FaultPlan::random(seed, &pids, &FaultProfile::default());
    let m = 4; // even m: legal in the arbitrary-comparisons model (E13)
    let memory: Arc<AnonymousMemory<PackedAtomicRegister<u64>>> = Arc::new(AnonymousMemory::new(m));
    let cell = Arc::new(FaultCell::new());
    let locks: Vec<Box<dyn FaultyLock>> = pids
        .iter()
        .map(|&p| {
            let memory = Arc::clone(&memory);
            let driver = FaultyDriver::new(
                p,
                move |incarnation| {
                    let machine = OrderedMutex::new(p, m)
                        .expect("m >= 2")
                        .with_cycles(LOCK_CYCLES);
                    let mut rng = Rng64::seed_from_u64(
                        seed ^ p.get().wrapping_mul(0x9e37_79b9) ^ incarnation,
                    );
                    (machine, memory.random_view(&mut rng))
                },
                &plan,
                Arc::clone(&cell),
            );
            Box::new(RawLock {
                driver,
                section: OrderedMutex::section,
            }) as Box<dyn FaultyLock>
        })
        .collect();
    lock_cell(locks, &plan, &pids)
}

fn baseline_cell(seed: u64) -> CellReport {
    let pids = [pid(1), pid(2)];
    let plan = FaultPlan::random(seed, &pids, &FaultProfile::default());
    let memory: Arc<AnonymousMemory<PackedAtomicRegister<u64>>> = Arc::new(AnonymousMemory::new(3));
    let cell = Arc::new(FaultCell::new());
    let locks: Vec<Box<dyn FaultyLock>> = pids
        .iter()
        .enumerate()
        .map(|(slot, &p)| {
            let memory = Arc::clone(&memory);
            let driver = FaultyDriver::new(
                p,
                // Named baseline: every incarnation sees the identity view.
                move |_incarnation| {
                    let machine = Peterson::new(p, slot)
                        .expect("slot is 0 or 1")
                        .with_cycles(LOCK_CYCLES);
                    (machine, memory.view(View::identity(3)))
                },
                &plan,
                Arc::clone(&cell),
            );
            Box::new(RawLock {
                driver,
                section: Peterson::section,
            }) as Box<dyn FaultyLock>
        })
        .collect();
    lock_cell(locks, &plan, &pids)
}

fn consensus_cell(seed: u64) -> CellReport {
    let pids = [pid(1), pid(2), pid(3)];
    let profile = FaultProfile {
        restarts: true, // safe for consensus: a restart re-proposes itself
        ..FaultProfile::default()
    };
    let plan = FaultPlan::random(seed, &pids, &profile);
    let consensus = AnonymousConsensus::new(pids.len()).expect("n > 0");
    let input_of = |p: Pid| p.get() * 7;
    let results: Vec<(Pid, Option<u64>)> = std::thread::scope(|s| {
        let joins: Vec<_> = pids
            .iter()
            .map(|&p| {
                let handle = consensus.handle(p).expect("fresh pid");
                let plan = &plan;
                s.spawn(move || {
                    let decided = handle
                        .propose_with_faults(input_of(p), plan, ONESHOT_BUDGET)
                        .expect("input is nonzero and narrow");
                    (p, decided)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("proposer panicked"))
            .collect()
    });
    let decided: Vec<u64> = results.iter().filter_map(|&(_, d)| d).collect();
    let violation = if decided.windows(2).any(|w| w[0] != w[1]) {
        Some(format!("agreement violated: decisions {decided:?}"))
    } else if let Some(&value) = decided.first() {
        (!pids.iter().any(|&p| input_of(p) == value))
            .then(|| format!("validity violated: decision {value} was never proposed"))
    } else {
        None
    };
    oneshot_report(&plan, &pids, &results, violation)
}

fn election_cell(seed: u64) -> CellReport {
    let pids = [pid(1), pid(2), pid(3)];
    let profile = FaultProfile {
        restarts: true, // election is consensus on identifiers
        ..FaultProfile::default()
    };
    let plan = FaultPlan::random(seed, &pids, &profile);
    let election = AnonymousElection::new(pids.len()).expect("n > 0");
    let results: Vec<(Pid, Option<Pid>)> = std::thread::scope(|s| {
        let joins: Vec<_> = pids
            .iter()
            .map(|&p| {
                let handle = election.handle(p).expect("fresh pid");
                let plan = &plan;
                s.spawn(move || {
                    let leader = handle
                        .elect_with_faults(plan, ONESHOT_BUDGET)
                        .expect("pid is narrow");
                    (p, leader)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("participant panicked"))
            .collect()
    });
    let leaders: Vec<Pid> = results.iter().filter_map(|&(_, l)| l).collect();
    let violation = if leaders.windows(2).any(|w| w[0] != w[1]) {
        Some(format!("agreement violated: leaders {leaders:?}"))
    } else if let Some(&leader) = leaders.first() {
        (!pids.contains(&leader))
            .then(|| format!("validity violated: leader {leader:?} is not a participant"))
    } else {
        None
    };
    oneshot_report(&plan, &pids, &results, violation)
}

fn renaming_cell(seed: u64) -> CellReport {
    let pids = [pid(1), pid(2), pid(3)];
    // Crashes and stalls only: `acquire_with_faults` refuses restarts,
    // since a restarted incarnation could claim a second name.
    let plan = FaultPlan::random(seed, &pids, &FaultProfile::default());
    let renaming = AnonymousRenaming::new(pids.len()).expect("n > 0");
    let results: Vec<(Pid, Option<u32>)> = std::thread::scope(|s| {
        let joins: Vec<_> = pids
            .iter()
            .map(|&p| {
                let handle = renaming.handle(p).expect("fresh pid");
                let plan = &plan;
                s.spawn(move || {
                    let name = handle
                        .acquire_with_faults(plan, ONESHOT_BUDGET)
                        .expect("the default profile schedules no restarts");
                    (p, name)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("participant panicked"))
            .collect()
    });
    let mut names: Vec<u32> = results.iter().filter_map(|&(_, n)| n).collect();
    names.sort_unstable();
    let violation = if names.windows(2).any(|w| w[0] == w[1]) {
        Some(format!("uniqueness violated: names {names:?}"))
    } else {
        names
            .iter()
            .find(|&&n| n == 0 || n as usize > pids.len())
            .map(|&n| format!("range violated: name {n} outside 1..={}", pids.len()))
    };
    oneshot_report(&plan, &pids, &results, violation)
}

/// Builds the report for a one-shot cell: a `None` result from a pid the
/// plan scheduled to crash is the expected crash; a `None` from any other
/// pid means the step budget ran out.
fn oneshot_report<T>(
    plan: &FaultPlan,
    pids: &[Pid],
    results: &[(Pid, Option<T>)],
    violation: Option<String>,
) -> CellReport {
    let timed_out = results
        .iter()
        .any(|(p, r)| r.is_none() && !scheduled_crash(plan, *p));
    let (crashes, stalls, restarts) = plan_counts(plan, pids);
    CellReport {
        crashes,
        stalls,
        restarts,
        timed_out,
        violation,
    }
}

// ---------------------------------------------------------------------------
// The deliberately broken fixture
// ---------------------------------------------------------------------------

/// A doorway with no doorway: write one register, announce `Enter`, dwell,
/// announce `Exit`, halt. Mutual exclusion fails as soon as two live
/// processes run concurrently — which the harness must detect, seed in
/// hand, or its clean verdicts mean nothing.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct BrokenDoorway {
    pid: Pid,
    step: u64,
}

impl Machine for BrokenDoorway {
    type Value = u64;
    type Event = MutexEvent;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn register_count(&self) -> usize {
        1
    }

    fn resume(&mut self, _read: Option<u64>) -> Step<u64, MutexEvent> {
        let step = self.step;
        self.step += 1;
        match step {
            0 => Step::Write(0, self.pid.get()),
            1 => Step::Event(MutexEvent::Enter),
            s if s < 2 + BROKEN_DWELL => Step::Read(0),
            s if s == 2 + BROKEN_DWELL => Step::Event(MutexEvent::Exit),
            _ => Step::Halt,
        }
    }
}

/// Three processes, at most one scheduled crash — at least two live
/// survivors walk straight into the unprotected section together.
fn broken_cell(seed: u64) -> CellReport {
    let pids = [pid(1), pid(2), pid(3)];
    let plan = FaultPlan::random(seed, &pids, &FaultProfile::default());
    let memory: Arc<AnonymousMemory<PackedAtomicRegister<u64>>> = Arc::new(AnonymousMemory::new(1));
    let cell = Arc::new(FaultCell::new());
    let in_cs = AtomicUsize::new(0);
    let max_in_cs = AtomicUsize::new(0);
    let barrier = Barrier::new(pids.len());
    let ends: Vec<ThreadEnd> = std::thread::scope(|s| {
        let joins: Vec<_> = pids
            .iter()
            .map(|&p| {
                let memory = Arc::clone(&memory);
                let mut driver = FaultyDriver::new(
                    p,
                    move |_incarnation| {
                        (
                            BrokenDoorway { pid: p, step: 0 },
                            memory.view(View::identity(1)),
                        )
                    },
                    &plan,
                    Arc::clone(&cell),
                );
                let (in_cs, max_in_cs, barrier) = (&in_cs, &max_in_cs, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut entered = false;
                    loop {
                        match driver.advance() {
                            FaultyStep::Op => {}
                            FaultyStep::Event(MutexEvent::Enter) => {
                                entered = true;
                                let now = in_cs.fetch_add(1, Ordering::SeqCst) + 1;
                                max_in_cs.fetch_max(now, Ordering::SeqCst);
                            }
                            FaultyStep::Event(MutexEvent::Exit) => {
                                entered = false;
                                in_cs.fetch_sub(1, Ordering::SeqCst);
                            }
                            FaultyStep::Event(MutexEvent::Aborted) => {}
                            FaultyStep::Halted => return ThreadEnd::Completed,
                            FaultyStep::Crashed => {
                                // A §2-crashed process is not in its
                                // critical section; keep the live count
                                // honest.
                                if entered {
                                    in_cs.fetch_sub(1, Ordering::SeqCst);
                                }
                                return ThreadEnd::Crashed;
                            }
                        }
                    }
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("broken participant panicked"))
            .collect()
    });
    let overlap = max_in_cs.load(Ordering::SeqCst);
    let (crashes, stalls, restarts) = plan_counts(&plan, &pids);
    CellReport {
        crashes,
        stalls,
        restarts,
        timed_out: ends.contains(&ThreadEnd::TimedOut),
        violation: (overlap >= 2).then(|| {
            format!("mutual exclusion violated: {overlap} live processes in the critical section")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_families_survive_a_short_sweep() {
        for family in FAMILIES {
            let row = sweep(family, 0xE15, 4);
            assert_eq!(row.schedules, 4, "{family}");
            assert_eq!(
                row.violations, 0,
                "{family} violated its safety invariant (seed {:?})",
                row.first_violation_seed
            );
        }
    }

    #[test]
    fn broken_fixture_violates_and_the_seed_replays() {
        let mut found = None;
        for index in 0..32 {
            let seed = schedule_seed(0xBAD, index);
            if run_one(BROKEN, seed).violation.is_some() {
                found = Some(seed);
                break;
            }
        }
        let seed = found.expect("an unprotected doorway must violate within 32 schedules");
        let replay = run_one(BROKEN, seed);
        assert!(
            replay.violation.is_some(),
            "replaying seed {seed} must reproduce the violation"
        );
    }

    #[test]
    fn seeds_are_deterministic_per_schedule() {
        for family in ["mutex", "consensus"] {
            let seed = schedule_seed(7, 3);
            let a = run_one(family, seed);
            let b = run_one(family, seed);
            assert_eq!(
                (a.crashes, a.stalls, a.restarts),
                (b.crashes, b.stalls, b.restarts),
                "{family}: the drawn plan must be a pure function of the seed"
            );
        }
    }

    #[test]
    fn render_and_metrics_cover_all_rows() {
        let rows = vec![sweep("mutex", 1, 2), sweep("renaming", 1, 2)];
        let table = render(&rows);
        assert!(table.contains("violations"));
        assert!(table.contains("mutex"));
        let metrics = metrics(&rows);
        assert_eq!(metrics.len(), 7 * rows.len());
        assert!(metrics.iter().all(|m| m.experiment == "E15"));
    }
}
