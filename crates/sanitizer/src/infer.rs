//! Ordering inference: re-execute each algorithm family under
//! systematically weakened orderings and certify the minimal plan.
//!
//! For every family the pass walks the three site classes in
//! [`Site::ALL`] order (reads, then claim writes, then clear writes) and,
//! for each, climbs the site's ladder from weakest to strongest
//! (`Relaxed → Acquire/Release → SeqCst`), keeping the other sites at
//! their current plan. A rung is **accepted** when a sweep of seeded
//! schedules — half of them under seeded [`FaultPlan`]
//! crash/stall/restart schedules — produces neither a missing
//! happens-before edge nor a safety violation; otherwise the rung is
//! **rejected** with the seed and witness that killed it, and the next
//! stronger rung is tried. `SeqCst` tops every ladder, so a correct
//! family always certifies.
//!
//! The result is one [`Certificate`] per site: an empirical,
//! deterministic, replayable justification (same base seed ⇒ same
//! certificates) for running that site at the certified ordering *within
//! the sanitizer's observation model* — see the caveats on
//! [`crate::register`]. Timeouts are counted but never treated as
//! violations, mirroring the E15 policy: a crash mid-doorway may
//! legitimately block a mutex survivor forever.

use std::collections::HashSet;
use std::sync::atomic::Ordering;

use anonreg::baseline::Peterson;
use anonreg::consensus::{AnonConsensus, ConsensusEvent};
use anonreg::election::{AnonElection, ElectionEvent};
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::{AnonMutex, MutexEvent};
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::{AnonRenaming, RenamingEvent};
use anonreg_model::rng::Rng64;
use anonreg_model::{Machine, Pid, View};
use anonreg_runtime::{FaultPlan, FaultProfile};

use crate::exec::{ExecEventKind, ExecReport, Factory, SanitizedExec};
use crate::plan::{OrderingPlan, Site};
use crate::register::SanitizerConfig;
use crate::report::{Certificate, OrderingViolation};

/// The algorithm families the inference pass certifies — the same seven
/// `check stress` sweeps.
pub const FAMILIES: [&str; 7] = [
    "mutex",
    "hybrid",
    "ordered",
    "baseline",
    "consensus",
    "election",
    "renaming",
];

/// Scheduler-step budget for one lock-family run.
const LOCK_BUDGET: u64 = 60_000;

/// Scheduler-step budget for one one-shot run (consensus, election,
/// renaming).
const ONESHOT_BUDGET: u64 = 120_000;

/// Critical-section entries each lock participant attempts.
const LOCK_CYCLES: u64 = 2;

/// The seed of schedule `index` in a sweep based on `base_seed` — the
/// same derivation `check stress` uses, so a printed seed replays with
/// `check sanitize --family F --replay SEED`.
#[must_use]
pub fn schedule_seed(base_seed: u64, index: u64) -> u64 {
    base_seed.wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Whether schedule `index` of a sweep runs under an injected fault plan
/// (every odd schedule does).
#[must_use]
pub fn schedule_has_faults(index: u64) -> bool {
    index % 2 == 1
}

/// Outcome of one seeded sanitized run of one family.
#[derive(Clone, Debug)]
pub struct FamilyOutcome {
    /// Missing happens-before edges flagged.
    pub ordering_violations: u64,
    /// The first flagged violation, witness included.
    pub first_violation: Option<OrderingViolation>,
    /// Human-readable safety violation (mutual exclusion / agreement /
    /// validity / uniqueness), if any.
    pub safety: Option<String>,
    /// The step budget ran out (liveness loss, never a violation).
    pub timed_out: bool,
    /// Synchronizes-with edges established.
    pub hb_edges: u64,
    /// Loads that returned a non-newest store.
    pub stale_reads: u64,
    /// Scheduler steps consumed.
    pub steps: u64,
}

impl FamilyOutcome {
    /// Neither a missing edge nor a safety violation (timeouts allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.ordering_violations == 0 && self.safety.is_none()
    }
}

/// Aggregated result of sweeping one plan over seeded schedules.
#[derive(Clone, Debug)]
pub struct PlanSweep {
    /// Total missing-edge violations across the sweep.
    pub violations: u64,
    /// Seed and witness of the first flagged violation.
    pub first_violation: Option<(u64, OrderingViolation)>,
    /// Seed and description of the first safety violation.
    pub safety: Option<(u64, String)>,
    /// Total synchronizes-with edges.
    pub hb_edges: u64,
    /// Total stale reads.
    pub stale_reads: u64,
    /// Schedules that exhausted their step budget.
    pub timeouts: u64,
}

impl PlanSweep {
    /// No rung-rejecting observation anywhere in the sweep.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations == 0 && self.safety.is_none()
    }
}

/// A ladder rung the inference pass tried and rejected.
#[derive(Clone, Debug)]
pub struct RejectedRung {
    /// The site being weakened.
    pub site: Site,
    /// The rejected ordering.
    pub ordering: Ordering,
    /// Why (with the seed that replays it).
    pub reason: String,
}

/// The inference pass's verdict for one family.
#[derive(Clone, Debug)]
pub struct FamilyCertification {
    /// The family certified.
    pub family: &'static str,
    /// The accepted minimal plan.
    pub plan: OrderingPlan,
    /// One certificate per site at the accepted plan.
    pub certificates: Vec<Certificate>,
    /// `true` when the final verification sweep at the accepted plan was
    /// clean (always, for a correct family — `SeqCst` tops every ladder).
    pub clean: bool,
    /// Violations in the final verification sweep (0 when `clean`).
    pub violations_at_plan: u64,
    /// Synchronizes-with edges in the final sweep.
    pub hb_edges: u64,
    /// Stale reads in the final sweep.
    pub stale_reads: u64,
    /// Budget exhaustions in the final sweep.
    pub timeouts: u64,
    /// Schedules per sweep.
    pub schedules: u64,
    /// Base seed of every sweep.
    pub base_seed: u64,
    /// The rungs rejected on the way down, in trial order.
    pub rejected: Vec<RejectedRung>,
}

/// Runs one seeded sanitized schedule of `family` under `plan`.
///
/// # Panics
///
/// Panics if `family` is not in [`FAMILIES`].
#[must_use]
pub fn run_family(family: &str, plan: OrderingPlan, seed: u64, faults: bool) -> FamilyOutcome {
    match family {
        "mutex" => mutex_cell(plan, seed, faults),
        "hybrid" => hybrid_cell(plan, seed, faults),
        "ordered" => ordered_cell(plan, seed, faults),
        "baseline" => baseline_cell(plan, seed, faults),
        "consensus" => consensus_cell(plan, seed, faults),
        "election" => election_cell(plan, seed, faults),
        "renaming" => renaming_cell(plan, seed, faults),
        other => panic!("unknown sanitizer family {other:?}"),
    }
}

/// Sweeps `schedules` seeded schedules of `family` under `plan`, odd
/// indices under injected faults.
#[must_use]
pub fn sweep_plan(family: &str, plan: OrderingPlan, base_seed: u64, schedules: u64) -> PlanSweep {
    let mut sweep = PlanSweep {
        violations: 0,
        first_violation: None,
        safety: None,
        hb_edges: 0,
        stale_reads: 0,
        timeouts: 0,
    };
    for index in 0..schedules {
        let seed = schedule_seed(base_seed, index);
        let outcome = run_family(family, plan, seed, schedule_has_faults(index));
        sweep.violations += outcome.ordering_violations;
        if sweep.first_violation.is_none() {
            if let Some(v) = outcome.first_violation {
                sweep.first_violation = Some((seed, v));
            }
        }
        if sweep.safety.is_none() {
            if let Some(s) = outcome.safety {
                sweep.safety = Some((seed, s));
            }
        }
        sweep.hb_edges += outcome.hb_edges;
        sweep.stale_reads += outcome.stale_reads;
        if outcome.timed_out {
            sweep.timeouts += 1;
        }
    }
    sweep
}

/// Certifies the minimal per-site orderings for `family`: greedy descent,
/// one site at a time in [`Site::ALL`] order, each site's ladder climbed
/// weakest-first, followed by a verification sweep at the accepted plan.
///
/// Deterministic in `(family, base_seed, schedules)` — re-running
/// re-derives byte-identical certificates.
#[must_use]
pub fn certify_family(family: &'static str, base_seed: u64, schedules: u64) -> FamilyCertification {
    let mut plan = OrderingPlan::seq_cst();
    let mut rejected = Vec::new();
    for site in Site::ALL {
        for ordering in site.ladder() {
            let candidate = plan.with_site(site, ordering);
            let sweep = sweep_plan(family, candidate, base_seed, schedules);
            if sweep.is_clean() {
                plan = candidate;
                break;
            }
            let reason = match (&sweep.first_violation, &sweep.safety) {
                (Some((seed, v)), _) => format!(
                    "{} (p{} read r{}@{:?} of p{}'s {:?} store, seed {seed})",
                    v.kind.name(),
                    v.reader,
                    v.register,
                    v.read_ordering,
                    v.writer,
                    v.write_ordering,
                ),
                (None, Some((seed, s))) => format!("safety: {s} (seed {seed})"),
                (None, None) => unreachable!("unclean sweep carries a reason"),
            };
            rejected.push(RejectedRung {
                site,
                ordering,
                reason,
            });
        }
    }
    let verify = sweep_plan(family, plan, base_seed, schedules);
    let certificates = Site::ALL
        .iter()
        .map(|&site| Certificate {
            id: Certificate::id_for(family, site),
            family,
            site,
            ordering: plan.of(site),
            schedules,
            base_seed,
        })
        .collect();
    FamilyCertification {
        family,
        plan,
        certificates,
        clean: verify.is_clean(),
        violations_at_plan: verify.violations,
        hb_edges: verify.hb_edges,
        stale_reads: verify.stale_reads,
        timeouts: verify.timeouts,
        schedules,
        base_seed,
        rejected,
    }
}

/// The two *structural* runtime certificates `check sanitize` prints
/// alongside the per-family ones: relaxed sites in `anonreg-runtime`
/// whose justification is architectural (the value never feeds algorithm
/// state) rather than a family sweep. The code sites cite these IDs.
#[must_use]
pub fn runtime_site_notes() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "ORD-RT-PEEK-001",
            "Register::peek / PackedAtomicRegister::peek (Relaxed load): backoff spin-loop \
             hint only — the peeked value decides when to re-read, never what the machine \
             observes; every value the machine consumes still goes through Register::read",
        ),
        (
            "ORD-RT-HANDLE-002",
            "lock handle-slot claim/release (AcqRel/Acquire compare-exchange loop that \
             never lifts the count past the cap / Release fetch_sub): a pure occupancy \
             counter — the slot's acquire/release pairing orders handle reuse, and no \
             register data is published through it",
        ),
    ]
}

/// Structural certificates for the explorer's lock-free dedup
/// substrate (`anonreg-sim`'s `explore/dedup.rs` and `explore/par.rs`).
/// Like [`runtime_site_notes`] these are architectural arguments, not
/// family sweeps: each justifies why an ordering weaker than `SeqCst` is
/// already minimal at its site. The code sites cite these IDs.
#[must_use]
pub fn explorer_site_notes() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "ORD-DEDUP-CLAIM-001",
            "FpTable slot claim (Relaxed/Relaxed compare_exchange on fp): the CAS transfers \
             slot *ownership* only, which its atomicity alone guarantees — no payload is \
             read through fp, so the claim needs no happens-before edge; all code/location \
             publication synchronises through meta",
        ),
        (
            "ORD-DEDUP-META-002",
            "FpTable meta publish (Release store) / probe (Acquire load): the table's one \
             true synchronisation edge, the Arc-style publication idiom — the claimant \
             stores meta only after the canonical code (arena slot or spill location) is \
             in place, and a reader that acquires a published meta therefore sees the code",
        ),
        (
            "ORD-DEDUP-SPIN-003",
            "FpTable publication-wait spin (Acquire loads of meta with periodic abort \
             checks): bounded by the claim-to-publish window because claimants always \
             publish — the state-limit path publishes a sentinel instead of an id — so a \
             spinning reader can only wait on live progress or observe the abort flag",
        ),
        (
            "ORD-EXP-PENDING-005",
            "parallel explorer pending counter (Relaxed fetch_add/fetch_sub/load): on this \
             single atomic, every child's increment precedes its parent's decrement in the \
             incrementing thread's program order, so coherence of the counter's \
             modification order alone guarantees an observed zero means the frontier is \
             truly drained — no cross-variable ordering is consumed",
        ),
        (
            "ORD-DEDUP-FLUSH-006",
            "SpillStore flushed watermark (Release store after write_all_at / Acquire \
             load before read_at): the writer advances the watermark only once the bytes \
             are durably written, so a reader that acquires a covering watermark may \
             read_at the range; codes not yet covered fall back to fingerprint-trust and \
             are counted dedup_unverified",
        ),
        (
            "ORD-EXP-ABORT-007",
            "parallel explorer abort flag (Relaxed store/load): advisory teardown signal \
             only — no data is published through it, the authoritative error is decided \
             on the main thread after the worker joins, and finite-time visibility \
             bounds the overshoot to a handful of extra expansions",
        ),
        (
            "ORD-DEDUP-GROW-008",
            "FpTable claim budget (Relaxed fetch_add / fetch_sub on claims): a pure \
             admission counter — the coherent modification order of this one atomic \
             alone bounds the claimed-or-claiming slots of a table generation by its \
             budget; no payload is read through it, and the doubling that resets the \
             budget synchronises through the table's RwLock (probers hold a read guard \
             across each intern batch, the rehash runs under the write guard)",
        ),
    ]
}

// ---------------------------------------------------------------------------
// Family cells
// ---------------------------------------------------------------------------

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

/// Per-incarnation view RNG: a pure function of the run seed, the pid and
/// the incarnation, so restarts mint fresh-but-replayable permutations.
fn view_rng(seed: u64, id: u64, incarnation: u64) -> Rng64 {
    Rng64::seed_from_u64(
        seed ^ id.wrapping_mul(0x9e37_79b9) ^ incarnation.wrapping_mul(0x5851_f42d_4c95_7f2d),
    )
}

fn fault_plan(seed: u64, pids: &[Pid], restarts: bool) -> FaultPlan {
    let profile = FaultProfile {
        restarts,
        ..FaultProfile::default()
    };
    FaultPlan::random(seed, pids, &profile)
}

fn run_exec<M: Machine>(
    seed: u64,
    m: usize,
    plan: OrderingPlan,
    factories: Vec<Factory<M>>,
    faults: Option<&FaultPlan>,
    budget: u64,
) -> ExecReport<M::Event> {
    let mut exec = SanitizedExec::new(seed, m, SanitizerConfig::default(), plan, factories);
    if let Some(faults) = faults {
        exec = exec.with_fault_plan(faults);
    }
    exec.run(budget)
}

fn outcome<E>(report: ExecReport<E>, safety: Option<String>) -> FamilyOutcome {
    FamilyOutcome {
        ordering_violations: report.snapshot.violation_count,
        first_violation: report.snapshot.violations.first().cloned(),
        safety,
        timed_out: report.timed_out,
        hb_edges: report.snapshot.hb_edges,
        stale_reads: report.snapshot.stale_reads,
        steps: report.steps,
    }
}

/// Mutual-exclusion monitor over the event log: a crashed or restarted
/// occupant leaves the critical section (§2: a crashed process is not in
/// its critical section).
fn mutex_safety(report: &ExecReport<MutexEvent>) -> Option<String> {
    let mut in_cs: HashSet<usize> = HashSet::new();
    for entry in &report.events {
        match &entry.kind {
            ExecEventKind::Event(MutexEvent::Enter) => {
                if !in_cs.is_empty() {
                    let mut inside: Vec<usize> = in_cs.iter().copied().collect();
                    inside.push(entry.slot);
                    inside.sort_unstable();
                    return Some(format!(
                        "mutual exclusion violated: slots {inside:?} in the critical section \
                         at step {}",
                        entry.step
                    ));
                }
                in_cs.insert(entry.slot);
            }
            ExecEventKind::Event(MutexEvent::Exit | MutexEvent::Aborted)
            | ExecEventKind::Crashed
            | ExecEventKind::Restarted => {
                in_cs.remove(&entry.slot);
            }
            ExecEventKind::Stalled => {}
        }
    }
    None
}

fn mutex_cell(plan: OrderingPlan, seed: u64, faults: bool) -> FamilyOutcome {
    let pids = [pid(1), pid(2)];
    let m = 3;
    let factories = pids
        .iter()
        .map(|&p| {
            let f: Factory<AnonMutex> = Box::new(move |incarnation| {
                let mut rng = view_rng(seed, p.get(), incarnation);
                (
                    AnonMutex::new(p, m)
                        .expect("m >= 3 odd")
                        .with_cycles(LOCK_CYCLES),
                    View::from_perm(rng.permutation(m)).expect("permutation is a view"),
                )
            });
            f
        })
        .collect();
    let fp = faults.then(|| fault_plan(seed, &pids, false));
    let report = run_exec(seed, m, plan, factories, fp.as_ref(), LOCK_BUDGET);
    let safety = mutex_safety(&report);
    outcome(report, safety)
}

fn hybrid_cell(plan: OrderingPlan, seed: u64, faults: bool) -> FamilyOutcome {
    let pids = [pid(1), pid(2)];
    let m_anon = 2;
    let factories = pids
        .iter()
        .map(|&p| {
            let f: Factory<HybridMutex> = Box::new(move |incarnation| {
                let mut rng = view_rng(seed, p.get(), incarnation);
                (
                    HybridMutex::new(p, m_anon)
                        .expect("m >= 2")
                        .with_cycles(LOCK_CYCLES),
                    named_view(m_anon, rng.permutation(m_anon)).expect("valid anon perm"),
                )
            });
            f
        })
        .collect();
    let fp = faults.then(|| fault_plan(seed, &pids, false));
    let report = run_exec(seed, m_anon + 1, plan, factories, fp.as_ref(), LOCK_BUDGET);
    let safety = mutex_safety(&report);
    outcome(report, safety)
}

fn ordered_cell(plan: OrderingPlan, seed: u64, faults: bool) -> FamilyOutcome {
    let pids = [pid(1), pid(2)];
    let m = 4;
    let factories = pids
        .iter()
        .map(|&p| {
            let f: Factory<OrderedMutex> = Box::new(move |incarnation| {
                let mut rng = view_rng(seed, p.get(), incarnation);
                (
                    OrderedMutex::new(p, m)
                        .expect("m >= 2")
                        .with_cycles(LOCK_CYCLES),
                    View::from_perm(rng.permutation(m)).expect("permutation is a view"),
                )
            });
            f
        })
        .collect();
    let fp = faults.then(|| fault_plan(seed, &pids, false));
    let report = run_exec(seed, m, plan, factories, fp.as_ref(), LOCK_BUDGET);
    let safety = mutex_safety(&report);
    outcome(report, safety)
}

fn baseline_cell(plan: OrderingPlan, seed: u64, faults: bool) -> FamilyOutcome {
    let pids = [pid(1), pid(2)];
    let factories = pids
        .iter()
        .enumerate()
        .map(|(slot, &p)| {
            // Named baseline: every incarnation sees the identity view.
            let f: Factory<Peterson> = Box::new(move |_incarnation| {
                (
                    Peterson::new(p, slot)
                        .expect("slot is 0 or 1")
                        .with_cycles(LOCK_CYCLES),
                    View::identity(3),
                )
            });
            f
        })
        .collect();
    let fp = faults.then(|| fault_plan(seed, &pids, false));
    let report = run_exec(seed, 3, plan, factories, fp.as_ref(), LOCK_BUDGET);
    let safety = mutex_safety(&report);
    outcome(report, safety)
}

fn consensus_cell(plan: OrderingPlan, seed: u64, faults: bool) -> FamilyOutcome {
    let pids = [pid(1), pid(2)];
    let n = pids.len();
    let m = 2 * n - 1;
    let input_of = |p: Pid| p.get() * 7;
    let factories = pids
        .iter()
        .map(|&p| {
            let f: Factory<AnonConsensus> = Box::new(move |incarnation| {
                let mut rng = view_rng(seed, p.get(), incarnation);
                (
                    AnonConsensus::new(p, n, input_of(p)).expect("nonzero input"),
                    View::from_perm(rng.permutation(m)).expect("permutation is a view"),
                )
            });
            f
        })
        .collect();
    // Restarts are safe for consensus: a restarted incarnation re-proposes.
    let fp = faults.then(|| fault_plan(seed, &pids, true));
    let report = run_exec(seed, m, plan, factories, fp.as_ref(), ONESHOT_BUDGET);
    let decisions: Vec<u64> = report
        .machine_events()
        .map(|(_, ConsensusEvent::Decide(v))| *v)
        .collect();
    let safety = if decisions.windows(2).any(|w| w[0] != w[1]) {
        Some(format!("agreement violated: decisions {decisions:?}"))
    } else if let Some(&value) = decisions.first() {
        (!pids.iter().any(|&p| input_of(p) == value))
            .then(|| format!("validity violated: decision {value} was never proposed"))
    } else {
        None
    };
    outcome(report, safety)
}

fn election_cell(plan: OrderingPlan, seed: u64, faults: bool) -> FamilyOutcome {
    let pids = [pid(1), pid(2)];
    let n = pids.len();
    let m = 2 * n - 1;
    let factories = pids
        .iter()
        .map(|&p| {
            let f: Factory<AnonElection> = Box::new(move |incarnation| {
                let mut rng = view_rng(seed, p.get(), incarnation);
                (
                    AnonElection::new(p, n).expect("n > 0"),
                    View::from_perm(rng.permutation(m)).expect("permutation is a view"),
                )
            });
            f
        })
        .collect();
    let fp = faults.then(|| fault_plan(seed, &pids, true));
    let report = run_exec(seed, m, plan, factories, fp.as_ref(), ONESHOT_BUDGET);
    let leaders: Vec<Pid> = report
        .machine_events()
        .map(|(_, ElectionEvent::Elected(l))| *l)
        .collect();
    let safety = if leaders.windows(2).any(|w| w[0] != w[1]) {
        Some(format!("agreement violated: leaders {leaders:?}"))
    } else if let Some(leader) = leaders.first() {
        (!pids.contains(leader))
            .then(|| format!("validity violated: leader {leader:?} is not a participant"))
    } else {
        None
    };
    outcome(report, safety)
}

fn renaming_cell(plan: OrderingPlan, seed: u64, faults: bool) -> FamilyOutcome {
    let pids = [pid(1), pid(2)];
    let n = pids.len();
    let m = 2 * n - 1;
    let factories = pids
        .iter()
        .map(|&p| {
            let f: Factory<AnonRenaming> = Box::new(move |incarnation| {
                let mut rng = view_rng(seed, p.get(), incarnation);
                (
                    AnonRenaming::new(p, n).expect("n > 0"),
                    View::from_perm(rng.permutation(m)).expect("permutation is a view"),
                )
            });
            f
        })
        .collect();
    // Crashes and stalls only: a restarted incarnation could legitimately
    // claim a second name (same policy as E15).
    let fp = faults.then(|| fault_plan(seed, &pids, false));
    let report = run_exec(seed, m, plan, factories, fp.as_ref(), ONESHOT_BUDGET);
    let mut names: Vec<u32> = report
        .machine_events()
        .map(|(_, RenamingEvent::Named(name))| *name)
        .collect();
    names.sort_unstable();
    let safety = if names.windows(2).any(|w| w[0] == w[1]) {
        Some(format!("uniqueness violated: names {names:?}"))
    } else {
        names
            .iter()
            .find(|&&name| name == 0 || name as usize > n)
            .map(|&name| format!("range violated: name {name} outside 1..={n}"))
    };
    outcome(report, safety)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_is_clean_at_seq_cst() {
        for family in FAMILIES {
            for (seed, faults) in [(1, false), (2, true)] {
                let out = run_family(family, OrderingPlan::seq_cst(), seed, faults);
                assert!(
                    out.is_clean(),
                    "{family} at SeqCst (seed {seed}, faults {faults}): {:?} / {:?}",
                    out.safety,
                    out.first_violation.map(|v| v.to_string()),
                );
            }
        }
    }

    #[test]
    fn relaxed_reads_are_rejected_with_a_witness() {
        // A fully relaxed plan must flag a missing edge on some schedule
        // of the mutex doorway — the heart of the sanitizer.
        let plan = OrderingPlan {
            read: Ordering::Relaxed,
            claim: Ordering::SeqCst,
            clear: Ordering::SeqCst,
        };
        let sweep = sweep_plan("mutex", plan, 0xE17, 4);
        assert!(sweep.violations > 0, "relaxed reads must be flagged");
        let (seed, v) = sweep.first_violation.expect("witness recorded");
        assert!(!v.witness.is_empty());
        // The same seed and fault setting replay the same first violation.
        for faults in [false, true] {
            if let Some(replay) = run_family("mutex", plan, seed, faults).first_violation {
                if replay.to_string() == v.to_string() {
                    return;
                }
            }
        }
        panic!("seed {seed} did not replay the recorded witness");
    }

    #[test]
    fn certification_is_deterministic_and_clean() {
        let a = certify_family("baseline", 0xC0DE, 2);
        let b = certify_family("baseline", 0xC0DE, 2);
        assert!(a.clean, "SeqCst tops the ladder, so baseline certifies");
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.certificates, b.certificates);
        assert_eq!(a.certificates.len(), 3);
        assert_eq!(a.certificates[0].id, "ORD-BASELINE-READ");
        // No site certifies weaker than its rejections allow: every
        // rejected rung is strictly below the accepted ordering on its
        // site's ladder.
        for r in &a.rejected {
            let ladder = r.site.ladder();
            let rejected_pos = ladder.iter().position(|&o| o == r.ordering).unwrap();
            let accepted_pos = ladder.iter().position(|&o| o == a.plan.of(r.site)).unwrap();
            assert!(rejected_pos < accepted_pos, "{r:?}");
        }
    }

    #[test]
    fn runtime_notes_cover_the_cited_ids() {
        let notes = runtime_site_notes();
        assert!(notes.iter().any(|(id, _)| *id == "ORD-RT-PEEK-001"));
        assert!(notes.iter().any(|(id, _)| *id == "ORD-RT-HANDLE-002"));
    }

    #[test]
    fn explorer_notes_cover_the_cited_ids() {
        // One note per certificate the dedup/par code comments cite, with
        // unique IDs.
        let notes = explorer_site_notes();
        let cited = [
            "ORD-DEDUP-CLAIM-001",
            "ORD-DEDUP-META-002",
            "ORD-DEDUP-SPIN-003",
            "ORD-EXP-PENDING-005",
            "ORD-DEDUP-FLUSH-006",
            "ORD-EXP-ABORT-007",
            "ORD-DEDUP-GROW-008",
        ];
        for id in cited {
            assert!(notes.iter().any(|(n, _)| *n == id), "missing note {id}");
        }
        let mut ids: Vec<&str> = notes.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), notes.len(), "duplicate note ids");
    }
}
