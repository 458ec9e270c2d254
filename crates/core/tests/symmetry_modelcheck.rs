//! Verdict-equivalence regression for symmetry-reduced exploration.
//!
//! Symmetry reduction must be invisible to every model-check verdict: for
//! each algorithm family the explorer is run with symmetry `off` and
//! `full`, and every verdict the repo's experiments rely on — safety
//! (mutual exclusion / agreement / validity / name uniqueness),
//! fair-livelock detection and obstruction freedom — must be
//! bit-identical across the two modes. Only the *state counts* may
//! shrink.
//!
//! Several workers must agree with one under symmetry too. Which
//! concrete orbit representative gets stored is racy there, so the
//! cross-worker-count comparison uses state/edge counts plus verdicts, not
//! graph isomorphism.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

use anonreg::baseline::Peterson;
use anonreg::consensus::{AnonConsensus, ConsensusEvent};
use anonreg::election::AnonElection;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::{AnonMutex, MutexEvent, Section};
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::AnonRenaming;
use anonreg::{Machine, Pid, PidMap, View};
use anonreg_sim::obstruction::check_obstruction_freedom;
use anonreg_sim::prelude::*;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

/// Everything a family's model check decides, as comparable data.
#[derive(Debug, PartialEq, Eq)]
struct Verdicts {
    safety_violated: bool,
    fair_livelock: bool,
    /// `None` when the family's machines cycle forever (obstruction
    /// freedom is only checked for halting families).
    obstruction_free: Option<bool>,
}

fn explore<M>(
    build: &impl Fn() -> Simulation<M>,
    mode: SymmetryMode,
    threads: usize,
) -> StateGraph<M>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    Explorer::new(build())
        .max_states(500_000)
        .parallelism(threads)
        .symmetry(mode)
        .run()
        .unwrap()
}

/// Runs one family through both modes (sequentially and at 4 threads)
/// and asserts the verdicts never move.
fn check_family<M>(
    family: &str,
    build: impl Fn() -> Simulation<M>,
    verdicts: impl Fn(&StateGraph<M>) -> Verdicts,
) where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let baseline_graph = explore(&build, SymmetryMode::Off, 1);
    let baseline = verdicts(&baseline_graph);
    for mode in SymmetryMode::ALL {
        let seq = explore(&build, mode, 1);
        assert!(
            seq.state_count() <= baseline_graph.state_count(),
            "{family}: {mode} stored more states than off"
        );
        assert_eq!(
            verdicts(&seq),
            baseline,
            "{family}: sequential verdicts diverged under {mode}"
        );
        let par = explore(&build, mode, 4);
        assert_eq!(
            (par.state_count(), par.edge_count()),
            (seq.state_count(), seq.edge_count()),
            "{family}: parallel counts diverged under {mode}"
        );
        assert_eq!(
            verdicts(&par),
            baseline,
            "{family}: parallel verdicts diverged under {mode}"
        );
    }
}

/// Mutex-style verdicts, shared by the four mutual-exclusion families.
fn mutex_verdicts<M>(graph: &StateGraph<M>, section: impl Fn(&M) -> Section + Copy) -> Verdicts
where
    M: Machine<Event = MutexEvent> + Eq + Hash,
{
    let both_critical = |s: &Simulation<M>| {
        (0..s.process_count())
            .filter(|&p| section(s.machine(p)) == Section::Critical)
            .count()
            >= 2
    };
    Verdicts {
        safety_violated: graph.find_state(both_critical).is_some(),
        fair_livelock: graph
            .find_fair_livelock(
                |m| section(m) == Section::Entry,
                |e| *e == MutexEvent::Enter,
            )
            .is_some(),
        obstruction_free: None,
    }
}

#[test]
fn mutex_verdicts_are_symmetry_invariant() {
    check_family(
        "mutex",
        || {
            Simulation::builder()
                .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |g| mutex_verdicts(g, AnonMutex::section),
    );
}

#[test]
fn ordered_mutex_verdicts_are_symmetry_invariant() {
    check_family(
        "ordered",
        || {
            Simulation::builder()
                .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(OrderedMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |g| mutex_verdicts(g, OrderedMutex::section),
    );
}

#[test]
fn hybrid_mutex_verdicts_are_symmetry_invariant() {
    check_family(
        "hybrid",
        || {
            let anon: Vec<usize> = (0..3).map(|j| (j + 1) % 3).collect();
            Simulation::builder()
                .process(
                    HybridMutex::new(pid(1), 3).unwrap(),
                    named_view(3, (0..3).collect()).unwrap(),
                )
                .process(
                    HybridMutex::new(pid(2), 3).unwrap(),
                    named_view(3, anon).unwrap(),
                )
                .build()
                .unwrap()
        },
        |g| mutex_verdicts(g, HybridMutex::section),
    );
}

#[test]
fn peterson_verdicts_are_symmetry_invariant() {
    check_family(
        "peterson",
        || {
            Simulation::builder()
                .process_identity(Peterson::new(pid(1), 0).unwrap())
                .process_identity(Peterson::new(pid(2), 1).unwrap())
                .build()
                .unwrap()
        },
        |g| mutex_verdicts(g, Peterson::section),
    );
}

#[test]
fn consensus_verdicts_are_symmetry_invariant() {
    let inputs = [1u64, 2];
    check_family(
        "consensus",
        || {
            Simulation::builder()
                .process(
                    AnonConsensus::new(pid(1), 2, inputs[0])
                        .unwrap()
                        .with_registers(2),
                    View::identity(2),
                )
                .process(
                    AnonConsensus::new(pid(2), 2, inputs[1])
                        .unwrap()
                        .with_registers(2),
                    View::rotated(2, 1),
                )
                .build()
                .unwrap()
        },
        |g| {
            let decisions = |s: &Simulation<AnonConsensus>| -> BTreeSet<u64> {
                (0..s.process_count())
                    .filter(|&p| s.machine(p).has_decided())
                    .map(|p| s.machine(p).preference())
                    .collect()
            };
            let agreement_violated = g.find_state(|s| decisions(s).len() >= 2).is_some();
            let validity_violated = g
                .find_state(|s| decisions(s).iter().any(|v| !inputs.contains(v)))
                .is_some();
            Verdicts {
                safety_violated: agreement_violated || validity_violated,
                fair_livelock: g
                    .find_fair_livelock(
                        |m| !m.has_decided(),
                        |e| matches!(e, ConsensusEvent::Decide(_)),
                    )
                    .is_some(),
                obstruction_free: Some(check_obstruction_freedom(g, 10_000).is_ok()),
            }
        },
    );
}

#[test]
fn election_verdicts_are_symmetry_invariant() {
    check_family(
        "election",
        || {
            Simulation::builder()
                .process(AnonElection::new(pid(1), 2).unwrap(), View::identity(3))
                .process(AnonElection::new(pid(2), 2).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |g| Verdicts {
            // Safety here: a process must never believe an election
            // finished while another has not even heard of one and the
            // graph holds a state with *no* possible progress. The cheap
            // invariant we pin instead: once everyone halted, everyone
            // elected.
            safety_violated: g
                .find_state(|s| {
                    s.all_halted() && (0..s.process_count()).any(|p| !s.machine(p).has_elected())
                })
                .is_some(),
            fair_livelock: false,
            obstruction_free: Some(check_obstruction_freedom(g, 10_000).is_ok()),
        },
    );
}

#[test]
fn renaming_verdicts_are_symmetry_invariant() {
    check_family(
        "renaming",
        || {
            Simulation::builder()
                .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
                .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        },
        |g| Verdicts {
            // Uniqueness: two named processes never share a name (round).
            safety_violated: g
                .find_state(|s| {
                    let names: Vec<u32> = (0..s.process_count())
                        .filter(|&p| s.machine(p).has_name())
                        .map(|p| s.machine(p).round())
                        .collect();
                    let distinct: BTreeSet<u32> = names.iter().copied().collect();
                    distinct.len() != names.len()
                })
                .is_some(),
            fair_livelock: false,
            obstruction_free: Some(check_obstruction_freedom(g, 10_000).is_ok()),
        },
    );
}

/// The headline reduction guarantee on a genuinely symmetric workload:
/// three identical machines behind identical views admit the full
/// symmetric group S₃, so `full` must store at least 2x fewer states than
/// `off` — and find exactly the same verdicts.
#[test]
fn full_mode_reduces_symmetric_mutex_at_least_2x() {
    let build = || {
        let mut b = Simulation::builder();
        for i in 0..3u64 {
            b = b.process(
                AnonMutex::new(Pid::new(i + 1).unwrap(), 2)
                    .unwrap()
                    .with_cycles(1),
                View::identity(2),
            );
        }
        b.build().unwrap()
    };
    let off = explore(&build, SymmetryMode::Off, 1);
    let full = explore(&build, SymmetryMode::Full, 1);
    assert!(
        off.state_count() >= 2 * full.state_count(),
        "expected >=2x reduction, got {} vs {}",
        off.state_count(),
        full.state_count()
    );
    assert_eq!(
        mutex_verdicts(&off, AnonMutex::section),
        mutex_verdicts(&full, AnonMutex::section)
    );
    // Four workers land on the same orbit set.
    let par = explore(&build, SymmetryMode::Full, 4);
    assert_eq!(par.state_count(), full.state_count());
    assert_eq!(par.edge_count(), full.edge_count());
}
