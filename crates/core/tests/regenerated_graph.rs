//! The regenerated state graph, checked against the run's own state codes.
//!
//! A [`StateGraph`] stores no state but the initial one: every other state
//! is regenerated from its discovery transition. This suite checks the
//! states it regenerates without trusting how it regenerates them, on all
//! seven families, plain, with crashes, with partial-order reduction and
//! under full symmetry, at 1 and 4 workers:
//!
//! * encoding every state [`StateGraph::for_each_state`] visits with the
//!   code the run deduplicated by ([`Simulation::canonical_code`] under
//!   the run's mode) gives `state_count` distinct codes, the initial
//!   state's first, and each id is visited once;
//! * stepping (or crashing) each visited state by each of its edges with
//!   the public, traced [`Simulation::step`]/[`Simulation::crash`] gives
//!   the code of that edge's target.

use std::collections::HashSet;
use std::hash::Hash;

use anonreg::baseline::Peterson;
use anonreg::consensus::AnonConsensus;
use anonreg::election::AnonElection;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::AnonMutex;
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::AnonRenaming;
use anonreg::{Machine, Pid, PidMap, View};
use anonreg_sim::prelude::*;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

/// One exploration setting: crash transitions, partial-order reduction,
/// symmetry mode.
const SETTINGS: [(bool, bool, SymmetryMode); 4] = [
    (false, false, SymmetryMode::Off),
    (true, false, SymmetryMode::Off),
    (false, true, SymmetryMode::Off),
    (false, false, SymmetryMode::Full),
];

fn check_family<M>(family: &str, build: impl Fn() -> Simulation<M>)
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    for (crashes, por, mode) in SETTINGS {
        for threads in [1, 4] {
            let at =
                format!("{family} (crashes {crashes}, por {por}, {mode}) at {threads} workers");
            let graph = Explorer::new(build())
                .max_states(500_000)
                .crashes(crashes)
                .por(por)
                .symmetry(mode)
                .parallelism(threads)
                .run()
                .unwrap();
            let n = graph.state_count();
            let mut codes: Vec<Option<Box<[u8]>>> = vec![None; n];
            graph.for_each_state(|id, state| {
                assert!(codes[id].is_none(), "{at}: state {id} visited twice");
                codes[id] = Some(state.canonical_code(mode));
            });
            let codes: Vec<Box<[u8]>> = codes
                .into_iter()
                .enumerate()
                .map(|(id, code)| code.unwrap_or_else(|| panic!("{at}: state {id} not visited")))
                .collect();
            assert_eq!(
                codes[0],
                build().canonical_code(mode),
                "{at}: state 0 is not the initial state"
            );
            let distinct: HashSet<&[u8]> = codes.iter().map(|c| &c[..]).collect();
            assert_eq!(distinct.len(), n, "{at}: regenerated states collide");
            let mut checked = 0;
            graph.for_each_state(|id, state| {
                for edge in graph.edges(id) {
                    let mut next = state.clone();
                    if edge.crash {
                        next.crash(edge.proc).unwrap();
                    } else {
                        next.step(edge.proc).unwrap();
                    }
                    assert_eq!(
                        next.canonical_code(mode),
                        codes[edge.target],
                        "{at}: edge {id} -> {} (p{}, crash {}) lands elsewhere",
                        edge.target,
                        edge.proc,
                        edge.crash
                    );
                    checked += 1;
                }
            });
            assert_eq!(checked, graph.edge_count(), "{at}");
        }
    }
}

#[test]
fn mutex_states_regenerate() {
    check_family("mutex", || {
        Simulation::builder()
            .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
            .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}

#[test]
fn ordered_states_regenerate() {
    check_family("ordered", || {
        Simulation::builder()
            .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
            .process(OrderedMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}

#[test]
fn hybrid_states_regenerate() {
    check_family("hybrid", || {
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
    });
}

#[test]
fn consensus_states_regenerate() {
    check_family("consensus", || {
        Simulation::builder()
            .process(
                AnonConsensus::new(pid(1), 2, 1).unwrap().with_registers(2),
                View::identity(2),
            )
            .process(
                AnonConsensus::new(pid(2), 2, 2).unwrap().with_registers(2),
                View::rotated(2, 1),
            )
            .build()
            .unwrap()
    });
}

#[test]
fn renaming_states_regenerate() {
    check_family("renaming", || {
        Simulation::builder()
            .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
            .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}

#[test]
fn election_states_regenerate() {
    check_family("election", || {
        Simulation::builder()
            .process(AnonElection::new(pid(1), 2).unwrap(), View::identity(3))
            .process(AnonElection::new(pid(2), 2).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}

#[test]
fn peterson_states_regenerate() {
    check_family("peterson", || {
        Simulation::builder()
            .process_identity(Peterson::new(pid(1), 0).unwrap())
            .process_identity(Peterson::new(pid(2), 1).unwrap())
            .build()
            .unwrap()
    });
}
