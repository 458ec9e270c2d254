//! `Simulation::clone_from` fidelity on every algorithm family.
//!
//! The explorer refills reused successor states with `clone_from` instead
//! of cloning a fresh `Simulation` per successor, so a refill must leave
//! the target indistinguishable from its source: the same configuration,
//! equal machines, the same plain state code and the same fingerprint.
//! Each family explores a small graph and refills states from many
//! others, including states of a second run whose processes use other
//! views — a separate view table the target must adopt.

use std::hash::Hash;

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

/// Refills checked per family.
const PAIRS: usize = 2_000;

/// Asserts that `dst`, refilled from `src`, is indistinguishable from it.
fn assert_refilled<M>(family: &str, pair: usize, dst: &Simulation<M>, src: &Simulation<M>)
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    assert!(
        dst.same_configuration(src),
        "{family} pair {pair}: configurations differ"
    );
    assert!(
        dst.machines().eq(src.machines()),
        "{family} pair {pair}: machines differ"
    );
    assert_eq!(
        dst.canonical_code(SymmetryMode::Off),
        src.canonical_code(SymmetryMode::Off),
        "{family} pair {pair}: state codes differ"
    );
    assert_eq!(
        dst.fingerprint(),
        src.fingerprint(),
        "{family} pair {pair}: fingerprints differ"
    );
}

/// Refills states of `build`'s graph from other states of it, and one
/// long-lived target from states of both graphs, switching view tables
/// back and forth.
fn check_family<M>(family: &str, build: impl Fn() -> Simulation<M>, alt: impl Fn() -> Simulation<M>)
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let graph = Explorer::new(build()).run().unwrap();
    let other = Explorer::new(alt()).run().unwrap();
    let (mut states, mut others) = (Vec::new(), Vec::new());
    graph.for_each_state(|_, s| states.push(s.clone()));
    other.for_each_state(|_, s| others.push(s.clone()));
    assert!(
        (0..states[0].process_count()).any(|p| states[0].view(p) != others[0].view(p)),
        "{family}: the second run must use other views"
    );
    let n = states.len();
    let mut kept = states[0].clone();
    for pair in 0..PAIRS {
        let (i, j) = (pair * 7 % n, (pair * 31 + 11) % n);
        let mut dst = states[i].clone();
        dst.clone_from(&states[j]);
        assert_refilled(family, pair, &dst, &states[j]);

        let src = if pair % 4 == 3 {
            &others[pair % others.len()]
        } else {
            &states[j]
        };
        kept.clone_from(src);
        assert_refilled(family, pair, &kept, src);
    }
}

fn mutex(view: View) -> Simulation<AnonMutex> {
    Simulation::builder()
        .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
        .process(AnonMutex::new(pid(2), 3).unwrap(), view)
        .build()
        .unwrap()
}

fn ordered(view: View) -> Simulation<OrderedMutex> {
    Simulation::builder()
        .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
        .process(OrderedMutex::new(pid(2), 3).unwrap(), view)
        .build()
        .unwrap()
}

fn hybrid(shift: usize) -> Simulation<HybridMutex> {
    let anon: Vec<usize> = (0..3).map(|j| (j + shift) % 3).collect();
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
}

fn consensus(view: View) -> Simulation<AnonConsensus> {
    Simulation::builder()
        .process(
            AnonConsensus::new(pid(1), 2, 1).unwrap().with_registers(2),
            View::identity(2),
        )
        .process(
            AnonConsensus::new(pid(2), 2, 2).unwrap().with_registers(2),
            view,
        )
        .build()
        .unwrap()
}

fn renaming(view: View) -> Simulation<AnonRenaming> {
    Simulation::builder()
        .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
        .process(AnonRenaming::new(pid(2), 2).unwrap(), view)
        .build()
        .unwrap()
}

fn election(view: View) -> Simulation<AnonElection> {
    Simulation::builder()
        .process(AnonElection::new(pid(1), 2).unwrap(), View::identity(3))
        .process(AnonElection::new(pid(2), 2).unwrap(), view)
        .build()
        .unwrap()
}

#[test]
fn anonymous_mutex_refills_are_faithful() {
    check_family(
        "mutex",
        || mutex(View::rotated(3, 1)),
        || mutex(View::rotated(3, 2)),
    );
}

#[test]
fn ordered_mutex_refills_are_faithful() {
    check_family(
        "ordered",
        || ordered(View::rotated(3, 1)),
        || ordered(View::rotated(3, 2)),
    );
}

#[test]
fn hybrid_mutex_refills_are_faithful() {
    check_family("hybrid", || hybrid(1), || hybrid(2));
}

#[test]
fn consensus_refills_are_faithful() {
    check_family(
        "consensus",
        || consensus(View::rotated(2, 1)),
        || consensus(View::identity(2)),
    );
}

#[test]
fn renaming_refills_are_faithful() {
    check_family(
        "renaming",
        || renaming(View::rotated(3, 1)),
        || renaming(View::rotated(3, 2)),
    );
}

#[test]
fn election_refills_are_faithful() {
    check_family(
        "election",
        || election(View::rotated(3, 1)),
        || election(View::rotated(3, 2)),
    );
}

/// A refill may change the process count: the target's slot vector
/// shrinks or grows to the source's.
#[test]
fn refills_follow_the_source_process_count() {
    let two = mutex(View::rotated(3, 1));
    let three = Simulation::builder()
        .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
        .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
        .process(AnonMutex::new(pid(3), 3).unwrap(), View::rotated(3, 2))
        .build()
        .unwrap();
    let mut dst = two.clone();
    dst.clone_from(&three);
    assert_refilled("mutex", 0, &dst, &three);
    dst.clone_from(&two);
    assert_refilled("mutex", 1, &dst, &two);
}
