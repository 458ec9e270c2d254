//! Cross-family regression: the explorer must produce the same graph at
//! 1, 2 and 4 workers on every algorithm family of the reproduction, and
//! that graph must be the one an independent reference explorer finds.
//!
//! The reference ([`reference`]) shares nothing with the engine but the
//! public [`Simulation`] API: it steps and crashes clones with
//! `Simulation::step`/`Simulation::crash` and deduplicates by
//! `fingerprint` + `same_configuration` — no canonical encoding, no
//! 128-bit fingerprints, no partial-order reduction, no probes, no dedup
//! table.
//!
//! State ids depend on the worker count (several workers number states
//! in race order), so equality is checked up to the bijection induced by
//! state fingerprints: identical state counts, a one-to-one configuration
//! match, and identical per-state edge multisets under that bijection.
//! The fairness analyses must then agree verdict-for-verdict regardless
//! of the numbering.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use anonreg::baseline::Peterson;
use anonreg::consensus::AnonConsensus;
use anonreg::election::AnonElection;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::{AnonMutex, MutexEvent, Section};
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::AnonRenaming;
use anonreg::{Machine, Pid, View};
use anonreg_sim::prelude::*;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

/// Asserts `a` and `b` are the same graph up to state renumbering.
fn assert_isomorphic<M>(family: &str, threads: usize, a: &StateGraph<M>, b: &StateGraph<M>)
where
    M: Machine + Eq + Hash,
    M::Event: Debug,
{
    assert_eq!(
        a.state_count(),
        b.state_count(),
        "{family} at {threads} threads: state counts differ"
    );
    assert_eq!(
        a.edge_count(),
        b.edge_count(),
        "{family} at {threads} threads: edge counts differ"
    );

    // Match each of a's states to a distinct configuration-equal state
    // of b (fingerprints narrow the candidates; equality decides).
    let mut by_fp: HashMap<u64, Vec<usize>> = HashMap::new();
    for (id, state) in b.states() {
        by_fp.entry(state.fingerprint()).or_default().push(id);
    }
    let mut a_to_b = vec![usize::MAX; a.state_count()];
    let mut used = vec![false; b.state_count()];
    for (id, state) in a.states() {
        let candidates = by_fp
            .get(&state.fingerprint())
            .map_or(&[][..], Vec::as_slice);
        let matched = candidates
            .iter()
            .copied()
            .find(|&bid| !used[bid] && state.same_configuration(b.state(bid)));
        let Some(bid) = matched else {
            panic!("{family} at {threads} threads: state {id} has no counterpart");
        };
        used[bid] = true;
        a_to_b[id] = bid;
    }
    assert_eq!(
        a_to_b[0], 0,
        "{family} at {threads} threads: initial states differ"
    );

    // Per-state edge multisets must agree under the bijection.
    for (id, _) in a.states() {
        let to_key = |map: &dyn Fn(usize) -> usize, e: &Edge<M::Event>| {
            (e.proc, map(e.target), e.crash, format!("{:?}", e.events))
        };
        let mut ea: Vec<_> = a
            .edges(id)
            .iter()
            .map(|e| to_key(&|t| a_to_b[t], e))
            .collect();
        let mut eb: Vec<_> = b
            .edges(a_to_b[id])
            .iter()
            .map(|e| to_key(&|t| t, e))
            .collect();
        ea.sort();
        eb.sort();
        assert_eq!(
            ea, eb,
            "{family} at {threads} threads: edges differ at state {id}"
        );
    }
}

/// A reachable graph as the reference explorer finds it: the states in
/// breadth-first discovery order, and per state its outgoing edges as
/// `(process, target, crash, events)`.
struct Reference<M: Machine> {
    states: Vec<Simulation<M>>,
    edges: Vec<Vec<(usize, usize, bool, String)>>,
}

/// The reference explorer: breadth-first over plain clones.
fn reference<M>(initial: Simulation<M>, crashes: bool) -> Reference<M>
where
    M: Machine + Eq + Hash,
{
    let mut by_fp: HashMap<u64, Vec<usize>> = HashMap::from([(initial.fingerprint(), vec![0])]);
    let mut states = vec![initial];
    let mut edges = Vec::new();
    while edges.len() < states.len() {
        let state = states[edges.len()].clone();
        let mut out = Vec::new();
        for proc in (0..state.process_count()).filter(|&p| !state.is_halted(p)) {
            for crash in [false, true].into_iter().filter(|&c| crashes || !c) {
                let mut succ = state.clone();
                let seen = succ.trace().events().count();
                if crash {
                    succ.crash(proc).unwrap();
                } else {
                    succ.step(proc).unwrap();
                }
                let events: Vec<&M::Event> = succ
                    .trace()
                    .events()
                    .skip(seen)
                    .map(|(_, _, e)| e)
                    .collect();
                let events = format!("{events:?}");
                let ids = by_fp.entry(succ.fingerprint()).or_default();
                let target = match ids
                    .iter()
                    .copied()
                    .find(|&id| states[id].same_configuration(&succ))
                {
                    Some(id) => id,
                    None => {
                        ids.push(states.len());
                        states.push(succ);
                        states.len() - 1
                    }
                };
                out.push((proc, target, crash, events));
            }
        }
        edges.push(out);
    }
    Reference { states, edges }
}

/// Asserts `graph` is the reference graph up to state renumbering.
fn assert_matches_reference<M>(
    family: &str,
    threads: usize,
    graph: &StateGraph<M>,
    reference: &Reference<M>,
) where
    M: Machine + Eq + Hash,
    M::Event: Debug,
{
    let label = format!("{family} at {threads} workers vs the reference");
    assert_eq!(
        graph.state_count(),
        reference.states.len(),
        "{label}: state counts differ"
    );
    let mut by_fp: HashMap<u64, Vec<usize>> = HashMap::new();
    for (id, state) in reference.states.iter().enumerate() {
        by_fp.entry(state.fingerprint()).or_default().push(id);
    }
    let to_ref: Vec<usize> = graph
        .states()
        .map(|(id, state)| {
            by_fp
                .get(&state.fingerprint())
                .and_then(|ids| {
                    ids.iter()
                        .copied()
                        .find(|&r| reference.states[r].same_configuration(state))
                })
                .unwrap_or_else(|| panic!("{label}: state {id} is not reachable"))
        })
        .collect();
    assert_eq!(to_ref[0], 0, "{label}: initial states differ");
    for (id, &r) in to_ref.iter().enumerate() {
        let mut got: Vec<_> = graph
            .edges(id)
            .iter()
            .map(|e| (e.proc, to_ref[e.target], e.crash, format!("{:?}", e.events)))
            .collect();
        let mut want = reference.edges[r].clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "{label}: edges differ at state {id}");
    }
}

/// Explores `build()` at 1, 2 and 4 workers, asserting that the
/// multi-worker graphs are isomorphic to the one-worker graph and that
/// all three match the reference explorer's.
fn check_family<M>(family: &str, crashes: bool, build: impl Fn() -> Simulation<M>)
where
    M: Machine + Eq + Hash,
    M::Event: Debug,
{
    let reference = reference(build(), crashes);
    let seq = Explorer::new(build())
        .max_states(500_000)
        .crashes(crashes)
        .run()
        .unwrap();
    assert_matches_reference(family, 1, &seq, &reference);
    for threads in [2, 4] {
        let par = Explorer::new(build())
            .max_states(500_000)
            .crashes(crashes)
            .parallelism(threads)
            .run()
            .unwrap();
        assert_isomorphic(family, threads, &seq, &par);
        assert_matches_reference(family, threads, &par, &reference);
    }
}

fn mutex() -> Simulation<AnonMutex> {
    Simulation::builder()
        .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
        .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
        .build()
        .unwrap()
}

fn ordered() -> Simulation<OrderedMutex> {
    Simulation::builder()
        .process(OrderedMutex::new(pid(1), 3).unwrap(), View::identity(3))
        .process(OrderedMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
        .build()
        .unwrap()
}

fn hybrid() -> Simulation<HybridMutex> {
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
}

fn consensus() -> Simulation<AnonConsensus> {
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
}

fn renaming() -> Simulation<AnonRenaming> {
    Simulation::builder()
        .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
        .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
        .build()
        .unwrap()
}

fn election() -> Simulation<AnonElection> {
    Simulation::builder()
        .process(AnonElection::new(pid(1), 2).unwrap(), View::identity(3))
        .process(AnonElection::new(pid(2), 2).unwrap(), View::rotated(3, 1))
        .build()
        .unwrap()
}

fn peterson() -> Simulation<Peterson> {
    Simulation::builder()
        .process_identity(Peterson::new(pid(1), 0).unwrap())
        .process_identity(Peterson::new(pid(2), 1).unwrap())
        .build()
        .unwrap()
}

#[test]
fn anonymous_mutex_graphs_are_isomorphic() {
    check_family("mutex", false, mutex);
}

#[test]
fn anonymous_mutex_crash_graphs_are_isomorphic() {
    check_family("mutex+crashes", true, mutex);
}

#[test]
fn ordered_mutex_graphs_are_isomorphic() {
    check_family("ordered", false, ordered);
}

#[test]
fn ordered_mutex_crash_graphs_are_isomorphic() {
    check_family("ordered+crashes", true, ordered);
}

#[test]
fn hybrid_mutex_graphs_are_isomorphic() {
    check_family("hybrid", false, hybrid);
}

#[test]
fn hybrid_mutex_crash_graphs_are_isomorphic() {
    check_family("hybrid+crashes", true, hybrid);
}

#[test]
fn consensus_graphs_are_isomorphic() {
    check_family("consensus", false, consensus);
}

#[test]
fn consensus_crash_graphs_are_isomorphic() {
    check_family("consensus+crashes", true, consensus);
}

#[test]
fn renaming_graphs_are_isomorphic() {
    check_family("renaming", false, renaming);
}

#[test]
fn renaming_crash_graphs_are_isomorphic() {
    check_family("renaming+crashes", true, renaming);
}

#[test]
fn election_graphs_are_isomorphic() {
    check_family("election", false, election);
}

#[test]
fn election_crash_graphs_are_isomorphic() {
    check_family("election+crashes", true, election);
}

#[test]
fn peterson_baseline_graphs_are_isomorphic() {
    check_family("peterson", false, peterson);
}

#[test]
fn peterson_baseline_crash_graphs_are_isomorphic() {
    check_family("peterson+crashes", true, peterson);
}

/// The fairness analyses walk SCCs in canonical order, so their verdicts
/// must not depend on which engine numbered the states.
#[test]
fn fairness_verdicts_are_numbering_independent() {
    for m in [3usize, 4] {
        let build = || {
            Simulation::builder()
                .process(AnonMutex::new(pid(1), m).unwrap(), View::identity(m))
                .process(AnonMutex::new(pid(2), m).unwrap(), View::rotated(m, 1))
                .build()
                .unwrap()
        };
        let seq = Explorer::new(build()).run().unwrap();
        let par = Explorer::new(build()).parallelism(4).run().unwrap();

        let entry = |mach: &AnonMutex| mach.section() == Section::Entry;
        let enter = |e: &MutexEvent| *e == MutexEvent::Enter;
        assert_eq!(
            seq.find_fair_livelock(entry, enter).is_some(),
            par.find_fair_livelock(entry, enter).is_some(),
            "livelock verdict diverged at m = {m}"
        );
        for victim in 0..2 {
            assert_eq!(
                seq.find_fair_starvation(victim, entry, enter).is_some(),
                par.find_fair_starvation(victim, entry, enter).is_some(),
                "starvation verdict diverged for p{victim} at m = {m}"
            );
        }

        // Canonical SCC lists are fully deterministic per graph.
        assert_eq!(seq.nontrivial_sccs(), seq.nontrivial_sccs());
        assert_eq!(par.nontrivial_sccs(), par.nontrivial_sccs());
    }
}
