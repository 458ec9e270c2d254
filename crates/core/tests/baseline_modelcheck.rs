//! Exhaustive verification of the *named-register* baselines — and the
//! demonstration that they fall apart the moment register names stop being
//! agreed (the practical face of Theorem 6.1's separation).

use anonreg::baseline::{Bakery, LockConsensus, Peterson, SplitterRenaming};
use anonreg::mutex::{MutexEvent, Section};
use anonreg::{Pid, View};
use anonreg_sim::prelude::*;
use anonreg_sim::Simulation;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

#[test]
fn peterson_is_safe_and_live_with_named_registers() {
    let sim = Simulation::builder()
        .process_identity(Peterson::new(pid(1), 0).unwrap())
        .process_identity(Peterson::new(pid(2), 1).unwrap())
        .build()
        .unwrap();
    let graph = Explorer::new(sim).run().unwrap();
    let both_in_cs = graph.find_state(|s| {
        s.machines()
            .filter(|m| m.section() == Section::Critical)
            .count()
            >= 2
    });
    assert!(both_in_cs.is_none(), "Peterson is safe under agreed names");
    let livelock = graph.find_fair_livelock(
        |m| m.section() == Section::Entry,
        |e| *e == MutexEvent::Enter,
    );
    assert!(livelock.is_none(), "Peterson is live under agreed names");
}

#[test]
fn peterson_breaks_without_agreement_on_register_names() {
    // Give the second process a *permuted* view — exactly what the
    // memory-anonymous model allows — and the model checker finds two
    // processes in the critical section. Named algorithms are not
    // memory-anonymous algorithms: the agreement is load-bearing.
    let sim = Simulation::builder()
        .process(Peterson::new(pid(1), 0).unwrap(), View::identity(3))
        .process(
            Peterson::new(pid(2), 1).unwrap(),
            View::from_perm(vec![1, 0, 2]).unwrap(),
        )
        .build()
        .unwrap();
    let graph = Explorer::new(sim).run().unwrap();
    let both_in_cs = graph.find_state(|s| {
        s.machines()
            .filter(|m| m.section() == Section::Critical)
            .count()
            >= 2
    });
    assert!(
        both_in_cs.is_some(),
        "a permuted view must break Peterson's mutual exclusion"
    );
    // The counterexample is a concrete replayable schedule.
    let schedule = graph.schedule_to(both_in_cs.unwrap());
    assert!(!schedule.is_empty());
}

#[test]
fn bakery_n2_is_safe_for_one_cycle_each() {
    // Bakery tickets grow without bound across cycles, so the exhaustive
    // check bounds each process to one critical section (the state space is
    // then finite).
    let sim = Simulation::builder()
        .process_identity(Bakery::new(pid(1), 0, 2).unwrap().with_cycles(1))
        .process_identity(Bakery::new(pid(2), 1, 2).unwrap().with_cycles(1))
        .build()
        .unwrap();
    let graph = Explorer::new(sim).run().unwrap();
    let both_in_cs = graph.find_state(|s| {
        s.machines()
            .filter(|m| m.section() == Section::Critical)
            .count()
            >= 2
    });
    assert!(both_in_cs.is_none(), "Bakery is safe");
    let livelock = graph.find_fair_livelock(
        |m| m.section() == Section::Entry,
        |e| *e == MutexEvent::Enter,
    );
    assert!(livelock.is_none(), "Bakery is live");
    // Some terminal state has both done their cycle.
    assert!(graph
        .find_state(anonreg_sim::Simulation::all_halted)
        .is_some());
}

#[test]
fn bakery_n3_is_safe_for_one_cycle_each() {
    let sim = Simulation::builder()
        .process_identity(Bakery::new(pid(1), 0, 3).unwrap().with_cycles(1))
        .process_identity(Bakery::new(pid(2), 1, 3).unwrap().with_cycles(1))
        .process_identity(Bakery::new(pid(3), 2, 3).unwrap().with_cycles(1))
        .build()
        .unwrap();
    let graph = Explorer::new(sim)
        .max_states(4_000_000)
        .crashes(false)
        .run()
        .unwrap();
    let both_in_cs = graph.find_state(|s| {
        s.machines()
            .filter(|m| m.section() == Section::Critical)
            .count()
            >= 2
    });
    assert!(both_in_cs.is_none(), "Bakery is safe for three processes");
}

#[test]
fn splitter_n2_names_are_distinct_under_all_interleavings() {
    let n = 2;
    let regs = 2 * SplitterRenaming::splitters(n);
    let build = || {
        Simulation::builder()
            .process_identity(SplitterRenaming::new(pid(1), n).unwrap())
            .process_identity(SplitterRenaming::new(pid(2), n).unwrap())
            .build()
            .unwrap()
    };
    let graph = Explorer::new(build()).run().unwrap();
    let mut terminals = Vec::new();
    graph.for_each_state(|id, state| {
        if state.all_halted() {
            terminals.push(id);
        }
    });
    for id in terminals {
        let schedule = graph.schedule_to(id);
        let mut sim = build();
        for &p in &schedule {
            sim.step(p).unwrap();
        }
        let names: Vec<u32> = sim
            .trace()
            .events()
            .map(|(_, _, e)| {
                let anonreg::renaming::RenamingEvent::Named(name) = e;
                *name
            })
            .collect();
        assert_eq!(names.len(), 2);
        assert_ne!(names[0], names[1], "splitter names collide");
        assert!(names.iter().all(|&nm| nm as usize <= regs));
    }
}

#[test]
fn lock_consensus_n2_agrees_under_all_interleavings() {
    let build = || {
        Simulation::builder()
            .process_identity(LockConsensus::new(pid(1), 0, 2, 1).unwrap())
            .process_identity(LockConsensus::new(pid(2), 1, 2, 2).unwrap())
            .build()
            .unwrap()
    };
    let graph = Explorer::new(build()).run().unwrap();
    let mut terminals = Vec::new();
    graph.for_each_state(|id, state| {
        if state.all_halted() {
            terminals.push(id);
        }
    });
    for id in terminals {
        let schedule = graph.schedule_to(id);
        let mut sim = build();
        for &p in &schedule {
            sim.step(p).unwrap();
        }
        let trace = sim.into_trace();
        anonreg::spec::check_consensus(&trace, &[1, 2]).unwrap_or_else(|v| panic!("{v}\n{trace}"));
    }
}
