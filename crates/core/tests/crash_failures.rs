//! Crash-failure validation (§2's failure model): the paper's
//! obstruction-free algorithms keep their *safety* guarantees under any
//! number of crashes, and keep serving survivors — that is the entire point
//! of choosing registers + obstruction freedom over locks (compare
//! `baseline::lock_consensus`, which a single crash wedges forever).

use std::hash::Hash;

use anonreg::consensus::AnonConsensus;
use anonreg::renaming::AnonRenaming;
use anonreg::spec::{check_consensus, check_renaming};
use anonreg::{Machine, Pid, PidMap, View};
use anonreg_model::rng::Rng64;
use anonreg_sim::obstruction::check_obstruction_freedom;
use anonreg_sim::prelude::*;
use anonreg_sim::{sched, Simulation};

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

#[test]
fn consensus_n2_agreement_holds_under_exhaustive_crashes() {
    // Every interleaving AND every crash pattern: with crashes enabled the
    // explorer inserts a crash transition for each live process in each
    // state. Agreement and validity must hold in every reachable state.
    let inputs = [1u64, 2];
    for shift in 0..3 {
        let sim = Simulation::builder()
            .process(
                AnonConsensus::new(pid(1), 2, inputs[0]).unwrap(),
                View::identity(3),
            )
            .process(
                AnonConsensus::new(pid(2), 2, inputs[1]).unwrap(),
                View::rotated(3, shift),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim)
            .max_states(2_000_000)
            .crashes(true)
            .run()
            .unwrap();
        let violation = graph.find_state(|s| {
            let decided: Vec<u64> = s
                .machines()
                .filter(|m| m.has_decided())
                .map(anonreg::consensus::AnonConsensus::preference)
                .collect();
            let disagree = decided.len() == 2 && decided[0] != decided[1];
            let invalid = decided.iter().any(|v| !inputs.contains(v));
            disagree || invalid
        });
        assert!(violation.is_none(), "shift {shift}");
    }
}

#[test]
fn consensus_survivors_stay_obstruction_free_after_crashes() {
    // From every reachable state — including every post-crash state — a
    // surviving process running alone still decides within the bound.
    let sim = Simulation::builder()
        .process(AnonConsensus::new(pid(1), 2, 1).unwrap(), View::identity(3))
        .process(
            AnonConsensus::new(pid(2), 2, 2).unwrap(),
            View::rotated(3, 1),
        )
        .build()
        .unwrap();
    let graph = Explorer::new(sim)
        .max_states(2_000_000)
        .crashes(true)
        .run()
        .unwrap();
    let report = check_obstruction_freedom(&graph, 64).unwrap();
    assert!(report.solo_runs > 0);
    assert!(report.max_solo_ops <= 18);
}

#[test]
fn consensus_randomized_crashes_never_break_agreement() {
    for n in [3usize, 4] {
        let inputs: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
        for seed in 0..150u64 {
            let mut rng = Rng64::seed_from_u64(seed);
            let mut builder = Simulation::builder();
            for (i, &input) in inputs.iter().enumerate() {
                builder = builder.process(
                    AnonConsensus::new(pid(100 + i as u64), n, input).unwrap(),
                    View::rotated(2 * n - 1, rng.gen_index(2 * n - 1)),
                );
            }
            let mut sim = builder.build().unwrap();
            // Random prefix, then crash a random subset (leaving at least
            // one alive), then let the survivors run with bursts.
            sched::random(&mut sim, seed, rng.gen_index(200));
            let crash_count = rng.gen_index(n);
            for _ in 0..crash_count {
                let victim = rng.gen_index(n);
                // Keep at least one process alive.
                let alive = (0..n).filter(|&p| !sim.is_halted(p)).count();
                if alive > 1 && !sim.is_halted(victim) {
                    sim.crash(victim).unwrap();
                }
            }
            sched::random_bursts(&mut sim, seed ^ 0xBEEF, 8 * n, 60_000 * n);
            check_consensus(sim.trace(), &inputs)
                .unwrap_or_else(|v| panic!("n={n} seed={seed}: {v}"));
        }
    }
}

#[test]
fn renaming_n2_uniqueness_holds_under_exhaustive_crashes() {
    // Crash-enabled exhaustive exploration for n = 2: in every reachable
    // state (under any interleaving and any crash pattern), the set of
    // names announced so far must be duplicate-free and within {1, 2}.
    // Names travel via events, so check terminal-and-partial states by
    // replaying the discovery path.
    use anonreg_sim::explore::ScheduleAction;
    let build = || {
        Simulation::builder()
            .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
            .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    };
    let graph = Explorer::new(build())
        .max_states(2_000_000)
        .crashes(true)
        .run()
        .unwrap();
    let mut checked = 0;
    for (id, state) in graph.states() {
        if !state.all_halted() {
            continue;
        }
        checked += 1;
        let mut sim = build();
        for action in graph.actions_to(id) {
            match action {
                ScheduleAction::Step(p) => {
                    sim.step(p).unwrap();
                }
                ScheduleAction::Crash(p) => sim.crash(p).unwrap(),
            }
        }
        check_renaming(sim.trace(), 2).unwrap_or_else(|v| panic!("state {id}: {v}"));
    }
    assert!(checked > 0, "crash exploration reaches terminal states");
}

#[test]
fn every_crash_graph_state_replays_from_its_actions() {
    // Each state's discovering transition is stored as one compact parent
    // record, crash bit included. With four workers, states reach the
    // graph out of id order. Either way, replaying `actions_to(id)` from
    // the initial configuration must land exactly on `state(id)`.
    use anonreg_sim::explore::ScheduleAction;
    let build = || {
        Simulation::builder()
            .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
            .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    };
    for threads in [1, 4] {
        let graph = Explorer::new(build())
            .crashes(true)
            .parallelism(threads)
            .run()
            .unwrap();
        let mut crashed = 0;
        for (id, state) in graph.states() {
            let mut sim = build();
            for action in graph.actions_to(id) {
                match action {
                    ScheduleAction::Step(p) => {
                        sim.step(p).unwrap();
                    }
                    ScheduleAction::Crash(p) => {
                        crashed += 1;
                        sim.crash(p).unwrap();
                    }
                }
            }
            assert!(
                sim.same_configuration(state),
                "{threads} workers: state {id} does not replay"
            );
        }
        assert!(crashed > 0, "{threads} workers: no path replayed a crash");
    }
}

#[test]
fn renaming_randomized_crashes_never_break_uniqueness() {
    let n = 4;
    for seed in 0..100u64 {
        let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(977));
        let mut builder = Simulation::builder();
        for i in 0..n {
            builder = builder.process(
                AnonRenaming::new(pid(500 + 3 * i as u64), n).unwrap(),
                View::rotated(2 * n - 1, rng.gen_index(2 * n - 1)),
            );
        }
        let mut sim = builder.build().unwrap();
        sched::random(&mut sim, seed, rng.gen_index(400));
        let victim = rng.gen_index(n);
        if !sim.is_halted(victim) {
            sim.crash(victim).unwrap();
        }
        sched::random_bursts(&mut sim, seed ^ 0xCAFE, 16 * n, 80_000 * n);
        // A crashed participant still counts toward the adaptivity bound
        // (it participated); survivors' names must be distinct and within
        // {1..n}.
        check_renaming(sim.trace(), n as u32).unwrap_or_else(|v| panic!("seed={seed}: {v}"));
    }
}

#[test]
fn lock_based_consensus_wedges_on_a_crash_but_fig2_does_not() {
    // The §4 motivation, executed: crash a process mid-algorithm and watch
    // the lock-based baseline starve its survivor while Figure 2 sails on.
    use anonreg::baseline::LockConsensus;

    // Baseline: crash the lock holder.
    let mut locky = Simulation::builder()
        .process_identity(LockConsensus::new(pid(1), 0, 2, 1).unwrap())
        .process_identity(LockConsensus::new(pid(2), 1, 2, 2).unwrap())
        .build()
        .unwrap();
    // Drive process 0 until it is inside the critical section (it has read
    // the decision register but not yet written it — 8 ops into its run).
    for _ in 0..8 {
        locky.step(0).unwrap();
    }
    locky.crash(0).unwrap();
    // The survivor spins forever on the dead process's Bakery ticket.
    let (_, halted) = locky.run_solo(1, 50_000).unwrap();
    assert!(!halted, "lock-based consensus must wedge after the crash");

    // Figure 2: crash one process anywhere; the survivor still decides.
    let mut anon = Simulation::builder()
        .process(AnonConsensus::new(pid(1), 2, 1).unwrap(), View::identity(3))
        .process(
            AnonConsensus::new(pid(2), 2, 2).unwrap(),
            View::rotated(3, 2),
        )
        .build()
        .unwrap();
    for _ in 0..8 {
        anon.step(0).unwrap();
    }
    anon.crash(0).unwrap();
    let (_, halted) = anon.run_solo(1, 50_000).unwrap();
    assert!(halted, "Figure 2's survivor must decide");
    let decided: Vec<u64> = anon
        .machines()
        .filter(|m| m.has_decided())
        .map(anonreg::consensus::AnonConsensus::preference)
        .collect();
    assert_eq!(decided.len(), 1);
    assert!([1, 2].contains(&decided[0]));
}

/// Stats mode must count exactly what graph mode stores, crash
/// transitions included: at every worker count its state, edge and dedup
/// counts equal the graph's, and its code bytes are the summed plain
/// codes of the graph's states.
fn assert_stats_match_graph<M>(family: &str, build: impl Fn() -> Simulation<M>)
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let graph = Explorer::new(build())
        .max_states(2_000_000)
        .crashes(true)
        .run()
        .unwrap();
    let code_bytes: usize = graph
        .states()
        .map(|(_, s)| s.canonical_code(SymmetryMode::Off).len())
        .sum();
    for threads in [1, 2] {
        let stats = Explorer::new(build())
            .max_states(2_000_000)
            .crashes(true)
            .parallelism(threads)
            .run_stats()
            .unwrap();
        let at = format!("{family} at {threads} workers");
        assert_eq!(stats.states as usize, graph.state_count(), "{at}: states");
        assert_eq!(stats.edges as usize, graph.edge_count(), "{at}: edges");
        assert_eq!(
            stats.dedup as usize,
            graph.edge_count() - (graph.state_count() - 1),
            "{at}: dedup"
        );
        assert_eq!(stats.code_bytes as usize, code_bytes, "{at}: code bytes");
    }
}

#[test]
fn crash_stats_count_what_the_graph_stores() {
    assert_stats_match_graph("consensus", || {
        Simulation::builder()
            .process(AnonConsensus::new(pid(1), 2, 1).unwrap(), View::identity(3))
            .process(
                AnonConsensus::new(pid(2), 2, 2).unwrap(),
                View::rotated(3, 1),
            )
            .build()
            .unwrap()
    });
    assert_stats_match_graph("renaming", || {
        Simulation::builder()
            .process(AnonRenaming::new(pid(1), 2).unwrap(), View::identity(3))
            .process(AnonRenaming::new(pid(2), 2).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap()
    });
}
