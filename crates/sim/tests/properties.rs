//! Property-style tests for the simulator: determinism, covering
//! semantics, and explorer completeness.
//!
//! Randomized with the workspace's seeded [`Rng64`] (fixed seeds, fully
//! replayable, no external dependencies).

use anonreg_model::rng::Rng64;
use anonreg_model::{Machine, Pid, Step, View};
use anonreg_sim::prelude::*;
use anonreg_sim::{sched, Simulation};

const CASES: usize = 64;

/// A compact machine with interesting behavior: reads a register, writes
/// its pid xor the value read to the next register, `k` times, then halts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Mixer {
    pid: Pid,
    m: usize,
    k: usize,
    at: usize,
    awaiting: bool,
    acc: u64,
}

impl Mixer {
    fn new(id: u64, m: usize, k: usize) -> Self {
        Mixer {
            pid: Pid::new(id).unwrap(),
            m,
            k,
            at: 0,
            awaiting: false,
            acc: 0,
        }
    }
}

impl Machine for Mixer {
    type Value = u64;
    type Event = ();

    fn pid(&self) -> Pid {
        self.pid
    }

    fn register_count(&self) -> usize {
        self.m
    }

    fn resume(&mut self, read: Option<u64>) -> Step<u64, ()> {
        if self.k == 0 {
            return Step::Halt;
        }
        if self.awaiting {
            self.awaiting = false;
            self.acc ^= read.expect("read result");
            let target = (self.at + 1) % self.m;
            self.at = target;
            self.k -= 1;
            Step::Write(target, self.pid.get() ^ self.acc)
        } else {
            self.awaiting = true;
            Step::Read(self.at)
        }
    }
}

fn two_mixers(shift: usize, m: usize) -> Simulation<Mixer> {
    Simulation::builder()
        .process(Mixer::new(3, m, 3), View::identity(m))
        .process(Mixer::new(5, m, 3), View::rotated(m, shift % m))
        .build()
        .unwrap()
}

/// The same seed always reproduces the same run, registers and trace.
#[test]
fn seeded_runs_are_deterministic() {
    let mut rng = Rng64::seed_from_u64(0x5EED);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let shift = rng.gen_index(4);
        let m = rng.gen_range_inclusive(2, 4);
        let run = |seed| {
            let mut sim = two_mixers(shift, m);
            sched::random(&mut sim, seed, 1_000);
            (sim.registers().to_vec(), format!("{}", sim.trace()))
        };
        assert_eq!(run(seed), run(seed));
    }
}

/// Bursty and plain random scheduling preserve per-seed determinism.
#[test]
fn burst_runs_are_deterministic() {
    let mut rng = Rng64::seed_from_u64(0xB0257);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let burst = rng.gen_range_inclusive(1, 7);
        let run = |seed| {
            let mut sim = two_mixers(1, 3);
            sched::random_bursts(&mut sim, seed, burst, 1_000);
            sim.registers().to_vec()
        };
        assert_eq!(run(seed), run(seed));
    }
}

/// Covering then releasing immediately is identical to stepping directly
/// (when nobody runs in between) — poising must not disturb semantics.
#[test]
fn cover_then_release_equals_direct_steps() {
    for m in 2..5 {
        let mut direct = two_mixers(1, m);
        let (_, halted) = direct.run_solo(0, 10_000).unwrap();
        assert!(halted);

        let mut covered = two_mixers(1, m);
        // Drive through poise/release pairs until the machine halts.
        for _ in 0..10_000 {
            if covered.is_halted(0) {
                break;
            }
            match covered.step_to_cover(0).unwrap() {
                anonreg_sim::StepOutcome::Write => covered.apply_poised(0).unwrap(),
                anonreg_sim::StepOutcome::Halted => break,
                _ => {}
            }
        }
        assert!(covered.is_halted(0));
        assert_eq!(direct.registers(), covered.registers());
        assert_eq!(direct.machine(0), covered.machine(0));
    }
}

/// Explorer completeness: every configuration reached by a random schedule
/// appears in the exhaustive state graph.
#[test]
fn random_runs_stay_within_the_explored_graph() {
    let graph = Explorer::new(two_mixers(2, 3)).run().unwrap();
    let mut states = Vec::new();
    graph.for_each_state(|_, s| states.push(s.clone()));
    let mut rng = Rng64::seed_from_u64(0x6AF);
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let prefix = rng.gen_index(14);
        let mut sim = two_mixers(2, 3);
        sched::random(&mut sim, seed, prefix);
        let found = states.iter().any(|s| {
            s.registers() == sim.registers()
                && (0..2)
                    .all(|p| s.machine(p) == sim.machine(p) && s.is_halted(p) == sim.is_halted(p))
        });
        assert!(found, "random run escaped the exhaustive graph");
    }
}

/// Schedules reconstructed by the explorer replay to their states.
#[test]
fn reconstructed_schedules_replay() {
    let graph = Explorer::new(two_mixers(1, 3)).run().unwrap();
    let mut rng = Rng64::seed_from_u64(0x3C0);
    for _ in 0..CASES {
        let id = rng.gen_index(graph.state_count());
        let schedule = graph.schedule_to(id);
        let mut sim = two_mixers(1, 3);
        for &p in &schedule {
            sim.step(p).unwrap();
        }
        let state = graph.state(id);
        assert_eq!(sim.registers(), state.registers());
        for p in 0..2 {
            assert_eq!(sim.machine(p), state.machine(p));
        }
    }
}
