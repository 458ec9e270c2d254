//! `explore-par`: stats-mode exploration on the parallel engine over two
//! spaces of opposite shape, each checked against pinned counts.

use std::time::Instant;

use anonreg::consensus::AnonConsensus;
use anonreg::mutex::AnonMutex;
use anonreg::{Pid, View};
use anonreg_model::rng::Rng64;
use anonreg_sim::prelude::*;
use anonreg_sim::Simulation;

use crate::batch::{measure_setups, run_batches, ExploreBatch, ExplorerRun};
use crate::layers::{timed_explore, CallCosts, PhaseTimes, EXPLORER_PHASES};
use crate::report::{metric, Outcome};
use crate::{Config, Measured};

/// Worker threads of the parallel engine.
pub const THREADS: usize = 2;

/// State cap. `check explore --scale` defaults to 10⁸; see the README for
/// why this workload runs at 10⁷.
pub const CAP: usize = 10_000_000;

/// The cap of a run: [`CAP`], or 10⁶ for the tiny self-test size.
pub fn cap(tiny: bool) -> usize {
    if tiny {
        1_000_000
    } else {
        CAP
    }
}

/// One explored space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    /// Figure 2, `n` equal-input processes over `r` registers: wide.
    Consensus { n: usize, r: usize },
    /// Figure 1, two processes, second view rotated by `shift`: narrow.
    Mutex { m: usize, shift: usize },
}

impl Space {
    pub fn name(&self) -> String {
        match *self {
            Space::Consensus { n, r } => format!("consensus_n{n}_r{r}"),
            Space::Mutex { m, shift } => format!("mutex_m{m}_s{shift}"),
        }
    }
}

pub fn spaces(tiny: bool) -> [Space; 2] {
    if tiny {
        [
            Space::Consensus { n: 2, r: 2 },
            Space::Mutex { m: 3, shift: 1 },
        ]
    } else {
        [
            Space::Consensus { n: 3, r: 2 },
            Space::Mutex { m: 5, shift: 2 },
        ]
    }
}

/// Pinned `(space, states, edges)` of the stats-mode exploration. The
/// mutex space is `verify-batch`'s `mutex_m5_s2`, with the same counts.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("consensus_n2_r2", 1071, 2006),
    ("consensus_n3_r2", 453423, 1314612),
    ("mutex_m3_s1", 24548, 49096),
    ("mutex_m5_s2", 545151, 1090302),
];

pub fn pid(n: u64) -> Pid {
    Pid::new(n).expect("nonzero pid")
}

/// Figure 2: `n` processes with input 1 behind identity views over `r`
/// registers.
pub fn consensus_sim(n: usize, r: usize) -> Simulation<AnonConsensus> {
    let mut builder = Simulation::builder();
    for i in 0..n {
        builder = builder.process(
            AnonConsensus::new(pid(i as u64 + 1), n, 1)
                .expect("valid")
                .with_registers(r),
            View::identity(r),
        );
    }
    builder.build().expect("uniform configuration")
}

/// Figure 1: two processes over `m` registers, the second view rotated
/// by `shift`.
pub fn mutex_sim(m: usize, shift: usize) -> Simulation<AnonMutex> {
    Simulation::builder()
        .process(
            AnonMutex::new(pid(1), m).expect("m >= 1"),
            View::identity(m),
        )
        .process(
            AnonMutex::new(pid(2), m).expect("m >= 1"),
            View::rotated(m, shift),
        )
        .build()
        .expect("uniform configuration")
}

enum Prepared {
    Consensus(Explorer<'static, AnonConsensus>),
    Mutex(Explorer<'static, AnonMutex>),
}

fn prepare(space: Space, cap: usize) -> Prepared {
    match space {
        Space::Consensus { n, r } => Prepared::Consensus(
            Explorer::new(consensus_sim(n, r))
                .max_states(cap)
                .parallelism(THREADS),
        ),
        Space::Mutex { m, shift } => Prepared::Mutex(
            Explorer::new(mutex_sim(m, shift))
                .max_states(cap)
                .parallelism(THREADS),
        ),
    }
}

pub fn run(cfg: &Config) -> Measured {
    let spaces = spaces(cfg.tiny);
    let cap = cap(cfg.tiny);
    let mut outcome = Outcome::default();
    let prepare_all = || -> Vec<Prepared> { spaces.iter().map(|&s| prepare(s, cap)).collect() };
    let (setups, fixed) = measure_setups(prepare_all, cap, THREADS, false);
    let mut phases = PhaseTimes::new(EXPLORER_PHASES);
    let (plain, traced_batches) = run_batches(cfg, |_, tracing| {
        let prepared = prepare_all();
        let mut batch = ExploreBatch::default();
        let wall_start = Instant::now();
        for (i, (space, prep)) in spaces.iter().zip(prepared).enumerate() {
            let op_start = Instant::now();
            let tr = tracing.then_some(&mut phases);
            let result = match prep {
                Prepared::Consensus(ex) => timed_explore(ex, THREADS, tr, Explorer::run_stats),
                Prepared::Mutex(ex) => timed_explore(ex, THREADS, tr, Explorer::run_stats),
            };
            batch
                .latencies_us
                .push(op_start.elapsed().as_secs_f64() * 1e6);
            let name = space.name();
            let (stats, time) = match result {
                Ok(r) => r,
                Err(e) => {
                    outcome.check(false, || format!("{name}: {e}"));
                    continue;
                }
            };
            batch.explore += time;
            batch.states += stats.states;
            batch.edges += stats.edges;
            batch.dedup += stats.dedup;
            let want = EXPECTED
                .iter()
                .find(|(n, ..)| *n == name)
                .map(|&(_, s, e)| (s + u64::from(cfg.inject && i == 0), e));
            let got = (stats.states, stats.edges);
            outcome.check(want == Some(got), || {
                format!("{name}: got {got:?}, pinned {want:?}")
            });
        }
        batch.wall = wall_start.elapsed();
        batch
    });
    let mut costs = CallCosts::default();
    if cfg.trace {
        let mut rng = Rng64::seed_from_u64(cfg.seed);
        for space in spaces {
            match space {
                Space::Consensus { n, r } => costs.sample(&consensus_sim(n, r), &mut rng, 8192),
                Space::Mutex { m, shift } => costs.sample(&mutex_sim(m, shift), &mut rng, 8192),
            }
        }
    }
    let run = ExplorerRun {
        plain,
        traced: traced_batches,
        setups,
        fixed,
        phases,
        costs,
        calls: spaces.len(),
    };
    let (e2e, mut report) = run.e2e();
    report.push(metric("spaces", run.calls as f64, "count"));
    Measured {
        outcome,
        e2e,
        layer: if cfg.trace { run.layers() } else { Vec::new() },
        report,
    }
}
