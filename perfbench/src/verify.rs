//! `verify-batch`: the paper's verdict suite on the sequential engine in
//! graph mode, each problem checked against pinned counts and verdicts.

use std::collections::HashSet;
use std::hash::Hash;
use std::time::{Duration, Instant};

use anonreg::consensus::AnonConsensus;
use anonreg::hybrid::{named_view, HybridMutex};
use anonreg::mutex::{AnonMutex, MutexEvent, Section};
use anonreg::ordered::OrderedMutex;
use anonreg::renaming::{AnonRenaming, RenamingEvent};
use anonreg::View;
use anonreg_model::rng::Rng64;
use anonreg_model::{Machine, SymmetryMode};
use anonreg_obs::{MemProbe, Metric as ObsMetric};
use anonreg_sim::obstruction::check_obstruction_freedom;
use anonreg_sim::prelude::*;
use anonreg_sim::Simulation;

use crate::batch::{measure_setups, run_batches, ExploreBatch, ExplorerRun};
use crate::explore_par::{consensus_sim, mutex_sim, pid};
use crate::layers::{timed_explore, CallCosts, PhaseTimes, EXPLORER_PHASES};
use crate::report::{metric, Outcome};
use crate::{Config, Measured};

/// State cap of every problem.
pub const CAP: usize = 4_000_000;

/// One verification problem of the suite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// Figure 1, two processes, second view rotated by `shift` (E1).
    Mutex { m: usize, shift: usize },
    /// The arbitrary-comparisons mutex (E13).
    Ordered { m: usize, shift: usize },
    /// `m` anonymous registers plus one named register (E11).
    Hybrid { m: usize, shift: usize },
    /// Figure 2, `n = 2`, inputs 1 and 2, with crash transitions.
    ConsensusCrash { shift: usize },
    /// Figure 3, `n = 2`.
    Renaming { shift: usize },
    /// Figure 2 with `n` equal-input processes over `r` registers under
    /// full symmetry reduction (E16).
    ConsensusFull { n: usize, r: usize },
}

impl Problem {
    pub fn name(&self) -> String {
        match *self {
            Problem::Mutex { m, shift } => format!("mutex_m{m}_s{shift}"),
            Problem::Ordered { m, shift } => format!("ordered_m{m}_s{shift}"),
            Problem::Hybrid { m, shift } => format!("hybrid_m{m}_s{shift}"),
            Problem::ConsensusCrash { shift } => format!("consensus_crash_n2_s{shift}"),
            Problem::Renaming { shift } => format!("renaming_n2_s{shift}"),
            Problem::ConsensusFull { n, r } => format!("consensus_full_n{n}_r{r}"),
        }
    }
}

/// The suite: E1 at `m = 1..5`, E13 at `m = 2..4`, E11 at `2+1` and
/// `3+1`, every rotation; consensus with crashes and renaming at `n = 2`
/// under every rotation of the second view; the E16 symmetric consensus.
/// The tiny suite keeps one or two of each for the self-test.
pub fn suite(tiny: bool) -> Vec<Problem> {
    let (mutex_m, ordered_m, hybrid_m, shifts, full) = if tiny {
        (3, 2, 2, 1..2, (2, 2))
    } else {
        (5, 4, 3, 0..3, (3, 2))
    };
    let mut out = Vec::new();
    for m in 1..=mutex_m {
        out.extend((0..m).map(|shift| Problem::Mutex { m, shift }));
    }
    for m in 2..=ordered_m {
        out.extend((0..m).map(|shift| Problem::Ordered { m, shift }));
    }
    for m in 2..=hybrid_m {
        out.extend((0..m).map(|shift| Problem::Hybrid { m, shift }));
    }
    out.extend(
        shifts
            .clone()
            .map(|shift| Problem::ConsensusCrash { shift }),
    );
    out.extend(shifts.map(|shift| Problem::Renaming { shift }));
    out.push(Problem::ConsensusFull {
        n: full.0,
        r: full.1,
    });
    out
}

/// Pinned `(problem, states, edges, verdicts)`, measured on the sequential
/// engine; verdicts are `safe, live` for the mutexes, `agreement,
/// obstruction_free` for consensus with crashes, `names_ok,
/// obstruction_free` for renaming. A mismatch is a failed operation.
const EXPECTED: &[(&str, usize, usize, &[bool])] = &[
    ("consensus_crash_n2_s0", 88648, 177296, &[true, true]),
    ("consensus_crash_n2_s1", 63208, 126416, &[true, true]),
    ("consensus_crash_n2_s2", 63208, 126416, &[true, true]),
    ("consensus_full_n2_r2", 537, 1006, &[true]),
    ("consensus_full_n3_r2", 75702, 219466, &[true]),
    ("hybrid_m2_s0", 20462, 40924, &[true, true]),
    ("hybrid_m2_s1", 19713, 39426, &[true, true]),
    ("hybrid_m3_s0", 54332, 108664, &[true, true]),
    ("hybrid_m3_s1", 57734, 115468, &[true, true]),
    ("hybrid_m3_s2", 57734, 115468, &[true, true]),
    ("mutex_m1_s0", 352, 704, &[false, true]),
    ("mutex_m2_s0", 4726, 9452, &[true, false]),
    ("mutex_m2_s1", 4806, 9612, &[true, false]),
    ("mutex_m3_s0", 22714, 45428, &[true, true]),
    ("mutex_m3_s1", 24548, 49096, &[true, true]),
    ("mutex_m3_s2", 24548, 49096, &[true, true]),
    ("mutex_m4_s0", 114960, 229920, &[true, false]),
    ("mutex_m4_s1", 126000, 252000, &[true, false]),
    ("mutex_m4_s2", 127640, 255280, &[true, false]),
    ("mutex_m4_s3", 126000, 252000, &[true, false]),
    ("mutex_m5_s0", 590648, 1181296, &[true, true]),
    ("mutex_m5_s1", 542509, 1085018, &[true, true]),
    ("mutex_m5_s2", 545151, 1090302, &[true, true]),
    ("mutex_m5_s3", 545151, 1090302, &[true, true]),
    ("mutex_m5_s4", 542509, 1085018, &[true, true]),
    ("ordered_m2_s0", 4775, 9550, &[true, true]),
    ("ordered_m2_s1", 4872, 9744, &[true, true]),
    ("ordered_m3_s0", 22714, 45428, &[true, true]),
    ("ordered_m3_s1", 24548, 49096, &[true, true]),
    ("ordered_m3_s2", 24548, 49096, &[true, true]),
    ("ordered_m4_s0", 135819, 271638, &[true, true]),
    ("ordered_m4_s1", 141437, 282874, &[true, true]),
    ("ordered_m4_s2", 142994, 285988, &[true, true]),
    ("ordered_m4_s3", 138351, 276702, &[true, true]),
    ("renaming_n2_s0", 23568, 45726, &[true, true]),
    ("renaming_n2_s1", 16936, 32734, &[true, true]),
    ("renaming_n2_s2", 16936, 32734, &[true, true]),
];

fn expected(name: &str) -> Option<(usize, usize, &'static [bool])> {
    EXPECTED
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(_, s, e, v)| (s, e, v))
}

fn two<M: Machine>(a: M, va: View, b: M, vb: View) -> Simulation<M> {
    Simulation::builder()
        .process(a, va)
        .process(b, vb)
        .build()
        .expect("uniform configuration")
}

/// A problem's initial configuration.
enum Built {
    Mutex(Simulation<AnonMutex>),
    Ordered(Simulation<OrderedMutex>),
    Hybrid(Simulation<HybridMutex>),
    Consensus(Simulation<AnonConsensus>),
    Renaming(Simulation<AnonRenaming>),
}

fn build(problem: Problem) -> Built {
    match problem {
        Problem::Mutex { m, shift } => Built::Mutex(mutex_sim(m, shift)),
        Problem::Ordered { m, shift } => Built::Ordered(two(
            OrderedMutex::new(pid(1), m).expect("m >= 2"),
            View::identity(m),
            OrderedMutex::new(pid(2), m).expect("m >= 2"),
            View::rotated(m, shift),
        )),
        Problem::Hybrid { m, shift } => Built::Hybrid(two(
            HybridMutex::new(pid(1), m).expect("m >= 2"),
            named_view(m, (0..m).collect()).expect("permutation"),
            HybridMutex::new(pid(2), m).expect("m >= 2"),
            named_view(m, (0..m).map(|j| (j + shift) % m).collect()).expect("permutation"),
        )),
        Problem::ConsensusCrash { shift } => Built::Consensus(two(
            AnonConsensus::new(pid(1), 2, 1).expect("valid"),
            View::identity(3),
            AnonConsensus::new(pid(2), 2, 2).expect("valid"),
            View::rotated(3, shift),
        )),
        Problem::Renaming { shift } => Built::Renaming(two(
            AnonRenaming::new(pid(1), 2).expect("valid"),
            View::identity(3),
            AnonRenaming::new(pid(2), 2).expect("valid"),
            View::rotated(3, shift),
        )),
        Problem::ConsensusFull { n, r } => Built::Consensus(consensus_sim(n, r)),
    }
}

/// A problem's explorer, configured and ready to run: building these is
/// the workload's set-up.
enum Prepared {
    Mutex(Explorer<'static, AnonMutex>),
    Ordered(Explorer<'static, OrderedMutex>),
    Hybrid(Explorer<'static, HybridMutex>),
    Consensus(Explorer<'static, AnonConsensus>, &'static [u64]),
    Renaming(Explorer<'static, AnonRenaming>),
}

fn base<M>(sim: Simulation<M>) -> Explorer<'static, M>
where
    M: Machine + Eq + Hash,
{
    Explorer::new(sim).max_states(CAP).parallelism(1)
}

fn prepare(problem: Problem) -> Prepared {
    match build(problem) {
        Built::Mutex(sim) => Prepared::Mutex(base(sim)),
        Built::Ordered(sim) => Prepared::Ordered(base(sim)),
        Built::Hybrid(sim) => Prepared::Hybrid(base(sim)),
        Built::Renaming(sim) => Prepared::Renaming(base(sim)),
        Built::Consensus(sim) => match problem {
            Problem::ConsensusFull { .. } => {
                Prepared::Consensus(base(sim).symmetry(SymmetryMode::Full), &[1])
            }
            _ => Prepared::Consensus(base(sim).crashes(true), &[1, 2]),
        },
    }
}

/// Time spent per layer on one problem.
#[derive(Debug, Default, Clone, Copy)]
struct Timings {
    explore: Duration,
    safety: Duration,
    livelock: Duration,
    obstruction: Duration,
    drop: Duration,
}

/// Per-layer accumulators of traced batches.
#[derive(Debug)]
struct Traced {
    phases: PhaseTimes,
    dedup: u64,
}

struct Checked {
    states: usize,
    edges: usize,
    verdicts: Vec<bool>,
    timings: Timings,
}

/// Explores in graph mode; traced, with the `Profiler` and a `MemProbe`
/// attached, whose dedup count goes to `traced`.
fn explore<M>(
    explorer: Explorer<'static, M>,
    traced: Option<&mut Traced>,
) -> Result<(StateGraph<M>, Duration), ExploreError>
where
    M: Machine + Eq + Hash,
{
    let Some(traced) = traced else {
        return timed_explore(explorer, 1, None, Explorer::run);
    };
    let probe = MemProbe::new();
    let out = timed_explore(explorer, 1, Some(&mut traced.phases), |ex| {
        ex.probe(&probe).run()
    });
    traced.dedup += probe.snapshot().counter_total(ObsMetric::ExploreDedup);
    out
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// Explores, judges and drops one problem's graph, timing each layer.
fn check<M>(
    explorer: Explorer<'static, M>,
    traced: Option<&mut Traced>,
    judge: impl FnOnce(&StateGraph<M>, &mut Timings) -> Vec<bool>,
) -> Result<Checked, ExploreError>
where
    M: Machine + Eq + Hash,
{
    let (graph, explore_time) = explore(explorer, traced)?;
    let mut timings = Timings {
        explore: explore_time,
        ..Timings::default()
    };
    let verdicts = judge(&graph, &mut timings);
    let (states, edges) = (graph.state_count(), graph.edge_count());
    timed(&mut timings.drop, || drop(graph));
    Ok(Checked {
        states,
        edges,
        verdicts,
        timings,
    })
}

/// The mutual-exclusion families: Figure 1, ordered and hybrid.
trait Sectioned: Machine<Event = MutexEvent> {
    fn section_now(&self) -> Section;
}

impl Sectioned for AnonMutex {
    fn section_now(&self) -> Section {
        self.section()
    }
}

impl Sectioned for OrderedMutex {
    fn section_now(&self) -> Section {
        self.section()
    }
}

impl Sectioned for HybridMutex {
    fn section_now(&self) -> Section {
        self.section()
    }
}

fn mutex_verdicts<M: Sectioned>(graph: &StateGraph<M>, t: &mut Timings) -> Vec<bool> {
    let safe = timed(&mut t.safety, || {
        graph
            .find_state(|s| {
                s.machines()
                    .filter(|m| m.section_now() == Section::Critical)
                    .count()
                    >= 2
            })
            .is_none()
    });
    let live = timed(&mut t.livelock, || {
        graph
            .find_fair_livelock(
                |m| m.section_now() == Section::Entry,
                |e| *e == MutexEvent::Enter,
            )
            .is_none()
    });
    vec![safe, live]
}

fn consensus_verdicts(
    graph: &StateGraph<AnonConsensus>,
    inputs: &[u64],
    obstruction: bool,
    t: &mut Timings,
) -> Vec<bool> {
    let agreement = timed(&mut t.safety, || {
        graph
            .find_state(|s| {
                let decided: Vec<u64> = s
                    .machines()
                    .filter(|m| m.has_decided())
                    .map(AnonConsensus::preference)
                    .collect();
                decided.windows(2).any(|w| w[0] != w[1])
                    || decided.iter().any(|v| !inputs.contains(v))
            })
            .is_none()
    });
    let mut out = vec![agreement];
    if obstruction {
        out.push(timed(&mut t.obstruction, || {
            check_obstruction_freedom(graph, 64).is_ok()
        }));
    }
    out
}

/// Every name announced on every path is in `1..=n` and no two processes
/// hold the same name: a search over (state, names so far), since names
/// travel on edges rather than in states.
fn names_ok(graph: &StateGraph<AnonRenaming>, n: u32) -> bool {
    let procs = graph.state(0).process_count();
    let start = (0usize, vec![0u32; procs]);
    let mut seen = HashSet::from([start.clone()]);
    let mut stack = vec![start];
    while let Some((id, names)) = stack.pop() {
        for edge in graph.edges(id) {
            let mut next = names.clone();
            for event in &edge.events {
                let RenamingEvent::Named(name) = *event;
                if next[edge.proc] != 0 || !(1..=n).contains(&name) || next.contains(&name) {
                    return false;
                }
                next[edge.proc] = name;
            }
            let key = (edge.target, next);
            if seen.insert(key.clone()) {
                stack.push(key);
            }
        }
    }
    true
}

fn renaming_verdicts(graph: &StateGraph<AnonRenaming>, t: &mut Timings) -> Vec<bool> {
    let names = timed(&mut t.safety, || names_ok(graph, 2));
    let free = timed(&mut t.obstruction, || {
        check_obstruction_freedom(graph, 256).is_ok()
    });
    vec![names, free]
}

fn run_problem(
    problem: Problem,
    prepared: Prepared,
    traced: Option<&mut Traced>,
) -> Result<Checked, ExploreError> {
    let crash = matches!(problem, Problem::ConsensusCrash { .. });
    match prepared {
        Prepared::Mutex(ex) => check(ex, traced, mutex_verdicts),
        Prepared::Ordered(ex) => check(ex, traced, mutex_verdicts),
        Prepared::Hybrid(ex) => check(ex, traced, mutex_verdicts),
        Prepared::Consensus(ex, inputs) => {
            check(ex, traced, |g, t| consensus_verdicts(g, inputs, crash, t))
        }
        Prepared::Renaming(ex) => check(ex, traced, renaming_verdicts),
    }
}

/// Samples per-call costs on a short random walk of every problem's
/// initial configuration.
fn sample_calls(problems: &[Problem], rng: &mut Rng64, costs: &mut CallCosts) {
    const STEPS: usize = 512;
    for &problem in problems {
        match build(problem) {
            Built::Mutex(sim) => costs.sample(&sim, rng, STEPS),
            Built::Ordered(sim) => costs.sample(&sim, rng, STEPS),
            Built::Hybrid(sim) => costs.sample(&sim, rng, STEPS),
            Built::Consensus(sim) => costs.sample(&sim, rng, STEPS),
            Built::Renaming(sim) => costs.sample(&sim, rng, STEPS),
        }
    }
}

pub fn run(cfg: &Config) -> Measured {
    let problems = suite(cfg.tiny);
    let mut outcome = Outcome::default();
    let (setups, fixed) = measure_setups(
        || -> Vec<Prepared> { problems.iter().map(|&p| prepare(p)).collect() },
        CAP,
        1,
        true,
    );
    let mut traced = Traced {
        phases: PhaseTimes::new(EXPLORER_PHASES),
        dedup: 0,
    };
    let (plain, traced_batches) = run_batches(cfg, |index, tracing| {
        let mut order = problems.clone();
        Rng64::seed_from_u64(cfg.seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .shuffle(&mut order);
        let prepared: Vec<Prepared> = order.iter().map(|&p| prepare(p)).collect();
        let mut batch = ExploreBatch::default();
        let wall_start = Instant::now();
        for (i, (&problem, prep)) in order.iter().zip(prepared).enumerate() {
            let op_start = Instant::now();
            let result = run_problem(problem, prep, tracing.then_some(&mut traced));
            batch
                .latencies_us
                .push(op_start.elapsed().as_secs_f64() * 1e6);
            let name = problem.name();
            let c = match result {
                Ok(c) => c,
                Err(e) => {
                    outcome.check(false, || format!("{name}: {e}"));
                    continue;
                }
            };
            batch.explore += c.timings.explore;
            batch.states += c.states as u64;
            batch.edges += c.edges as u64;
            batch.safety += c.timings.safety;
            batch.livelock += c.timings.livelock;
            batch.obstruction += c.timings.obstruction;
            batch.drop += c.timings.drop;
            let want =
                expected(&name).map(|(s, e, v)| (s + usize::from(cfg.inject && i == 0), e, v));
            let got = (c.states, c.edges, c.verdicts.as_slice());
            outcome.check(want == Some(got), || {
                format!("{name}: got {got:?}, pinned {want:?}")
            });
        }
        batch.wall = wall_start.elapsed();
        if tracing {
            batch.dedup = std::mem::take(&mut traced.dedup);
        }
        batch
    });
    let mut costs = CallCosts::default();
    if cfg.trace {
        sample_calls(&problems, &mut Rng64::seed_from_u64(cfg.seed), &mut costs);
    }
    let run = ExplorerRun {
        plain,
        traced: traced_batches,
        setups,
        fixed,
        phases: traced.phases,
        costs,
        calls: problems.len(),
    };
    let (e2e, mut report) = run.e2e();
    report.push(metric("problems", run.calls as f64, "count"));
    Measured {
        outcome,
        e2e,
        layer: if cfg.trace { run.layers() } else { Vec::new() },
        report,
    }
}
