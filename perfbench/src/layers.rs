//! Per-layer measurements shared by the explorer workloads: per-call
//! costs of the simulator, canonicalizer and fingerprint, the explorer's
//! fixed cost, the timed explorer call, and the folding of phase
//! profiles.

use std::hash::Hash;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anonreg::mutex::AnonMutex;
use anonreg::{Pid, View};
use anonreg_model::fingerprint::fp128;
use anonreg_model::rng::Rng64;
use anonreg_model::{Machine, PidMap, SymmetryMode};
use anonreg_obs::Profiler;
use anonreg_sim::prelude::*;
use anonreg_sim::Simulation;

use crate::report::{metric, Metric};

/// Accumulated per-call costs over sampled states.
#[derive(Debug, Default)]
pub struct CallCosts {
    steps: u64,
    step_ns: u128,
    codes: u64,
    code_off_ns: u128,
    code_full_ns: u128,
    code_bytes: u64,
    fp_ns: u128,
}

/// Repetitions per sampled state for the sub-microsecond calls, so the
/// clock read is amortized.
const REPS: u32 = 4;
/// Steps between two clock reads on the walk.
const STEP_CHUNK: usize = 16;
/// Walk length before restarting from the initial configuration (keeps
/// the trace the simulator records short).
const WALK_LEN: usize = 256;

impl CallCosts {
    /// Random-walks `initial` for `steps` steps (restarting every
    /// [`WALK_LEN`] steps or when every process halted), timing
    /// [`Simulation::step`], and at every chunk boundary times
    /// [`Simulation::canonical_code`] under `Off` and `Full` and
    /// [`fp128`] of the plain code.
    pub fn sample<M>(&mut self, initial: &Simulation<M>, rng: &mut Rng64, steps: usize)
    where
        M: Machine + Eq + Hash + PidMap,
        M::Value: PidMap,
    {
        let mut sim = initial.clone();
        let mut walked = 0;
        let mut taken = 0;
        while taken < steps {
            let start = Instant::now();
            let mut chunk = 0;
            while chunk < STEP_CHUNK {
                let n = sim.process_count();
                let first = rng.gen_index(n);
                let live = (0..n).map(|k| (first + k) % n).find(|&p| !sim.is_halted(p));
                let Some(proc) = live.filter(|_| walked < WALK_LEN) else {
                    break;
                };
                black_box(sim.step(proc).expect("a live process can step"));
                chunk += 1;
                walked += 1;
            }
            self.step_ns += start.elapsed().as_nanos();
            self.steps += chunk as u64;
            taken += chunk.max(1);

            let start = Instant::now();
            let mut code = Box::default();
            for _ in 0..REPS {
                code = black_box(sim.canonical_code(SymmetryMode::Off));
            }
            self.code_off_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            for _ in 0..REPS {
                black_box(sim.canonical_code(SymmetryMode::Full));
            }
            self.code_full_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            for _ in 0..REPS {
                black_box(fp128(black_box(&code)));
            }
            self.fp_ns += start.elapsed().as_nanos();
            self.codes += u64::from(REPS);
            self.code_bytes += code.len() as u64 * u64::from(REPS);

            if chunk < STEP_CHUNK {
                sim = initial.clone();
                walked = 0;
            }
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let per = |ns: u128, n: u64| ns as f64 / n.max(1) as f64;
        vec![
            metric(
                "sim.simulation.step_ns",
                per(self.step_ns, self.steps),
                "ns",
            ),
            metric(
                "sim.canon.code_ns.off",
                per(self.code_off_ns, self.codes),
                "ns",
            ),
            metric(
                "sim.canon.code_ns.full",
                per(self.code_full_ns, self.codes),
                "ns",
            ),
            metric(
                "model.fingerprint.fp128_ns",
                per(self.fp_ns, self.codes),
                "ns",
            ),
            metric(
                "model.fingerprint.code_bytes",
                self.code_bytes as f64 / self.codes.max(1) as f64,
                "bytes",
            ),
        ]
    }
}

/// The phases the explorer's profiler records.
pub const EXPLORER_PHASES: &[&str] = &["step", "canon", "dedup", "steal", "idle"];

/// Per-phase self-times of profiled runs, from the leaf frames of a
/// [`Profiler`], summed over workers and runs.
#[derive(Debug)]
pub struct PhaseTimes {
    phases: &'static [&'static str],
    /// Self-time per entry of `phases`.
    ns: Vec<u64>,
    /// Self-time of every other frame.
    other_ns: u64,
    /// Worker-seconds available: workers × wall-clock of the runs.
    capacity_ns: f64,
}

impl PhaseTimes {
    pub fn new(phases: &'static [&'static str]) -> Self {
        PhaseTimes {
            phases,
            ns: vec![0; phases.len()],
            other_ns: 0,
            capacity_ns: 0.0,
        }
    }

    /// Folds one profiled run that took `wall` on `workers` threads.
    pub fn add(&mut self, profiler: &Profiler, workers: usize, wall: Duration) {
        for profile in profiler.profiles() {
            for (stack, ns) in &profile.frames {
                let leaf = stack.rsplit(';').next().unwrap_or(stack);
                match self.phases.iter().position(|p| *p == leaf) {
                    Some(i) => self.ns[i] += ns,
                    None => self.other_ns += ns,
                }
            }
        }
        self.capacity_ns += workers as f64 * wall.as_nanos() as f64;
    }

    /// `<layer>.<phase>_s` for every phase, averaged over `batches`.
    pub fn seconds(&self, layer: &str, batches: usize) -> Vec<Metric> {
        let n = batches.max(1) as f64;
        self.phases
            .iter()
            .zip(&self.ns)
            .map(|(phase, &ns)| metric(format!("{layer}.{phase}_s"), ns as f64 / 1e9 / n, "s"))
            .collect()
    }

    /// The share of the workers' wall-clock the profiled frames cover.
    pub fn coverage(&self) -> f64 {
        let total: u64 = self.ns.iter().sum::<u64>() + self.other_ns;
        total as f64 / self.capacity_ns.max(1.0)
    }
}

/// Runs `explorer` through `call` (`run` or `run_stats`) and times it.
/// With `phases`, a fresh [`Profiler`] is attached first and folded into
/// `phases` afterwards, counting `workers` threads.
pub fn timed_explore<'a, M, T>(
    explorer: Explorer<'a, M>,
    workers: usize,
    phases: Option<&mut PhaseTimes>,
    call: impl FnOnce(Explorer<'a, M>) -> Result<T, ExploreError>,
) -> Result<(T, Duration), ExploreError>
where
    M: Machine + Eq + Hash,
{
    let profiler = phases.is_some().then(|| Arc::new(Profiler::new()));
    let explorer = match &profiler {
        Some(p) => explorer.profiler(Arc::clone(p)),
        None => explorer,
    };
    let start = Instant::now();
    let out = call(explorer);
    let wall = start.elapsed();
    if let (Some(phases), Some(profiler)) = (phases, &profiler) {
        phases.add(profiler, workers, wall);
    }
    Ok((out?, wall))
}

/// The smallest space the explorer can be asked about: one Figure 1
/// process over one register, one critical-section cycle.
fn minimal_space() -> Simulation<AnonMutex> {
    Simulation::builder()
        .process(
            AnonMutex::new(Pid::new(1).expect("nonzero"), 1)
                .expect("one register")
                .with_cycles(1),
            View::identity(1),
        )
        .build()
        .expect("one process")
}

/// One exploration of [`minimal_space`] at `max_states` and `threads`,
/// in graph mode (`graph`) or stats mode: the explorer's fixed cost at
/// that cap, and the warm-up of every explorer workload's set-up.
pub fn warm_up(max_states: usize, threads: usize, graph: bool) -> Duration {
    let explorer = Explorer::new(minimal_space())
        .max_states(max_states)
        .parallelism(threads);
    let start = Instant::now();
    if graph {
        drop(black_box(explorer.run().expect("minimal space fits")));
    } else {
        black_box(explorer.run_stats().expect("minimal space fits"));
    }
    start.elapsed()
}
