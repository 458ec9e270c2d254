//! Exhaustive explicit-state model checking.
//!
//! For fixed process count and register count, the paper's algorithms have
//! **finite** state spaces: register contents range over finitely many
//! values and each machine has finitely many local states. [`Explorer`]
//! enumerates every configuration reachable under *any* adversary and
//! returns a [`StateGraph`] on which two kinds of questions are decided
//! exactly:
//!
//! * **Safety** — [`StateGraph::find_state`] searches for a bad
//!   configuration (e.g. two processes in their critical sections, the
//!   mutual exclusion violation of §3.1), and
//!   [`StateGraph::schedule_to`] reconstructs the adversary schedule that
//!   reaches it, making every counterexample replayable.
//! * **Fair liveness** — [`StateGraph::find_fair_livelock`] looks for a
//!   strongly connected component in which every live process keeps taking
//!   steps but no progress event ever fires. Such a component is exactly a
//!   *fair livelock*: an infinite schedule that starves the system even
//!   though no process is ever denied steps. This is how experiment E1
//!   refutes deadlock-freedom for the Figure 1 algorithm with an even
//!   number of registers (Theorem 3.1) — the checker finds the symmetric
//!   lock-step loop.
//!
//! # The `Explorer` builder
//!
//! All exploration goes through one entry point:
//!
//! ```ignore
//! let graph = Explorer::new(sim)
//!     .max_states(500_000)   // or .limits(ExploreConfig { .. })
//!     .crashes(true)         // also explore crash transitions
//!     .parallelism(4)        // worker threads (0 = one per CPU)
//!     .probe(&probe)         // live metrics (optional)
//!     .run()?;
//! ```
//!
//! Every run goes through one engine (`explore/par.rs`): workers with
//! their own frontier deques and work stealing, deduplicating through a
//! lock-free fingerprint table that grows with the run. With
//! `parallelism(1)` (the default) there is one worker and state ids are
//! *canonical*: two runs number the states identically, so golden tests
//! and recorded [`StateGraph::schedule_to`] replays stay stable. With
//! more workers the engine explores the same graph — same states, same
//! transition structure — but discovery order, and therefore the
//! numbering, depends on the race between workers. Analyses on
//! [`StateGraph`] are order-independent (see
//! [`StateGraph::nontrivial_sccs`]), so results agree either way.

use std::fmt;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

use anonreg_model::{Machine, PidMap, SymmetryMode};
use anonreg_obs::{NoopProbe, Probe, Profiler};

use crate::canon::StateEncoder;
use crate::Simulation;

mod dedup;
mod par;

/// Configuration for an [`Explorer`] run: resource limits, the failure
/// model, and the degree of parallelism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum number of distinct states to enumerate before giving up.
    pub max_states: usize,
    /// Also explore *crash* transitions: from every state, every live
    /// process may crash (§2's failure model). Roughly doubles the state
    /// space per process; off by default.
    pub crashes: bool,
    /// Number of exploration workers. `1` (the default) is one worker on
    /// the calling thread, numbering states canonically; `0` means "one
    /// worker per available CPU"; `n > 1` runs `n` workers on scoped
    /// threads, numbering states in race order.
    pub parallelism: usize,
    /// Ample-set partial-order reduction: when some live processes are
    /// poised at a register-free local step (an event or a halt), explore
    /// only those processes from that state and prune the other
    /// interleavings. See [`Explorer::por`] for the soundness argument.
    /// Incompatible with [`crashes`](ExploreConfig::crashes).
    pub por: bool,
    /// Spill interned canonical codes to disk behind an in-memory LRU
    /// tier, so the dedup table's memory use no longer grows with the
    /// code bytes of every distinct state. See [`Explorer::spill`].
    pub spill: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 1_000_000,
            crashes: false,
            parallelism: 1,
            por: false,
            spill: false,
        }
    }
}

/// Error returned when exploration exceeds its limits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreError {
    /// The reachable state space exceeded [`ExploreConfig::max_states`].
    StateLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// An exploration worker panicked mid-expansion. The run shut
    /// down cleanly (the panicking worker's pending count was released
    /// by a drop guard, so the siblings drained and exited), but the
    /// graph is incomplete and no verdict can be drawn from it.
    WorkerPanicked {
        /// The panic's message, or "non-string panic payload" when the
        /// payload was neither a `&str` nor a `String`.
        message: String,
    },
    /// Partial-order reduction was requested together with crash
    /// transitions. §2's crash is enabled from *every* state and is
    /// never independent of the crashing process's own pending step, so
    /// no ample set smaller than the full successor set is sound there;
    /// the combination is rejected rather than silently unsound.
    PorWithCrashes,
    /// Partial-order reduction was requested together with symmetry
    /// reduction ([`SymmetryMode::Full`]). Canonicalization renumbers
    /// identifiers, which un-pins process slots: an orbit
    /// representative's ample set need not match its siblings', so the
    /// reduction could prune interleavings the symmetry quotient still
    /// needs. The two reductions do not compose (see [`Explorer::por`]).
    PorWithFullSymmetry,
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::StateLimitExceeded { limit } => {
                write!(f, "state space exceeds the limit of {limit} states")
            }
            ExploreError::WorkerPanicked { message } => {
                write!(
                    f,
                    "an exploration worker panicked ({message}); the run was aborted"
                )
            }
            ExploreError::PorWithCrashes => {
                write!(
                    f,
                    "partial-order reduction cannot be combined with crash \
                     transitions (no ample set is sound under §2's crash model)"
                )
            }
            ExploreError::PorWithFullSymmetry => {
                write!(
                    f,
                    "partial-order reduction cannot be combined with \
                     symmetry reduction (identifier renumbering un-pins process \
                     slots, so an orbit representative's ample set need not \
                     match its siblings'); run one reduction or the other"
                )
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// One outgoing transition of a state: process `proc` takes one atomic step,
/// emitting `events` on the way, and the system moves to state `target`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Edge<E> {
    /// The process that moves.
    pub proc: usize,
    /// The id of the successor state.
    pub target: usize,
    /// Events emitted during the step (usually empty or a single event).
    pub events: Vec<E>,
    /// `true` if this transition is the process *crashing* rather than
    /// taking a step (only with [`ExploreConfig::crashes`]).
    pub crash: bool,
}

/// One adversary move in a reconstructed schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleAction {
    /// Process takes one atomic step.
    Step(usize),
    /// Process crashes.
    Crash(usize),
}

/// The complete reachable state graph of a simulation.
///
/// State `0` is the initial configuration. Each state is a [`Simulation`]
/// with an empty trace, so analyses can inspect machines and registers
/// directly; every state shares the initial state's view table, so a
/// stored state owns only its registers and process slots. The edges of
/// all states sit in one arena, each state owning a contiguous span of it,
/// and each state's discovering transition is one compact record — the
/// graph is a handful of large allocations plus the states.
pub struct StateGraph<M: Machine> {
    states: Vec<Simulation<M>>,
    /// Every edge, grouped by source state.
    edges: Vec<Edge<M::Event>>,
    /// `edges[spans[id]]` are the outgoing edges of state `id`.
    spans: Vec<Range<usize>>,
    /// `parents[id]` is the transition that discovered state `id`, used to
    /// reconstruct adversary schedules. The initial state has none; its
    /// record is never read.
    parents: Vec<Parent>,
}

/// The transition that discovered a state: `proc` stepped (or, with
/// `crash`, crashed) in state `state`. State ids fit in `u32` because the
/// dedup table caps a run at 2²⁷ states.
#[derive(Clone, Copy, Default)]
pub(crate) struct Parent {
    pub(crate) state: u32,
    pub(crate) proc: u32,
    pub(crate) crash: bool,
}

/// The single entry point for state-space exploration.
///
/// Build with [`Explorer::new`], adjust with the chainable setters, then
/// [`Explorer::run`]:
///
/// ```ignore
/// let graph = Explorer::new(sim).max_states(100_000).parallelism(4).run()?;
/// ```
///
/// The default configuration matches [`ExploreConfig::default`]: one
/// million states, no crash transitions, one (deterministic) worker.
#[must_use = "an Explorer does nothing until `.run()` is called"]
pub struct Explorer<'p, M: Machine, P: Probe = NoopProbe> {
    initial: Simulation<M>,
    config: ExploreConfig,
    probe: &'p P,
    encoder: StateEncoder<M>,
    profiler: Option<Arc<Profiler>>,
}

/// The probe target for unprobed explorations.
static SILENT: NoopProbe = NoopProbe;

impl<M> Explorer<'static, M, NoopProbe>
where
    M: Machine + Eq + Hash,
{
    /// Starts configuring an exploration from `initial`. The accumulated
    /// trace of `initial` is ignored; state identity is the pair
    /// (register contents, machine states incl. pending reads/poised
    /// writes).
    pub fn new(initial: Simulation<M>) -> Self {
        Explorer {
            initial,
            config: ExploreConfig::default(),
            probe: &SILENT,
            encoder: StateEncoder::plain(),
            profiler: None,
        }
    }
}

impl<'p, M, P> Explorer<'p, M, P>
where
    M: Machine + Eq + Hash,
    P: Probe,
{
    /// Replaces the whole configuration at once.
    pub fn limits(mut self, config: ExploreConfig) -> Self {
        self.config = config;
        self
    }

    /// Caps the number of distinct states to enumerate.
    pub fn max_states(mut self, max_states: usize) -> Self {
        self.config.max_states = max_states;
        self
    }

    /// Also explores crash transitions (§2's failure model).
    pub fn crashes(mut self, crashes: bool) -> Self {
        self.config.crashes = crashes;
        self
    }

    /// Enables ample-set partial-order reduction.
    ///
    /// When one or more live processes are poised at a **register-free
    /// local step** — their next step is an event announcement or a halt,
    /// not a read or a write — those processes form the state's *ample
    /// set* and only their transitions are explored; the reads and writes
    /// of the remaining processes are deferred to the successor states.
    ///
    /// Soundness rests on three facts about this substrate:
    ///
    /// 1. **Independence.** An event/halt step touches no shared register
    ///    and only its own process slot, so it commutes with every step
    ///    of every other process: both orders reach the same
    ///    configuration, and the deferred steps are still enabled after
    ///    it (events never disable a read or write of another process).
    /// 2. **Invisibility of the pruned orders.** The crate-wide contract
    ///    (see [`Simulation::step`] and the family machines) is that
    ///    observable milestones — critical-section membership, decision
    ///    values, leadership — change *only at event steps*. The pruned
    ///    interleavings differ from the kept one only in where another
    ///    process's read/write lands relative to the event, and reads
    ///    and writes change no milestone, so every predicate checked by
    ///    the analyses sees a stutter-equivalent run. Note the ample set
    ///    is **all** event-poised processes, never a proper subset: two
    ///    simultaneously poised events (say, two `Enter`s) are genuinely
    ///    dependent — dropping one would hide the overlap state that
    ///    mutual-exclusion checking exists to find.
    /// 3. **No event cycles.** A machine performs a memory operation or
    ///    halts after finitely many events ([`Simulation::run_solo`]
    ///    enforces this with a fuse), so ample-only expansion cannot
    ///    postpone the rest of the system forever.
    ///
    /// Crash transitions break fact 1 — §2's crash is enabled everywhere
    /// and races the crashing process's own poised step — so
    /// [`Explorer::run`] rejects `por` + `crashes` with
    /// [`ExploreError::PorWithCrashes`].
    ///
    /// Symmetry reduction and POR do not compose:
    /// [`Explorer::symmetry`] with [`SymmetryMode::Full`] renumbers
    /// identifiers and can merge states whose ample sets differ, so
    /// `por` together with `Full` is rejected with
    /// [`ExploreError::PorWithFullSymmetry`].
    ///
    /// The reduced graph has fewer states and edges; safety, fair-
    /// livelock and starvation verdicts are unchanged (enforced across
    /// every family and worker counts by the POR parity suite).
    pub fn por(mut self, por: bool) -> Self {
        self.config.por = por;
        self
    }

    /// Spills interned canonical codes to per-worker temp files behind a
    /// sharded in-memory LRU tier. A spill location packs a 5-bit worker
    /// index, so a spilling run uses at most 32 workers whatever
    /// [`parallelism`](Explorer::parallelism) asks for.
    ///
    /// Dedup candidates are verified against the LRU, then against the
    /// spill file when the bytes are already flushed; a candidate whose
    /// code is still buffered by another worker is matched on its
    /// 128-bit fingerprint alone (collision probability below 2⁻⁷⁰ at
    /// 10⁸ states) and counted in the `dedup_unverified` probe metric.
    pub fn spill(mut self, spill: bool) -> Self {
        self.config.spill = spill;
        self
    }

    /// Sets the number of exploration workers: `1` for one worker on the
    /// calling thread (canonical state ids), `0` for one worker per
    /// available CPU, `n > 1` for `n` workers on scoped threads (ids in
    /// race order).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Attaches a live [`Probe`].
    ///
    /// The exploration then emits `explore_states`/`explore_edges`/
    /// `explore_dedup` counters (dedup counters keyed by worker), sampled
    /// `explore_frontier`/`explore_depth` gauges (final values exact),
    /// one `explore` span whose length is the number of distinct states,
    /// and — with more than one worker — `explore_steals` counters and
    /// one `explore_worker` span per worker whose length is the number of
    /// states that worker expanded.
    /// Counters are flushed incrementally on the gauge sampling cadence
    /// (totals stay exact), so a live stream attached to the probe sees
    /// the exploration progress while it is still running. With
    /// [`NoopProbe`] the instrumentation compiles away.
    pub fn probe<'q, Q: Probe>(self, probe: &'q Q) -> Explorer<'q, M, Q> {
        Explorer {
            initial: self.initial,
            config: self.config,
            probe,
            encoder: self.encoder,
            profiler: self.profiler,
        }
    }

    /// Attaches a wall-clock [`Profiler`].
    ///
    /// Each engine worker then keeps an [`anonreg_obs::Phase`] timer —
    /// `step` (successor refill + machine step), `canon`
    /// (canonical/plain encoding), `dedup` (intern-table probe; `spill`
    /// when spilling), `steal` (taking the next work item) and `idle` —
    /// and records its per-phase self-times into the profiler when the
    /// exploration ends, including on the state-limit error path. Runs
    /// without a profiler pay nothing.
    pub fn profiler(mut self, profiler: Arc<Profiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Enables symmetry reduction: states are deduplicated by the
    /// canonical code of their orbit under `mode`'s permutation group
    /// (see [`Simulation::canonical_code`]), so only one representative
    /// per orbit is stored and expanded.
    ///
    /// Every stored state is still a *concretely reachable*
    /// configuration — the first member of its orbit the engine
    /// discovered — so [`StateGraph::schedule_to`] replays keep working
    /// verbatim. Edge targets point at orbit representatives; analyses of
    /// *symmetric* predicates (mutual exclusion, deadlock, agreement…)
    /// are unaffected, while predicates naming a specific process index
    /// are answered up to symmetry.
    ///
    /// [`SymmetryMode::Full`] assumes the algorithm is *symmetric* in
    /// the Theorem 3.4 sense (identifiers admit only equality
    /// comparisons) — true for all the paper's anonymous algorithms.
    /// Symmetry reduction does not compose with [`Explorer::por`]; the
    /// run rejects the pair with [`ExploreError::PorWithFullSymmetry`].
    pub fn symmetry(mut self, mode: SymmetryMode) -> Self
    where
        M: PidMap,
        M::Value: PidMap,
    {
        self.encoder = StateEncoder::for_mode(mode, &self.initial);
        self
    }

    /// Runs the exploration and returns the complete reachable
    /// [`StateGraph`].
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::StateLimitExceeded`] if the reachable
    /// state space is larger than the configured `max_states`. Counters
    /// emitted up to that point are still in the probe, so a budget-blown
    /// exploration is still measurable.
    pub fn run(self) -> Result<StateGraph<M>, ExploreError> {
        let threads = self.validate()?;
        let (graph, _) = par::run(
            self.initial,
            &self.config,
            self.probe,
            threads,
            &self.encoder,
            self.profiler.as_deref(),
            true,
        )?;
        Ok(graph.expect("graph mode materialises a graph"))
    }

    /// Runs the exploration for its **counts only** — states, edges,
    /// maximum depth, dedup hits — without materialising a
    /// [`StateGraph`].
    ///
    /// Expanded configurations are dropped as soon as their successors
    /// are interned, so memory scales with the frontier plus the dedup
    /// table (plus nothing at all for codes when
    /// [`spill`](Explorer::spill) is on), not with the full graph. This
    /// is the mode the E19 scale experiment runs in.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Explorer::run`].
    pub fn run_stats(self) -> Result<ExploreStats, ExploreError> {
        let threads = self.validate()?;
        let (_, stats) = par::run(
            self.initial,
            &self.config,
            self.probe,
            threads,
            &self.encoder,
            self.profiler.as_deref(),
            false,
        )?;
        Ok(stats)
    }

    /// Shared run-time validation; returns the resolved thread count.
    fn validate(&self) -> Result<usize, ExploreError> {
        if self.config.por && self.config.crashes {
            return Err(ExploreError::PorWithCrashes);
        }
        if self.config.por && self.encoder.mode() == SymmetryMode::Full {
            return Err(ExploreError::PorWithFullSymmetry);
        }
        Ok(match self.config.parallelism {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            t => t,
        })
    }
}

/// The counts of an exploration run in [`Explorer::run_stats`] mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states interned.
    pub states: u64,
    /// Transitions taken (after any partial-order pruning).
    pub edges: u64,
    /// Dedup hits (edges whose target was already interned).
    pub dedup: u64,
    /// Summed length of the interned state codes, in bytes: what the
    /// dedup table's code store holds (in memory or spilled), so
    /// `code_bytes / states` is the stored bytes per state.
    pub code_bytes: u64,
    /// Maximum discovery depth.
    pub max_depth: u32,
}

impl<M: Machine> StateGraph<M> {
    /// The number of reachable states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The total number of transitions.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The configuration of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn state(&self, id: usize) -> &Simulation<M> {
        &self.states[id]
    }

    /// Iterates over all states with their ids.
    pub fn states(&self) -> impl Iterator<Item = (usize, &Simulation<M>)> {
        self.states.iter().enumerate()
    }

    /// The outgoing transitions of state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn edges(&self, id: usize) -> &[Edge<M::Event>] {
        &self.edges[self.spans[id].clone()]
    }

    /// Finds a reachable state satisfying `pred` (a safety-violation
    /// search). States are scanned in discovery (BFS/DFS mix) order, so the
    /// returned state is reachable by the schedule from
    /// [`schedule_to`](StateGraph::schedule_to).
    pub fn find_state<F>(&self, mut pred: F) -> Option<usize>
    where
        F: FnMut(&Simulation<M>) -> bool,
    {
        (0..self.states.len()).find(|&id| pred(&self.states[id]))
    }

    /// Reconstructs the adversary schedule (sequence of process slots, one
    /// per atomic step) that drives the initial state to state `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, or if the discovery path contains a
    /// crash transition (crash-enabled graphs need
    /// [`actions_to`](StateGraph::actions_to)).
    #[must_use]
    pub fn schedule_to(&self, id: usize) -> Vec<usize> {
        self.actions_to(id)
            .into_iter()
            .map(|action| match action {
                ScheduleAction::Step(proc) => proc,
                ScheduleAction::Crash(_) => {
                    panic!("path contains a crash; use actions_to for crash-enabled graphs")
                }
            })
            .collect()
    }

    /// Reconstructs the adversary actions (steps and crashes) that drive
    /// the initial state to state `id`. Replay with
    /// [`Simulation::step`]/[`Simulation::crash`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn actions_to(&self, id: usize) -> Vec<ScheduleAction> {
        let mut actions = Vec::new();
        let mut cursor = id;
        while cursor != 0 {
            let Parent { state, proc, crash } = self.parents[cursor];
            let proc = proc as usize;
            actions.push(if crash {
                ScheduleAction::Crash(proc)
            } else {
                ScheduleAction::Step(proc)
            });
            cursor = state as usize;
        }
        actions.reverse();
        actions
    }

    /// Computes the strongly connected components that contain at least one
    /// internal edge (i.e. can be stayed in forever), as lists of state ids.
    ///
    /// The result is canonical: each component's ids are sorted ascending
    /// and the components are ordered by their smallest id. Tarjan's
    /// emission order depends on edge order, which the parallel explorer
    /// does not reproduce run-to-run — canonicalizing here makes every
    /// SCC-based analysis independent of discovery order.
    #[must_use]
    pub fn nontrivial_sccs(&self) -> Vec<Vec<usize>> {
        canonicalize_sccs(self.tarjan(|_| true))
    }

    /// Searches for a **fair livelock**: a strongly connected component in
    /// which
    ///
    /// 1. every live (non-halted) process has at least one transition that
    ///    stays inside the component — so a schedule confined to it can give
    ///    every process infinitely many steps (fairness), and
    /// 2. no transition inside the component emits an event accepted by
    ///    `is_progress`, and
    /// 3. some state in the component has a process for which `stuck` holds
    ///    (e.g. "is in its entry section").
    ///
    /// Such a component is a complete violation of deadlock freedom: an
    /// infinite fair schedule under which a process remains stuck forever.
    /// Returns the component's state ids, or `None` if the property holds.
    pub fn find_fair_livelock<FS, FP>(&self, stuck: FS, is_progress: FP) -> Option<Vec<usize>>
    where
        FS: FnMut(&M) -> bool,
        FP: FnMut(&M::Event) -> bool,
    {
        self.find_fair_scc(None, stuck, is_progress)
    }

    /// Searches for **fair starvation** of process `victim`: a strongly
    /// connected component in which
    ///
    /// 1. every live process (the victim included) has a transition that
    ///    stays inside the component — a fair schedule exists,
    /// 2. no transition *by the victim* inside the component emits a
    ///    progress event, while
    /// 3. some transition *by another process* inside the component does —
    ///    the system as a whole keeps making progress, and
    /// 4. the victim satisfies `stuck` somewhere in the component.
    ///
    /// This is strictly weaker than a fair livelock: the algorithm may be
    /// perfectly deadlock-free (others enter again and again) while the
    /// victim starves. Deadlock-freedom permits this; starvation-freedom —
    /// which the paper's §8 lists as open for the memory-anonymous model —
    /// forbids it.
    ///
    /// Implementation note: the victim's progress edges are *skipped*, as
    /// if deleted from the graph. Machines are deterministic, so the
    /// adversary cannot make a scheduled victim skip its progress step —
    /// but it can simply decline to schedule the victim in states where
    /// that step is next, which is exactly what the edge deletion models.
    /// A qualifying SCC of the remaining subgraph is then a fair infinite
    /// schedule in which the victim steps forever without ever progressing
    /// while others do.
    /// Returns the component's state ids.
    pub fn find_fair_starvation<FS, FP>(
        &self,
        victim: usize,
        stuck: FS,
        is_progress: FP,
    ) -> Option<Vec<usize>>
    where
        FS: FnMut(&M) -> bool,
        FP: FnMut(&M::Event) -> bool,
    {
        self.find_fair_scc(Some(victim), stuck, is_progress)
    }

    /// Both fair-component searches: a fair livelock without a `victim`,
    /// fair starvation of the `victim` with one. The victim's progress
    /// edges are skipped as if deleted; a qualifying component then holds
    /// no progress edge at all (livelock) or some, necessarily by another
    /// process (starvation).
    fn find_fair_scc<FS, FP>(
        &self,
        victim: Option<usize>,
        mut stuck: FS,
        mut is_progress: FP,
    ) -> Option<Vec<usize>>
    where
        FS: FnMut(&M) -> bool,
        FP: FnMut(&M::Event) -> bool,
    {
        let mut progress = |e: &Edge<M::Event>| e.events.iter().any(&mut is_progress);
        let sccs = self.tarjan(|e| Some(e.proc) != victim || !progress(e));
        let mut in_scc = vec![false; self.states.len()];
        for scc in canonicalize_sccs(sccs) {
            for &id in &scc {
                in_scc[id] = true;
            }
            // The transitions that stay inside the component.
            let inside = || {
                scc.iter()
                    .flat_map(|&id| self.edges(id))
                    .filter(|e| in_scc[e.target])
            };
            let progresses =
                inside().any(|e| Some(e.proc) != victim && progress(e)) == victim.is_some();
            // Fairness: every live process — at least one, the victim
            // included — can keep moving inside the component. Halting is
            // permanent, so the live set is constant across a component;
            // take it from the first state.
            let first = &self.states[scc[0]];
            let n = first.process_count();
            let live = (0..n).filter(|&p| !first.is_halted(p));
            let fair = live.clone().next().is_some()
                && victim.is_none_or(|v| v < n && !first.is_halted(v))
                && live
                    .clone()
                    .all(|p| inside().any(|e| e.proc == p && (Some(p) != victim || !progress(e))));
            // Someone (the victim, if there is one) is stuck somewhere in
            // the component.
            let qualifies = progresses
                && fair
                && scc.iter().any(|&id| {
                    live.clone()
                        .any(|p| victim.is_none_or(|v| v == p) && stuck(self.states[id].machine(p)))
                });
            for &id in &scc {
                in_scc[id] = false;
            }
            if qualifies {
                return Some(scc);
            }
        }
        None
    }

    /// Iterative Tarjan SCC over the edges `keep` accepts, returning only
    /// the components with an internal edge, in reverse topological
    /// order. Per-node data is two `u32`s (ids fit; see [`Parent`]), and a
    /// trivial component is popped without allocating.
    fn tarjan(&self, mut keep: impl FnMut(&Edge<M::Event>) -> bool) -> Vec<Vec<usize>> {
        // `index` is UNVISITED, then the DFS number while the node is on
        // the Tarjan stack, then DONE once its component is emitted.
        const UNVISITED: u32 = u32::MAX;
        const DONE: u32 = u32::MAX - 1;
        let n = self.states.len();
        let (mut index, mut low) = (vec![UNVISITED; n], vec![0u32; n]);
        let mut counter = 0u32;
        let mut stack: Vec<u32> = Vec::new();
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        // Explicit DFS stack: (node, arena position of its next edge).
        let mut dfs: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            dfs.push((root, self.spans[root].start));
            while let Some(&mut (v, ref mut pos)) = dfs.last_mut() {
                if index[v] == UNVISITED {
                    (index[v], low[v]) = (counter, counter);
                    counter += 1;
                    stack.push(v as u32);
                }
                if *pos < self.spans[v].end {
                    let edge = &self.edges[*pos];
                    *pos += 1;
                    if keep(edge) {
                        let w = edge.target;
                        if index[w] == UNVISITED {
                            dfs.push((w, self.spans[w].start));
                        } else if index[w] != DONE {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    continue;
                }
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let start = stack
                        .iter()
                        .rposition(|&w| w as usize == v)
                        .expect("v is stacked");
                    let nontrivial = start + 1 < stack.len()
                        || self.edges(v).iter().any(|e| e.target == v && keep(e));
                    if nontrivial {
                        sccs.push(stack[start..].iter().map(|&w| w as usize).collect());
                    }
                    for w in stack.drain(start..) {
                        index[w as usize] = DONE;
                    }
                }
            }
        }
        sccs
    }
}

impl<M: Machine> fmt::Debug for StateGraph<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateGraph")
            .field("states", &self.states.len())
            .field("edges", &self.edge_count())
            .finish()
    }
}

/// Canonicalizes a list of SCCs: ids inside each component sorted
/// ascending, components ordered by smallest id. Tarjan emits components
/// in reverse topological order, which depends on edge order and hence on
/// discovery order; analyses that scan components must not.
fn canonicalize_sccs(mut sccs: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for scc in &mut sccs {
        scc.sort_unstable();
    }
    sccs.sort_unstable_by_key(|scc| scc.first().copied());
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonreg_model::{Pid, Step, View};
    use anonreg_obs::{Metric, Span};
    use std::collections::HashMap;

    /// Two-phase toy: writes its pid, reads, halts. Tiny state space.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Toy {
        pid: Pid,
        phase: u8,
    }

    impl Machine for Toy {
        type Value = u64;
        type Event = &'static str;

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Step::Write(0, self.pid.get())
                }
                1 => {
                    self.phase = 2;
                    Step::Event("wrote")
                }
                _ => Step::Halt,
            }
        }
    }

    /// Spins forever re-reading register 0 (a guaranteed livelock).
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Spinner {
        pid: Pid,
    }

    impl Machine for Spinner {
        type Value = u64;
        type Event = &'static str;

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
            Step::Read(0)
        }
    }

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    #[test]
    fn explores_tiny_interleaving_space() {
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        // Each process contributes a write step and an event+halt step;
        // states are (register value, phase of each process) combinations.
        assert!(graph.state_count() >= 4);
        assert!(graph.state_count() <= 3 * 3 * 3);
        // Terminal states exist where everyone halted.
        let terminal = graph.find_state(super::super::simulation::Simulation::all_halted);
        assert!(terminal.is_some());
    }

    #[test]
    fn schedule_to_replays() {
        let build = || {
            Simulation::builder()
                .process(
                    Toy {
                        pid: pid(1),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .process(
                    Toy {
                        pid: pid(2),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .build()
                .unwrap()
        };
        let graph = Explorer::new(build()).run().unwrap();
        // Find a state where register 0 holds 1 and both halted: process 2
        // wrote first, process 1 overwrote.
        let id = graph
            .find_state(|s| s.all_halted() && s.registers()[0] == 1)
            .expect("such a terminal state exists");
        let schedule = graph.schedule_to(id);
        // Replay on a fresh simulation.
        let mut sim = build();
        for &p in &schedule {
            sim.step(p).unwrap();
        }
        assert!(sim.same_configuration(graph.state(id)));
    }

    #[test]
    fn state_limit_is_enforced() {
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let err = Explorer::new(sim).max_states(2).run().unwrap_err();
        assert_eq!(err, ExploreError::StateLimitExceeded { limit: 2 });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn spinner_is_a_fair_livelock() {
        let sim = Simulation::builder()
            .process(Spinner { pid: pid(1) }, View::identity(1))
            .process(Spinner { pid: pid(2) }, View::identity(1))
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        let livelock = graph.find_fair_livelock(|_| true, |_| false);
        assert!(livelock.is_some());
    }

    #[test]
    fn halting_machines_have_no_livelock() {
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        assert!(graph.nontrivial_sccs().is_empty());
        assert!(graph.find_fair_livelock(|_| true, |_| false).is_none());
    }

    #[test]
    fn progress_inside_scc_is_not_a_livelock() {
        /// Cycles forever but emits a progress event every lap.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Lapper {
            pid: Pid,
            lap: bool,
        }
        impl Machine for Lapper {
            type Value = u64;
            type Event = &'static str;
            fn pid(&self) -> Pid {
                self.pid
            }
            fn register_count(&self) -> usize {
                1
            }
            fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
                self.lap = !self.lap;
                if self.lap {
                    Step::Read(0)
                } else {
                    Step::Event("progress")
                }
            }
        }
        let sim = Simulation::builder()
            .process(
                Lapper {
                    pid: pid(1),
                    lap: false,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        assert!(!graph.nontrivial_sccs().is_empty());
        let livelock = graph.find_fair_livelock(|_| true, |e| *e == "progress");
        assert!(livelock.is_none());
    }

    #[test]
    fn probed_explore_reports_exact_counts() {
        use anonreg_obs::MemProbe;
        let build = || {
            Simulation::builder()
                .process(
                    Toy {
                        pid: pid(1),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .process(
                    Toy {
                        pid: pid(2),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .build()
                .unwrap()
        };
        let probe = MemProbe::new();
        let graph = Explorer::new(build()).probe(&probe).run().unwrap();
        let snap = probe.into_snapshot();
        assert_eq!(
            snap.counter_total(Metric::ExploreStates),
            graph.state_count() as u64
        );
        assert_eq!(
            snap.counter_total(Metric::ExploreEdges),
            graph.edge_count() as u64
        );
        // Every edge either discovers a state or hits the dedup table
        // (the initial state is discovered without an edge).
        assert_eq!(
            snap.counter_total(Metric::ExploreDedup),
            graph.edge_count() as u64 - (graph.state_count() as u64 - 1)
        );
        // Frontier drained; depth bounded by the longest acyclic path.
        let frontier = snap.gauge_stat(Metric::ExploreFrontier).unwrap();
        assert_eq!(frontier.last, 0);
        let depth = snap.gauge_stat(Metric::ExploreDepth).unwrap();
        assert!(depth.max >= 1 && depth.max < graph.state_count() as u64);
        // One explore span, length = states.
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].length, graph.state_count() as u64);
        // And the probed graph is identical to the unprobed one.
        let plain = Explorer::new(build()).run().unwrap();
        assert_eq!(plain.state_count(), graph.state_count());
        assert_eq!(plain.edge_count(), graph.edge_count());
    }

    #[test]
    fn probed_explore_reports_partial_counts_on_limit() {
        use anonreg_obs::MemProbe;
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let probe = MemProbe::new();
        let err = Explorer::new(sim)
            .max_states(3)
            .probe(&probe)
            .run()
            .unwrap_err();
        assert_eq!(err, ExploreError::StateLimitExceeded { limit: 3 });
        let snap = probe.into_snapshot();
        assert_eq!(snap.counter_total(Metric::ExploreStates), 3);
        assert_eq!(snap.spans.len(), 1);
    }

    #[test]
    fn edge_events_are_captured() {
        let sim = Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        let has_event_edge = (0..graph.state_count())
            .any(|id| graph.edges(id).iter().any(|e| e.events.contains(&"wrote")));
        assert!(has_event_edge);
    }

    /// Builds the two-Toy simulation used by the parallel tests.
    fn two_toys() -> Simulation<Toy> {
        Simulation::builder()
            .process(
                Toy {
                    pid: pid(1),
                    phase: 0,
                },
                View::identity(1),
            )
            .process(
                Toy {
                    pid: pid(2),
                    phase: 0,
                },
                View::identity(1),
            )
            .build()
            .unwrap()
    }

    /// Asserts `a` and `b` are the same graph up to state renumbering.
    fn assert_isomorphic<M: Machine + Eq + Hash>(a: &StateGraph<M>, b: &StateGraph<M>) {
        assert_eq!(a.state_count(), b.state_count());
        assert_eq!(a.edge_count(), b.edge_count());
        // Configurations are unique within a graph, so fingerprint +
        // equality gives a bijection.
        let mut by_fp: HashMap<u64, Vec<usize>> = HashMap::new();
        for (id, s) in b.states() {
            by_fp.entry(s.fingerprint()).or_default().push(id);
        }
        let mut map = vec![usize::MAX; a.state_count()];
        for (id, s) in a.states() {
            let candidates = by_fp.get(&s.fingerprint()).expect("fingerprint matches");
            map[id] = *candidates
                .iter()
                .find(|&&c| s.same_configuration(b.state(c)))
                .expect("configuration present in both graphs");
        }
        // Edge multisets agree under the bijection.
        for (id, _) in a.states() {
            let mut ea: Vec<(usize, usize, bool, String)> = a
                .edges(id)
                .iter()
                .map(|e| (e.proc, map[e.target], e.crash, format!("{:?}", e.events)))
                .collect();
            let mut eb: Vec<(usize, usize, bool, String)> = b
                .edges(map[id])
                .iter()
                .map(|e| (e.proc, e.target, e.crash, format!("{:?}", e.events)))
                .collect();
            ea.sort();
            eb.sort();
            assert_eq!(ea, eb, "edge multiset mismatch at state {id}");
        }
    }

    #[test]
    fn parallel_graph_is_isomorphic_to_sequential() {
        let sequential = Explorer::new(two_toys()).run().unwrap();
        for threads in [2, 4] {
            let parallel = Explorer::new(two_toys())
                .parallelism(threads)
                .run()
                .unwrap();
            assert_isomorphic(&parallel, &sequential);
        }
    }

    #[test]
    fn parallel_explorer_handles_crashes() {
        let sequential = Explorer::new(two_toys()).crashes(true).run().unwrap();
        let parallel = Explorer::new(two_toys())
            .crashes(true)
            .parallelism(3)
            .run()
            .unwrap();
        assert_isomorphic(&parallel, &sequential);
        // Crash edges survive the parallel path.
        let crash_edges = (0..parallel.state_count())
            .flat_map(|id| parallel.edges(id))
            .filter(|e| e.crash)
            .count();
        assert!(crash_edges > 0);
    }

    #[test]
    fn parallel_state_limit_is_enforced() {
        let err = Explorer::new(two_toys())
            .max_states(2)
            .parallelism(4)
            .run()
            .unwrap_err();
        assert_eq!(err, ExploreError::StateLimitExceeded { limit: 2 });
    }

    #[test]
    fn parallelism_zero_means_auto() {
        let graph = Explorer::new(two_toys()).parallelism(0).run().unwrap();
        let sequential = Explorer::new(two_toys()).run().unwrap();
        assert_isomorphic(&graph, &sequential);
    }

    #[test]
    fn parallel_probed_reports_exact_counts() {
        use anonreg_obs::MemProbe;
        let probe = MemProbe::new();
        let threads = 4;
        let graph = Explorer::new(two_toys())
            .parallelism(threads)
            .probe(&probe)
            .run()
            .unwrap();
        let snap = probe.into_snapshot();
        assert_eq!(
            snap.counter_total(Metric::ExploreStates),
            graph.state_count() as u64
        );
        assert_eq!(
            snap.counter_total(Metric::ExploreEdges),
            graph.edge_count() as u64
        );
        // Every edge either discovers a state or hits the (sharded) dedup
        // table; summing across shard keys restores the global invariant.
        assert_eq!(
            snap.counter_total(Metric::ExploreDedup),
            graph.edge_count() as u64 - (graph.state_count() as u64 - 1)
        );
        // One explore span plus one per worker; the workers' lengths (states
        // expanded) sum to the state count.
        assert_eq!(snap.spans.len(), 1 + threads);
        let expanded: u64 = snap
            .spans
            .iter()
            .filter(|s| s.span == Span::ExploreWorker)
            .map(|s| s.length)
            .sum();
        assert_eq!(expanded, graph.state_count() as u64);
    }

    #[test]
    fn parallel_livelock_detection_matches_sequential() {
        let build = || {
            Simulation::builder()
                .process(Spinner { pid: pid(1) }, View::identity(1))
                .process(Spinner { pid: pid(2) }, View::identity(1))
                .build()
                .unwrap()
        };
        let sequential = Explorer::new(build()).run().unwrap();
        let parallel = Explorer::new(build()).parallelism(4).run().unwrap();
        assert_isomorphic(&parallel, &sequential);
        assert!(parallel.find_fair_livelock(|_| true, |_| false).is_some());
    }

    #[test]
    fn nontrivial_sccs_are_canonical() {
        let sim = Simulation::builder()
            .process(Spinner { pid: pid(1) }, View::identity(1))
            .process(Spinner { pid: pid(2) }, View::identity(1))
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        let sccs = graph.nontrivial_sccs();
        assert!(!sccs.is_empty());
        for scc in &sccs {
            assert!(scc.windows(2).all(|w| w[0] < w[1]), "ids sorted ascending");
        }
        assert!(
            sccs.windows(2).all(|w| w[0][0] < w[1][0]),
            "components ordered by smallest id"
        );
    }

    /// `step_quiet` must be `step` minus the trace: identical machine,
    /// register and halt evolution under a lockstep schedule.
    #[test]
    fn step_quiet_matches_step_in_lockstep() {
        let mut traced = two_toys();
        let mut quiet = two_toys();
        for round in 0..6 {
            for p in 0..2 {
                let r1 = traced.step(p);
                let r2 = quiet.step_quiet(p);
                match (r1, r2) {
                    (Ok(o1), Ok((o2, _event))) => assert_eq!(o1, o2, "round {round} proc {p}"),
                    (Err(e1), Err(e2)) => assert_eq!(e1, e2, "round {round} proc {p}"),
                    (a, b) => panic!("divergence at round {round} proc {p}: {a:?} vs {b:?}"),
                }
            }
            traced.clear_trace();
            assert!(
                traced.same_configuration(&quiet),
                "configurations diverged at round {round}"
            );
        }
        assert!(quiet.all_halted());
    }

    #[test]
    fn por_with_crashes_is_rejected() {
        let err = Explorer::new(two_toys())
            .por(true)
            .crashes(true)
            .run()
            .unwrap_err();
        assert_eq!(err, ExploreError::PorWithCrashes);
        assert!(!err.to_string().is_empty());
        let err = Explorer::new(two_toys())
            .por(true)
            .crashes(true)
            .run_stats()
            .unwrap_err();
        assert_eq!(err, ExploreError::PorWithCrashes);
    }

    /// POR prunes interleavings of the Toys' local (event/halt) steps but
    /// must preserve reachability of the terminal configurations and the
    /// engines must agree on the reduced graph exactly.
    #[test]
    fn por_reduces_and_engines_agree() {
        let full = Explorer::new(two_toys()).run().unwrap();
        let reduced = Explorer::new(two_toys()).por(true).run().unwrap();
        assert!(reduced.state_count() < full.state_count(), "nothing pruned");
        assert!(reduced.edge_count() < full.edge_count());
        // Both terminal register outcomes stay reachable.
        for winner in [1u64, 2] {
            assert!(
                reduced
                    .find_state(|s| s.all_halted() && s.registers()[0] == winner)
                    .is_some(),
                "terminal state with register {winner} lost by the reduction"
            );
        }
        for threads in [2, 4] {
            let parallel = Explorer::new(two_toys())
                .por(true)
                .parallelism(threads)
                .run()
                .unwrap();
            assert_isomorphic(&parallel, &reduced);
        }
    }

    #[test]
    fn por_counters_are_reported() {
        use anonreg_obs::MemProbe;
        let probe = MemProbe::new();
        let reduced = Explorer::new(two_toys())
            .por(true)
            .probe(&probe)
            .run()
            .unwrap();
        let snap = probe.into_snapshot();
        let ample = snap.counter_total(Metric::PorAmple);
        let pruned = snap.counter_total(Metric::PorPruned);
        assert!(ample > 0, "no ample sets fired on the Toy space");
        assert!(pruned > 0, "ample sets fired but nothing was pruned");
        // An ample set fires at most once per expanded state.
        assert!(ample <= reduced.state_count() as u64);
    }

    /// `run_stats` must count exactly what `run` materialises, on both
    /// engines, with and without POR; `code_bytes` is the summed plain
    /// code of the materialised states.
    #[test]
    fn run_stats_matches_graph_counts() {
        let encoder = StateEncoder::plain();
        for por in [false, true] {
            let graph = Explorer::new(two_toys()).por(por).run().unwrap();
            let mut codes = Vec::new();
            for (_, sim) in graph.states() {
                encoder.encode_into(sim, &mut codes);
            }
            for threads in [1, 3] {
                let stats = Explorer::new(two_toys())
                    .por(por)
                    .parallelism(threads)
                    .run_stats()
                    .unwrap();
                assert_eq!(stats.states as usize, graph.state_count(), "por={por}");
                assert_eq!(stats.edges as usize, graph.edge_count(), "por={por}");
                assert_eq!(
                    stats.dedup as usize,
                    graph.edge_count() - (graph.state_count() - 1),
                    "por={por}"
                );
                assert_eq!(stats.code_bytes, codes.len() as u64, "por={por}");
                assert!(stats.max_depth > 0);
            }
        }
    }

    /// Spilling codes to disk must not change the graph.
    #[test]
    fn spilled_graph_is_isomorphic_to_in_memory() {
        let baseline = Explorer::new(two_toys()).run().unwrap();
        for threads in [2, 4] {
            let spilled = Explorer::new(two_toys())
                .spill(true)
                .parallelism(threads)
                .run()
                .unwrap();
            assert_isomorphic(&spilled, &baseline);
        }
        let stats = Explorer::new(two_toys())
            .spill(true)
            .parallelism(2)
            .run_stats()
            .unwrap();
        assert_eq!(stats.states as usize, baseline.state_count());
        assert_eq!(stats.edges as usize, baseline.edge_count());
    }

    /// Blows up mid-exploration: halves a fuse per write, panics at zero.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Grenade {
        pid: Pid,
        fuse: u8,
    }

    impl Machine for Grenade {
        type Value = u64;
        type Event = &'static str;

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, &'static str> {
            assert!(self.fuse > 0, "grenade went off (injected worker panic)");
            self.fuse -= 1;
            Step::Write(0, u64::from(self.fuse))
        }
    }

    /// A worker that panics mid-expansion must not hang the run: the
    /// drop guard releases its pending slot and trips the abort flag, and
    /// the calling thread reports the panic, with its message, as an error
    /// verdict, at any worker count.
    #[test]
    fn worker_panic_is_reported_not_hung() {
        let build = || {
            Simulation::builder()
                .process(
                    Grenade {
                        pid: pid(1),
                        fuse: 3,
                    },
                    View::identity(1),
                )
                .process(
                    Grenade {
                        pid: pid(2),
                        fuse: 3,
                    },
                    View::identity(1),
                )
                .build()
                .unwrap()
        };
        let assert_grenade = |err: ExploreError, threads: usize| {
            let ExploreError::WorkerPanicked { message } = &err else {
                panic!("{threads} threads: {err:?}");
            };
            assert!(
                message.contains("grenade went off"),
                "{threads} threads: {message}"
            );
            assert!(err.to_string().contains("grenade went off"), "{err}");
        };
        for threads in [1, 2, 4] {
            let err = Explorer::new(build())
                .parallelism(threads)
                .run()
                .unwrap_err();
            assert_grenade(err, threads);
            let err = Explorer::new(build())
                .parallelism(threads)
                .run_stats()
                .unwrap_err();
            assert_grenade(err, threads);
        }
    }

    /// Seeded cross-thread dedup races: many short-lived explorations of
    /// the same space, varying thread counts, must all agree with the
    /// sequential graph (exercises the claim-CAS/publish/spin protocol
    /// under real interleavings).
    #[test]
    fn seeded_parallel_runs_agree_with_sequential() {
        let baseline = Explorer::new(two_toys()).run().unwrap();
        for seed in 0..8u32 {
            let threads = 2 + (seed as usize % 3);
            let parallel = Explorer::new(two_toys())
                .parallelism(threads)
                .spill(seed % 2 == 1)
                .run()
                .unwrap();
            assert_isomorphic(&parallel, &baseline);
        }
    }

    /// The batched fingerprint path (encode+hash `FP_BATCH` successors,
    /// then probe the table) must leave every count bit-identical to the
    /// sequential engine under seeded race variation — the batching
    /// reorders nothing, it only groups.
    #[test]
    fn batched_fingerprinting_counts_are_bit_identical() {
        let baseline = Explorer::new(two_toys()).run_stats().unwrap();
        for seed in 0..8u32 {
            let threads = 2 + (seed as usize % 3);
            let stats = Explorer::new(two_toys())
                .parallelism(threads)
                .spill(seed % 2 == 1)
                .run_stats()
                .unwrap();
            assert_eq!(stats.states, baseline.states, "seed {seed}");
            assert_eq!(stats.edges, baseline.edges, "seed {seed}");
            assert_eq!(stats.dedup, baseline.dedup, "seed {seed}");
            assert_eq!(stats.code_bytes, baseline.code_bytes, "seed {seed}");
        }
    }

    #[test]
    fn por_with_full_symmetry_is_rejected() {
        // Toy lacks PidMap, so exercise the validation through config
        // alone is impossible here — the mode check needs an encoder in
        // Full mode, which `symmetry()` gates on PidMap. The family-level
        // rejection test lives in por_modelcheck.rs; this one pins the
        // error's Display text.
        assert_eq!(
            ExploreError::PorWithFullSymmetry.to_string(),
            "partial-order reduction cannot be combined with symmetry \
             reduction (identifier renumbering un-pins process slots, so an \
             orbit representative's ample set need not match its siblings'); \
             run one reduction or the other"
        );
    }

    /// Folds a graph's numbering — every state's configuration, discovery
    /// parent and outgoing edges, in id order — into one FNV-1a word.
    fn numbering_digest<M: Machine + Eq + Hash>(graph: &StateGraph<M>) -> u64 {
        use std::hash::Hasher;
        let mut h = anonreg_model::fingerprint::Fnv64::new();
        for (id, state) in graph.states() {
            h.write_u64(state.fingerprint());
            // Rendered as `Option<(parent, proc, crash)>`, the form the
            // pinned digests were taken in.
            let p = graph.parents[id];
            let parent = (id != 0).then_some((p.state as usize, p.proc as usize, p.crash));
            h.write(format!("{parent:?}").as_bytes());
            for e in graph.edges(id) {
                h.write(format!("{}:{}:{}", e.proc, e.target, e.crash).as_bytes());
            }
        }
        h.finish()
    }

    /// One worker numbers states in the canonical depth-first order the
    /// goldens and recorded `schedule_to` replays depend on.
    #[test]
    fn one_worker_numbering_is_pinned() {
        for (crashes, por, expected) in [
            (false, false, 0x8414_fccb_c9bf_997f),
            (true, false, 0x4179_f29b_db85_ab26),
            (false, true, 0xd81d_8ea8_a2e6_0823),
        ] {
            let graph = Explorer::new(two_toys())
                .crashes(crashes)
                .por(por)
                .run()
                .unwrap();
            assert_eq!(
                numbering_digest(&graph),
                expected,
                "crashes={crashes} por={por}"
            );
        }
    }

    /// Partial-order reduction keeps the one-worker numbering pinned on a
    /// real family too: Figure 1's mutex, `m = 3`, second view rotated.
    #[test]
    fn one_worker_por_numbering_is_pinned_on_the_mutex() {
        use anonreg::mutex::AnonMutex;
        let build = || {
            Simulation::builder()
                .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
                .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
                .build()
                .unwrap()
        };
        let graph = Explorer::new(build()).por(true).run().unwrap();
        let full = Explorer::new(build()).run_stats().unwrap();
        assert!((graph.state_count() as u64) < full.states, "POR pruned");
        assert_eq!(numbering_digest(&graph), 0x6411_8096_b99a_7804);
    }

    /// Refilling a warm state with `clone_from` reuses its registers,
    /// slots and machine buffers: the refill allocates nothing, in either
    /// direction.
    #[test]
    fn refilling_a_warm_simulation_allocates_nothing() {
        use anonreg::consensus::AnonConsensus;
        use anonreg::mutex::AnonMutex;
        use dedup::counting::allocations;

        fn refill<M: Machine + Eq>(family: &str, initial: &Simulation<M>) {
            let mut moved = initial.clone();
            for proc in [0, 1, 0, 0, 1, 1, 0] {
                moved.step_quiet(proc).unwrap();
            }
            assert!(!moved.same_configuration(initial), "{family}");
            let mut warm = initial.clone();
            let ((), allocated) = allocations(|| warm.clone_from(&moved));
            assert_eq!(allocated, (0, 0), "{family}: refill from a successor");
            assert!(warm.same_configuration(&moved), "{family}");
            let ((), allocated) = allocations(|| warm.clone_from(initial));
            assert_eq!(allocated, (0, 0), "{family}: refill from the initial state");
            assert!(warm.same_configuration(initial), "{family}");
        }

        let mutex = Simulation::builder()
            .process(AnonMutex::new(pid(1), 3).unwrap(), View::identity(3))
            .process(AnonMutex::new(pid(2), 3).unwrap(), View::rotated(3, 1))
            .build()
            .unwrap();
        refill("mutex", &mutex);
        let consensus = Simulation::builder()
            .process(AnonConsensus::new(pid(1), 2, 1).unwrap(), View::identity(3))
            .process(
                AnonConsensus::new(pid(2), 2, 2).unwrap(),
                View::rotated(3, 1),
            )
            .build()
            .unwrap();
        refill("consensus", &consensus);
    }

    /// Plain encoding appends into the caller's buffer: once the buffer
    /// has grown to a code's size, encoding a state allocates nothing.
    #[test]
    fn plain_encoding_into_a_warm_buffer_allocates_nothing() {
        use dedup::counting::allocations;
        let sim = two_toys();
        let encoder = StateEncoder::plain();
        let mut cold = Vec::new();
        assert!(!encoder.encode_into(&sim, &mut cold));
        let mut warm = Vec::with_capacity(2 * cold.len());
        let (moved, allocated) = allocations(|| encoder.encode_into(&sim, &mut warm));
        assert!(!moved);
        assert_eq!(allocated, (0, 0), "a warm buffer needs no allocation");
        assert_eq!(warm, cold);
        // Codes append: a second encode lands after the first.
        encoder.encode_into(&sim, &mut warm);
        assert_eq!(warm[cold.len()..], cold[..]);
    }

    /// A one-worker run spills too, and spilling changes nothing but
    /// where the codes live.
    #[test]
    fn one_worker_spill_spills() {
        use anonreg_obs::MemProbe;
        let probe = MemProbe::new();
        let baseline = Explorer::new(two_toys()).run().unwrap();
        let spilled = Explorer::new(two_toys())
            .spill(true)
            .probe(&probe)
            .run()
            .unwrap();
        assert_isomorphic(&spilled, &baseline);
        assert!(probe.into_snapshot().counter_total(Metric::SpillBytes) > 0);
    }

    /// The dedup table is sized to the run, not to its cap: a 440-state
    /// space explored under a cap of 10⁸ ends with at most four slots per
    /// state, on one worker and on two.
    #[test]
    fn table_is_sized_to_the_run_not_the_cap() {
        let three_toys = || {
            Simulation::builder()
                .process(
                    Toy {
                        pid: pid(1),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .process(
                    Toy {
                        pid: pid(2),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .process(
                    Toy {
                        pid: pid(3),
                        phase: 0,
                    },
                    View::identity(1),
                )
                .build()
                .unwrap()
        };
        for threads in [1, 2] {
            let stats = Explorer::new(three_toys())
                .crashes(true)
                .max_states(100_000_000)
                .parallelism(threads)
                .run_stats()
                .unwrap();
            assert_eq!(stats.states, 440);
            let slots = par::TABLE_SLOTS.get() as u64;
            assert!(
                slots <= 4 * stats.states,
                "{threads} workers: {slots} slots for {} states",
                stats.states
            );
        }
    }
}
