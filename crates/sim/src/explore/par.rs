//! The exploration engine.
//!
//! One worker loop serves every run. Graph mode
//! ([`Explorer::run`](super::Explorer::run)) is stats mode
//! ([`Explorer::run_stats`](super::Explorer::run_stats)) plus a record of
//! each expanded state's discovering transition and edges; it keeps no
//! state but the initial one. `parallelism(1)` is the single-worker
//! case: the lone worker runs on the calling thread, pops its own deque
//! last-in first-out and interns successors in expansion order, so it
//! numbers states in one deterministic depth-first order — the canonical
//! ids that [`StateGraph::schedule_to`] replays and golden tests pin.
//! With more workers the same loop runs on scoped threads:
//!
//! * **Lock-free dedup table** — state identity lives in an
//!   open-addressing fingerprint table ([`FpTable`]) that doubles when
//!   half full: one CAS claims a slot, one release store publishes the
//!   id, and readers acquire through the same word before touching the
//!   canonical code (the Arc-style publication idiom; orderings are
//!   certified in `explore/dedup.rs` and
//!   `anonreg_sanitizer::explorer_site_notes`). Canonical codes live in
//!   per-worker append-only arenas of words ([`InMemory`]), or — with
//!   [`ExploreConfig::spill`] — in per-worker temp files behind a sharded
//!   LRU tier ([`SpillStore`]), so code bytes no longer bound the state
//!   count by RAM. The table keeps one 8-byte locator per id.
//! * **Codes are borrowed until they are fresh** — a worker encodes a
//!   batch of successors back to back into one reused byte buffer and
//!   fingerprints each code in place; the table compares that slice
//!   against stored codes and appends it to the worker's own arena only
//!   when it claims a new id. Neither a dedup hit nor a fresh code
//!   allocates (an arena allocates a chunk at a time), so the hot loop
//!   does not churn the allocator (with two workers that churn convoyed
//!   on malloc's arena locks), and a run frees its codes a chunk at a
//!   time.
//! * **Shared words on their own cache lines** — the table's lock and
//!   counters, the `pending`, `aborted` and `max_depth` words and each
//!   worker's queue sit on cache lines of their own ([`Padded`]), so one
//!   worker's writes do not evict what its siblings read.
//! * **Successors are refilled in place** — each worker keeps a pool of
//!   successor entries across expansions and refills each from the
//!   expanded state with `clone_from`, which reuses the entry's register,
//!   slot and machine buffers, before stepping it. An entry's
//!   `Simulation` leaves the pool only when the table says `Fresh`; a
//!   dedup hit frees nothing. The expanded state, no longer needed in
//!   either mode, refills the hole a fresh successor left. Every state
//!   shares the initial state's view table, and a refill leaves that
//!   table's reference count alone.
//! * **Fresh states travel with the work items** — a fresh successor's
//!   `Simulation` is moved out of the pool into its frontier entry and
//!   back into the pool after its expansion, so no state is ever stored
//!   or recloned for expansion.
//! * **Graph shards, no lock** — in graph mode each worker appends, per
//!   expanded state, its id, its discovering transition (a compact
//!   [`Parent`] record) and the end of its edges to a [`Shard`] of its
//!   own, and the edges to the shard's one arena. States are expanded in
//!   race order, not id order, so after the joins one pass places
//!   parents and edge spans by id; a lone worker's arena becomes the
//!   graph's as it is, several are concatenated once. Machines are
//!   deterministic, so the parent records fix every state: the
//!   [`StateGraph`] regenerates states from the initial one instead of
//!   storing them. The worker that wins `Fresh` for an id writes its
//!   record, so under symmetry reduction the regenerated state is that
//!   worker's concrete representative.
//! * **Depth-first locally, breadth-first across workers** — each worker
//!   pops depth-first from the back of its own deque (keeps the hot end
//!   of the frontier in cache) and steals breadth-first from the front of
//!   a neighbour's when it runs dry.
//!
//! Termination uses a `pending` counter of discovered-but-unexpanded
//! states: a child is counted *before* it is enqueued and its parent is
//! uncounted only *after* every child has been enqueued — by a drop
//! guard, so a worker that panics mid-expansion still releases its item
//! and trips the abort flag instead of hanging the run
//! (`pending == 0` with an empty local scan really means the frontier is
//! globally drained; see `ORD-EXP-PENDING-005` for why Relaxed suffices).
//!
//! With several workers, state ids are assigned in race order, so two
//! runs number states differently. The *graph* is identical up to that
//! renumbering — `crates/core/tests/parallel_modelcheck.rs` checks graph
//! isomorphism at 1, 2 and 4 workers against an independent reference
//! explorer family by family, and `por_modelcheck.rs` does the same for
//! the partial-order-reduced graphs. Under a symmetry mode the stored
//! representative of an orbit is the first *concrete* state to reach the
//! dedup table, so which member represents an orbit (and hence edge event
//! labels) is racy, but the orbit set — state and edge counts, and every
//! verdict — is deterministic.

use std::any::Any;
use std::collections::VecDeque;
use std::hash::Hash;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use anonreg_model::fingerprint::{fp128, Fp128};
use anonreg_model::{Machine, SymmetryMode};
use anonreg_obs::{Metric, Phase, PhaseTimer, Probe, Profiler, Span};

use super::dedup::{CodeStore, FpTable, InMemory, Padded, Probe as TableProbe, SpillStore, Writer};
use super::{Edge, ExploreConfig, ExploreError, ExploreStats, Parent, StateGraph};
use crate::canon::StateEncoder;
use crate::{Simulation, StepOutcome};

/// How many consecutive empty steal sweeps before an idle worker sleeps
/// instead of spinning. Keeps idle workers cheap when the frontier is
/// momentarily narrower than the worker count (and on single-CPU hosts).
const IDLE_SPINS: u32 = 64;

/// In-memory budget for the spill tier's LRU code cache.
const SPILL_LRU_BUDGET: usize = 64 << 20;

/// How many successors a worker encodes and fingerprints before probing
/// the shared table. Batching keeps the encode+hash loop hot in the
/// worker's own cache lines instead of interleaving every fingerprint
/// with a (possibly contended) table probe; the batch's codes share one
/// reused buffer and are drained through the table in expansion order,
/// so intern order — and therefore every count — is bit-identical to the
/// unbatched loop.
const FP_BATCH: usize = 8;

/// How often the explorer samples its frontier/depth gauges, in
/// discovered states. Sampling (rather than reporting every state) keeps
/// the gauges cheap on million-state runs; the final values are always
/// reported exactly.
const GAUGE_SAMPLE_EVERY: usize = 1024;

/// A discovered-but-unexpanded state. The frontier owns the only
/// `Simulation` of the state until it is expanded.
struct WorkItem<M: Machine> {
    id: u32,
    depth: u32,
    /// The discovering transition (a placeholder for the initial state).
    parent: Parent,
    sim: Simulation<M>,
}

/// One entry of a worker's successor pool: a computed successor of the
/// state being expanded, before interning. Entries outlive expansions, so
/// the next expansion refills `sim` in place.
struct Successor<M: Machine> {
    proc: usize,
    crash: bool,
    /// `None` once the state moved into a work item as a fresh state,
    /// until the entry is refilled.
    sim: Option<Simulation<M>>,
    event: Option<M::Event>,
    /// The step was a register-free local step (event announcement or
    /// halt) — membership in the state's ample set.
    local: bool,
}

/// Points pool entry `at` at a copy of `state` for `proc`'s move and
/// returns that copy: refilled in place with `clone_from` when the entry
/// still holds a state, cloned into an empty or new entry otherwise.
fn refill<'p, M: Machine>(
    pool: &'p mut Vec<Successor<M>>,
    at: usize,
    state: &Simulation<M>,
    proc: usize,
    crash: bool,
) -> &'p mut Successor<M> {
    if at == pool.len() {
        pool.push(Successor {
            proc,
            crash,
            sim: Some(state.clone()),
            event: None,
            local: false,
        });
    } else {
        let succ = &mut pool[at];
        succ.proc = proc;
        succ.crash = crash;
        succ.event = None;
        succ.local = false;
        match &mut succ.sim {
            Some(sim) => sim.clone_from(state),
            empty @ None => *empty = Some(state.clone()),
        }
    }
    &mut pool[at]
}

/// Expands `state` into the first entries of `pool`: one successor per
/// live process, plus one crash successor each under the crash model.
/// With `por`, and when at least one process is poised at a
/// register-free local step, only those processes' successors are kept
/// (the ample set — see [`Explorer::por`](super::Explorer::por) for why
/// this is sound and why the ample set is *all* such processes, never
/// fewer): they move to the front of the pool in expansion order.
/// Returns `(live, pruned)`: the successors are `pool[..live]`, and
/// `pruned` more were cut by the ample set. Entries past `live` keep
/// their states for later refills.
fn expand_into<M: Machine + Eq>(
    state: &Simulation<M>,
    crashes: bool,
    por: bool,
    pool: &mut Vec<Successor<M>>,
) -> (usize, u64) {
    let mut live = 0;
    for proc in 0..state.process_count() {
        if state.is_halted(proc) {
            continue;
        }
        let succ = refill(pool, live, state, proc, false);
        let sim = succ.sim.as_mut().expect("refill fills the entry");
        let (outcome, event) = sim.step_quiet(proc).expect("slot is valid and not halted");
        succ.event = event;
        succ.local = matches!(outcome, StepOutcome::Event | StepOutcome::Halted);
        live += 1;
        if crashes {
            let succ = refill(pool, live, state, proc, true);
            let sim = succ.sim.as_mut().expect("refill fills the entry");
            sim.crash_quiet(proc).expect("slot is valid");
            live += 1;
        }
    }
    if por && pool[..live].iter().any(|s| s.local) {
        // A stable partition: the local entries keep their order, exactly
        // the successors `retain` would keep.
        let mut kept = 0;
        for i in 0..live {
            if pool[i].local {
                pool.swap(kept, i);
                kept += 1;
            }
        }
        (kept, (live - kept) as u64)
    } else {
        (live, 0)
    }
}

/// POR counters for one engine worker, reported only when the reduction
/// actually fired so unreduced runs keep their probe output unchanged.
#[derive(Default)]
struct PorTally {
    /// States at which the ample set was a proper subset.
    ample: u64,
    /// Successors pruned across those states.
    pruned: u64,
}

impl PorTally {
    fn absorb(&mut self, pruned: u64) {
        if pruned > 0 {
            self.ample += 1;
            self.pruned += pruned;
        }
    }

    fn report<P: Probe>(&self, probe: &P, key: u64) {
        if self.ample > 0 {
            probe.counter(Metric::PorAmple, key, self.ample);
            probe.counter(Metric::PorPruned, key, self.pruned);
        }
    }
}
/// Hands a finished engine worker's phase timer to the profiler, if both
/// are attached.
fn record_timer(profiler: Option<&Profiler>, timer: Option<PhaseTimer>) {
    if let (Some(p), Some(t)) = (profiler, timer) {
        p.record(t.finish());
    }
}

/// Running totals already emitted as incremental `explore_*` counter
/// flushes. Workers flush on the gauge sampling cadence so a live
/// stream sees progress mid-run; the final report emits only the
/// remainder, keeping every counter total exact.
#[derive(Default)]
struct FlushedCounters {
    states: u64,
    edges: u64,
    dedup: u64,
}

impl FlushedCounters {
    /// Emits the not-yet-flushed part of each running total.
    fn flush<P: Probe>(&mut self, probe: &P, dedup_key: u64, states: u64, edges: u64, dedup: u64) {
        if states > self.states {
            probe.counter(Metric::ExploreStates, 0, states - self.states);
            self.states = states;
        }
        if edges > self.edges {
            probe.counter(Metric::ExploreEdges, 0, edges - self.edges);
            self.edges = edges;
        }
        if dedup > self.dedup {
            probe.counter(Metric::ExploreDedup, dedup_key, dedup - self.dedup);
            self.dedup = dedup;
        }
    }

    /// Final emission: like [`FlushedCounters::flush`] but unconditional,
    /// so each counter has an entry even when its total is zero.
    fn finish<P: Probe>(&mut self, probe: &P, dedup_key: u64, states: u64, edges: u64, dedup: u64) {
        probe.counter(Metric::ExploreStates, 0, states.saturating_sub(self.states));
        probe.counter(Metric::ExploreEdges, 0, edges.saturating_sub(self.edges));
        probe.counter(
            Metric::ExploreDedup,
            dedup_key,
            dedup.saturating_sub(self.dedup),
        );
        self.states = states.max(self.states);
        self.edges = edges.max(self.edges);
        self.dedup = dedup.max(self.dedup);
    }
}

/// One worker's share of the graph, in expansion order: the ids it
/// expanded, their discovering transitions, where each state's edges end
/// in the worker's edge arena, and that arena. Only the worker appends to
/// it, so graph assembly takes no lock; the shards are placed by id once,
/// after the joins.
struct Shard<E> {
    ids: Vec<u32>,
    parents: Vec<Parent>,
    ends: Vec<usize>,
    edges: Vec<Edge<E>>,
}

impl<E> Default for Shard<E> {
    fn default() -> Self {
        Shard {
            ids: Vec::new(),
            parents: Vec::new(),
            ends: Vec::new(),
            edges: Vec::new(),
        }
    }
}

impl<E> Shard<E> {
    /// Closes expanded state `id`: its edges are the ones pushed since the
    /// previous state closed.
    fn close(&mut self, id: u32, parent: Parent) {
        self.ids.push(id);
        self.parents.push(parent);
        self.ends.push(self.edges.len());
    }
}

/// Places the workers' shards by id: the graph of `total` states rooted at
/// `initial`. One shard's edge arena is taken as it is; several are
/// concatenated once.
fn assemble<M: Machine>(
    initial: Simulation<M>,
    total: usize,
    mut shards: Vec<Shard<M::Event>>,
) -> StateGraph<M> {
    let mut parents = vec![Parent::default(); total];
    let mut spans = vec![0..0; total];
    let concat = shards.len() > 1;
    let mut edges = if concat {
        Vec::with_capacity(shards.iter().map(|s| s.edges.len()).sum())
    } else {
        shards
            .first_mut()
            .map(|s| std::mem::take(&mut s.edges))
            .unwrap_or_default()
    };
    let mut placed = 0;
    for shard in &mut shards {
        let offset = if concat {
            let offset = edges.len();
            edges.append(&mut shard.edges);
            offset
        } else {
            0
        };
        let mut start = offset;
        for ((&id, &parent), &end) in shard.ids.iter().zip(&shard.parents).zip(&shard.ends) {
            parents[id as usize] = parent;
            spans[id as usize] = start..offset + end;
            start = offset + end;
        }
        placed += shard.ids.len();
    }
    debug_assert_eq!(placed, total, "every interned state was expanded once");
    StateGraph {
        initial,
        edges,
        spans,
        parents,
    }
}

/// Encodes states for the dedup table, appending each code to a buffer
/// the caller owns and reuses, and tallies the symmetry work for the
/// probe. Canonical searches are timed; plain encodes are not.
struct Encoding<'e, M: Machine> {
    encoder: &'e StateEncoder<M>,
    time_canon: bool,
    /// Encodes that moved the state to another orbit member.
    hits: u64,
    canon_nanos: u64,
}

impl<'e, M: Machine + Eq + Hash> Encoding<'e, M> {
    fn new<P: Probe>(encoder: &'e StateEncoder<M>) -> Self {
        Encoding {
            encoder,
            time_canon: P::ENABLED && encoder.mode() != SymmetryMode::Off,
            hits: 0,
            canon_nanos: 0,
        }
    }

    /// Appends `sim`'s state code to `out`.
    fn encode_into(&mut self, sim: &Simulation<M>, out: &mut Vec<u8>) {
        if self.time_canon {
            let start = Instant::now();
            let moved = self.encoder.encode_into(sim, out);
            self.canon_nanos += start.elapsed().as_nanos() as u64;
            self.hits += u64::from(moved);
        } else {
            self.encoder.encode_into(sim, out);
        }
    }

    /// Emits the tallies under `key`, each only if nonzero, so plain
    /// explorations keep their probe output unchanged.
    fn report<P: Probe>(&self, probe: &P, key: u64) {
        if self.hits > 0 {
            probe.counter(Metric::SymmetryHits, key, self.hits);
        }
        if self.canon_nanos > 0 {
            probe.counter(Metric::CanonTime, key, self.canon_nanos);
        }
    }
}

/// Everything the workers share.
struct Ctx<M: Machine, S: CodeStore> {
    table: FpTable<S>,
    /// The phase interns are charged to: [`Phase::Spill`] when the probe
    /// includes the LRU/file tier, so profiles separate table time from IO.
    intern_phase: Phase,
    /// Graph mode: each worker fills a [`Shard`].
    collect_graph: bool,
    /// One frontier deque per worker.
    queues: Vec<Padded<Mutex<VecDeque<WorkItem<M>>>>>,
    /// Discovered-but-unexpanded states (see module docs).
    /// ORD-EXP-PENDING-005: Relaxed — on this single counter, every
    /// child's increment precedes its parent's decrement in the
    /// incrementing thread's program order, so coherence alone
    /// guarantees a zero is only ever observed once the frontier is
    /// truly drained.
    pending: Padded<AtomicUsize>,
    /// Advisory stop flag (state limit hit or a sibling panicked).
    /// ORD-EXP-ABORT-007: Relaxed — no data rides on it; the authoritative
    /// error is decided on the calling thread after the joins.
    aborted: Padded<AtomicBool>,
    /// Maximum discovery depth seen. A worker raises it only when its own
    /// deepest discovery grows.
    max_depth: Padded<AtomicU64>,
    crashes: bool,
    por: bool,
}

/// Releases one unit of `pending` when an expansion ends — normally or
/// by unwinding. A panicking worker additionally trips the abort flag so
/// its siblings drain and exit instead of waiting for work that will
/// never come; the calling thread turns the panic into
/// [`ExploreError::WorkerPanicked`].
struct PendingGuard<'a> {
    pending: &'a AtomicUsize,
    aborted: &'a AtomicBool,
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.aborted.store(true, Ordering::Relaxed);
        }
        // ORD-EXP-PENDING-005.
        self.pending.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What one worker brings home: its tallies, its graph shard (graph mode)
/// and its phase timer, still running, for the caller to finish.
struct WorkerOut<E> {
    /// Graph mode only.
    shard: Option<Shard<E>>,
    timer: Option<PhaseTimer>,
    /// States expanded.
    expanded: u64,
    /// States this worker discovered (interned as `Fresh`).
    fresh: u64,
    /// Summed code length of the states this worker discovered.
    code_bytes: u64,
    /// Dedup hits this worker observed (interned as `Known`).
    dedup: u64,
    /// Work items stolen from other workers.
    steals: u64,
    /// Transitions recorded.
    edge_total: u64,
    /// Deepest discovery depth this worker saw.
    max_depth: u64,
    /// Ample-set reduction tallies.
    por: PorTally,
}

/// Pops the next work item: own deque from the back (charged to
/// [`Phase::Pop`]), else a sweep of the other workers' deques from the
/// front (charged to [`Phase::Steal`]).
fn pop_work<M: Machine, S: CodeStore>(
    me: usize,
    ctx: &Ctx<M, S>,
    steals: &mut u64,
    timer: &mut Option<PhaseTimer>,
) -> Option<WorkItem<M>> {
    if let Some(t) = timer.as_mut() {
        t.switch(Phase::Pop);
    }
    if let Some(item) = ctx.queues[me].lock().expect("queue lock").pop_back() {
        return Some(item);
    }
    if let Some(t) = timer.as_mut() {
        t.switch(Phase::Steal);
    }
    let n = ctx.queues.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(item) = ctx.queues[victim].lock().expect("queue lock").pop_front() {
            *steals += 1;
            return Some(item);
        }
    }
    None
}

/// One worker's main loop; `writer` is worker `me`'s writer of the
/// dedup table and `timer` its phase timer, if the run is profiled.
fn worker<M, P, S>(
    me: usize,
    mut writer: Writer<'_, S>,
    ctx: &Ctx<M, S>,
    probe: &P,
    encoder: &StateEncoder<M>,
    mut timer: Option<PhaseTimer>,
) -> WorkerOut<M::Event>
where
    M: Machine + Eq + Hash,
    P: Probe,
    S: CodeStore,
{
    // A lone worker is the whole run: the `explore` span covers it.
    let per_worker = P::ENABLED && ctx.queues.len() > 1;
    if per_worker {
        probe.span_open(Span::ExploreWorker, me as u64);
    }
    let mut out = WorkerOut {
        shard: ctx.collect_graph.then(Shard::default),
        timer: None,
        expanded: 0,
        fresh: 0,
        code_bytes: 0,
        dedup: 0,
        steals: 0,
        edge_total: 0,
        max_depth: 0,
        por: PorTally::default(),
    };
    let mut encoding = Encoding::new::<P>(encoder);
    let should_abort = || ctx.aborted.load(Ordering::Relaxed);
    let mut flushed = FlushedCounters::default();
    // The successor pool, grown on the first expansion and refilled in
    // place by every later one.
    let mut successors: Vec<Successor<M>> = Vec::new();
    // A batch's codes sit back to back in `codes`; each entry keeps its
    // successor's pool index and the byte range of its own code.
    let mut batch: Vec<(usize, Range<usize>, Fp128)> = Vec::with_capacity(FP_BATCH);
    let mut codes: Vec<u8> = Vec::new();
    let mut idle = 0u32;
    'outer: while !ctx.aborted.load(Ordering::Relaxed) {
        let Some(item) = pop_work(me, ctx, &mut out.steals, &mut timer) else {
            if ctx.pending.load(Ordering::Relaxed) == 0 {
                break;
            }
            if let Some(t) = timer.as_mut() {
                t.switch(Phase::Idle);
            }
            idle += 1;
            if idle >= IDLE_SPINS {
                std::thread::sleep(std::time::Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
            continue;
        };
        idle = 0;
        let WorkItem {
            id,
            depth,
            parent,
            sim: state,
        } = item;
        // From here the popped item is accounted for even if a machine
        // panics mid-step.
        let _guard = PendingGuard {
            pending: &ctx.pending,
            aborted: &ctx.aborted,
        };
        if let Some(t) = timer.as_mut() {
            t.switch(Phase::Step);
        }
        let (live, pruned) = expand_into(&state, ctx.crashes, ctx.por, &mut successors);
        out.por.absorb(pruned);
        // Batched fingerprinting: encode + hash up to FP_BATCH successors
        // back-to-back, then drain them through the shared table in the
        // same order the unbatched loop would have used.
        let mut next = 0;
        while next < live {
            if let Some(t) = timer.as_mut() {
                t.switch(Phase::Canon);
            }
            batch.clear();
            codes.clear();
            let end = live.min(next + FP_BATCH);
            for (i, succ) in successors[..end].iter().enumerate().skip(next) {
                let sim = succ.sim.as_ref().expect("live entries are filled");
                let start = codes.len();
                encoding.encode_into(sim, &mut codes);
                let fp = fp128(&codes[start..]);
                batch.push((i, start..codes.len(), fp));
            }
            next = end;
            if let Some(t) = timer.as_mut() {
                t.switch(ctx.intern_phase);
            }
            let mut table = writer.batch();
            for (i, span, fp) in batch.drain(..) {
                let succ = &mut successors[i];
                let code = &codes[span];
                let target = match table.intern(fp, code, should_abort) {
                    TableProbe::Known(t) => {
                        out.dedup += 1;
                        t
                    }
                    TableProbe::Fresh(t) => {
                        out.fresh += 1;
                        out.code_bytes += code.len() as u64;
                        // Count the child before enqueueing it so `pending`
                        // never under-reports outstanding work.
                        ctx.pending.fetch_add(1, Ordering::Relaxed);
                        ctx.queues[me]
                            .lock()
                            .expect("queue lock")
                            .push_back(WorkItem {
                                id: t,
                                depth: depth + 1,
                                parent: Parent {
                                    state: id,
                                    proc: succ.proc as u32,
                                    crash: succ.crash,
                                },
                                sim: succ.sim.take().expect("live entries are filled"),
                            });
                        if u64::from(depth) + 1 > out.max_depth {
                            out.max_depth = u64::from(depth) + 1;
                            ctx.max_depth.fetch_max(out.max_depth, Ordering::Relaxed);
                        }
                        t
                    }
                    TableProbe::Limit | TableProbe::Aborted => {
                        ctx.aborted.store(true, Ordering::Relaxed);
                        break 'outer;
                    }
                };
                out.edge_total += 1;
                if let Some(shard) = out.shard.as_mut() {
                    shard.edges.push(Edge {
                        proc: succ.proc,
                        target: target as usize,
                        events: succ.event.take(),
                        crash: succ.crash,
                    });
                }
            }
        }
        if let Some(shard) = out.shard.as_mut() {
            if let Some(t) = timer.as_mut() {
                t.switch(Phase::Record);
            }
            shard.close(id, parent);
        }
        // The expanded state refills the hole a fresh successor left, so
        // the pool never outgrows one expansion.
        if let Some(hole) = successors.iter_mut().find(|s| s.sim.is_none()) {
            hole.sim = Some(state);
        }
        out.expanded += 1;
        if P::ENABLED && out.expanded % GAUGE_SAMPLE_EVERY as u64 == 0 {
            probe.gauge(
                Metric::ExploreFrontier,
                0,
                ctx.pending.load(Ordering::Relaxed) as u64,
            );
            probe.gauge(
                Metric::ExploreDepth,
                0,
                ctx.max_depth.load(Ordering::Relaxed),
            );
            flushed.flush(probe, me as u64, out.fresh, out.edge_total, out.dedup);
        }
    }
    if P::ENABLED {
        flushed.finish(probe, me as u64, out.fresh, out.edge_total, out.dedup);
        encoding.report(probe, me as u64);
        out.por.report(probe, me as u64);
        if per_worker {
            probe.counter(Metric::ExploreSteals, me as u64, out.steals);
            probe.span_close(Span::ExploreWorker, me as u64, out.expanded);
        }
    }
    out.timer = timer;
    out
}

/// Explores the reachable graph of `initial` with `threads` workers,
/// keeping the graph (`collect_graph`) or only its counts.
pub(super) fn run<M, P>(
    initial: Simulation<M>,
    config: &ExploreConfig,
    probe: &P,
    threads: usize,
    encoder: &StateEncoder<M>,
    profiler: Option<&Profiler>,
    collect_graph: bool,
) -> Result<(Option<StateGraph<M>>, ExploreStats), ExploreError>
where
    M: Machine + Eq + Hash,
    P: Probe,
{
    // Worker 0's timer also covers the run's setup and teardown on this
    // thread.
    let mut timer = profiler.map(|p| p.timer(0));
    if let Some(t) = timer.as_mut() {
        t.switch(Phase::Setup);
    }
    if config.spill {
        // The spill location packs a 5-bit worker index.
        let threads = threads.min(32);
        let store =
            SpillStore::new(threads, SPILL_LRU_BUDGET).expect("spill temp files must be creatable");
        let ctx = Ctx::new(config, threads, collect_graph, store, Phase::Spill);
        explore(ctx, initial, config, probe, encoder, profiler, timer)
    } else {
        let store = InMemory::new(threads);
        let ctx = Ctx::new(config, threads, collect_graph, store, Phase::Dedup);
        explore(ctx, initial, config, probe, encoder, profiler, timer)
    }
}

impl<M: Machine, S: CodeStore> Ctx<M, S> {
    /// The shared state of a run on `threads` workers, each of which
    /// appends to its own end of `store`.
    fn new(
        config: &ExploreConfig,
        threads: usize,
        collect_graph: bool,
        store: S,
        intern_phase: Phase,
    ) -> Self {
        debug_assert_eq!(store.workers(), threads);
        Ctx {
            table: FpTable::new(config.max_states, store),
            intern_phase,
            collect_graph,
            queues: (0..threads).map(|_| Padded::default()).collect(),
            pending: Padded::default(),
            aborted: Padded::default(),
            max_depth: Padded::default(),
            crashes: config.crashes,
            por: config.por,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// The dedup table's slot count at the end of this thread's last run.
    pub(super) static TABLE_SLOTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs the workers over `ctx` from `initial`; `timer` is worker 0's,
/// already charging [`Phase::Setup`].
fn explore<M, P, S>(
    ctx: Ctx<M, S>,
    mut initial: Simulation<M>,
    config: &ExploreConfig,
    probe: &P,
    encoder: &StateEncoder<M>,
    profiler: Option<&Profiler>,
    mut timer: Option<PhaseTimer>,
) -> Result<(Option<StateGraph<M>>, ExploreStats), ExploreError>
where
    M: Machine + Eq + Hash,
    P: Probe,
    S: CodeStore,
{
    initial.clear_trace();
    // The graph's root; every other state is regenerated from it.
    let root = ctx.collect_graph.then(|| initial.clone());

    if P::ENABLED {
        probe.span_open(Span::Explore, 0);
    }

    let mut encoding = Encoding::new::<P>(encoder);
    let mut code = Vec::new();
    encoding.encode_into(&initial, &mut code);
    if P::ENABLED {
        encoding.report(probe, 0);
    }
    let fp = fp128(&code);
    let mut writers = ctx.table.writers();
    match writers[0].batch().intern(fp, &code, || false) {
        TableProbe::Fresh(id) => debug_assert_eq!(id, 0, "first interned state is state 0"),
        TableProbe::Known(_) | TableProbe::Aborted => {
            unreachable!("the dedup table starts empty and nothing can abort yet")
        }
        TableProbe::Limit => {
            if P::ENABLED {
                report_totals::<_, M::Event>(probe, 0, 0, &[]);
                probe.span_close(Span::Explore, 0, 0);
            }
            record_timer(profiler, timer);
            return Err(ExploreError::StateLimitExceeded {
                limit: config.max_states,
            });
        }
    }
    ctx.pending.store(1, Ordering::Relaxed);
    ctx.queues[0]
        .lock()
        .expect("queue lock")
        .push_back(WorkItem {
            id: 0,
            depth: 0,
            parent: Parent::default(),
            sim: initial,
        });

    // Worker 0 carries the calling thread's timer and hands it back when
    // it exits; waiting for the other workers is then charged to
    // teardown. A lone worker runs here, so a one-worker run pays no
    // thread spawn. With several, worker 0 runs on a scoped thread like
    // the others: on the calling thread it measured ~7 % slower on a
    // two-worker stats run (2-core host). The others, spawned first so
    // the spawns are charged to setup, finish their own timers.
    let rest = writers.split_off(1);
    let writer = writers.pop().expect("worker 0's writer");
    let mut joins: Vec<std::thread::Result<WorkerOut<M::Event>>> =
        Vec::with_capacity(1 + rest.len());
    if rest.is_empty() {
        joins.push(std::panic::catch_unwind(AssertUnwindSafe(|| {
            worker(0, writer, &ctx, probe, encoder, timer.take())
        })));
        hand_back(&mut joins[0], &mut timer);
    } else {
        std::thread::scope(|s| {
            let ctx = &ctx;
            let handles: Vec<_> = rest
                .into_iter()
                .enumerate()
                .map(|(i, writer)| {
                    let timer = profiler.map(|p| p.timer(i as u64 + 1));
                    s.spawn(move || {
                        let mut out = worker(i + 1, writer, ctx, probe, encoder, timer);
                        record_timer(profiler, out.timer.take());
                        out
                    })
                })
                .collect();
            let timer0 = timer.take();
            joins.push(
                s.spawn(move || worker(0, writer, ctx, probe, encoder, timer0))
                    .join(),
            );
            hand_back(&mut joins[0], &mut timer);
            joins.extend(handles.into_iter().map(std::thread::ScopedJoinHandle::join));
        });
    }
    let mut panicked = None;
    let mut outs: Vec<WorkerOut<M::Event>> = Vec::with_capacity(joins.len());
    for join in joins {
        match join {
            Ok(out) => outs.push(out),
            Err(payload) => {
                panicked.get_or_insert_with(|| panic_message(payload.as_ref()));
            }
        }
    }

    let total = ctx.table.len();
    let edge_total: u64 = outs.iter().map(|o| o.edge_total).sum();
    let stats = ExploreStats {
        states: total as u64,
        edges: edge_total,
        dedup: outs.iter().map(|o| o.dedup).sum(),
        code_bytes: code.len() as u64 + outs.iter().map(|o| o.code_bytes).sum::<u64>(),
        max_depth: u32::try_from(ctx.max_depth.load(Ordering::Relaxed)).unwrap_or(u32::MAX),
    };

    if P::ENABLED {
        report_totals(probe, total as u64, edge_total, &outs);
        ctx.table.store().report(probe);
        probe.gauge(Metric::ExploreFrontier, 0, 0);
        probe.gauge(
            Metric::ExploreDepth,
            0,
            ctx.max_depth.load(Ordering::Relaxed),
        );
        probe.span_close(Span::Explore, 0, total as u64);
    }
    #[cfg(test)]
    TABLE_SLOTS.set(ctx.table.capacity());

    let aborted = ctx.aborted.load(Ordering::Relaxed);
    drop(ctx);
    let result = if let Some(message) = panicked {
        Err(ExploreError::WorkerPanicked { message })
    } else if aborted {
        Err(ExploreError::StateLimitExceeded {
            limit: config.max_states,
        })
    } else {
        let graph = root.map(|root| {
            let shards = outs.iter_mut().filter_map(|o| o.shard.take()).collect();
            assemble(root, total, shards)
        });
        Ok((graph, stats))
    };
    drop(outs);
    record_timer(profiler, timer);
    result
}

/// Takes worker 0's timer back from its result, if it did not panic, and
/// charges what follows to teardown.
fn hand_back<E>(zero: &mut std::thread::Result<WorkerOut<E>>, timer: &mut Option<PhaseTimer>) {
    if let Ok(out) = zero {
        *timer = out.timer.take();
    }
    if let Some(t) = timer.as_mut() {
        t.switch(Phase::Teardown);
    }
}

/// A worker's panic message: the `&str` or `String` payload that `panic!`
/// and `assert!` carry, else a fixed placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Emits the counter remainders the workers did not flush themselves:
/// the initial interned state (discovered by `explore`, not by any
/// worker) and, on an aborted run, ids assigned past the flushed counts.
/// Dedup hits are fully flushed per worker (keyed by worker index), so
/// only states and edges can have a remainder.
fn report_totals<P: Probe, E>(probe: &P, states: u64, edges: u64, outs: &[WorkerOut<E>]) {
    let flushed_states: u64 = outs.iter().map(|o| o.fresh).sum();
    let flushed_edges: u64 = outs.iter().map(|o| o.edge_total).sum();
    probe.counter(
        Metric::ExploreStates,
        0,
        states.saturating_sub(flushed_states),
    );
    probe.counter(Metric::ExploreEdges, 0, edges.saturating_sub(flushed_edges));
}
