//! The wall-clock profiler: per-worker, per-phase self-time.
//!
//! A [`Profiler`] is shared (usually behind an `Arc`) by every worker of
//! an instrumented run. Each worker drives its own [`PhaseTimer`] — a
//! lock-free phase *stack* whose top frame accrues self-time between
//! transitions — and flushes the finished [`WorkerProfile`] back into
//! the profiler exactly once, at worker exit. The hot path therefore
//! never takes a lock: a transition is two `Instant::now()` reads and
//! one map bump keyed by a packed path integer.
//!
//! Two export shapes come out the other end:
//!
//! * schema-v2 `profile` records (one per worker, see
//!   [`crate::schema`]) via [`Profiler::profile_lines`], and
//! * collapsed-stack flamegraph text via [`Profiler::collapsed`] —
//!   `worker0;step 12345` per line, the format `inferno` and
//!   speedscope both ingest directly.
//!
//! The phase vocabulary is a closed enum, mirroring [`crate::Metric`]:
//! the engines charge `setup`, `pop`/`steal`/`step`/`canon`/`dedup`
//! (`spill`)/`record`/`idle` and `teardown`, the runtime driver charges
//! `doorway`/`waiting`/`critical`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::schema::STREAM_SCHEMA_VERSION;

/// One phase of an instrumented worker's life. The wire name of each
/// variant is part of schema v2 — renaming one is a schema bump.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// Refilling successor states from the expanded state and stepping
    /// the machine (explorer workers).
    Step,
    /// Canonical orbit encoding of a reached state.
    Canon,
    /// Dedup lookup/insert against the intern table or shards.
    Dedup,
    /// Stealing the next work item from another worker's frontier, once
    /// the worker's own is empty (explorer workers).
    Steal,
    /// Spinning/yielding with nothing to do (explorer workers).
    Idle,
    /// A runtime process executing its entry or exit protocol.
    Doorway,
    /// A runtime process inside randomized backoff, waiting out
    /// contention.
    Waiting,
    /// A runtime process inside its critical section.
    Critical,
    /// Dedup lookup/insert against the spill-backed code store — the
    /// lock-free table probe plus the LRU/disk verification tier. The
    /// explorer charges interns here instead of
    /// [`Phase::Dedup`] when spilling is on, so profiles separate table
    /// time from IO.
    Spill,
    /// Graph assembly: an explorer worker closing an expanded state's
    /// record in its own graph shard (graph mode only).
    Record,
    /// Taking the next work item from the worker's own frontier
    /// (explorer workers).
    Pop,
    /// An exploration's setup on the calling thread: the dedup table, the
    /// writer split, the initial state and the worker threads' spawn.
    Setup,
    /// An exploration's teardown on the calling thread: waiting for the
    /// workers, placing the graph shards by id and dropping the table.
    Teardown,
}

/// All phases, in wire order. `Phase::from_code` relies on this; new
/// phases append so existing packed codes stay stable.
const PHASES: [Phase; 13] = [
    Phase::Step,
    Phase::Canon,
    Phase::Dedup,
    Phase::Steal,
    Phase::Idle,
    Phase::Doorway,
    Phase::Waiting,
    Phase::Critical,
    Phase::Spill,
    Phase::Record,
    Phase::Pop,
    Phase::Setup,
    Phase::Teardown,
];

impl Phase {
    /// The stable wire name (schema v2 `profile` frames).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Step => "step",
            Phase::Canon => "canon",
            Phase::Dedup => "dedup",
            Phase::Steal => "steal",
            Phase::Idle => "idle",
            Phase::Doorway => "doorway",
            Phase::Waiting => "waiting",
            Phase::Critical => "critical",
            Phase::Spill => "spill",
            Phase::Record => "record",
            Phase::Pop => "pop",
            Phase::Setup => "setup",
            Phase::Teardown => "teardown",
        }
    }

    /// Packed 5-bit code (1-based so `0` can terminate a path).
    fn code(self) -> u64 {
        PHASES.iter().position(|&p| p == self).unwrap() as u64 + 1
    }

    fn from_code(code: u64) -> Option<Phase> {
        PHASES.get(code.checked_sub(1)? as usize).copied()
    }
}

/// Phase stacks are packed 5 bits per frame into a `u64` path key, so a
/// timer transition is a map bump on an integer, not a `Vec` clone.
const PATH_BITS: u32 = 5;
const MAX_DEPTH: usize = (u64::BITS / PATH_BITS) as usize;

fn path_key(stack: &[Phase]) -> u64 {
    stack
        .iter()
        .fold(0u64, |acc, p| (acc << PATH_BITS) | p.code())
}

fn decode_path(mut key: u64) -> Vec<Phase> {
    let mut rev = Vec::new();
    while key != 0 {
        let code = key & ((1 << PATH_BITS) - 1);
        rev.push(Phase::from_code(code).expect("invalid packed phase path"));
        key >>= PATH_BITS;
    }
    rev.reverse();
    rev
}

/// One worker's finished per-phase self-time, flushed into a
/// [`Profiler`] at worker exit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerProfile {
    /// The worker index (0 for single-threaded runs / the sequential
    /// engine; the runtime uses process slots).
    pub worker: u64,
    /// `(stack, self_ns)` pairs, one per distinct phase stack, sorted
    /// by stack path. The stack string is `;`-joined phase names
    /// *without* the worker root frame — [`Profiler::collapsed`]
    /// prepends `worker{n}`.
    pub frames: Vec<(String, u64)>,
}

impl WorkerProfile {
    /// Total self-time across every frame — by construction this is the
    /// worker's measured wall-clock between its first phase push and
    /// its flush.
    #[must_use]
    pub fn total_self_ns(&self) -> u64 {
        self.frames.iter().map(|(_, ns)| ns).sum()
    }
}

/// A per-worker phase stack accruing self-time to its top frame.
///
/// Not `Sync` on purpose: one timer belongs to one worker thread. All
/// methods are O(stack depth) with no allocation on the steady path.
#[derive(Debug)]
pub struct PhaseTimer {
    worker: u64,
    stack: Vec<Phase>,
    last: Instant,
    self_ns: BTreeMap<u64, u64>,
}

impl PhaseTimer {
    /// Creates a timer for `worker`, with an empty stack (time before
    /// the first push is not charged to anything).
    #[must_use]
    pub fn new(worker: u64) -> Self {
        PhaseTimer {
            worker,
            stack: Vec::with_capacity(4),
            last: Instant::now(),
            self_ns: BTreeMap::new(),
        }
    }

    /// Charges the interval since the previous transition to the
    /// current top of stack (or to nothing when the stack is empty).
    fn charge(&mut self) {
        let now = Instant::now();
        if !self.stack.is_empty() {
            let key = path_key(&self.stack);
            *self.self_ns.entry(key).or_insert(0) +=
                now.duration_since(self.last).as_nanos() as u64;
        }
        self.last = now;
    }

    /// Pushes a nested phase.
    ///
    /// # Panics
    ///
    /// Panics if the stack would exceed the packed-path depth limit
    /// (12 frames) — phase trees here are shallow by design.
    pub fn push(&mut self, phase: Phase) {
        assert!(self.stack.len() < MAX_DEPTH, "phase stack too deep");
        self.charge();
        self.stack.push(phase);
    }

    /// Pops the current phase, returning to its parent.
    pub fn pop(&mut self) {
        self.charge();
        self.stack.pop();
    }

    /// Replaces the top of stack (or pushes onto an empty stack): the
    /// cheap flat-phase transition the explorer workers use.
    pub fn switch(&mut self, phase: Phase) {
        if self.stack.last() == Some(&phase) {
            return;
        }
        self.charge();
        match self.stack.last_mut() {
            Some(top) => *top = phase,
            None => self.stack.push(phase),
        }
    }

    /// The current top of stack, if any.
    #[must_use]
    pub fn current(&self) -> Option<Phase> {
        self.stack.last().copied()
    }

    /// Charges the final interval and collapses into a
    /// [`WorkerProfile`].
    #[must_use]
    pub fn finish(mut self) -> WorkerProfile {
        self.charge();
        let frames = self
            .self_ns
            .iter()
            .map(|(&key, &ns)| {
                let names: Vec<&str> = decode_path(key).iter().map(|p| p.name()).collect();
                (names.join(";"), ns)
            })
            .collect::<BTreeMap<String, u64>>()
            .into_iter()
            .collect();
        WorkerProfile {
            worker: self.worker,
            frames,
        }
    }
}

/// The shared collector: workers flush [`WorkerProfile`]s in, exports
/// come out. Cheap to share behind an `Arc`; the lock is only touched
/// once per worker lifetime (plus at export).
#[derive(Debug, Default)]
pub struct Profiler {
    workers: Mutex<Vec<WorkerProfile>>,
}

impl Profiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Starts a [`PhaseTimer`] for `worker`. Purely a convenience —
    /// the timer holds no reference back; flush it with
    /// [`Profiler::record`].
    #[must_use]
    pub fn timer(&self, worker: u64) -> PhaseTimer {
        PhaseTimer::new(worker)
    }

    /// Flushes one worker's finished profile.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    pub fn record(&self, profile: WorkerProfile) {
        self.workers
            .lock()
            .expect("profiler lock poisoned")
            .push(profile);
    }

    /// Everything flushed so far, sorted by worker index.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the lock.
    #[must_use]
    pub fn profiles(&self) -> Vec<WorkerProfile> {
        let mut out = self.workers.lock().expect("profiler lock poisoned").clone();
        out.sort_by_key(|w| w.worker);
        out
    }

    /// Total self-time across every worker and frame.
    #[must_use]
    pub fn total_self_ns(&self) -> u64 {
        self.profiles()
            .iter()
            .map(WorkerProfile::total_self_ns)
            .sum()
    }

    /// Collapsed-stack flamegraph text: one `worker{n};phase[;…] ns`
    /// line per frame, ready for `inferno-flamegraph` or speedscope.
    #[must_use]
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for w in self.profiles() {
            for (stack, ns) in &w.frames {
                out.push_str(&format!("worker{};{stack} {ns}\n", w.worker));
            }
        }
        out
    }

    /// Schema-v2 `profile` records, one per worker, with sequence
    /// numbers `seq_base..`. The caller supplies the stream envelope
    /// (`run` id and elapsed milliseconds).
    #[must_use]
    pub fn profile_lines(&self, seq_base: u64, run: &str, elapsed_ms: u64) -> Vec<Json> {
        self.profiles()
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let frames = w
                    .frames
                    .iter()
                    .map(|(stack, ns)| {
                        Json::obj(vec![
                            ("stack", Json::Str(stack.clone())),
                            ("self_ns", Json::U64(*ns)),
                        ])
                    })
                    .collect();
                Json::obj(vec![
                    ("v", Json::U64(STREAM_SCHEMA_VERSION)),
                    ("t", Json::Str("profile".to_string())),
                    ("seq", Json::U64(seq_base + i as u64)),
                    ("run", Json::Str(run.to_string())),
                    ("elapsed_ms", Json::U64(elapsed_ms)),
                    ("worker", Json::U64(w.worker)),
                    ("frames", Json::Arr(frames)),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::validate_value;

    #[test]
    fn phase_names_are_stable() {
        // Schema v2 vocabulary — a rename here is a schema bump.
        assert_eq!(Phase::Step.name(), "step");
        assert_eq!(Phase::Canon.name(), "canon");
        assert_eq!(Phase::Dedup.name(), "dedup");
        assert_eq!(Phase::Steal.name(), "steal");
        assert_eq!(Phase::Idle.name(), "idle");
        assert_eq!(Phase::Doorway.name(), "doorway");
        assert_eq!(Phase::Waiting.name(), "waiting");
        assert_eq!(Phase::Critical.name(), "critical");
        assert_eq!(Phase::Spill.name(), "spill");
        assert_eq!(Phase::Record.name(), "record");
        assert_eq!(Phase::Pop.name(), "pop");
        assert_eq!(Phase::Setup.name(), "setup");
        assert_eq!(Phase::Teardown.name(), "teardown");
        // Wire codes are append-only: the newest phase takes the next one.
        assert_eq!(Phase::Spill.code(), 9);
        assert_eq!(Phase::Record.code(), 10);
        assert_eq!(Phase::from_code(10), Some(Phase::Record));
        assert_eq!(Phase::Pop.code(), 11);
        assert_eq!(Phase::Setup.code(), 12);
        assert_eq!(Phase::Teardown.code(), 13);
        assert_eq!(Phase::from_code(13), Some(Phase::Teardown));
        assert_eq!(Phase::from_code(14), None);
    }

    #[test]
    fn path_pack_roundtrips() {
        let stack = [Phase::Doorway, Phase::Waiting, Phase::Critical];
        assert_eq!(decode_path(path_key(&stack)), stack.to_vec());
        assert_eq!(decode_path(0), Vec::<Phase>::new());
    }

    #[test]
    fn timer_accrues_self_time_to_the_top_frame() {
        let mut t = PhaseTimer::new(3);
        t.push(Phase::Doorway);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.push(Phase::Waiting);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.pop();
        let profile = t.finish();
        assert_eq!(profile.worker, 3);
        let stacks: Vec<&str> = profile.frames.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(stacks, vec!["doorway", "doorway;waiting"]);
        // Both frames saw their ~2 ms of *self* time.
        assert!(profile.frames.iter().all(|&(_, ns)| ns >= 1_000_000));
    }

    #[test]
    fn switch_is_flat_and_idempotent() {
        let mut t = PhaseTimer::new(0);
        t.switch(Phase::Step);
        t.switch(Phase::Step); // no-op
        t.switch(Phase::Canon);
        t.switch(Phase::Dedup);
        let profile = t.finish();
        let stacks: Vec<&str> = profile.frames.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(stacks, vec!["canon", "dedup", "step"]);
    }

    #[test]
    fn finish_total_matches_wall_clock() {
        let start = Instant::now();
        let mut t = PhaseTimer::new(0);
        t.push(Phase::Step);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.switch(Phase::Canon);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let profile = t.finish();
        let wall = start.elapsed().as_nanos() as u64;
        let total = profile.total_self_ns();
        // Self-times partition the timer's lifetime: the sum can only
        // lag wall-clock by the (sub-microsecond) gaps outside frames.
        assert!(total <= wall);
        assert!(total >= wall / 2, "self-time {total} vs wall {wall}");
    }

    #[test]
    fn collapsed_and_profile_lines_are_schema_valid() {
        let profiler = Profiler::new();
        let mut t = profiler.timer(1);
        t.switch(Phase::Step);
        std::thread::sleep(std::time::Duration::from_millis(1));
        profiler.record(t.finish());
        let mut t0 = profiler.timer(0);
        t0.switch(Phase::Idle);
        profiler.record(t0.finish());

        let collapsed = profiler.collapsed();
        assert!(collapsed.contains("worker1;step "));
        assert!(collapsed.lines().all(|l| {
            let mut parts = l.rsplitn(2, ' ');
            parts.next().unwrap().parse::<u64>().is_ok()
        }));

        let lines = profiler.profile_lines(7, "run-1", 42);
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            validate_value(line, 1).unwrap();
            assert_eq!(line.get("seq").and_then(Json::as_u64), Some(7 + i as u64));
        }
        assert!(profiler.total_self_ns() >= 1_000_000);
    }
}
