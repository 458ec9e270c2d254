//! Figure 1: memory-anonymous symmetric deadlock-free mutual exclusion for
//! two processes.
//!
//! The algorithm uses `m` anonymous registers, all initially `0`. A process
//! tries to claim every register it reads as `0` by writing its identifier;
//! it then re-reads all registers:
//!
//! * its identifier in **all** `m` registers → enter the critical section;
//! * its identifier in fewer than `⌈m/2⌉` registers → *lose*: erase its own
//!   identifier and spin until all registers read `0` again, then retry;
//! * otherwise → retry immediately.
//!
//! On exit, the winner resets all `m` registers to `0`.
//!
//! Theorem 3.1 proves this works **iff `m` is odd**: with odd `m` and two
//! contenders, exactly one of them claims a majority. With even `m` both can
//! claim exactly `m/2`, neither loses, and a lock-step adversary livelocks
//! the system forever — experiment E1 demonstrates both sides by exhaustive
//! model checking.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

use anonreg_model::{Machine, Pid, PidMap, Step};

/// Observable milestones of a mutual exclusion algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MutexEvent {
    /// The process entered its critical section.
    Enter,
    /// The process left its critical section (and is about to run its exit
    /// code).
    Exit,
    /// The process abandoned an entry attempt (abortable/try-lock variants
    /// only) and is back in its remainder section.
    Aborted,
}

/// Which of the paper's four code sections a process is currently in.
///
/// "It is assumed that each process is executing a sequence of instructions
/// in an infinite loop. The instructions are divided into four continuous
/// sections: the remainder, entry, critical and exit." (§3.1)
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Section {
    /// Not competing for the critical section.
    Remainder,
    /// Executing the entry code (lines 1–10 of Figure 1).
    Entry,
    /// Inside the critical section.
    Critical,
    /// Executing the wait-free exit code (line 12).
    Exit,
}

/// Error returned for invalid mutual exclusion configurations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutexConfigError {
    /// The algorithm was configured with zero registers.
    ZeroRegisters,
    /// A two-slot named algorithm (Peterson) was given a slot other than
    /// 0 or 1.
    BadSlot {
        /// The offending slot.
        slot: usize,
    },
}

impl MutexConfigError {
    /// Constructs the bad-slot error (used by the named baselines).
    #[must_use]
    pub(crate) fn slot(slot: usize) -> Self {
        MutexConfigError::BadSlot { slot }
    }
}

impl fmt::Display for MutexConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MutexConfigError::ZeroRegisters => {
                write!(f, "mutual exclusion needs at least one register")
            }
            MutexConfigError::BadSlot { slot } => {
                write!(f, "two-process algorithm slot must be 0 or 1, got {slot}")
            }
        }
    }
}

impl std::error::Error for MutexConfigError {}

/// Program counter of the Figure 1 state machine. Line numbers refer to the
/// paper's Figure 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// In the remainder section; the next resume starts the entry code (or
    /// halts if the configured number of cycles is exhausted).
    Remainder,
    /// Line 2, read issued for register `j`: scanning, about to learn whether
    /// `p.i[j] = 0`.
    ScanRead,
    /// Line 2, write `p.i[j] := i` just issued; advance the scan.
    ScanWrote,
    /// Line 3 (or line 7 when `waiting`), read issued for register `j`:
    /// copying the shared array into `myview`.
    ViewRead,
    /// Line 5, read issued for register `j`: cleaning up, about to learn
    /// whether `p.i[j] = i`.
    CleanupRead,
    /// Line 5, write `p.i[j] := 0` just issued; advance the cleanup.
    CleanupWrote,
    /// Line 7, read issued for register `j`: waiting for the critical section
    /// to be released (`myview` must become all zero).
    WaitRead,
    /// `Event(Enter)` just emitted; the process is in its critical section.
    Critical,
    /// `Event(Exit)` just emitted; line 12 writes follow.
    ExitWrite,
}

/// A process's local copy of the shared mark array (`myview` in the
/// paper), shared by the Figure 1 mutex and its ordered and hybrid
/// variants.
///
/// It derefs to `[u64]` and prints like the slice. Its `Hash` writes the
/// length, then each mark through [`Hasher::write_u64`]: a plain
/// `Vec<u64>` would go through std's `hash_slice`, which hands the
/// marks to [`Hasher::write`] as raw eight-byte words, so a varint state
/// encoder would store a mark in eight bytes instead of one. On
/// little-endian hosts a fixed-width hasher such as `Fnv64` sees the
/// same bytes either way, so its fingerprints are unchanged.
///
/// Its `clone_from` refills the marks in place (see `clone_in_place!`).
#[derive(PartialEq, Eq)]
pub(crate) struct Marks(Vec<u64>);

impl Clone for Marks {
    fn clone(&self) -> Self {
        Marks(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl Marks {
    /// `m` cleared marks.
    pub(crate) fn zeroed(m: usize) -> Self {
        Marks(vec![0; m])
    }
}

impl Deref for Marks {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.0
    }
}

impl DerefMut for Marks {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.0
    }
}

impl FromIterator<u64> for Marks {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Marks(iter.into_iter().collect())
    }
}

impl Hash for Marks {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.len());
        for &mark in &self.0 {
            state.write_u64(mark);
        }
    }
}

impl fmt::Debug for Marks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0[..], f)
    }
}

/// The Figure 1 algorithm: memory-anonymous symmetric deadlock-free mutual
/// exclusion for two processes using `m` registers.
///
/// The machine loops forever through remainder → entry → critical → exit
/// unless bounded with [`with_cycles`](AnonMutex::with_cycles). It announces
/// [`MutexEvent::Enter`] when entering and [`MutexEvent::Exit`] when leaving
/// the critical section.
///
/// Correct (mutual exclusion + deadlock freedom) for **two** processes and
/// **odd** `m ≥ 3` — both facts are established in Theorems 3.2 and 3.3 and
/// verified exhaustively by the model checker in `anonreg-sim`. The
/// constructor deliberately accepts *any* `m ≥ 1` so the even-`m` livelock
/// of Theorem 3.1 and the `n ≥ 3` failure of Theorem 3.4 can be demonstrated
/// rather than merely asserted.
///
/// # Example
///
/// ```
/// use anonreg::mutex::{AnonMutex, Section};
/// use anonreg::{Machine, Pid, Step};
///
/// let machine = AnonMutex::new(Pid::new(1).unwrap(), 5)?;
/// assert_eq!(machine.register_count(), 5);
/// assert_eq!(machine.section(), Section::Remainder);
/// # Ok::<(), anonreg::mutex::MutexConfigError>(())
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct AnonMutex {
    pid: Pid,
    m: usize,
    /// `None` = loop forever (the paper's infinite loop).
    cycles_remaining: Option<u64>,
    /// Local copy of the shared array (`myview[1..m]` in the paper).
    myview: Marks,
    /// Loop index `j`.
    j: usize,
    /// Abort the current entry attempt at the next decision point (see
    /// [`request_abort`](AnonMutex::request_abort)).
    abort_requested: bool,
    /// Auto-abort after this many failed scan+view rounds in one entry
    /// (deterministic abort, for model checking; `None` = never).
    abort_after: Option<u32>,
    /// Failed rounds in the current entry attempt.
    rounds_this_entry: u32,
    /// Erasing marks because of an abort (return to remainder afterwards,
    /// not to the waiting loop).
    aborting: bool,
    pc: Pc,
}

clone_in_place!(AnonMutex {
    pid,
    m,
    cycles_remaining,
    myview,
    j,
    abort_requested,
    abort_after,
    rounds_this_entry,
    aborting,
    pc,
});

impl AnonMutex {
    /// Creates the Figure 1 machine for the process `pid` with `m` anonymous
    /// registers.
    ///
    /// The machine cycles forever; use [`with_cycles`](AnonMutex::with_cycles)
    /// to bound the number of critical-section entries.
    ///
    /// # Errors
    ///
    /// Returns [`MutexConfigError`] if `m == 0`. Note that correctness
    /// additionally requires `m` odd and at most two competing processes
    /// (Theorem 3.1); violating those is permitted so the failure modes can
    /// be observed.
    pub fn new(pid: Pid, m: usize) -> Result<Self, MutexConfigError> {
        if m == 0 {
            return Err(MutexConfigError::ZeroRegisters);
        }
        Ok(AnonMutex {
            pid,
            m,
            cycles_remaining: None,
            myview: Marks::zeroed(m),
            j: 0,
            abort_requested: false,
            abort_after: None,
            rounds_this_entry: 0,
            aborting: false,
            pc: Pc::Remainder,
        })
    }

    /// Bounds the machine to `cycles` critical-section entries, after which
    /// it halts (in its remainder section). A bound of `0` halts immediately.
    #[must_use]
    pub fn with_cycles(mut self, cycles: u64) -> Self {
        self.cycles_remaining = Some(cycles);
        self
    }

    /// Auto-aborts an entry attempt after `rounds` failed scan+view rounds:
    /// the process voluntarily takes the algorithm's *lose* path (erase own
    /// marks) and returns to its remainder section instead of waiting.
    ///
    /// Aborting is sound because it is exactly the line 4–5 giving-up move
    /// the correctness proofs already cover; the abortable configurations
    /// are model-checked in `mutex_modelcheck.rs`. Deterministic (counted)
    /// aborts exist primarily for that checker; real code uses
    /// [`request_abort`](AnonMutex::request_abort).
    #[must_use]
    pub fn with_abort_after(mut self, rounds: u32) -> Self {
        self.abort_after = Some(rounds);
        self
    }

    /// Requests that the current (or next) entry attempt be abandoned: at
    /// its next decision point the machine erases its marks and returns to
    /// the remainder section. This is the try-lock escape hatch used by
    /// `anonreg-runtime`'s `try_enter`.
    ///
    /// A no-op if the process is already in its critical section — the
    /// request then applies to the *next* entry attempt, so callers should
    /// only request an abort while the machine is in its entry section.
    pub fn request_abort(&mut self) {
        self.abort_requested = true;
    }

    /// Whether the machine is idle in its remainder section (e.g. after an
    /// abort completed).
    #[must_use]
    pub fn in_remainder(&self) -> bool {
        self.pc == Pc::Remainder
    }

    fn abort_due(&self) -> bool {
        self.abort_requested
            || self
                .abort_after
                .is_some_and(|limit| self.rounds_this_entry >= limit)
    }

    /// Begin the abort: erase own marks (the lose path's cleanup), then
    /// return to the remainder section.
    fn begin_abort(&mut self) -> Step<u64, MutexEvent> {
        self.abort_requested = false;
        self.aborting = true;
        self.j = 0;
        self.continue_cleanup()
    }

    /// The code section the process is currently in.
    #[must_use]
    pub fn section(&self) -> Section {
        match self.pc {
            Pc::Remainder => Section::Remainder,
            Pc::ScanRead
            | Pc::ScanWrote
            | Pc::ViewRead
            | Pc::CleanupRead
            | Pc::CleanupWrote
            | Pc::WaitRead => Section::Entry,
            Pc::Critical => Section::Critical,
            Pc::ExitWrite => Section::Exit,
        }
    }

    /// Number of registers `m`.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The threshold `⌈m/2⌉` from line 4 of Figure 1.
    #[must_use]
    pub fn majority(&self) -> usize {
        self.m.div_ceil(2)
    }

    /// Line 2: issue the scan read for the current `j`, or — once the scan is
    /// done — move on to line 3.
    fn continue_scan(&mut self) -> Step<u64, MutexEvent> {
        if self.j < self.m {
            self.pc = Pc::ScanRead;
            Step::Read(self.j)
        } else {
            self.j = 0;
            self.pc = Pc::ViewRead;
            Step::Read(0)
        }
    }

    /// Line 5: issue the cleanup read for the current `j`, or — once cleanup
    /// is done — move on to the waiting loop (lines 6–8), or, when
    /// aborting, return to the remainder section.
    fn continue_cleanup(&mut self) -> Step<u64, MutexEvent> {
        if self.j < self.m {
            self.pc = Pc::CleanupRead;
            Step::Read(self.j)
        } else if self.aborting {
            self.aborting = false;
            self.rounds_this_entry = 0;
            self.pc = Pc::Remainder;
            Step::Event(MutexEvent::Aborted)
        } else {
            self.j = 0;
            self.pc = Pc::WaitRead;
            Step::Read(0)
        }
    }

    /// Line 4 / line 10: the scan and view are complete; decide between
    /// entering the critical section, giving up, retrying — or aborting.
    fn after_view(&mut self) -> Step<u64, MutexEvent> {
        let me = self.pid.get();
        let mine = self.myview.iter().filter(|&&v| v == me).count();
        if mine == self.m {
            // Line 10 satisfied: my identifier is everywhere.
            self.rounds_this_entry = 0;
            self.pc = Pc::Critical;
            return Step::Event(MutexEvent::Enter);
        }
        // The round counter only exists for bounded-abort machines; keeping
        // it frozen otherwise keeps the state space finite (it would grow
        // without bound round after round).
        if self.abort_after.is_some() {
            self.rounds_this_entry = self.rounds_this_entry.saturating_add(1);
        }
        if self.abort_due() {
            return self.begin_abort();
        }
        if mine < self.majority() {
            // Line 4: lose; clean up (line 5) then wait (lines 6–8).
            self.j = 0;
            self.continue_cleanup()
        } else {
            // Line 10 not satisfied but no loss either: start over (line 1).
            self.j = 0;
            self.continue_scan()
        }
    }
}

impl Machine for AnonMutex {
    type Value = u64;
    type Event = MutexEvent;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn register_count(&self) -> usize {
        self.m
    }

    fn resume(&mut self, read: Option<u64>) -> Step<u64, MutexEvent> {
        match self.pc {
            Pc::Remainder => {
                debug_assert!(read.is_none());
                match self.cycles_remaining {
                    Some(0) => Step::Halt,
                    other => {
                        if let Some(c) = other {
                            self.cycles_remaining = Some(c - 1);
                        }
                        self.rounds_this_entry = 0;
                        self.j = 0;
                        self.continue_scan()
                    }
                }
            }
            Pc::ScanRead => {
                let value = read.expect("scan read result expected");
                if value == 0 {
                    self.pc = Pc::ScanWrote;
                    Step::Write(self.j, self.pid.get())
                } else {
                    self.j += 1;
                    self.continue_scan()
                }
            }
            Pc::ScanWrote => {
                debug_assert!(read.is_none());
                self.j += 1;
                self.continue_scan()
            }
            Pc::ViewRead => {
                let value = read.expect("view read result expected");
                self.myview[self.j] = value;
                self.j += 1;
                if self.j < self.m {
                    Step::Read(self.j)
                } else {
                    self.after_view()
                }
            }
            Pc::CleanupRead => {
                let value = read.expect("cleanup read result expected");
                if value == self.pid.get() {
                    self.pc = Pc::CleanupWrote;
                    Step::Write(self.j, 0)
                } else {
                    self.j += 1;
                    self.continue_cleanup()
                }
            }
            Pc::CleanupWrote => {
                debug_assert!(read.is_none());
                self.j += 1;
                self.continue_cleanup()
            }
            Pc::WaitRead => {
                let value = read.expect("wait read result expected");
                self.myview[self.j] = value;
                self.j += 1;
                if self.j < self.m {
                    Step::Read(self.j)
                } else if self.abort_due() {
                    // Waiting holds no marks; aborting from here is
                    // immediate.
                    self.abort_requested = false;
                    self.rounds_this_entry = 0;
                    self.pc = Pc::Remainder;
                    Step::Event(MutexEvent::Aborted)
                } else if self.myview.iter().all(|&v| v == 0) {
                    // Line 8 satisfied: the critical section was released;
                    // try again from line 2.
                    self.j = 0;
                    self.continue_scan()
                } else {
                    // Keep waiting (line 6).
                    self.j = 0;
                    Step::Read(0)
                }
            }
            Pc::Critical => {
                debug_assert!(read.is_none());
                self.j = 0;
                self.pc = Pc::ExitWrite;
                Step::Event(MutexEvent::Exit)
            }
            Pc::ExitWrite => {
                debug_assert!(read.is_none());
                let j = self.j;
                self.j += 1;
                if self.j == self.m {
                    // The final exit write completes the cycle: the process
                    // is in its remainder section as soon as this write
                    // lands, so the state is observable there (drivers wait
                    // for it when releasing a lock).
                    self.pc = Pc::Remainder;
                }
                Step::Write(j, 0)
            }
        }
    }
}

impl PidMap for AnonMutex {
    fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
        AnonMutex {
            pid: f(self.pid),
            myview: self.myview.iter().map(|v| v.map_pids(f)).collect(),
            ..self.clone()
        }
    }
}

impl fmt::Debug for AnonMutex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnonMutex")
            .field("pid", &self.pid)
            .field("m", &self.m)
            .field("pc", &self.pc)
            .field("j", &self.j)
            .field("myview", &self.myview)
            .field("cycles_remaining", &self.cycles_remaining)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    /// Each family's initial machine spends one state-code byte per
    /// mark: two more registers add exactly two bytes (`m` and the mark
    /// count stay one-byte varints). An integer vector hashed through
    /// std's raw `hash_slice` path would add sixteen.
    #[test]
    fn marks_encode_one_byte_each() {
        use crate::hybrid::HybridMutex;
        use crate::ordered::OrderedMutex;
        use anonreg_model::canon::ByteSink;

        fn code_len<T: Hash>(machine: &T) -> usize {
            let mut sink = ByteSink::new();
            machine.hash(&mut sink);
            sink.bytes().len()
        }
        let anon = |m| AnonMutex::new(pid(1), m).unwrap();
        assert_eq!(code_len(&anon(5)) - code_len(&anon(3)), 2);
        let ordered = |m| OrderedMutex::new(pid(1), m).unwrap();
        assert_eq!(code_len(&ordered(5)) - code_len(&ordered(3)), 2);
        let hybrid = |m| HybridMutex::new(pid(1), m).unwrap();
        assert_eq!(code_len(&hybrid(5)) - code_len(&hybrid(3)), 2);
    }

    /// Drives a single machine against a private register array until it
    /// halts; returns (events, registers, memory ops performed).
    fn run_solo(mut machine: AnonMutex) -> (Vec<MutexEvent>, Vec<u64>, usize) {
        let mut regs = vec![0u64; machine.register_count()];
        let mut read = None;
        let mut events = Vec::new();
        let mut ops = 0;
        for _ in 0..100_000 {
            match machine.resume(read.take()) {
                Step::Read(j) => {
                    ops += 1;
                    read = Some(regs[j]);
                }
                Step::Write(j, v) => {
                    ops += 1;
                    regs[j] = v;
                }
                Step::Event(e) => events.push(e),
                Step::Halt => return (events, regs, ops),
            }
        }
        panic!("machine did not halt");
    }

    #[test]
    fn zero_registers_rejected() {
        let err = AnonMutex::new(pid(1), 0).unwrap_err();
        assert!(err.to_string().contains("at least one register"));
    }

    #[test]
    fn solo_process_enters_and_exits() {
        for m in [1, 3, 5, 9] {
            let machine = AnonMutex::new(pid(7), m).unwrap().with_cycles(1);
            let (events, regs, _) = run_solo(machine);
            assert_eq!(events, vec![MutexEvent::Enter, MutexEvent::Exit], "m={m}");
            assert!(regs.iter().all(|&v| v == 0), "exit code must reset, m={m}");
        }
    }

    #[test]
    fn solo_process_cycles_repeatedly() {
        let machine = AnonMutex::new(pid(7), 3).unwrap().with_cycles(4);
        let (events, _, _) = run_solo(machine);
        assert_eq!(events.len(), 8);
        for pair in events.chunks(2) {
            assert_eq!(pair, [MutexEvent::Enter, MutexEvent::Exit]);
        }
    }

    #[test]
    fn zero_cycles_halts_immediately() {
        let machine = AnonMutex::new(pid(7), 3).unwrap().with_cycles(0);
        let (events, _, ops) = run_solo(machine);
        assert!(events.is_empty());
        assert_eq!(ops, 0);
    }

    #[test]
    fn solo_step_complexity_is_linear() {
        // Solo entry: m reads + m writes (scan) + m reads (view) + enter +
        // exit + m writes = 4m memory ops.
        for m in [3, 5, 7, 11] {
            let machine = AnonMutex::new(pid(9), m).unwrap().with_cycles(1);
            let (_, _, ops) = run_solo(machine);
            assert_eq!(ops, 4 * m, "m={m}");
        }
    }

    #[test]
    fn sections_track_progress() {
        let mut machine = AnonMutex::new(pid(3), 3).unwrap().with_cycles(1);
        assert_eq!(machine.section(), Section::Remainder);
        let mut regs = [0u64; 3];
        let mut read = None;
        loop {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => regs[j] = v,
                Step::Event(MutexEvent::Enter) => break,
                Step::Event(MutexEvent::Exit | MutexEvent::Aborted) | Step::Halt => {
                    panic!("entered CS expected first")
                }
            }
            assert_eq!(machine.section(), Section::Entry);
        }
        assert_eq!(machine.section(), Section::Critical);
        machine.resume(None); // Exit event
        assert_eq!(machine.section(), Section::Exit);
    }

    #[test]
    fn loser_gives_up_when_opponent_holds_all() {
        // Registers all hold the opponent's id: the process scans (no zero
        // found), views, counts 0 < ⌈m/2⌉, cleans up (writes nothing since no
        // register holds its id) and waits.
        let mut machine = AnonMutex::new(pid(1), 3).unwrap();
        let regs = [2u64; 3];
        let mut read = None;
        for _ in 0..(3 + 3 + 3) {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(..) => panic!("must not write over the opponent"),
                other => panic!("unexpected step {other:?}"),
            }
        }
        // Now in the waiting loop re-reading registers forever.
        for _ in 0..12 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                other => panic!("expected to wait, got {other:?}"),
            }
        }
        assert_eq!(machine.section(), Section::Entry);
    }

    #[test]
    fn majority_threshold_matches_paper() {
        assert_eq!(AnonMutex::new(pid(1), 3).unwrap().majority(), 2);
        assert_eq!(AnonMutex::new(pid(1), 4).unwrap().majority(), 2);
        assert_eq!(AnonMutex::new(pid(1), 5).unwrap().majority(), 3);
        assert_eq!(AnonMutex::new(pid(1), 9).unwrap().majority(), 5);
    }

    #[test]
    fn pid_map_renames_state_consistently() {
        let a = pid(1);
        let b = pid(2);
        let mut machine = AnonMutex::new(a, 3).unwrap();
        // Put the machine into a state that mentions its pid.
        let mut regs = [0u64; 3];
        let mut read = None;
        for _ in 0..6 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => regs[j] = v,
                _ => {}
            }
        }
        let renamed = machine.map_pids(&mut |p| if p == a { b } else { a });
        assert_eq!(renamed.pid(), b);
        // Renaming twice with the swap is the identity.
        let back = renamed.map_pids(&mut |p| if p == a { b } else { a });
        assert_eq!(back, machine);
    }

    #[test]
    fn auto_abort_takes_the_lose_path_and_parks() {
        // All registers held by the opponent: the machine scans (claiming
        // nothing), views, counts 0, and with abort_after(1) must abort —
        // erase nothing, announce Aborted, and park in the remainder.
        let mut machine = AnonMutex::new(pid(1), 3).unwrap().with_abort_after(1);
        let regs = [2u64; 3];
        let mut read = None;
        let mut aborted = false;
        for _ in 0..40 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(..) => panic!("nothing to claim or clean"),
                Step::Event(MutexEvent::Aborted) => {
                    aborted = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(aborted);
        assert_eq!(machine.section(), Section::Remainder);
        assert!(machine.in_remainder());
    }

    #[test]
    fn abort_erases_own_marks() {
        // Tie scenario (m = 2): we claim one register, the opponent holds
        // the other. abort_after(1) must clean our mark before parking.
        let mut machine = AnonMutex::new(pid(1), 2).unwrap().with_abort_after(1);
        let mut regs = vec![0u64, 2];
        let mut read = None;
        let mut aborted = false;
        for _ in 0..40 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => regs[j] = v,
                Step::Event(MutexEvent::Aborted) => {
                    aborted = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(aborted);
        assert_eq!(regs, vec![0, 2], "our mark was erased, theirs intact");
    }

    #[test]
    fn requested_abort_interrupts_a_waiting_machine() {
        // The machine loses and waits; request_abort must free it at the
        // next wait-loop round.
        let mut machine = AnonMutex::new(pid(1), 3).unwrap();
        let regs = [2u64; 3];
        let mut read = None;
        // Drive into the waiting loop: scan (3 reads), view (3), cleanup
        // (3), then wait reads.
        for _ in 0..10 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                other => panic!("unexpected {other:?}"),
            }
        }
        machine.request_abort();
        let mut aborted = false;
        for _ in 0..10 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Event(MutexEvent::Aborted) => {
                    aborted = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(aborted);
        assert!(machine.in_remainder());
    }

    #[test]
    fn aborted_machine_reenters_cleanly() {
        let mut machine = AnonMutex::new(pid(1), 3).unwrap().with_abort_after(1);
        // First attempt against a fully-held array: aborts.
        let mut regs = vec![2u64; 3];
        let mut read = None;
        loop {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Event(MutexEvent::Aborted) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        // Opponent releases; the next attempt must win.
        regs = vec![0u64; 3];
        let mut entered = false;
        for _ in 0..40 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => regs[j] = v,
                Step::Event(MutexEvent::Enter) => {
                    entered = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(entered);
    }

    #[test]
    fn debug_is_nonempty() {
        let machine = AnonMutex::new(pid(1), 3).unwrap();
        let s = format!("{machine:?}");
        assert!(s.contains("AnonMutex"));
        assert!(s.contains("pc"));
    }
}
