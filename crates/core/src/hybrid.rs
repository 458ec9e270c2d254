//! A §8-inspired extension: mutual exclusion over `m` **anonymous**
//! registers plus a single **named** register.
//!
//! The paper's discussion (§8) proposes studying "models where, in addition
//! to unnamed objects, a limited number of named objects are also
//! available". This module explores the smallest such model: the Figure 1
//! algorithm augmented with one named tie-breaker register `T`.
//!
//! Recall why even `m` fails in the pure model (Theorem 3.1): two
//! symmetric processes can each claim exactly `m/2` registers, and with
//! equality-only comparisons nothing can break the tie. One named register
//! destroys that symmetry: on a tie, each process announces itself in `T`
//! and the *last* announcer yields — a Peterson-style move that is
//! impossible when no register has an agreed name.
//!
//! The protocol (process `i`, registers `r[0..m]` anonymous, `T` named):
//!
//! 1. Scan-and-claim and self-count exactly as Figure 1.
//! 2. `count == m` → enter the critical section.
//! 3. `2·count < m` → lose: erase own marks, await all-zero, retry.
//! 4. `2·count > m` (but not all) → retry (the opponent is losing).
//! 5. `2·count == m` → **tie**: write `T := i`, then read `T`;
//!    * `T ≠ i` (the opponent announced after us) → enter *forced* mode:
//!      rescan claiming **every** register (overwriting the opponent's
//!      marks) until all `m` are ours, then enter;
//!    * `T = i` → wait until `T ≠ i` or no register holds a foreign mark,
//!      then retry.
//!
//! **Correctness status.** This algorithm does not appear in the paper; it
//! is this reproduction's exploration of the §8 question. Its claims —
//! mutual exclusion and fair-livelock freedom for two processes with any
//! `m ≥ 2`, *including even `m`* — are established mechanically: the
//! integration test `hybrid_modelcheck.rs` exhaustively model-checks every
//! reachable state for `m ∈ {2, 3, 4, 5}` under every anonymous-view
//! rotation. The test is the proof; treat unchecked parameters
//! accordingly.

use std::fmt;

use anonreg_model::{Machine, Pid, PidMap, Step};

use crate::mutex::{Marks, MutexConfigError, MutexEvent, Section};

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Remainder,
    /// Figure 1 lines 2: scan read issued for anonymous register `j`.
    ScanRead,
    /// Scan write just issued.
    ScanWrote,
    /// View read issued for anonymous register `j`.
    ViewRead,
    /// Cleanup read issued (lose path).
    CleanupRead,
    /// Cleanup write just issued.
    CleanupWrote,
    /// Waiting-for-release read issued (lose path).
    WaitRead,
    /// Majority-but-not-all: announce `T := i` just issued (unblocks an
    /// opponent that tied on a stale view and is now waiting on `T`).
    AnnounceWrote,
    /// Tie: `T := i` just issued.
    TieWrote,
    /// Tie: read of `T` issued.
    TieReadT,
    /// Tie-wait: read of `T` issued (first half of the wait probe).
    TieWaitReadT,
    /// Tie-wait: read of anonymous register `j` issued (scanning for
    /// foreign marks).
    TieWaitScan,
    /// Forced mode: read of anonymous register `j` issued.
    ForcedRead,
    /// Forced mode: write just issued.
    ForcedWrote,
    /// In the critical section.
    Critical,
    /// Exit writes in progress.
    ExitWrite,
}

/// Mutual exclusion for two processes over `m ≥ 2` anonymous registers
/// plus **one named register** — a working answer, for this configuration,
/// to the paper's §8 question. Unlike Figure 1, works for *even* `m` too.
///
/// Local register indices `0..m` are anonymous (drivers may permute them
/// freely); local index `m` is the named tie-breaker `T` and **must map to
/// the same physical register for every process** (that is what "named"
/// means). [`named_view`] builds suitable views.
///
/// # Example
///
/// ```
/// use anonreg::hybrid::{named_view, HybridMutex};
/// use anonreg::{Machine, Pid};
///
/// let machine = HybridMutex::new(Pid::new(1).unwrap(), 4)?;
/// assert_eq!(machine.register_count(), 5); // 4 anonymous + 1 named
/// let view = named_view(4, vec![2, 0, 3, 1])?;
/// assert_eq!(view.physical(4), 4); // T is register 4 for everyone
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct HybridMutex {
    pid: Pid,
    /// Anonymous register count (the named `T` is index `m`).
    m: usize,
    cycles_remaining: Option<u64>,
    myview: Marks,
    j: usize,
    /// Set when the tie was won: claim every register, not just zeros.
    forced: bool,
    /// Whether a foreign mark was seen during the current tie-wait scan.
    saw_foreign: bool,
    /// Abort the current entry attempt at the next decision point.
    abort_requested: bool,
    /// Auto-abort after this many failed rounds (deterministic aborts for
    /// the model checker; `None` = never).
    abort_after: Option<u32>,
    /// Failed rounds in the current entry attempt (tracked only when
    /// `abort_after` is set, to keep the state space finite).
    rounds_this_entry: u32,
    /// Erasing marks because of an abort.
    aborting: bool,
    pc: Pc,
}

clone_in_place!(HybridMutex {
    pid,
    m,
    cycles_remaining,
    myview,
    j,
    forced,
    saw_foreign,
    abort_requested,
    abort_after,
    rounds_this_entry,
    aborting,
    pc,
});

/// Builds a view for a hybrid configuration: `anon_perm` permutes the `m`
/// anonymous registers, and the named register (index `m`) is fixed.
///
/// # Errors
///
/// Returns an error if `anon_perm` is not a permutation of `0..m`.
pub fn named_view(
    m: usize,
    anon_perm: Vec<usize>,
) -> Result<anonreg_model::View, anonreg_model::ViewError> {
    let mut full = anon_perm;
    full.push(m);
    anonreg_model::View::from_perm(full)
}

impl HybridMutex {
    /// Creates the hybrid machine for process `pid` with `m ≥ 2` anonymous
    /// registers (total `m + 1` registers).
    ///
    /// # Errors
    ///
    /// Returns [`MutexConfigError::ZeroRegisters`] if `m < 2` (with `m = 1`
    /// a single anonymous register cannot distinguish contention from
    /// victory; use the named register alone — i.e. Peterson — instead).
    pub fn new(pid: Pid, m: usize) -> Result<Self, MutexConfigError> {
        if m < 2 {
            return Err(MutexConfigError::ZeroRegisters);
        }
        Ok(HybridMutex {
            pid,
            m,
            cycles_remaining: None,
            myview: Marks::zeroed(m),
            j: 0,
            forced: false,
            saw_foreign: false,
            abort_requested: false,
            abort_after: None,
            rounds_this_entry: 0,
            aborting: false,
            pc: Pc::Remainder,
        })
    }

    /// Bounds the machine to `cycles` critical-section entries.
    #[must_use]
    pub fn with_cycles(mut self, cycles: u64) -> Self {
        self.cycles_remaining = Some(cycles);
        self
    }

    /// Auto-aborts an entry attempt after `rounds` failed rounds (see
    /// [`AnonMutex::with_abort_after`](crate::mutex::AnonMutex::with_abort_after)
    /// — the semantics are identical).
    #[must_use]
    pub fn with_abort_after(mut self, rounds: u32) -> Self {
        self.abort_after = Some(rounds);
        self
    }

    /// Requests that the current entry attempt be abandoned at its next
    /// decision point (the try-lock escape hatch; the abort path is the
    /// algorithm's own lose move and is covered by the exhaustive checks).
    pub fn request_abort(&mut self) {
        self.abort_requested = true;
    }

    /// Whether the machine is idle in its remainder section.
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

    fn begin_abort(&mut self) -> Step<u64, MutexEvent> {
        self.abort_requested = false;
        self.aborting = true;
        self.forced = false;
        self.j = 0;
        self.continue_cleanup()
    }

    /// The code section the process is currently in.
    #[must_use]
    pub fn section(&self) -> Section {
        match self.pc {
            Pc::Remainder => Section::Remainder,
            Pc::Critical => Section::Critical,
            Pc::ExitWrite => Section::Exit,
            _ => Section::Entry,
        }
    }

    /// Local index of the named tie-breaker register.
    fn t_reg(&self) -> usize {
        self.m
    }

    /// Starts (or continues) the claiming scan; in forced mode every
    /// register is taken, otherwise only zeros are.
    fn continue_scan(&mut self) -> Step<u64, MutexEvent> {
        if self.j < self.m {
            self.pc = if self.forced {
                Pc::ForcedRead
            } else {
                Pc::ScanRead
            };
            Step::Read(self.j)
        } else {
            self.j = 0;
            self.pc = Pc::ViewRead;
            Step::Read(0)
        }
    }

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

    /// Decision point after a full view read.
    fn after_view(&mut self) -> Step<u64, MutexEvent> {
        let me = self.pid.get();
        let mine = self.myview.iter().filter(|&&v| v == me).count();
        if mine == self.m {
            self.forced = false;
            self.rounds_this_entry = 0;
            self.pc = Pc::Critical;
            return Step::Event(MutexEvent::Enter);
        }
        if self.abort_after.is_some() {
            self.rounds_this_entry = self.rounds_this_entry.saturating_add(1);
        }
        if self.abort_due() {
            return self.begin_abort();
        }
        if self.forced {
            // Forced mode persists until every register is ours.
            self.j = 0;
            self.continue_scan()
        } else if 2 * mine < self.m {
            self.j = 0;
            self.continue_cleanup()
        } else if 2 * mine == self.m {
            // The tie Figure 1 cannot break: announce in the named T.
            self.pc = Pc::TieWrote;
            Step::Write(self.t_reg(), me)
        } else {
            // Strict majority but not everything: the opponent must lose
            // eventually — but it may have *tied on a stale view* and be
            // parked in the T-wait. Announce in T on every retry so such a
            // waiter wakes up (as the tie winner), releases the deadlock and
            // lets the race resolve.
            self.pc = Pc::AnnounceWrote;
            Step::Write(self.t_reg(), me)
        }
    }
}

impl Machine for HybridMutex {
    type Value = u64;
    type Event = MutexEvent;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn register_count(&self) -> usize {
        self.m + 1
    }

    fn resume(&mut self, read: Option<u64>) -> Step<u64, MutexEvent> {
        let me = self.pid.get();
        match self.pc {
            Pc::Remainder => {
                debug_assert!(read.is_none());
                match self.cycles_remaining {
                    Some(0) => Step::Halt,
                    other => {
                        if let Some(c) = other {
                            self.cycles_remaining = Some(c - 1);
                        }
                        self.j = 0;
                        self.continue_scan()
                    }
                }
            }
            Pc::ScanRead => {
                let value = read.expect("scan read result expected");
                if value == 0 {
                    self.pc = Pc::ScanWrote;
                    Step::Write(self.j, me)
                } else {
                    self.j += 1;
                    self.continue_scan()
                }
            }
            Pc::ScanWrote | Pc::ForcedWrote => {
                debug_assert!(read.is_none());
                self.j += 1;
                self.continue_scan()
            }
            Pc::ForcedRead => {
                let value = read.expect("forced read result expected");
                if value == me {
                    self.j += 1;
                    self.continue_scan()
                } else {
                    self.pc = Pc::ForcedWrote;
                    Step::Write(self.j, me)
                }
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
                if value == me {
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
                    self.j = 0;
                    self.continue_scan()
                } else {
                    self.j = 0;
                    Step::Read(0)
                }
            }
            Pc::AnnounceWrote => {
                debug_assert!(read.is_none());
                self.j = 0;
                self.continue_scan()
            }
            Pc::TieWrote => {
                debug_assert!(read.is_none());
                self.pc = Pc::TieReadT;
                Step::Read(self.t_reg())
            }
            Pc::TieReadT => {
                let t = read.expect("T read result expected");
                if t != me {
                    // The opponent announced after us: we won the tie.
                    self.forced = true;
                    self.j = 0;
                    self.continue_scan()
                } else {
                    // We announced last: wait for the opponent to move.
                    self.pc = Pc::TieWaitReadT;
                    Step::Read(self.t_reg())
                }
            }
            Pc::TieWaitReadT => {
                let t = read.expect("T read result expected");
                if t != me {
                    self.forced = true;
                    self.j = 0;
                    self.continue_scan()
                } else {
                    self.j = 0;
                    self.saw_foreign = false;
                    self.pc = Pc::TieWaitScan;
                    Step::Read(0)
                }
            }
            Pc::TieWaitScan => {
                let value = read.expect("tie-wait scan result expected");
                if value != 0 && value != me {
                    self.saw_foreign = true;
                }
                self.j += 1;
                if self.j < self.m {
                    Step::Read(self.j)
                } else if self.abort_due() {
                    // Abort out of the tie-wait: we still hold marks, so
                    // take the cleanup path first.
                    self.begin_abort()
                } else if self.saw_foreign {
                    // Opponent still holds marks: probe T again, then
                    // rescan.
                    self.pc = Pc::TieWaitReadT;
                    Step::Read(self.t_reg())
                } else {
                    // Opponent is gone: retry the normal claiming scan.
                    self.j = 0;
                    self.continue_scan()
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
                    self.pc = Pc::Remainder;
                }
                Step::Write(j, 0)
            }
        }
    }
}

impl PidMap for HybridMutex {
    fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
        HybridMutex {
            pid: f(self.pid),
            myview: self.myview.iter().map(|v| v.map_pids(f)).collect(),
            ..self.clone()
        }
    }
}

impl fmt::Debug for HybridMutex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HybridMutex")
            .field("pid", &self.pid)
            .field("m", &self.m)
            .field("pc", &self.pc)
            .field("j", &self.j)
            .field("forced", &self.forced)
            .field("aborting", &self.aborting)
            .field("myview", &self.myview)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonreg_model::View;

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    fn run_solo(mut machine: HybridMutex) -> (Vec<MutexEvent>, Vec<u64>) {
        let mut regs = vec![0u64; machine.register_count()];
        let mut read = None;
        let mut events = Vec::new();
        for _ in 0..100_000 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => regs[j] = v,
                Step::Event(e) => events.push(e),
                Step::Halt => return (events, regs),
            }
        }
        panic!("machine did not halt");
    }

    #[test]
    fn m_below_two_rejected() {
        assert!(HybridMutex::new(pid(1), 0).is_err());
        assert!(HybridMutex::new(pid(1), 1).is_err());
        assert!(HybridMutex::new(pid(1), 2).is_ok());
    }

    #[test]
    fn solo_enters_even_and_odd_m() {
        for m in [2usize, 3, 4, 6] {
            let machine = HybridMutex::new(pid(9), m).unwrap().with_cycles(2);
            let (events, regs) = run_solo(machine);
            assert_eq!(events.len(), 4, "m={m}");
            assert!(
                regs[..m].iter().all(|&v| v == 0),
                "anonymous registers reset, m={m}"
            );
        }
    }

    #[test]
    fn named_view_pins_the_tiebreaker() {
        let v = named_view(4, vec![3, 1, 0, 2]).unwrap();
        assert_eq!(v.physical(4), 4);
        assert_eq!(v.physical(0), 3);
        assert!(named_view(3, vec![0, 0, 1]).is_err());
    }

    #[test]
    fn tie_last_announcer_yields() {
        // Hand-drive a tie for m = 2: our machine holds register 0, the
        // opponent (id 7) holds register 1, and T already carries OUR id
        // (we announced last) — we must wait, not force.
        let mut machine = HybridMutex::new(pid(1), 2).unwrap();
        let regs = [1u64, 7, 1]; // r0=us, r1=opponent, T=us
        let mut read = None;
        let mut forced_write = false;
        for _ in 0..40 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => {
                    // The only write we may issue here is the tie announce
                    // T := 1 (register index 2).
                    if j != 2 {
                        forced_write = true;
                    }
                    assert_eq!(v, 1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(!forced_write, "last announcer must wait, not overwrite");
        assert_eq!(machine.section(), Section::Entry);
    }

    #[test]
    fn tie_first_announcer_forces_through() {
        // Same tie, but the opponent announces in T *after* us: on our read
        // T carries the opponent's id, so we won the tie and must
        // force-claim register 1 (overwriting id 7) and enter.
        let mut machine = HybridMutex::new(pid(1), 2).unwrap();
        let mut regs = [1u64, 7, 0]; // r0=us, r1=opponent
        let mut read = None;
        let mut entered = false;
        for _ in 0..60 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => {
                    regs[j] = v;
                    if j == 2 {
                        // The opponent's announce lands right after ours.
                        regs[2] = 7;
                    }
                }
                Step::Event(MutexEvent::Enter) => {
                    entered = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(entered, "tie winner must force through");
        assert_eq!(&regs[..2], &[1, 1]);
    }

    #[test]
    fn sections_and_debug() {
        let machine = HybridMutex::new(pid(1), 2).unwrap();
        assert_eq!(machine.section(), Section::Remainder);
        assert!(format!("{machine:?}").contains("HybridMutex"));
    }

    #[test]
    fn pid_map_round_trips() {
        let a = pid(1);
        let b = pid(2);
        let machine = HybridMutex::new(a, 4).unwrap();
        let swapped = machine.map_pids(&mut |p| if p == a { b } else { a });
        assert_eq!(swapped.pid(), b);
        let back = swapped.map_pids(&mut |p| if p == a { b } else { a });
        assert_eq!(back, machine);
    }

    #[test]
    fn two_sequential_processes_alternate() {
        // Not concurrent, but exercises claiming after another's exit.
        let mut regs = [0u64; 4]; // m=3 + T
        for id in [3u64, 4] {
            let mut machine = HybridMutex::new(pid(id), 3).unwrap().with_cycles(1);
            let mut read = None;
            let mut events = Vec::new();
            for _ in 0..10_000 {
                match machine.resume(read.take()) {
                    Step::Read(j) => read = Some(regs[j]),
                    Step::Write(j, v) => regs[j] = v,
                    Step::Event(e) => events.push(e),
                    Step::Halt => break,
                }
            }
            assert_eq!(events, vec![MutexEvent::Enter, MutexEvent::Exit]);
        }
        let _ = View::identity(4); // silence unused import in some cfgs
    }
}
