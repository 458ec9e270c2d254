//! A §2-variant exploration: mutual exclusion under *symmetric with
//! arbitrary comparisons*.
//!
//! The paper defines two symmetric models (§2): *symmetric with equality*
//! (identifiers can only be compared for equality — everything else in this
//! crate lives there) and *symmetric with arbitrary comparisons* (
//! "comparisons can be defined that depend on a total order"). Theorem 3.1's
//! odd-`m` requirement is proved **for the equality model**; its engine is
//! that a tie between two processes holding `m/2` registers each cannot be
//! broken by any symmetric, equality-only rule.
//!
//! With a total order on identifiers the tie breaks immediately: *the
//! smaller identifier yields*. [`OrderedMutex`] is Figure 1 with the lose
//! condition changed from "fewer than ⌈m/2⌉" to "fewer than ⌈m/2⌉, **or
//! exactly m/2 while a larger identifier is visible**" — no named register,
//! no extra space, works for **every** `m ≥ 2` including even values.
//!
//! The first design of this module let the tie *winner* forcibly overwrite
//! the loser's claims. The model checker rejected it with a concrete
//! two-in-the-critical-section schedule: forced overwriting breaks the
//! invariant Theorem 3.2's proof rests on (after an all-mine point the
//! opponent writes **at most once** before losing), and two non-atomic
//! scans could each observe all-mine. The shipped rule keeps Figure 1's
//! claim discipline — processes only ever claim zero registers — and
//! resolves ties purely by who backs off, which preserves the proof's
//! invariant verbatim.
//!
//! Together with `hybrid` (one named register) this triangulates Theorem
//! 3.1: the odd-`m` wall stands or falls with the *equality-only*
//! assumption, whichever way you relax it.
//!
//! **Correctness status.** Not a paper algorithm; the claims are
//! established by exhaustive model checking for `m ∈ {2, 3, 4}` under every
//! rotation view (`ordered_modelcheck.rs`). The implementation compares raw
//! identifier values — deliberately stepping outside the equality-only
//! discipline the rest of the crate observes, as the arbitrary-comparisons
//! model permits.

use std::fmt;

use anonreg_model::{Machine, Pid, PidMap, Step};

use crate::mutex::{Marks, MutexConfigError, MutexEvent, Section};

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Remainder,
    /// Scan read issued for register `j` (claim zeros).
    ScanRead,
    /// Scan write just issued.
    ScanWrote,
    /// View read issued for register `j`.
    ViewRead,
    /// Cleanup read issued (lose path).
    CleanupRead,
    /// Cleanup write just issued.
    CleanupWrote,
    /// Waiting-for-release read issued (lose path).
    WaitRead,
    /// In the critical section.
    Critical,
    /// Exit writes in progress.
    ExitWrite,
}

/// Figure 1 plus an identifier-order tie-break (the smaller id yields):
/// symmetric mutual exclusion for two processes over **any** `m ≥ 2`
/// anonymous registers, in the paper's "symmetric with arbitrary
/// comparisons" model (§2).
///
/// # Example
///
/// ```
/// use anonreg::ordered::OrderedMutex;
/// use anonreg::{Machine, Pid};
///
/// let machine = OrderedMutex::new(Pid::new(7).unwrap(), 4)?; // even m!
/// assert_eq!(machine.register_count(), 4);
/// # Ok::<(), anonreg::mutex::MutexConfigError>(())
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct OrderedMutex {
    pid: Pid,
    m: usize,
    cycles_remaining: Option<u64>,
    myview: Marks,
    j: usize,
    pc: Pc,
}

clone_in_place!(OrderedMutex {
    pid,
    m,
    cycles_remaining,
    myview,
    j,
    pc,
});

impl OrderedMutex {
    /// Creates the machine for process `pid` with `m ≥ 2` anonymous
    /// registers.
    ///
    /// # Errors
    ///
    /// Returns [`MutexConfigError::ZeroRegisters`] if `m < 2` (`m = 1`
    /// cannot exclude two processes — see experiment E1).
    pub fn new(pid: Pid, m: usize) -> Result<Self, MutexConfigError> {
        if m < 2 {
            return Err(MutexConfigError::ZeroRegisters);
        }
        Ok(OrderedMutex {
            pid,
            m,
            cycles_remaining: None,
            myview: Marks::zeroed(m),
            j: 0,
            pc: Pc::Remainder,
        })
    }

    /// Bounds the machine to `cycles` critical-section entries.
    #[must_use]
    pub fn with_cycles(mut self, cycles: u64) -> Self {
        self.cycles_remaining = Some(cycles);
        self
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

    fn continue_cleanup(&mut self) -> Step<u64, MutexEvent> {
        if self.j < self.m {
            self.pc = Pc::CleanupRead;
            Step::Read(self.j)
        } else {
            self.j = 0;
            self.pc = Pc::WaitRead;
            Step::Read(0)
        }
    }

    fn lose(&mut self) -> Step<u64, MutexEvent> {
        self.j = 0;
        self.continue_cleanup()
    }

    fn after_view(&mut self) -> Step<u64, MutexEvent> {
        let me = self.pid.get();
        let mine = self.myview.iter().filter(|&&v| v == me).count();
        if mine == self.m {
            self.pc = Pc::Critical;
            return Step::Event(MutexEvent::Enter);
        }
        if 2 * mine < self.m {
            return self.lose();
        }
        if 2 * mine == self.m {
            // The equality-only wall, broken with the total order: if a
            // larger identifier is visible, yield exactly as Figure 1's
            // losers do; the larger id keeps retrying and inherits the
            // freed registers. No overwriting — the claim discipline (and
            // hence Theorem 3.2's at-most-one-overwrite invariant) is
            // untouched.
            match self.myview.iter().find(|&&v| v != 0 && v != me) {
                Some(&other) if me < other => return self.lose(),
                _ => {
                    // Larger id (or no opponent visible): retry the scan.
                }
            }
        }
        self.j = 0;
        self.continue_scan()
    }
}

impl Machine for OrderedMutex {
    type Value = u64;
    type Event = MutexEvent;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn register_count(&self) -> usize {
        self.m
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
                } else if self.myview.iter().all(|&v| v == 0) {
                    self.j = 0;
                    self.continue_scan()
                } else {
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
                    self.pc = Pc::Remainder;
                }
                Step::Write(j, 0)
            }
        }
    }
}

impl PidMap for OrderedMutex {
    /// Renames the identifier and the pid-valued view snapshot. Note that
    /// this machine *orders* identifiers, so a renaming is a true symmetry
    /// only when it is monotone on the identifiers present — the symmetry
    /// parity suite checks the shipped configurations empirically.
    fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
        OrderedMutex {
            pid: f(self.pid),
            myview: self.myview.iter().map(|v| v.map_pids(f)).collect(),
            ..self.clone()
        }
    }
}

impl fmt::Debug for OrderedMutex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("pid", &self.pid)
            .field("m", &self.m)
            .field("pc", &self.pc)
            .field("j", &self.j)
            .field("myview", &self.myview)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    fn run_solo(mut machine: OrderedMutex) -> Vec<MutexEvent> {
        let mut regs = vec![0u64; machine.register_count()];
        let mut read = None;
        let mut events = Vec::new();
        for _ in 0..100_000 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => regs[j] = v,
                Step::Event(e) => events.push(e),
                Step::Halt => return events,
            }
        }
        panic!("machine did not halt");
    }

    #[test]
    fn config_validation() {
        assert!(OrderedMutex::new(pid(1), 0).is_err());
        assert!(OrderedMutex::new(pid(1), 1).is_err());
        assert!(OrderedMutex::new(pid(1), 2).is_ok());
    }

    #[test]
    fn solo_cycles_for_even_and_odd_m() {
        for m in [2usize, 3, 4, 6] {
            let events = run_solo(OrderedMutex::new(pid(5), m).unwrap().with_cycles(2));
            assert_eq!(events.len(), 4, "m={m}");
        }
    }

    #[test]
    fn larger_id_keeps_retrying_and_wins_after_the_yield() {
        // m = 2 tie: we (id 9) hold r0, opponent (id 3) holds r1. We keep
        // scanning without overwriting; when the opponent (being smaller)
        // erases its mark, we claim the freed register and enter.
        let mut machine = OrderedMutex::new(pid(9), 2).unwrap();
        let mut regs = vec![9u64, 3];
        let mut read = None;
        let mut entered = false;
        let mut steps = 0;
        for _ in 0..200 {
            steps += 1;
            if steps == 30 {
                // The smaller opponent yields, as its own rule demands.
                regs[1] = 0;
            }
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => {
                    assert_ne!(regs[j], 3, "must never overwrite the opponent");
                    regs[j] = v;
                }
                Step::Event(MutexEvent::Enter) => {
                    entered = true;
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(entered);
        assert_eq!(regs, vec![9, 9]);
    }

    #[test]
    fn smaller_id_yields_on_a_tie() {
        // Mirror image: we (id 3) must lose the comparison, clean up and
        // wait.
        let mut machine = OrderedMutex::new(pid(3), 2).unwrap();
        let mut regs = vec![3u64, 9];
        let mut read = None;
        for _ in 0..60 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => {
                    assert_eq!(v, 0, "the smaller id only erases its own mark");
                    regs[j] = v;
                }
                Step::Event(MutexEvent::Enter) => panic!("smaller id must not enter"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(machine.section(), Section::Entry);
        assert_eq!(regs, vec![0, 9]);
    }

    #[test]
    fn sections_and_debug() {
        let machine = OrderedMutex::new(pid(1), 2).unwrap();
        assert_eq!(machine.section(), Section::Remainder);
        assert!(format!("{machine:?}").contains("OrderedMutex"));
    }
}
