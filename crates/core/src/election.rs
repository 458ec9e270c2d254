//! Obstruction-free leader election (the §4 remark).
//!
//! "It is straightforward to use the above consensus algorithm for
//! constructing a memory-anonymous symmetric obstruction-free election
//! algorithm: each process simply uses its own identifier as its initial
//! input." This module is exactly that reduction: [`AnonElection`] wraps
//! [`AnonConsensus`] with the process's identifier as the input and reports
//! the decided identifier as the elected leader.
//!
//! Election tolerating even one crash is impossible with registers (named or
//! not — see the citations in §4), so obstruction freedom is again the
//! strongest achievable progress guarantee.

use std::fmt;

use anonreg_model::{Machine, Pid, PidMap, Step};

use crate::consensus::{AnonConsensus, ConsRecord, ConsensusConfigError, ConsensusEvent};

/// Observable milestone of an election algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElectionEvent {
    /// The process learned the elected leader's identifier and is about to
    /// terminate.
    Elected(Pid),
}

/// Memory-anonymous symmetric obstruction-free leader election for `n`
/// processes using `2n − 1` anonymous registers.
///
/// Every participant that terminates outputs the same identifier, and that
/// identifier belongs to a participant (a consequence of consensus agreement
/// and validity, Theorems 4.1 and 4.2).
///
/// # Example
///
/// ```
/// use anonreg::election::{AnonElection, ElectionEvent};
/// use anonreg::{Machine, Pid, Step};
///
/// let me = Pid::new(42).unwrap();
/// let mut machine = AnonElection::new(me, 2)?;
/// let mut regs = vec![Default::default(); machine.register_count()];
/// let mut read = None;
/// loop {
///     match machine.resume(read.take()) {
///         Step::Read(j) => read = Some(regs[j]),
///         Step::Write(j, v) => regs[j] = v,
///         Step::Event(ElectionEvent::Elected(leader)) => {
///             assert_eq!(leader, me); // ran alone, so elected itself
///             break;
///         }
///         Step::Halt => unreachable!("elects before halting"),
///     }
/// }
/// # Ok::<(), anonreg::consensus::ConsensusConfigError>(())
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct AnonElection {
    inner: AnonConsensus,
}

clone_in_place!(AnonElection { inner });

impl AnonElection {
    /// Creates the election machine for process `pid`, one of `n` processes.
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusConfigError`] if `n == 0` (a `Pid` is never zero,
    /// so the zero-input error cannot occur here).
    pub fn new(pid: Pid, n: usize) -> Result<Self, ConsensusConfigError> {
        Ok(AnonElection {
            inner: AnonConsensus::new(pid, n, pid.get())?,
        })
    }

    /// Returns `true` once the process knows the elected leader.
    #[must_use]
    pub fn has_elected(&self) -> bool {
        self.inner.has_decided()
    }
}

impl Machine for AnonElection {
    type Value = ConsRecord;
    type Event = ElectionEvent;

    fn pid(&self) -> Pid {
        self.inner.pid()
    }

    fn register_count(&self) -> usize {
        self.inner.register_count()
    }

    fn resume(&mut self, read: Option<ConsRecord>) -> Step<ConsRecord, ElectionEvent> {
        match self.inner.resume(read) {
            Step::Read(j) => Step::Read(j),
            Step::Write(j, v) => Step::Write(j, v),
            Step::Event(ConsensusEvent::Decide(raw)) => {
                let leader = Pid::new(raw)
                    .expect("decided values originate from inputs, which are nonzero pids");
                Step::Event(ElectionEvent::Elected(leader))
            }
            Step::Halt => Step::Halt,
        }
    }
}

impl PidMap for AnonElection {
    fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
        // In election, the consensus *values* (input, preference, the val
        // fields of the shared records) are themselves identifiers, so they
        // must be renamed along with the id fields. Plain consensus treats
        // values as opaque and leaves them alone, hence the bespoke mapping.
        let mut inner = self.inner.map_pids(f);
        inner.input = self.inner.input.map_pids(f);
        inner.mypref = self.inner.mypref.map_pids(f);
        inner.myview = self
            .inner
            .myview
            .iter()
            .map(|r| ConsRecord {
                id: r.id.map_pids(f),
                val: r.val.map_pids(f),
            })
            .collect();
        AnonElection { inner }
    }
}

impl fmt::Debug for AnonElection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnonElection")
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    fn run_solo(mut machine: AnonElection, regs: &mut [ConsRecord]) -> Pid {
        let mut read = None;
        for _ in 0..1_000_000 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => regs[j] = v,
                Step::Event(ElectionEvent::Elected(leader)) => return leader,
                Step::Halt => panic!("halt before electing"),
            }
        }
        panic!("machine did not elect")
    }

    #[test]
    fn solo_process_elects_itself() {
        for n in 1..5 {
            let me = pid(77);
            let machine = AnonElection::new(me, n).unwrap();
            let mut regs = vec![ConsRecord::default(); machine.register_count()];
            assert_eq!(run_solo(machine, &mut regs), me, "n={n}");
        }
    }

    #[test]
    fn follower_elects_existing_leader() {
        // The shared array is already unanimous for pid 9 — a late process
        // must adopt and elect 9.
        let n = 2;
        let mut regs = vec![ConsRecord { id: 9, val: 9 }; 2 * n - 1];
        let machine = AnonElection::new(pid(4), n).unwrap();
        assert_eq!(run_solo(machine, &mut regs), pid(9));
    }

    #[test]
    fn sequential_processes_agree_on_leader() {
        let n = 3;
        let mut regs = vec![ConsRecord::default(); 2 * n - 1];
        let first = run_solo(AnonElection::new(pid(10), n).unwrap(), &mut regs);
        let second = run_solo(AnonElection::new(pid(20), n).unwrap(), &mut regs);
        let third = run_solo(AnonElection::new(pid(30), n).unwrap(), &mut regs);
        assert_eq!(first, pid(10));
        assert_eq!(second, pid(10));
        assert_eq!(third, pid(10));
    }

    #[test]
    fn zero_processes_rejected() {
        assert!(AnonElection::new(pid(1), 0).is_err());
    }

    #[test]
    fn has_elected_flag() {
        let me = pid(3);
        let mut machine = AnonElection::new(me, 1).unwrap();
        assert!(!machine.has_elected());
        let mut regs = [ConsRecord::default(); 1];
        let mut read = None;
        loop {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => regs[j] = v,
                Step::Event(_) => break,
                Step::Halt => panic!(),
            }
        }
        assert!(machine.has_elected());
    }
}
