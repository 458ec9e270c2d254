//! Figure 2: memory-anonymous symmetric obstruction-free consensus.
//!
//! `n` processes share `2n − 1` anonymous registers, each holding an
//! *(identifier, preference)* pair, initially `(0, 0)`. A process repeatedly
//! scans all registers and:
//!
//! 1. if some nonzero preference appears in at least `n` of the value
//!    fields, it **adopts** that preference (at most one value can clear the
//!    `n`-of-`2n−1` threshold);
//! 2. if its own *(id, preference)* pair fills **all** `2n − 1` registers,
//!    it **decides** its preference and terminates;
//! 3. otherwise it writes its *(id, preference)* pair into the first
//!    register that differs and rescans.
//!
//! Agreement holds because a decision requires unanimity of all `2n − 1`
//! registers, and between any decision and any later scan the other `n − 1`
//! processes can have overwritten at most `n − 1` registers — leaving at
//! least `n` copies of the decided value, which forces adoption (Theorem
//! 4.1). Validity holds because preferences only ever originate from inputs
//! (Theorem 4.2). Termination is guaranteed when a process runs alone long
//! enough (obstruction freedom); Theorem 6.3 shows this is the strongest
//! achievable progress guarantee, and that fewer registers (or unknown `n`)
//! make the problem unsolvable.

use std::fmt;

use anonreg_model::{Machine, Pid, PidMap, Step};

/// The content of one consensus register: an `(identifier, preference)`
/// record, `(0, 0)` when untouched.
///
/// The paper (remark in §4.1) notes the two fields are a convenience and can
/// be encoded as a single value; `anonreg-runtime` does exactly that to fit
/// the pair into one 64-bit atomic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ConsRecord {
    /// Identifier of the writing process, `0` if the register is untouched.
    pub id: u64,
    /// The writer's preference at the time of the write, `0` if untouched.
    pub val: u64,
}

impl ConsRecord {
    /// The record process `pid` writes while preferring `pref`.
    #[must_use]
    pub fn of(pid: Pid, pref: u64) -> Self {
        ConsRecord {
            id: pid.get(),
            val: pref,
        }
    }
}

impl PidMap for ConsRecord {
    fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
        ConsRecord {
            id: self.id.map_pids(f),
            val: self.val,
        }
    }
}

/// Observable milestone of a consensus algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConsensusEvent {
    /// The process decided on the given value and is about to terminate.
    Decide(u64),
}

/// Error returned for invalid consensus configurations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConsensusConfigError {
    /// `n` must be at least 1.
    NoProcesses,
    /// The input value `0` is reserved for "untouched register".
    ZeroInput,
}

impl fmt::Display for ConsensusConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsensusConfigError::NoProcesses => {
                write!(f, "consensus needs at least one process")
            }
            ConsensusConfigError::ZeroInput => {
                write!(f, "input value 0 is reserved for empty registers")
            }
        }
    }
}

impl std::error::Error for ConsensusConfigError {}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// Line 1 done (`mypref := input`); the first scan has not started yet.
    Start,
    /// Line 3, read issued for register `j`: filling `myview`.
    ViewRead,
    /// Line 7, write just issued: restart the scan.
    Wrote,
    /// Decision announced; next step halts.
    Decided,
}

/// The Figure 2 algorithm: memory-anonymous symmetric obstruction-free
/// consensus for `n` processes using `2n − 1` anonymous registers.
///
/// The machine announces [`ConsensusEvent::Decide`] and halts when it
/// decides. Under contention it may run forever — that is what
/// obstruction-freedom permits, and the FLP-style impossibility results
/// cited in §4 show registers cannot do better.
///
/// For demonstrations of Theorem 6.3 the register count can be overridden
/// with [`with_registers`](AnonConsensus::with_registers); correctness is
/// only claimed for the default `2n − 1`.
///
/// # Example
///
/// Solo run: the process fills all registers with its pair and decides its
/// own input.
///
/// ```
/// use anonreg::consensus::{AnonConsensus, ConsensusEvent};
/// use anonreg::{Machine, Pid, Step};
///
/// let mut machine = AnonConsensus::new(Pid::new(5).unwrap(), 2, 77)?;
/// let mut regs = vec![Default::default(); machine.register_count()];
/// let mut read = None;
/// loop {
///     match machine.resume(read.take()) {
///         Step::Read(j) => read = Some(regs[j]),
///         Step::Write(j, v) => regs[j] = v,
///         Step::Event(ConsensusEvent::Decide(v)) => {
///             assert_eq!(v, 77);
///             break;
///         }
///         Step::Halt => unreachable!("decides before halting"),
///     }
/// }
/// # Ok::<(), anonreg::consensus::ConsensusConfigError>(())
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct AnonConsensus {
    pub(crate) pid: Pid,
    pub(crate) n: usize,
    registers: usize,
    pub(crate) input: u64,
    pub(crate) mypref: u64,
    pub(crate) myview: Vec<ConsRecord>,
    j: usize,
    pc: Pc,
}

clone_in_place!(AnonConsensus {
    pid,
    n,
    registers,
    input,
    mypref,
    myview,
    j,
    pc,
});

impl AnonConsensus {
    /// Creates the Figure 2 machine for process `pid`, one of `n` processes,
    /// with input value `input`, using the prescribed `2n − 1` registers.
    ///
    /// # Errors
    ///
    /// Returns [`ConsensusConfigError`] if `n == 0` or `input == 0` (zero
    /// encodes "untouched register" and therefore cannot be proposed).
    pub fn new(pid: Pid, n: usize, input: u64) -> Result<Self, ConsensusConfigError> {
        if n == 0 {
            return Err(ConsensusConfigError::NoProcesses);
        }
        if input == 0 {
            return Err(ConsensusConfigError::ZeroInput);
        }
        let registers = 2 * n - 1;
        Ok(AnonConsensus {
            pid,
            n,
            registers,
            input,
            mypref: input,
            myview: vec![ConsRecord::default(); registers],
            j: 0,
            pc: Pc::Start,
        })
    }

    /// Overrides the number of registers. **This intentionally breaks the
    /// algorithm's requirements** when `registers < 2n − 1`; it exists so the
    /// covering adversary of Theorem 6.3 can construct real agreement
    /// violations (experiment E4).
    ///
    /// # Panics
    ///
    /// Panics if `registers == 0`.
    #[must_use]
    pub fn with_registers(mut self, registers: usize) -> Self {
        assert!(registers > 0, "consensus needs at least one register");
        self.registers = registers;
        self.myview = vec![ConsRecord::default(); registers];
        self
    }

    /// This process's input value.
    #[must_use]
    pub fn input(&self) -> u64 {
        self.input
    }

    /// The process's current preference (initially its input; may change by
    /// adoption).
    #[must_use]
    pub fn preference(&self) -> u64 {
        self.mypref
    }

    /// Returns `true` once the process has decided.
    #[must_use]
    pub fn has_decided(&self) -> bool {
        self.pc == Pc::Decided
    }

    /// Lines 4–8, evaluated after a full scan: adopt a dominant preference,
    /// decide on unanimity, or write the first differing register.
    fn after_view(&mut self) -> Step<ConsRecord, ConsensusEvent> {
        // Line 4: a nonzero value in at least n of the val fields is adopted.
        // At most one value can reach the threshold when registers = 2n − 1;
        // with fewer registers (lower-bound experiments) ties are broken by
        // the first qualifying value in local scan order, keeping the machine
        // deterministic.
        if let Some(v) = self.dominant_value() {
            self.mypref = v;
        }
        let mine = ConsRecord::of(self.pid, self.mypref);
        // Line 8 (checked here, against the scan just taken, per the §4.1
        // prose): my pair everywhere means it is safe to decide.
        if self.myview.iter().all(|r| *r == mine) {
            self.pc = Pc::Decided;
            return Step::Event(ConsensusEvent::Decide(self.mypref));
        }
        // Lines 6–7: write the first entry that differs.
        let j = self
            .myview
            .iter()
            .position(|r| *r != mine)
            .expect("some entry differs when not deciding");
        self.pc = Pc::Wrote;
        Step::Write(j, mine)
    }

    /// The unique nonzero value appearing in at least `n` val fields, if any.
    fn dominant_value(&self) -> Option<u64> {
        for (idx, record) in self.myview.iter().enumerate() {
            let v = record.val;
            if v == 0 {
                continue;
            }
            // Count occurrences of v; only the first occurrence drives the
            // count so the scan stays O(m²) worst case but allocation free.
            if self.myview[..idx].iter().any(|r| r.val == v) {
                continue;
            }
            let count = self.myview.iter().filter(|r| r.val == v).count();
            if count >= self.n {
                return Some(v);
            }
        }
        None
    }
}

impl Machine for AnonConsensus {
    type Value = ConsRecord;
    type Event = ConsensusEvent;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn register_count(&self) -> usize {
        self.registers
    }

    fn resume(&mut self, read: Option<ConsRecord>) -> Step<ConsRecord, ConsensusEvent> {
        match self.pc {
            Pc::Start => {
                debug_assert!(read.is_none());
                self.pc = Pc::ViewRead;
                self.j = 0;
                Step::Read(0)
            }
            Pc::ViewRead => {
                let value = read.expect("view read result expected");
                self.myview[self.j] = value;
                self.j += 1;
                if self.j < self.registers {
                    Step::Read(self.j)
                } else {
                    self.j = 0;
                    self.after_view()
                }
            }
            Pc::Wrote => {
                debug_assert!(read.is_none());
                self.pc = Pc::ViewRead;
                self.j = 0;
                Step::Read(0)
            }
            Pc::Decided => Step::Halt,
        }
    }
}

impl PidMap for AnonConsensus {
    fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
        AnonConsensus {
            pid: f(self.pid),
            myview: self.myview.iter().map(|r| r.map_pids(f)).collect(),
            ..self.clone()
        }
    }
}

impl fmt::Debug for AnonConsensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnonConsensus")
            .field("pid", &self.pid)
            .field("n", &self.n)
            .field("registers", &self.registers)
            .field("input", &self.input)
            .field("mypref", &self.mypref)
            .field("pc", &self.pc)
            .field("j", &self.j)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    fn run_solo(mut machine: AnonConsensus, regs: &mut [ConsRecord]) -> (u64, usize) {
        let mut read = None;
        let mut ops = 0;
        for _ in 0..1_000_000 {
            match machine.resume(read.take()) {
                Step::Read(j) => {
                    ops += 1;
                    read = Some(regs[j]);
                }
                Step::Write(j, v) => {
                    ops += 1;
                    regs[j] = v;
                }
                Step::Event(ConsensusEvent::Decide(v)) => return (v, ops),
                Step::Halt => panic!("halt before decide"),
            }
        }
        panic!("machine did not decide")
    }

    #[test]
    fn config_errors() {
        assert_eq!(
            AnonConsensus::new(pid(1), 0, 5).unwrap_err(),
            ConsensusConfigError::NoProcesses
        );
        assert_eq!(
            AnonConsensus::new(pid(1), 2, 0).unwrap_err(),
            ConsensusConfigError::ZeroInput
        );
        assert!(ConsensusConfigError::ZeroInput.to_string().contains("0"));
    }

    #[test]
    fn register_count_is_2n_minus_1() {
        for n in 1..8 {
            let m = AnonConsensus::new(pid(1), n, 9).unwrap();
            assert_eq!(m.register_count(), 2 * n - 1);
        }
    }

    #[test]
    fn solo_run_decides_own_input() {
        for n in 1..6 {
            let machine = AnonConsensus::new(pid(3), n, 42).unwrap();
            let mut regs = vec![ConsRecord::default(); machine.register_count()];
            let (decided, _) = run_solo(machine, &mut regs);
            assert_eq!(decided, 42, "n={n}");
            assert!(regs.iter().all(|r| *r == ConsRecord { id: 3, val: 42 }));
        }
    }

    #[test]
    fn solo_step_complexity_matches_bound() {
        // The Theorem 4.1 proof bounds a solo run by 2n−1 writing iterations;
        // each iteration costs 2n−1 reads + 1 write, plus one final all-read
        // scan: total (2n−1)·(2n−1+1) + (2n−1) = (2n−1)(2n+1) ops.
        for n in 1..6 {
            let m = 2 * n - 1;
            let machine = AnonConsensus::new(pid(3), n, 42).unwrap();
            let mut regs = vec![ConsRecord::default(); m];
            let (_, ops) = run_solo(machine, &mut regs);
            assert_eq!(ops, m * (m + 1) + m, "n={n}");
        }
    }

    #[test]
    fn adopts_dominant_value() {
        // n = 2, registers = 3; two registers already carry value 9 from the
        // other process: threshold n = 2 is met, so the machine must adopt 9
        // and eventually decide it.
        let machine = AnonConsensus::new(pid(1), 2, 5).unwrap();
        let mut regs = vec![
            ConsRecord { id: 2, val: 9 },
            ConsRecord { id: 2, val: 9 },
            ConsRecord::default(),
        ];
        let (decided, _) = run_solo(machine, &mut regs);
        assert_eq!(decided, 9);
    }

    #[test]
    fn below_threshold_keeps_own_preference() {
        // Only one register carries the other value: below the n = 2
        // threshold, so the solo process must push its own input through.
        let machine = AnonConsensus::new(pid(1), 2, 5).unwrap();
        let mut regs = vec![
            ConsRecord { id: 2, val: 9 },
            ConsRecord::default(),
            ConsRecord::default(),
        ];
        let (decided, _) = run_solo(machine, &mut regs);
        assert_eq!(decided, 5);
    }

    #[test]
    fn preference_accessor_tracks_adoption() {
        let mut machine = AnonConsensus::new(pid(1), 2, 5).unwrap();
        assert_eq!(machine.preference(), 5);
        let regs = [
            ConsRecord { id: 2, val: 9 },
            ConsRecord { id: 2, val: 9 },
            ConsRecord::default(),
        ];
        let mut read = None;
        // One full scan: 3 reads then the machine adopts.
        for _ in 0..4 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(..) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(machine.preference(), 9);
        assert_eq!(machine.input(), 5);
        assert!(!machine.has_decided());
    }

    #[test]
    fn decided_machine_halts() {
        let mut machine = AnonConsensus::new(pid(3), 1, 8).unwrap();
        let mut regs = [ConsRecord::default(); 1];
        let mut read = None;
        loop {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                Step::Write(j, v) => regs[j] = v,
                Step::Event(ConsensusEvent::Decide(v)) => {
                    assert_eq!(v, 8);
                    break;
                }
                Step::Halt => panic!("halt before decide"),
            }
        }
        assert!(machine.has_decided());
        assert_eq!(machine.resume(None), Step::Halt);
        assert_eq!(machine.resume(None), Step::Halt);
    }

    #[test]
    fn with_registers_overrides_for_lower_bounds() {
        let machine = AnonConsensus::new(pid(1), 2, 5).unwrap().with_registers(1);
        assert_eq!(machine.register_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn with_zero_registers_panics() {
        let _ = AnonConsensus::new(pid(1), 2, 5).unwrap().with_registers(0);
    }

    #[test]
    fn pid_map_round_trips() {
        let a = pid(1);
        let b = pid(2);
        let mut machine = AnonConsensus::new(a, 2, 5).unwrap();
        let regs = [
            ConsRecord { id: 1, val: 5 },
            ConsRecord { id: 2, val: 9 },
            ConsRecord::default(),
        ];
        let mut read = None;
        for _ in 0..3 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j]),
                _ => break,
            }
        }
        let swapped = machine.map_pids(&mut |p| if p == a { b } else { a });
        assert_eq!(swapped.pid(), b);
        let back = swapped.map_pids(&mut |p| if p == a { b } else { a });
        assert_eq!(back, machine);
    }

    #[test]
    fn dominant_value_is_unique_at_full_register_count() {
        // 2n−1 = 5 registers, n = 3: two values cannot both appear 3 times.
        let machine = AnonConsensus::new(pid(1), 3, 4).unwrap();
        assert_eq!(machine.register_count(), 5);
        // (Structural sanity; the uniqueness argument is in the module docs.)
        assert!(machine.dominant_value().is_none());
    }
}
