//! Figure 3: memory-anonymous symmetric obstruction-free **adaptive perfect
//! renaming**.
//!
//! `n` processes with distinct identifiers from an unbounded name space
//! acquire distinct new names; when only `k ≤ n` processes participate, the
//! acquired names come from `{1..k}` (adaptivity, Theorem 5.3).
//!
//! The algorithm runs the Figure 2 consensus pattern in *rounds*, all played
//! in the **same** `2n − 1` anonymous registers — that is the trick that
//! removes the need for a prior agreement on an ordering of election
//! objects. Each register holds a record *(id, val, round, history)*:
//!
//! * `round` is the writer's current round;
//! * `val` is the writer's current preference for the leader of that round;
//! * `history` is the set of *(identifier, round)* pairs of all leaders
//!   elected in earlier rounds, as known to the writer.
//!
//! A process whose identifier wins round `r` takes `r` as its new name. A
//! process that observes itself in some history knows it was elected earlier
//! and returns that round. Processes that lose catch up (possibly jumping
//! several rounds at once via the `round`/`history` fields) and retry in the
//! next round; a process that loses all `n − 1` first rounds takes the name
//! `n` (line 22).

use std::collections::BTreeSet;
use std::fmt;

use anonreg_model::{Machine, Pid, PidMap, Step};

/// The content of one renaming register: an *(id, val, round, history)*
/// record, all-zero/empty when untouched.
///
/// `history` is stored as an ordered set purely for deterministic equality
/// and hashing; the algorithm only ever tests membership, so no identifier
/// ordering leaks into its decisions (the model is comparison-for-equality
/// only).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct RenRecord {
    /// Identifier of the writing process, `0` if untouched.
    pub id: u64,
    /// The writer's preferred leader (an identifier) for `round`.
    pub val: u64,
    /// The writer's round number, `0` if untouched (rounds are `1..=n`).
    pub round: u32,
    /// Set of `(identifier, round)` pairs of leaders elected in rounds
    /// `< round`.
    pub history: BTreeSet<(u64, u32)>,
}

impl RenRecord {
    /// Returns `true` if this register has never been written.
    #[must_use]
    pub fn is_untouched(&self) -> bool {
        self.id == 0 && self.val == 0 && self.round == 0 && self.history.is_empty()
    }
}

impl PidMap for RenRecord {
    fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
        RenRecord {
            id: self.id.map_pids(f),
            val: self.val.map_pids(f),
            round: self.round,
            history: self
                .history
                .iter()
                .map(|&(id, r)| (id.map_pids(f), r))
                .collect(),
        }
    }
}

/// Observable milestone of a renaming algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RenamingEvent {
    /// The process acquired the given new name (from `{1..n}`) and is about
    /// to terminate.
    Named(u32),
}

/// Error returned for invalid renaming configurations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RenamingConfigError {
    n: usize,
}

impl fmt::Display for RenamingConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "renaming needs at least one process, got n = {}", self.n)
    }
}

impl std::error::Error for RenamingConfigError {}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// Top of the outer repeat loop (line 2 about to run).
    Start,
    /// Line 4, read issued for register `j`: filling `myview`.
    ViewRead,
    /// Line 16, write just issued: restart the inner scan.
    Wrote,
    /// Name announced; next step halts.
    Named,
}

/// The Figure 3 algorithm: memory-anonymous symmetric obstruction-free
/// adaptive perfect renaming for `n` processes using `2n − 1` anonymous
/// registers.
///
/// The machine announces [`RenamingEvent::Named`] with its acquired name
/// (from `{1..n}`, and from `{1..k}` when only `k` processes participate)
/// and halts.
///
/// For demonstrations of Theorem 6.5 the register count can be overridden
/// with [`with_registers`](AnonRenaming::with_registers); correctness is
/// only claimed for the default `2n − 1`.
///
/// # Example
///
/// A solo participant adaptively gets the smallest name, `1`:
///
/// ```
/// use anonreg::renaming::{AnonRenaming, RenamingEvent};
/// use anonreg::{Machine, Pid, Step};
///
/// let mut machine = AnonRenaming::new(Pid::new(31).unwrap(), 3)?;
/// let mut regs =
///     vec![anonreg::renaming::RenRecord::default(); machine.register_count()];
/// let mut read = None;
/// loop {
///     match machine.resume(read.take()) {
///         Step::Read(j) => read = Some(regs[j].clone()),
///         Step::Write(j, v) => regs[j] = v,
///         Step::Event(RenamingEvent::Named(name)) => {
///             assert_eq!(name, 1);
///             break;
///         }
///         Step::Halt => unreachable!("names before halting"),
///     }
/// }
/// # Ok::<(), anonreg::renaming::RenamingConfigError>(())
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct AnonRenaming {
    pid: Pid,
    n: usize,
    registers: usize,
    mypref: u64,
    myround: u32,
    myhistory: BTreeSet<(u64, u32)>,
    myview: Vec<RenRecord>,
    j: usize,
    pc: Pc,
}

clone_in_place!(AnonRenaming {
    pid,
    n,
    registers,
    mypref,
    myround,
    myhistory,
    myview,
    j,
    pc,
});

impl AnonRenaming {
    /// Creates the Figure 3 machine for process `pid`, one of at most `n`
    /// potential participants, using the prescribed `2n − 1` registers.
    ///
    /// # Errors
    ///
    /// Returns [`RenamingConfigError`] if `n == 0`.
    pub fn new(pid: Pid, n: usize) -> Result<Self, RenamingConfigError> {
        if n == 0 {
            return Err(RenamingConfigError { n });
        }
        let registers = 2 * n - 1;
        Ok(AnonRenaming {
            pid,
            n,
            registers,
            mypref: pid.get(),
            myround: 1,
            myhistory: BTreeSet::new(),
            myview: vec![RenRecord::default(); registers],
            j: 0,
            pc: Pc::Start,
        })
    }

    /// Overrides the number of registers. **This intentionally breaks the
    /// algorithm's requirements** when `registers < 2n − 1`; it exists so the
    /// covering adversary of Theorem 6.5 can construct real uniqueness
    /// violations (experiment E6).
    ///
    /// # Panics
    ///
    /// Panics if `registers == 0`.
    #[must_use]
    pub fn with_registers(mut self, registers: usize) -> Self {
        assert!(registers > 0, "renaming needs at least one register");
        self.registers = registers;
        self.myview = vec![RenRecord::default(); registers];
        self
    }

    /// The process's current round (`1..=n`).
    #[must_use]
    pub fn round(&self) -> u32 {
        self.myround
    }

    /// Returns `true` once the process has acquired its name.
    #[must_use]
    pub fn has_name(&self) -> bool {
        self.pc == Pc::Named
    }

    /// The record this process would write right now (line 16).
    fn my_record(&self) -> RenRecord {
        RenRecord {
            id: self.pid.get(),
            val: self.mypref,
            round: self.myround,
            history: self.myhistory.clone(),
        }
    }

    /// Lines 5–17 evaluated after a full scan of the shared array.
    fn after_view(&mut self) -> Step<RenRecord, RenamingEvent> {
        let me = self.pid.get();
        // Line 5: if my identifier appears in someone's history, I was
        // already elected; my new name is that round.
        for record in &self.myview {
            for &(id, round) in &record.history {
                if id == me {
                    self.pc = Pc::Named;
                    return Step::Event(RenamingEvent::Named(round));
                }
            }
        }
        // Lines 7–12: catch up to the maximum round seen, adopting that
        // entry's preference and history wholesale. Deterministic choice:
        // first entry (in local scan order) carrying the maximum round.
        let mytemp = self.myview.iter().map(|r| r.round).max().unwrap_or(0);
        if mytemp > self.myround {
            let source = self
                .myview
                .iter()
                .find(|r| r.round == mytemp)
                .expect("an entry carries the maximum round");
            self.mypref = source.val;
            self.myhistory = source.history.clone();
            self.myround = source.round;
        }
        // Lines 13–14: adopt a preference that reached the n-threshold among
        // entries of my round.
        if let Some(v) = self.dominant_value() {
            self.mypref = v;
        }
        let mine = self.my_record();
        // Line 17 (checked against the scan just taken, mirroring the
        // consensus algorithm): my full record everywhere means this round's
        // election is decided.
        if self.myview.iter().all(|r| *r == mine) {
            return self.round_won();
        }
        // Lines 15–16: write the first entry that differs.
        let j = self
            .myview
            .iter()
            .position(|r| *r != mine)
            .expect("some entry differs when the round is still open");
        self.pc = Pc::Wrote;
        Step::Write(j, mine)
    }

    /// Lines 18–22: the inner loop finished — either I am the elected leader
    /// of this round (my name is the round number), or I record the winner
    /// and move to the next round; after losing `n − 1` rounds I take the
    /// name `n`.
    fn round_won(&mut self) -> Step<RenRecord, RenamingEvent> {
        if self.mypref == self.pid.get() {
            self.pc = Pc::Named;
            return Step::Event(RenamingEvent::Named(self.myround));
        }
        self.myhistory.insert((self.mypref, self.myround));
        self.myround += 1;
        if self.myround as usize == self.n {
            // Line 21–22: a single process is left unelected; it takes n.
            self.pc = Pc::Named;
            return Step::Event(RenamingEvent::Named(self.n as u32));
        }
        // Line 2: new round, prefer myself again.
        self.mypref = self.pid.get();
        self.pc = Pc::ViewRead;
        self.j = 0;
        Step::Read(0)
    }

    /// The unique nonzero value appearing in at least `n` val fields among
    /// the entries of my current round, if any (line 13).
    fn dominant_value(&self) -> Option<u64> {
        let in_round: Vec<&RenRecord> = self
            .myview
            .iter()
            .filter(|r| r.round == self.myround)
            .collect();
        for (idx, record) in in_round.iter().enumerate() {
            let v = record.val;
            if v == 0 {
                continue;
            }
            if in_round[..idx].iter().any(|r| r.val == v) {
                continue;
            }
            let count = in_round.iter().filter(|r| r.val == v).count();
            if count >= self.n {
                return Some(v);
            }
        }
        None
    }
}

impl Machine for AnonRenaming {
    type Value = RenRecord;
    type Event = RenamingEvent;

    fn pid(&self) -> Pid {
        self.pid
    }

    fn register_count(&self) -> usize {
        self.registers
    }

    fn resume(&mut self, read: Option<RenRecord>) -> Step<RenRecord, RenamingEvent> {
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
            Pc::Named => Step::Halt,
        }
    }
}

impl PidMap for AnonRenaming {
    fn map_pids(&self, f: &mut dyn FnMut(Pid) -> Pid) -> Self {
        AnonRenaming {
            pid: f(self.pid),
            mypref: self.mypref.map_pids(f),
            myhistory: self
                .myhistory
                .iter()
                .map(|&(id, r)| (id.map_pids(f), r))
                .collect(),
            myview: self.myview.iter().map(|r| r.map_pids(f)).collect(),
            ..self.clone()
        }
    }
}

impl fmt::Debug for AnonRenaming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AnonRenaming")
            .field("pid", &self.pid)
            .field("n", &self.n)
            .field("registers", &self.registers)
            .field("mypref", &self.mypref)
            .field("myround", &self.myround)
            .field("myhistory", &self.myhistory)
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

    fn run_solo(mut machine: AnonRenaming, regs: &mut [RenRecord]) -> (u32, usize) {
        let mut read = None;
        let mut ops = 0;
        for _ in 0..1_000_000 {
            match machine.resume(read.take()) {
                Step::Read(j) => {
                    ops += 1;
                    read = Some(regs[j].clone());
                }
                Step::Write(j, v) => {
                    ops += 1;
                    regs[j] = v;
                }
                Step::Event(RenamingEvent::Named(name)) => return (name, ops),
                Step::Halt => panic!("halt before acquiring a name"),
            }
        }
        panic!("machine did not acquire a name")
    }

    #[test]
    fn config_error() {
        let err = AnonRenaming::new(pid(1), 0).unwrap_err();
        assert!(err.to_string().contains("at least one process"));
    }

    #[test]
    fn register_count_is_2n_minus_1() {
        for n in 1..8 {
            let m = AnonRenaming::new(pid(1), n).unwrap();
            assert_eq!(m.register_count(), 2 * n - 1);
        }
    }

    #[test]
    fn single_process_takes_name_one() {
        // n = 1: one register; the solo process claims it (read + write),
        // re-scans, sees itself elected, and takes name 1: 3 memory ops.
        let machine = AnonRenaming::new(pid(5), 1).unwrap();
        let mut regs = vec![RenRecord::default(); 1];
        let (name, ops) = run_solo(machine, &mut regs);
        assert_eq!(name, 1);
        assert_eq!(ops, 3);
    }

    #[test]
    fn solo_participant_gets_name_one_adaptively() {
        // Adaptivity (Theorem 5.3) with k = 1: a solo participant among up
        // to n potential ones must take name 1 regardless of n.
        for n in 2..6 {
            let machine = AnonRenaming::new(pid(5), n).unwrap();
            let mut regs = vec![RenRecord::default(); 2 * n - 1];
            let (name, _) = run_solo(machine, &mut regs);
            assert_eq!(name, 1, "n={n}");
        }
    }

    #[test]
    fn already_elected_process_reads_its_name_from_history() {
        // Some register's history already records pid 5 as round 2's leader.
        let n = 3;
        let mut regs = vec![RenRecord::default(); 2 * n - 1];
        regs[3].history.insert((5, 2));
        regs[3].id = 9;
        regs[3].round = 3;
        let machine = AnonRenaming::new(pid(5), n).unwrap();
        let (name, _) = run_solo(machine, &mut regs);
        assert_eq!(name, 2);
    }

    #[test]
    fn lagging_process_catches_up_to_max_round() {
        // All registers are in round 2 with leader-history {(9, 1)}: the new
        // arrival must catch up, lose round 2 eventually or win it.
        let n = 3;
        let mut history = BTreeSet::new();
        history.insert((9u64, 1u32));
        let template = RenRecord {
            id: 9,
            val: 9,
            round: 2,
            history: history.clone(),
        };
        let mut regs = vec![template.clone(); 2 * n - 1];
        let machine = AnonRenaming::new(pid(5), n).unwrap();
        let mut probe = machine.clone();
        // One scan = 2n−1 reads; drive it through and inspect the state.
        let mut read = None;
        for _ in 0..(2 * n) {
            match probe.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j].clone()),
                Step::Write(..) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(probe.round(), 2);
        // Driving to completion: pid 5 runs alone, so it wins round 2 (it
        // adopts 9's preference first — value 9 — but 9 is not running;
        // after catching up, 5 prefers 9... then pushes the adopted value).
        let (name, _) = run_solo(machine, &mut regs);
        // The solo process must terminate with *some* name in 1..=n.
        assert!((1..=n as u32).contains(&name));
    }

    #[test]
    fn two_processes_sequentially_get_names_one_and_two() {
        // Process 5 runs alone and takes name 1; then process 8 runs alone
        // against the leftover registers and must take name 2.
        let n = 2;
        let mut regs = vec![RenRecord::default(); 2 * n - 1];
        let first = AnonRenaming::new(pid(5), n).unwrap();
        let (name1, _) = run_solo(first, &mut regs);
        assert_eq!(name1, 1);
        let second = AnonRenaming::new(pid(8), n).unwrap();
        let (name2, _) = run_solo(second, &mut regs);
        assert_eq!(name2, 2);
    }

    #[test]
    fn three_processes_sequentially_get_distinct_names() {
        let n = 3;
        let mut regs = vec![RenRecord::default(); 2 * n - 1];
        let mut names = Vec::new();
        for id in [11, 22, 33] {
            let machine = AnonRenaming::new(pid(id), n).unwrap();
            let (name, _) = run_solo(machine, &mut regs);
            names.push(name);
        }
        names.sort_unstable();
        assert_eq!(names, vec![1, 2, 3]);
    }

    #[test]
    fn named_machine_halts() {
        let mut machine = AnonRenaming::new(pid(5), 1).unwrap();
        let mut regs = vec![RenRecord::default(); 1];
        let mut read = None;
        loop {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j].clone()),
                Step::Write(j, v) => regs[j] = v,
                Step::Event(RenamingEvent::Named(1)) => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(machine.has_name());
        assert_eq!(machine.resume(None), Step::Halt);
        assert_eq!(machine.resume(None), Step::Halt);
    }

    #[test]
    fn with_registers_overrides_for_lower_bounds() {
        let machine = AnonRenaming::new(pid(1), 2).unwrap().with_registers(1);
        assert_eq!(machine.register_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn with_zero_registers_panics() {
        let _ = AnonRenaming::new(pid(1), 2).unwrap().with_registers(0);
    }

    #[test]
    fn pid_map_round_trips() {
        let a = pid(1);
        let b = pid(2);
        let mut machine = AnonRenaming::new(a, 2).unwrap();
        let mut regs = vec![RenRecord::default(); 3];
        regs[1] = RenRecord {
            id: 2,
            val: 2,
            round: 1,
            history: BTreeSet::new(),
        };
        let mut read = None;
        for _ in 0..3 {
            match machine.resume(read.take()) {
                Step::Read(j) => read = Some(regs[j].clone()),
                _ => break,
            }
        }
        let swapped = machine.map_pids(&mut |p| if p == a { b } else { a });
        assert_eq!(swapped.pid(), b);
        let back = swapped.map_pids(&mut |p| if p == a { b } else { a });
        assert_eq!(back, machine);
    }

    #[test]
    fn untouched_record_detection() {
        assert!(RenRecord::default().is_untouched());
        let r = RenRecord {
            round: 1,
            ..RenRecord::default()
        };
        assert!(!r.is_untouched());
    }
}
