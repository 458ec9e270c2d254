//! The deterministic one-operation-at-a-time simulator.

use std::fmt;
use std::sync::Arc;

use anonreg_model::trace::{Trace, TraceOp};
use anonreg_model::{Machine, PidMap, Step, SymmetryMode, View};

/// What happened when a process was granted one atomic step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepOutcome {
    /// The process performed an atomic read.
    Read,
    /// The process performed an atomic write.
    Write,
    /// The process announced an event (no shared-memory effect). Events are
    /// scheduling points of their own: a process that has *entered* its
    /// critical section stays there until the adversary grants it another
    /// step — otherwise overlap would be unobservable.
    Event,
    /// The process halted; it has no further steps.
    Halted,
}

impl StepOutcome {
    /// `true` for the outcomes the paper counts as steps: atomic reads and
    /// writes.
    #[must_use]
    pub fn is_memory_op(self) -> bool {
        matches!(self, StepOutcome::Read | StepOutcome::Write)
    }
}

/// Error returned when a simulation is misconfigured or misused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The simulation has no processes.
    NoProcesses,
    /// A machine expects a different number of registers than the others.
    RegisterCountMismatch {
        /// The offending process slot.
        proc: usize,
        /// Its expected register count.
        expected: usize,
        /// The simulation's register count (from process 0).
        actual: usize,
    },
    /// A view covers a different number of registers than the machines use.
    ViewSizeMismatch {
        /// The offending process slot.
        proc: usize,
    },
    /// A process slot out of range was addressed.
    NoSuchProcess {
        /// The offending slot.
        proc: usize,
    },
    /// A step was requested from a process that already halted.
    ProcessHalted {
        /// The halted slot.
        proc: usize,
    },
    /// `apply_poised` was called for a process that holds no poised write.
    NothingPoised {
        /// The offending slot.
        proc: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoProcesses => write!(f, "simulation needs at least one process"),
            SimError::RegisterCountMismatch {
                proc,
                expected,
                actual,
            } => write!(
                f,
                "process {proc} expects {expected} registers but the simulation has {actual}"
            ),
            SimError::ViewSizeMismatch { proc } => {
                write!(
                    f,
                    "view of process {proc} does not match the register count"
                )
            }
            SimError::NoSuchProcess { proc } => write!(f, "no process with slot {proc}"),
            SimError::ProcessHalted { proc } => write!(f, "process {proc} already halted"),
            SimError::NothingPoised { proc } => {
                write!(f, "process {proc} holds no poised write")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Per-process execution state within a simulation. The process's view,
/// fixed for the run, lives in the simulation's shared view table.
///
/// Public (crate-wide) so the explorer can snapshot and hash it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Slot<M: Machine> {
    pub(crate) machine: M,
    /// Result of the last read, to be fed into the next `resume`.
    pub(crate) pending_input: Option<M::Value>,
    /// A write the machine has issued but the adversary has not yet applied
    /// — the process *covers* that register (§6.1).
    pub(crate) poised: Option<(usize, M::Value)>,
    pub(crate) halted: bool,
}

/// Field by field, so `clone_from` refills the machine in place; the
/// exhaustive struct literal and destructuring make a new field a compile
/// error here.
impl<M: Machine> Clone for Slot<M> {
    fn clone(&self) -> Self {
        Slot {
            machine: self.machine.clone(),
            pending_input: self.pending_input.clone(),
            poised: self.poised.clone(),
            halted: self.halted,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Slot {
            machine,
            pending_input,
            poised,
            halted,
        } = self;
        machine.clone_from(&source.machine);
        pending_input.clone_from(&source.pending_input);
        poised.clone_from(&source.poised);
        *halted = source.halted;
    }
}

/// Builder for [`Simulation`]; add processes with their views, then
/// [`build`](SimulationBuilder::build).
#[derive(Debug, Default)]
pub struct SimulationBuilder<M: Machine> {
    processes: Vec<(M, View)>,
}

impl<M: Machine> SimulationBuilder<M> {
    /// Adds a process with an explicit register view.
    #[must_use]
    pub fn process(mut self, machine: M, view: View) -> Self {
        self.processes.push((machine, view));
        self
    }

    /// Adds a process with the identity view (the named-register default).
    #[must_use]
    pub fn process_identity(self, machine: M) -> Self {
        let m = machine.register_count();
        self.process(machine, View::identity(m))
    }

    /// Builds the simulation, validating register counts and view sizes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if there are no processes, if machines disagree
    /// on the register count, or if a view's size does not match it.
    pub fn build(mut self) -> Result<Simulation<M>, SimError> {
        let first = self
            .processes
            .first()
            .ok_or(SimError::NoProcesses)?
            .0
            .register_count();
        for (proc, (machine, view)) in self.processes.iter().enumerate() {
            if machine.register_count() != first {
                return Err(SimError::RegisterCountMismatch {
                    proc,
                    expected: machine.register_count(),
                    actual: first,
                });
            }
            if view.len() != first {
                return Err(SimError::ViewSizeMismatch { proc });
            }
        }
        // The views move into the shared table in one allocation; an empty
        // view (no allocation) stands in for each until the builder drops.
        let views = self
            .processes
            .iter_mut()
            .map(|(_, view)| std::mem::replace(view, View::identity(0)))
            .collect();
        Ok(Simulation {
            registers: vec![M::Value::default(); first],
            slots: self
                .processes
                .into_iter()
                .map(|(machine, _)| Slot {
                    machine,
                    pending_input: None,
                    poised: None,
                    halted: false,
                })
                .collect(),
            views,
            trace: Trace::new(),
        })
    }
}

/// A deterministic simulation of processes over anonymous shared registers.
///
/// The simulation owns the physical register array (initially all
/// [`Default`]), one execution slot per process, and the growing
/// [`Trace`]. The *caller* is the adversary: it decides which process takes
/// the next atomic step ([`step`](Simulation::step)) and can freeze a
/// process right before a write ([`step_to_cover`](Simulation::step_to_cover)
/// / [`apply_poised`](Simulation::apply_poised)), which is the covering move
/// used throughout §6 of the paper.
///
/// Events are scheduling points of their own but do not count as memory
/// operations: a process that announced a milestone (say, critical-section
/// entry) *stays in the corresponding state* until the adversary schedules
/// it again. Step budgets throughout the crate count only reads and writes,
/// matching the paper's accounting.
///
/// A process's view is fixed for the whole run, so all views live in one
/// table that clones share: cloning a simulation copies registers and
/// slots but only bumps the views' reference count. [`Clone::clone_from`]
/// refills registers, slots and machines in the target's own buffers and
/// leaves the view table alone when both already share it, so refilling
/// a warm state from another state of the same run allocates nothing.
pub struct Simulation<M: Machine> {
    registers: Vec<M::Value>,
    slots: Vec<Slot<M>>,
    /// `views[proc]` is process `proc`'s view.
    views: Arc<[View]>,
    trace: Trace<M::Value, M::Event>,
}

impl<M: Machine> Clone for Simulation<M> {
    fn clone(&self) -> Self {
        Simulation {
            registers: self.registers.clone(),
            slots: self.slots.clone(),
            views: Arc::clone(&self.views),
            trace: self.trace.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let Simulation {
            registers,
            slots,
            views,
            trace,
        } = self;
        registers.clone_from(&source.registers);
        slots.clone_from(&source.slots);
        // Re-pointing a shared table would write its refcount's cache
        // line, which every worker's states share.
        if !Arc::ptr_eq(views, &source.views) {
            *views = Arc::clone(&source.views);
        }
        trace.clone_from(&source.trace);
    }
}

impl<M: Machine> Simulation<M> {
    /// Starts building a simulation.
    #[must_use]
    pub fn builder() -> SimulationBuilder<M> {
        SimulationBuilder {
            processes: Vec::new(),
        }
    }

    /// The number of processes.
    #[must_use]
    pub fn process_count(&self) -> usize {
        self.slots.len()
    }

    /// The number of shared registers.
    #[must_use]
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// The current physical register contents.
    #[must_use]
    pub fn registers(&self) -> &[M::Value] {
        &self.registers
    }

    /// The machine of process `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    #[must_use]
    pub fn machine(&self, proc: usize) -> &M {
        &self.slots[proc].machine
    }

    /// Iterates over all machines in slot order.
    pub fn machines(&self) -> impl Iterator<Item = &M> {
        self.slots.iter().map(|s| &s.machine)
    }

    /// The view of process `proc`.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    #[must_use]
    pub fn view(&self, proc: usize) -> &View {
        &self.views[proc]
    }

    /// Every process's view, in slot order.
    pub(crate) fn views(&self) -> &[View] {
        &self.views
    }

    /// Returns `true` if process `proc` has halted.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    #[must_use]
    pub fn is_halted(&self, proc: usize) -> bool {
        self.slots[proc].halted
    }

    /// Returns `true` if every process has halted.
    #[must_use]
    pub fn all_halted(&self) -> bool {
        self.slots.iter().all(|s| s.halted)
    }

    /// The physical register covered by process `proc`'s poised write, if
    /// any.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    #[must_use]
    pub fn covered_register(&self, proc: usize) -> Option<usize> {
        self.slots[proc]
            .poised
            .as_ref()
            .map(|(local, _)| self.views[proc].physical(*local))
    }

    /// The recorded trace so far.
    #[must_use]
    pub fn trace(&self) -> &Trace<M::Value, M::Event> {
        &self.trace
    }

    /// Consumes the simulation and returns its trace.
    #[must_use]
    pub fn into_trace(self) -> Trace<M::Value, M::Event> {
        self.trace
    }

    /// Crashes process `proc`: it takes no further steps — the paper's §2
    /// failure model ("they fail only by never entering the algorithm or by
    /// leaving the algorithm at some point and thereafter permanently
    /// refraining from writing the shared registers"). A poised write is
    /// discarded: a crashed process writes nothing more.
    ///
    /// Crashing is idempotent; crashing a halted process is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] for an out-of-range slot.
    pub fn crash(&mut self, proc: usize) -> Result<(), SimError> {
        let slot = self
            .slots
            .get_mut(proc)
            .ok_or(SimError::NoSuchProcess { proc })?;
        if !slot.halted {
            slot.halted = true;
            slot.poised = None;
            let pid = slot.machine.pid();
            self.trace.record(proc, pid, TraceOp::Halt);
        }
        Ok(())
    }

    /// Grants process `proc` one atomic step (read or write). Events the
    /// machine emits on the way are recorded. A poised write, if present, is
    /// applied as the step.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] for an out-of-range slot and
    /// [`SimError::ProcessHalted`] if the process already halted (a halted
    /// process has no steps, matching the model).
    pub fn step(&mut self, proc: usize) -> Result<StepOutcome, SimError> {
        self.step_inner(proc)
    }

    /// Runs process `proc` up to (but not including) its next write: the
    /// write is *poised* and `proc` now **covers** that register. Reads on
    /// the way are performed normally. If the machine halts before writing,
    /// `Halted` is returned.
    ///
    /// While poised, the process's next [`step`](Simulation::step) (or
    /// [`apply_poised`](Simulation::apply_poised)) performs exactly that
    /// write — "notice that if process p covers register reg in run x then p
    /// covers reg in any extension of x which does not involve p" (§6.1).
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Simulation::step). Returns
    /// `Ok(StepOutcome::Write)` once the write is poised (without having
    /// applied it).
    pub fn step_to_cover(&mut self, proc: usize) -> Result<StepOutcome, SimError> {
        loop {
            let slot = self
                .slots
                .get(proc)
                .ok_or(SimError::NoSuchProcess { proc })?;
            if slot.halted {
                return Err(SimError::ProcessHalted { proc });
            }
            if slot.poised.is_some() {
                return Ok(StepOutcome::Write);
            }
            match self.resume_once(proc)? {
                PendingOp::Read(local) => {
                    self.apply_read(proc, local);
                }
                PendingOp::Write(local, value) => {
                    self.slots[proc].poised = Some((local, value));
                    return Ok(StepOutcome::Write);
                }
                PendingOp::Event => {}
                PendingOp::Halted => return Ok(StepOutcome::Halted),
            }
        }
    }

    /// Applies process `proc`'s poised write (the second half of a covering
    /// move: the *block write*).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NothingPoised`] if no write is poised.
    pub fn apply_poised(&mut self, proc: usize) -> Result<(), SimError> {
        if self.slots.get(proc).is_none() {
            return Err(SimError::NoSuchProcess { proc });
        }
        if self.slots[proc].poised.is_none() {
            return Err(SimError::NothingPoised { proc });
        }
        self.step_inner(proc).map(|_| ())
    }

    /// Runs process `proc` alone until it halts or `max_ops` memory
    /// operations have been performed. Returns the number of memory
    /// operations performed (events are free, matching the paper's step
    /// accounting) and whether the process halted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] for an out-of-range slot.
    ///
    /// # Panics
    ///
    /// Panics if the machine emits events without bound (a broken
    /// implementation — correct machines perform a memory operation or halt
    /// after finitely many events).
    pub fn run_solo(&mut self, proc: usize, max_ops: usize) -> Result<(usize, bool), SimError> {
        if self.slots.get(proc).is_none() {
            return Err(SimError::NoSuchProcess { proc });
        }
        let mut ops = 0;
        let mut fuse = max_ops.saturating_mul(2) + 10_000;
        while ops < max_ops {
            if self.slots[proc].halted {
                return Ok((ops, true));
            }
            match self.step(proc)? {
                StepOutcome::Halted => return Ok((ops, true)),
                StepOutcome::Event => {}
                _ => ops += 1,
            }
            fuse -= 1;
            assert!(fuse > 0, "process {proc} emits events without bound");
        }
        Ok((ops, self.slots[proc].halted))
    }

    /// One atomic step for `proc`.
    fn step_inner(&mut self, proc: usize) -> Result<StepOutcome, SimError> {
        let slot = self
            .slots
            .get(proc)
            .ok_or(SimError::NoSuchProcess { proc })?;
        if slot.halted {
            return Err(SimError::ProcessHalted { proc });
        }
        if let Some((local, value)) = self.slots[proc].poised.take() {
            self.apply_write(proc, local, value);
            return Ok(StepOutcome::Write);
        }
        match self.resume_once(proc)? {
            PendingOp::Read(local) => {
                self.apply_read(proc, local);
                Ok(StepOutcome::Read)
            }
            PendingOp::Write(local, value) => {
                self.apply_write(proc, local, value);
                Ok(StepOutcome::Write)
            }
            PendingOp::Event => Ok(StepOutcome::Event),
            PendingOp::Halted => Ok(StepOutcome::Halted),
        }
    }

    /// Resumes `proc`'s machine exactly once, recording what it did. Events
    /// are steps of their own: a machine that announced a milestone (say,
    /// critical-section entry) *stays in the corresponding state* until the
    /// adversary schedules it again — otherwise overlap could never be
    /// observed.
    fn resume_once(&mut self, proc: usize) -> Result<PendingOp<M::Value>, SimError> {
        let input = self.slots[proc].pending_input.take();
        let pid = self.slots[proc].machine.pid();
        match self.slots[proc].machine.resume(input) {
            Step::Read(local) => Ok(PendingOp::Read(local)),
            Step::Write(local, value) => Ok(PendingOp::Write(local, value)),
            Step::Event(event) => {
                self.trace.record(proc, pid, TraceOp::Event(event));
                Ok(PendingOp::Event)
            }
            Step::Halt => {
                self.slots[proc].halted = true;
                self.trace.record(proc, pid, TraceOp::Halt);
                Ok(PendingOp::Halted)
            }
        }
    }

    fn apply_read(&mut self, proc: usize, local: usize) {
        let physical = self.views[proc].physical(local);
        let value = self.registers[physical].clone();
        let pid = self.slots[proc].machine.pid();
        self.trace.record(
            proc,
            pid,
            TraceOp::Read {
                local,
                physical,
                value: value.clone(),
            },
        );
        self.slots[proc].pending_input = Some(value);
    }

    fn apply_write(&mut self, proc: usize, local: usize, value: M::Value) {
        let physical = self.views[proc].physical(local);
        let pid = self.slots[proc].machine.pid();
        self.trace.record(
            proc,
            pid,
            TraceOp::Write {
                local,
                physical,
                value: value.clone(),
            },
        );
        self.registers[physical] = value;
    }

    /// Drops the accumulated trace (used by the explorer, which clones
    /// simulations heavily and never inspects their traces).
    pub(crate) fn clear_trace(&mut self) {
        self.trace = Trace::new();
    }

    /// One atomic step for `proc` that bypasses trace recording entirely,
    /// returning the emitted event (if any) directly.
    ///
    /// Semantically identical to [`step`](Simulation::step) — same outcome,
    /// same configuration afterwards — but the explorer takes billions of
    /// steps on cloned simulations whose traces it immediately discards, so
    /// the per-step trace allocation and value clones are pure overhead on
    /// that path. A single step emits at most one event (`resume` is called
    /// exactly once).
    ///
    /// # Errors
    ///
    /// Same conditions as [`step`](Simulation::step).
    pub(crate) fn step_quiet(
        &mut self,
        proc: usize,
    ) -> Result<(StepOutcome, Option<M::Event>), SimError> {
        let slot = self
            .slots
            .get(proc)
            .ok_or(SimError::NoSuchProcess { proc })?;
        if slot.halted {
            return Err(SimError::ProcessHalted { proc });
        }
        if let Some((local, value)) = self.slots[proc].poised.take() {
            let physical = self.views[proc].physical(local);
            self.registers[physical] = value;
            return Ok((StepOutcome::Write, None));
        }
        let input = self.slots[proc].pending_input.take();
        match self.slots[proc].machine.resume(input) {
            Step::Read(local) => {
                let physical = self.views[proc].physical(local);
                self.slots[proc].pending_input = Some(self.registers[physical].clone());
                Ok((StepOutcome::Read, None))
            }
            Step::Write(local, value) => {
                let physical = self.views[proc].physical(local);
                self.registers[physical] = value;
                Ok((StepOutcome::Write, None))
            }
            Step::Event(event) => Ok((StepOutcome::Event, Some(event))),
            Step::Halt => {
                self.slots[proc].halted = true;
                Ok((StepOutcome::Halted, None))
            }
        }
    }

    /// [`crash`](Simulation::crash) without the trace record — the
    /// explorer's counterpart to [`step_quiet`](Simulation::step_quiet).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchProcess`] for an out-of-range slot.
    pub(crate) fn crash_quiet(&mut self, proc: usize) -> Result<(), SimError> {
        let slot = self
            .slots
            .get_mut(proc)
            .ok_or(SimError::NoSuchProcess { proc })?;
        if !slot.halted {
            slot.halted = true;
            slot.poised = None;
        }
        Ok(())
    }

    /// A stable 64-bit fingerprint of the current configuration — register
    /// contents plus every process slot (machine state, view, pending read,
    /// poised write, crash flag). The trace is excluded: two executions
    /// reaching the same configuration fingerprint identically.
    ///
    /// Computed with [`anonreg_model::fingerprint::Fnv64`], so the value is
    /// identical across threads and runs. Fingerprints may collide;
    /// [`Simulation::same_configuration`] is the authoritative comparison.
    #[must_use]
    pub fn fingerprint(&self) -> u64
    where
        M: std::hash::Hash,
    {
        use std::hash::{Hash, Hasher};
        let mut hasher = anonreg_model::fingerprint::Fnv64::new();
        self.registers.hash(&mut hasher);
        // Each slot hashes as machine, view, pending read, poised write,
        // crash flag: fingerprints are pinned (`tests/state_identity.rs`).
        hasher.write_usize(self.slots.len());
        for (slot, view) in self.slots.iter().zip(self.views.iter()) {
            slot.machine.hash(&mut hasher);
            view.hash(&mut hasher);
            slot.pending_input.hash(&mut hasher);
            slot.poised.hash(&mut hasher);
            slot.halted.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// Whether two simulations are in the same configuration: identical
    /// register contents, process slots and views. Traces are ignored,
    /// matching [`Simulation::fingerprint`].
    #[must_use]
    pub fn same_configuration(&self, other: &Self) -> bool
    where
        M: Eq,
    {
        self.registers == other.registers
            && self.slots == other.slots
            && (Arc::ptr_eq(&self.views, &other.views) || self.views == other.views)
    }

    /// Full slot state (machine + pending read input + poised write), for
    /// the symmetry checker.
    pub(crate) fn slot(&self, proc: usize) -> &Slot<M> {
        &self.slots[proc]
    }

    /// The flat byte encoding of this configuration's canonical orbit
    /// representative under `mode` — the exploration engines deduplicate
    /// states by exactly this code. Two configurations share a code iff
    /// some view-compatible register/slot permutation (plus, under
    /// [`SymmetryMode::Full`], an identifier renaming) maps one to the
    /// other; with [`SymmetryMode::Off`] the code is the plain encoding
    /// and only bit-identical configurations collide. Traces are excluded,
    /// matching [`Simulation::fingerprint`].
    #[must_use]
    pub fn canonical_code(&self, mode: SymmetryMode) -> Box<[u8]>
    where
        M: Eq + std::hash::Hash + PidMap,
        M::Value: PidMap,
    {
        crate::canon::state_code(self, mode)
    }

    /// A stable 64-bit FNV-1a fingerprint of
    /// [`canonical_code`](Simulation::canonical_code): every member of an
    /// orbit under `mode`'s symmetry group fingerprints identically.
    /// Unlike raw [`Simulation::fingerprint`], this is invariant under
    /// view-compatible register permutations and (under
    /// [`SymmetryMode::Full`]) identifier renamings.
    #[must_use]
    pub fn canonical_fingerprint(&self, mode: SymmetryMode) -> u64
    where
        M: Eq + std::hash::Hash + PidMap,
        M::Value: PidMap,
    {
        let mut hasher = anonreg_model::fingerprint::Fnv64::new();
        std::hash::Hasher::write(&mut hasher, &self.canonical_code(mode));
        std::hash::Hasher::finish(&hasher)
    }
}

impl<M: Machine> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("registers", &self.registers)
            .field("processes", &self.slots.len())
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

enum PendingOp<V> {
    Read(usize),
    Write(usize, V),
    Event,
    Halted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonreg_model::Pid;

    /// Writes its pid to local register 0..k-1 then halts.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct WriterK {
        pid: Pid,
        m: usize,
        k: usize,
        next: usize,
    }

    impl Machine for WriterK {
        type Value = u64;
        type Event = u32;

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            self.m
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, u32> {
            if self.next < self.k {
                let j = self.next;
                self.next += 1;
                Step::Write(j, self.pid.get())
            } else if self.next == self.k {
                self.next += 1;
                Step::Event(99)
            } else {
                Step::Halt
            }
        }
    }

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    fn writer(id: u64, m: usize, k: usize) -> WriterK {
        WriterK {
            pid: pid(id),
            m,
            k,
            next: 0,
        }
    }

    #[test]
    fn builder_validation() {
        let err = Simulation::<WriterK>::builder().build().unwrap_err();
        assert_eq!(err, SimError::NoProcesses);

        let err = Simulation::builder()
            .process_identity(writer(1, 2, 1))
            .process_identity(writer(2, 3, 1))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::RegisterCountMismatch { proc: 1, .. }
        ));

        let err = Simulation::builder()
            .process(writer(1, 2, 1), View::identity(3))
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::ViewSizeMismatch { proc: 0 }));
    }

    #[test]
    fn views_translate_writes() {
        let mut sim = Simulation::builder()
            .process(writer(1, 3, 1), View::rotated(3, 2))
            .build()
            .unwrap();
        assert_eq!(sim.step(0).unwrap(), StepOutcome::Write);
        // Local 0 through rotation 2 is physical 2.
        assert_eq!(sim.registers(), &[0, 0, 1]);
    }

    #[test]
    fn events_are_their_own_steps() {
        let mut sim = Simulation::builder()
            .process_identity(writer(1, 2, 1))
            .build()
            .unwrap();
        sim.step(0).unwrap(); // the write
        assert_eq!(sim.step(0).unwrap(), StepOutcome::Event);
        // Between the event and the halt, the machine rests in its
        // post-event state — that pause is what makes milestone overlap
        // observable.
        assert!(!sim.is_halted(0));
        assert_eq!(sim.step(0).unwrap(), StepOutcome::Halted);
        let events: Vec<_> = sim.trace().events().collect();
        assert_eq!(events.len(), 1);
        assert!(sim.is_halted(0));
        assert!(sim.all_halted());
    }

    #[test]
    fn stepping_a_halted_process_errors() {
        let mut sim = Simulation::builder()
            .process_identity(writer(1, 2, 0))
            .build()
            .unwrap();
        assert_eq!(sim.step(0).unwrap(), StepOutcome::Event);
        assert_eq!(sim.step(0).unwrap(), StepOutcome::Halted);
        assert_eq!(
            sim.step(0).unwrap_err(),
            SimError::ProcessHalted { proc: 0 }
        );
        assert!(matches!(
            sim.step(9).unwrap_err(),
            SimError::NoSuchProcess { proc: 9 }
        ));
    }

    #[test]
    fn covering_freezes_a_write() {
        let mut sim = Simulation::builder()
            .process_identity(writer(1, 3, 2))
            .process_identity(writer(2, 3, 2))
            .build()
            .unwrap();
        // Process 0 poises its first write: it now covers physical 0.
        assert_eq!(sim.step_to_cover(0).unwrap(), StepOutcome::Write);
        assert_eq!(sim.covered_register(0), Some(0));
        assert_eq!(sim.registers(), &[0, 0, 0], "poised write not yet applied");

        // Process 1 runs to completion; it writes registers 0 and 1.
        sim.step(1).unwrap();
        sim.step(1).unwrap();
        assert_eq!(sim.registers(), &[2, 2, 0]);

        // The block write: process 0's poised write lands, overwriting.
        sim.apply_poised(0).unwrap();
        assert_eq!(sim.registers(), &[1, 2, 0]);
        assert_eq!(sim.covered_register(0), None);
    }

    #[test]
    fn step_to_cover_is_idempotent_while_poised() {
        let mut sim = Simulation::builder()
            .process_identity(writer(1, 2, 1))
            .build()
            .unwrap();
        assert_eq!(sim.step_to_cover(0).unwrap(), StepOutcome::Write);
        assert_eq!(sim.step_to_cover(0).unwrap(), StepOutcome::Write);
        assert_eq!(sim.registers(), &[0, 0]);
        // A normal step applies the poised write.
        assert_eq!(sim.step(0).unwrap(), StepOutcome::Write);
        assert_eq!(sim.registers(), &[1, 0]);
    }

    #[test]
    fn apply_poised_without_cover_errors() {
        let mut sim = Simulation::builder()
            .process_identity(writer(1, 2, 1))
            .build()
            .unwrap();
        assert_eq!(
            sim.apply_poised(0).unwrap_err(),
            SimError::NothingPoised { proc: 0 }
        );
    }

    #[test]
    fn run_solo_bounds_operations() {
        let mut sim = Simulation::builder()
            .process_identity(writer(1, 5, 5))
            .build()
            .unwrap();
        let (ops, halted) = sim.run_solo(0, 3).unwrap();
        assert_eq!(ops, 3);
        assert!(!halted);
        let (ops, halted) = sim.run_solo(0, 100).unwrap();
        assert_eq!(ops, 2);
        assert!(halted);
    }

    #[test]
    fn trace_records_physical_and_local_indices() {
        let mut sim = Simulation::builder()
            .process(writer(1, 3, 1), View::rotated(3, 1))
            .build()
            .unwrap();
        sim.step(0).unwrap();
        let entry = sim.trace().iter().next().unwrap();
        match &entry.op {
            TraceOp::Write {
                local, physical, ..
            } => {
                assert_eq!(*local, 0);
                assert_eq!(*physical, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn crash_silences_a_process() {
        let mut sim = Simulation::builder()
            .process_identity(writer(1, 3, 3))
            .process_identity(writer(2, 3, 3))
            .build()
            .unwrap();
        sim.step(0).unwrap(); // p0 writes register 0
        sim.crash(0).unwrap();
        assert!(sim.is_halted(0));
        assert_eq!(
            sim.step(0).unwrap_err(),
            SimError::ProcessHalted { proc: 0 }
        );
        // Idempotent; out of range rejected.
        sim.crash(0).unwrap();
        assert!(matches!(
            sim.crash(7).unwrap_err(),
            SimError::NoSuchProcess { proc: 7 }
        ));
        // The survivor still runs; p0's single write persists.
        while !sim.is_halted(1) {
            sim.step(1).unwrap();
        }
        assert_eq!(sim.registers()[1], 2);
        assert_eq!(sim.registers()[0], 2, "p1 overwrote p0's first register");
    }

    #[test]
    fn crash_discards_poised_writes() {
        let mut sim = Simulation::builder()
            .process_identity(writer(1, 2, 1))
            .build()
            .unwrap();
        sim.step_to_cover(0).unwrap();
        assert_eq!(sim.covered_register(0), Some(0));
        sim.crash(0).unwrap();
        assert_eq!(sim.covered_register(0), None);
        assert_eq!(sim.registers(), &[0, 0], "a crashed process writes nothing");
    }

    #[test]
    fn error_display_nonempty() {
        let errors = [
            SimError::NoProcesses,
            SimError::RegisterCountMismatch {
                proc: 1,
                expected: 2,
                actual: 3,
            },
            SimError::ViewSizeMismatch { proc: 0 },
            SimError::NoSuchProcess { proc: 4 },
            SimError::ProcessHalted { proc: 2 },
            SimError::NothingPoised { proc: 1 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
