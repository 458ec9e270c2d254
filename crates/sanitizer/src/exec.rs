//! Deterministic sanitized execution: machines driven over
//! [`SanitizedRegister`]s with explicit slots, a seeded scheduler, and
//! [`FaultPlan`] crash/stall/restart injection.
//!
//! The thread runtime drives machines in real time, so its interleavings
//! are not replayable; the sanitizer needs replayable witnesses. This
//! executor is the middle ground the e15 fault harness occupies for
//! threads, rebuilt single-threaded: one seeded RNG picks which live
//! participant performs its next machine step, every shared-memory
//! operation goes through [`SanitizedRegister::read_as`] /
//! [`write_as`](SanitizedRegister::write_as) at the context's
//! [`OrderingPlan`], and fault points fire against per-process
//! machine-step counters exactly as
//! [`FaultyDriver`](anonreg_runtime::FaultyDriver) fires them. Same seed,
//! same plan, same machines ⇒ the same run, operation for operation —
//! which is what makes a printed violation witness replayable.

use std::sync::Arc;

use anonreg_model::rng::Rng64;
use anonreg_model::{Machine, Step, View};
use anonreg_runtime::{FaultKind, FaultPlan, FaultPoint};

use crate::plan::OrderingPlan;
use crate::register::{CtxSnapshot, SanitizedRegister, SanitizerConfig, SanitizerCtx};

/// Factory minting incarnation `i` of a participant: its machine and the
/// view it runs under (incarnation 0 is the original process).
pub type Factory<M> = Box<dyn FnMut(u64) -> (M, View)>;

/// What one recorded execution event was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecEventKind<E> {
    /// The machine announced an observable milestone.
    Event(E),
    /// A [`FaultKind::Crash`] fired: the participant never steps again.
    Crashed,
    /// A [`FaultKind::Stall`] fired: the participant paused until the
    /// recorded number of foreign steps elapsed.
    Stalled,
    /// A [`FaultKind::Restart`] fired: a fresh incarnation took over.
    Restarted,
}

/// One entry of the execution's event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecEvent<E> {
    /// Global scheduler step at which it happened.
    pub step: u64,
    /// The participant (slot) it happened to.
    pub slot: usize,
    /// What happened.
    pub kind: ExecEventKind<E>,
}

/// Outcome of a bounded sanitized run.
#[derive(Clone, Debug)]
pub struct ExecReport<E> {
    /// Machine events and fault firings, in scheduler order.
    pub events: Vec<ExecEvent<E>>,
    /// Global scheduler steps consumed.
    pub steps: u64,
    /// `true` if the step budget ran out before every live participant
    /// halted.
    pub timed_out: bool,
    /// Crash points fired.
    pub crashes: u64,
    /// Stall points fired.
    pub stalls: u64,
    /// Restart points fired.
    pub restarts: u64,
    /// The sanitizer's counters and violations at the end of the run.
    pub snapshot: CtxSnapshot,
}

impl<E> ExecReport<E> {
    /// Just the machine events, in order — what safety monitors consume.
    pub fn machine_events(&self) -> impl Iterator<Item = (usize, &E)> {
        self.events.iter().filter_map(|e| match &e.kind {
            ExecEventKind::Event(event) => Some((e.slot, event)),
            _ => None,
        })
    }
}

struct Proc<M: Machine> {
    factory: Factory<M>,
    machine: M,
    view: View,
    /// Value to feed the next `resume` (set after a `Step::Read`).
    pending: Option<M::Value>,
    halted: bool,
    crashed: bool,
    /// Machine steps performed, cumulative across incarnations — the
    /// counter fault points fire against.
    my_steps: u64,
    incarnations: u64,
    /// Global step until which this participant is stalled.
    stalled_until: u64,
    faults: Vec<FaultPoint>,
    next_fault: usize,
}

/// A deterministic sanitized execution over one shared memory.
pub struct SanitizedExec<M: Machine> {
    ctx: Arc<SanitizerCtx>,
    registers: Vec<SanitizedRegister<M::Value>>,
    procs: Vec<Proc<M>>,
    rng: Rng64,
    steps: u64,
    events: Vec<ExecEvent<M::Event>>,
    crashes: u64,
    stalls: u64,
    restarts: u64,
}

impl<M: Machine> SanitizedExec<M> {
    /// Builds an execution over `m` physical registers (all initialized to
    /// `M::Value::default()`), one participant per factory, scheduling and
    /// stale-read choice both derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a factory mints a view over a number of registers other
    /// than `m`.
    #[must_use]
    pub fn new(
        seed: u64,
        m: usize,
        config: SanitizerConfig,
        plan: OrderingPlan,
        factories: Vec<Factory<M>>,
    ) -> Self {
        let config = SanitizerConfig { seed, ..config };
        let ctx = Arc::new(SanitizerCtx::new(config, plan));
        let registers = (0..m)
            .map(|_| SanitizedRegister::attached(&ctx, M::Value::default()))
            .collect();
        let procs = factories
            .into_iter()
            .map(|mut factory| {
                let (machine, view) = factory(0);
                assert_eq!(view.len(), m, "view must cover the physical memory");
                Proc {
                    factory,
                    machine,
                    view,
                    pending: None,
                    halted: false,
                    crashed: false,
                    my_steps: 0,
                    incarnations: 1,
                    stalled_until: 0,
                    faults: Vec::new(),
                    next_fault: 0,
                }
            })
            .collect();
        SanitizedExec {
            ctx,
            registers,
            procs,
            rng: Rng64::seed_from_u64(seed),
            steps: 0,
            events: Vec::new(),
            crashes: 0,
            stalls: 0,
            restarts: 0,
        }
    }

    /// Adopts `plan`'s fault schedule, matching points to participants by
    /// their machines' pids (as [`FaultyDriver`](anonreg_runtime::FaultyDriver)
    /// does).
    #[must_use]
    pub fn with_fault_plan(mut self, plan: &FaultPlan) -> Self {
        for proc in &mut self.procs {
            proc.faults = plan.for_pid(proc.machine.pid());
            proc.next_fault = 0;
        }
        self
    }

    /// The shared sanitizer context.
    #[must_use]
    pub fn ctx(&self) -> &Arc<SanitizerCtx> {
        &self.ctx
    }

    /// Runs until every participant has halted or crashed, or `max_steps`
    /// scheduler steps elapse.
    #[must_use]
    pub fn run(mut self, max_steps: u64) -> ExecReport<M::Event> {
        let timed_out = loop {
            if self.procs.iter().all(|p| p.halted || p.crashed) {
                break false;
            }
            if self.steps >= max_steps {
                break true;
            }
            // A stall parks a participant until a later global step; when
            // only stalled participants remain live, fast-forward to the
            // earliest release instead of burning budget on empty picks.
            let runnable: Vec<usize> = self
                .procs
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.halted && !p.crashed && p.stalled_until <= self.steps)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                let wake = self
                    .procs
                    .iter()
                    .filter(|p| !p.halted && !p.crashed)
                    .map(|p| p.stalled_until)
                    .min()
                    .expect("a live participant exists");
                self.steps = wake.min(max_steps);
                continue;
            }
            let slot = runnable[self.rng.gen_index(runnable.len())];
            self.steps += 1;
            self.advance(slot);
        };
        ExecReport {
            events: self.events,
            steps: self.steps,
            timed_out,
            crashes: self.crashes,
            stalls: self.stalls,
            restarts: self.restarts,
            snapshot: self.ctx.snapshot(),
        }
    }

    fn record(&mut self, slot: usize, kind: ExecEventKind<M::Event>) {
        self.events.push(ExecEvent {
            step: self.steps,
            slot,
            kind,
        });
    }

    fn advance(&mut self, slot: usize) {
        // Fire every fault point due at the participant's current machine-
        // step count, in schedule order (same firing rule as FaultyDriver).
        while let Some(point) = self.procs[slot]
            .faults
            .get(self.procs[slot].next_fault)
            .copied()
        {
            if point.at_op > self.procs[slot].my_steps {
                break;
            }
            self.procs[slot].next_fault += 1;
            match point.kind {
                FaultKind::Crash => {
                    self.procs[slot].crashed = true;
                    self.crashes += 1;
                    self.record(slot, ExecEventKind::Crashed);
                    return;
                }
                FaultKind::Stall { foreign_ops } => {
                    self.procs[slot].stalled_until = self.steps + foreign_ops;
                    self.stalls += 1;
                    self.record(slot, ExecEventKind::Stalled);
                    if self.procs[slot].stalled_until > self.steps {
                        return;
                    }
                }
                FaultKind::Restart => {
                    let incarnation = self.procs[slot].incarnations;
                    let (machine, view) = (self.procs[slot].factory)(incarnation);
                    assert_eq!(view.len(), self.registers.len());
                    let proc = &mut self.procs[slot];
                    proc.machine = machine;
                    proc.view = view;
                    proc.pending = None;
                    proc.incarnations += 1;
                    self.restarts += 1;
                    self.record(slot, ExecEventKind::Restarted);
                }
            }
        }

        let pending = self.procs[slot].pending.take();
        let step = self.procs[slot].machine.resume(pending);
        match step {
            Step::Read(local) => {
                let physical = self.procs[slot].view.physical(local);
                let value = self.registers[physical].read_as(slot, self.ctx.plan().read);
                self.procs[slot].pending = Some(value);
                self.procs[slot].my_steps += 1;
            }
            Step::Write(local, value) => {
                let physical = self.procs[slot].view.physical(local);
                let ordering = self.ctx.plan().of(SanitizedRegister::classify(&value));
                self.registers[physical].write_as(slot, value, ordering);
                self.procs[slot].my_steps += 1;
            }
            Step::Event(event) => self.record(slot, ExecEventKind::Event(event)),
            Step::Halt => self.procs[slot].halted = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonreg::mutex::{AnonMutex, MutexEvent};
    use anonreg_model::Pid;

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    fn mutex_factories(n: u64, m: usize) -> Vec<Factory<AnonMutex>> {
        (1..=n)
            .map(|id| {
                let f: Factory<AnonMutex> = Box::new(move |incarnation| {
                    let mut rng = Rng64::seed_from_u64(id ^ (incarnation << 32) ^ 0xfeed);
                    let view = View::from_perm(rng.permutation(m)).unwrap();
                    (AnonMutex::new(pid(id), m).unwrap().with_cycles(1), view)
                });
                f
            })
            .collect()
    }

    #[test]
    fn seqcst_mutex_run_is_clean_and_mutually_exclusive() {
        let exec = SanitizedExec::new(
            11,
            3,
            SanitizerConfig::default(),
            OrderingPlan::seq_cst(),
            mutex_factories(2, 3),
        );
        let report = exec.run(200_000);
        assert!(!report.timed_out);
        assert_eq!(report.snapshot.violation_count, 0);
        let mut inside = 0u32;
        for (_, ev) in report.machine_events() {
            match ev {
                MutexEvent::Enter => {
                    inside += 1;
                    assert_eq!(inside, 1, "mutual exclusion violated");
                }
                MutexEvent::Exit | MutexEvent::Aborted => inside -= 1,
            }
        }
    }

    #[test]
    fn same_seed_replays_the_same_run() {
        let run = |seed| {
            SanitizedExec::new(
                seed,
                3,
                SanitizerConfig::default(),
                OrderingPlan::seq_cst(),
                mutex_factories(2, 3),
            )
            .run(200_000)
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.events, b.events);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.snapshot.reads, b.snapshot.reads);
        let c = run(6);
        assert!(a.events != c.events || a.steps != c.steps);
    }

    #[test]
    fn crash_fault_fires_and_survivor_completes() {
        let plan = FaultPlan::new(0).crash(pid(1), 2);
        let exec = SanitizedExec::new(
            3,
            3,
            SanitizerConfig::default(),
            OrderingPlan::seq_cst(),
            mutex_factories(2, 3),
        )
        .with_fault_plan(&plan);
        let report = exec.run(200_000);
        assert_eq!(report.crashes, 1);
        assert!(!report.timed_out, "survivor must still finish");
        assert!(report
            .events
            .iter()
            .any(|e| e.slot == 0 && e.kind == ExecEventKind::Crashed));
        // The survivor (slot 1) still enters and exits.
        assert!(report
            .machine_events()
            .any(|(slot, ev)| slot == 1 && *ev == MutexEvent::Enter));
    }

    #[test]
    fn stall_and_restart_fire_without_hanging() {
        let plan = FaultPlan::new(0).stall(pid(1), 1, 6).restart(pid(2), 2);
        let exec = SanitizedExec::new(
            9,
            3,
            SanitizerConfig::default(),
            OrderingPlan::seq_cst(),
            mutex_factories(2, 3),
        )
        .with_fault_plan(&plan);
        let report = exec.run(400_000);
        assert_eq!(report.stalls, 1);
        assert_eq!(report.restarts, 1);
        assert!(!report.timed_out);
    }
}
