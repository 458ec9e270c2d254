//! The obstruction-freedom checker.
//!
//! "Obstruction-freedom guarantees that an active process will be able to
//! complete its pending operations in a finite number of its own steps, if
//! all the other processes 'hold still' long enough" (§2). Over a finite
//! [`StateGraph`] this is decidable exactly: from **every** reachable
//! configuration, every live process running **alone** must halt within a
//! bounded number of its own steps. [`check_obstruction_freedom`] performs
//! that check and reports the worst-case solo completion cost it saw —
//! which experiment E3 compares against the `O(n²)` bound from the proof of
//! Theorem 4.1.

use std::fmt;
use std::hash::Hash;

use anonreg_model::Machine;
use anonreg_obs::{Metric, NoopProbe, Probe, Span};

use crate::explore::StateGraph;
use crate::Simulation;

/// A refutation of obstruction freedom: from a reachable state, a process
/// ran alone for the full budget without halting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObstructionViolation {
    /// The state (id in the graph) from which the solo run was started.
    pub state: usize,
    /// The process that failed to finish.
    pub proc: usize,
    /// The solo-step budget that was exhausted.
    pub budget: usize,
}

impl fmt::Display for ObstructionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "process {} ran alone for {} steps from state {} without terminating",
            self.proc, self.budget, self.state
        )
    }
}

impl std::error::Error for ObstructionViolation {}

/// Summary of a successful obstruction-freedom check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObstructionReport {
    /// Number of (state, process) solo runs performed.
    pub solo_runs: usize,
    /// The largest number of solo steps any process needed to halt.
    pub max_solo_ops: usize,
}

/// Verifies obstruction freedom over every reachable state: each live
/// process, running alone from each state, must halt within `budget` of its
/// own atomic steps.
///
/// # Errors
///
/// Returns an [`ObstructionViolation`] naming the state and process for
/// which the budget was insufficient. (For a correct obstruction-free
/// algorithm, pass a budget safely above its worst-case solo cost; the
/// returned [`ObstructionReport::max_solo_ops`] tells you how tight it
/// was.)
pub fn check_obstruction_freedom<M>(
    graph: &StateGraph<M>,
    budget: usize,
) -> Result<ObstructionReport, ObstructionViolation>
where
    M: Machine + Eq + Hash,
{
    check_obstruction_freedom_probed(graph, budget, &NoopProbe)
}

/// [`check_obstruction_freedom`] with a live [`Probe`].
///
/// Every solo run emits a `solo_run` span (keyed by process slot, length
/// in memory operations) and a `solo_ops` histogram sample, so the
/// *distribution* of solo completion costs — not just the maximum the
/// report keeps — is observable. With [`NoopProbe`] this is exactly
/// [`check_obstruction_freedom`].
///
/// # Errors
///
/// Returns an [`ObstructionViolation`] naming the state and process for
/// which the budget was insufficient.
pub fn check_obstruction_freedom_probed<M, P>(
    graph: &StateGraph<M>,
    budget: usize,
    probe: &P,
) -> Result<ObstructionReport, ObstructionViolation>
where
    M: Machine + Eq + Hash,
    P: Probe,
{
    let mut report = ObstructionReport::default();
    // The smallest violating `(state, proc)`: states are regenerated in
    // tree order, and every descendant of a state has a larger id, so
    // once a violation is known only smaller ids are still searched.
    let mut violation: Option<(usize, usize)> = None;
    let mut solo: Option<Simulation<M>> = None;
    graph.visit(|id, state| {
        if violation.is_some_and(|(smallest, _)| smallest < id) {
            return false;
        }
        for proc in 0..state.process_count() {
            if state.is_halted(proc) {
                continue;
            }
            let solo = solo.get_or_insert_with(|| state.clone());
            solo.clone_from(state);
            if P::ENABLED {
                probe.span_open(Span::SoloRun, proc as u64);
            }
            let (ops, halted) = solo.run_solo(proc, budget).expect("slot is valid");
            report.solo_runs += 1;
            if P::ENABLED {
                probe.span_close(Span::SoloRun, proc as u64, ops as u64);
                probe.histogram(Metric::SoloOps, 0, ops as u64);
            }
            if !halted {
                violation = Some((id, proc));
                return false;
            }
            report.max_solo_ops = report.max_solo_ops.max(ops);
        }
        true
    });
    match violation {
        Some((state, proc)) => Err(ObstructionViolation {
            state,
            proc,
            budget,
        }),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Explorer;
    use anonreg_model::{Pid, Step, View};

    /// Halts after its first write.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct OneShot {
        pid: Pid,
        done: bool,
    }

    impl Machine for OneShot {
        type Value = u64;
        type Event = ();

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, ()> {
            if self.done {
                Step::Halt
            } else {
                self.done = true;
                Step::Write(0, self.pid.get())
            }
        }
    }

    /// Never halts: reads forever.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Forever {
        pid: Pid,
    }

    impl Machine for Forever {
        type Value = u64;
        type Event = ();

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, _read: Option<u64>) -> Step<u64, ()> {
            Step::Read(0)
        }
    }

    /// Writes its pid, then reads register 0 until it holds that pid:
    /// alone, it spins forever once another process overwrote it.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Loyal {
        pid: Pid,
        wrote: bool,
    }

    impl Machine for Loyal {
        type Value = u64;
        type Event = ();

        fn pid(&self) -> Pid {
            self.pid
        }

        fn register_count(&self) -> usize {
            1
        }

        fn resume(&mut self, read: Option<u64>) -> Step<u64, ()> {
            if !self.wrote {
                self.wrote = true;
                return Step::Write(0, self.pid.get());
            }
            match read {
                Some(v) if v == self.pid.get() => Step::Halt,
                _ => Step::Read(0),
            }
        }
    }

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    #[test]
    fn one_shot_machines_are_obstruction_free() {
        let sim = Simulation::builder()
            .process(
                OneShot {
                    pid: pid(1),
                    done: false,
                },
                View::identity(1),
            )
            .process(
                OneShot {
                    pid: pid(2),
                    done: false,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        let report = check_obstruction_freedom(&graph, 10).unwrap();
        assert!(report.solo_runs > 0);
        assert_eq!(report.max_solo_ops, 1);
    }

    #[test]
    fn probed_check_samples_every_solo_run() {
        use anonreg_obs::MemProbe;
        let sim = Simulation::builder()
            .process(
                OneShot {
                    pid: pid(1),
                    done: false,
                },
                View::identity(1),
            )
            .process(
                OneShot {
                    pid: pid(2),
                    done: false,
                },
                View::identity(1),
            )
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        let probe = MemProbe::new();
        let report = check_obstruction_freedom_probed(&graph, 10, &probe).unwrap();
        let snap = probe.into_snapshot();
        let hist = snap.histogram_stat(Metric::SoloOps).unwrap();
        assert_eq!(hist.count, report.solo_runs as u64);
        assert_eq!(hist.max, report.max_solo_ops as u64);
        assert_eq!(snap.spans.len(), report.solo_runs);
        // Identical result to the unprobed checker.
        assert_eq!(check_obstruction_freedom(&graph, 10).unwrap(), report);
    }

    /// Many `(state, proc)` pairs violate; the checker reports the
    /// smallest, the first a scan of the states in id order meets, at
    /// any worker count.
    #[test]
    fn the_smallest_violation_is_reported() {
        let build = || {
            Simulation::builder()
                .process(
                    Loyal {
                        pid: pid(1),
                        wrote: false,
                    },
                    View::identity(1),
                )
                .process(
                    Loyal {
                        pid: pid(2),
                        wrote: false,
                    },
                    View::identity(1),
                )
                .build()
                .unwrap()
        };
        for threads in [1, 4] {
            let graph = Explorer::new(build()).parallelism(threads).run().unwrap();
            let mut states = vec![None; graph.state_count()];
            graph.for_each_state(|id, state| states[id] = Some(state.clone()));
            let mut violations = Vec::new();
            for (id, state) in states.iter().enumerate() {
                let state = state.as_ref().expect("every state is visited");
                for proc in (0..2).filter(|&p| !state.is_halted(p)) {
                    if !state.clone().run_solo(proc, 5).unwrap().1 {
                        violations.push((id, proc));
                    }
                }
            }
            assert!(violations.len() > 2, "{threads} workers: {violations:?}");
            let violation = check_obstruction_freedom(&graph, 5).unwrap_err();
            assert_eq!((violation.state, violation.proc), violations[0]);
            if threads == 1 {
                // The canonical numbering's answer, as the checker gave
                // it when the graph stored every state.
                assert_eq!((violation.state, violation.proc), (3, 1));
                assert_eq!(graph.state_count(), 31);
            }
        }
    }

    #[test]
    fn spinner_violates_obstruction_freedom() {
        let sim = Simulation::builder()
            .process(Forever { pid: pid(1) }, View::identity(1))
            .build()
            .unwrap();
        let graph = Explorer::new(sim).run().unwrap();
        let violation = check_obstruction_freedom(&graph, 5).unwrap_err();
        assert_eq!(violation.proc, 0);
        assert_eq!(violation.budget, 5);
        assert!(!violation.to_string().is_empty());
    }
}
