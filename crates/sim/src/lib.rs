//! Deterministic simulator, adversarial schedulers and explicit-state model
//! checker for memory-anonymous algorithms.
//!
//! The paper's proofs all reason about *runs*: sequences of atomic register
//! operations chosen by a powerful adversary that "can determine
//! (essentially) the order in which processes access the registers" (§2).
//! This crate makes that adversary executable:
//!
//! * [`Simulation`] — steps any set of [`Machine`](anonreg_model::Machine)s
//!   one atomic operation at a time, each through its own register
//!   [`View`](anonreg_model::View), recording a full
//!   [`Trace`](anonreg_model::trace::Trace). Writes can be *poised* —
//!   returned by the machine but withheld — which is precisely the
//!   "process covers a register" move of the §6 covering arguments.
//! * [`sched`] — deterministic schedulers: solo, round-robin, lock-step
//!   (Theorem 3.4's adversary), and seeded-random sweeps.
//! * [`explore`] — exhaustive explicit-state model checking behind the
//!   [`explore::Explorer`] builder, with safety predicates, SCC-based
//!   fair-livelock detection (how experiment E1 proves the odd/even
//!   dichotomy of Theorem 3.1), on one worker or many for large state
//!   spaces.
//! * [`obstruction`] — the obstruction-freedom checker: from every reachable
//!   state, every process running alone must terminate within a bound.
//! * [`symmetry`] — the rotation-symmetry invariant behind Theorem 3.4's
//!   lock-step ring adversary. The explorer turns the same invariance into
//!   a state-space cut: [`explore::Explorer::symmetry`] stores one
//!   representative per orbit of the view-compatible register/identifier
//!   permutation group (see [`Simulation::canonical_fingerprint`]).
//!
//! # Example
//!
//! Two tiny machines under a round-robin schedule, each with its own private
//! numbering of the registers:
//!
//! ```
//! use anonreg_model::{Machine, Pid, Step, View};
//! use anonreg_sim::{sched, Simulation};
//!
//! #[derive(Clone, Debug, PartialEq, Eq, Hash)]
//! struct WriteOnce(Pid, bool);
//! impl Machine for WriteOnce {
//!     type Value = u64;
//!     type Event = ();
//!     fn pid(&self) -> Pid { self.0 }
//!     fn register_count(&self) -> usize { 2 }
//!     fn resume(&mut self, _read: Option<u64>) -> Step<u64, ()> {
//!         if self.1 { Step::Halt } else { self.1 = true; Step::Write(0, self.0.get()) }
//!     }
//! }
//!
//! let a = WriteOnce(Pid::new(1).unwrap(), false);
//! let b = WriteOnce(Pid::new(2).unwrap(), false);
//! let mut sim = Simulation::builder()
//!     .process(a, View::identity(2))
//!     .process(b, View::rotated(2, 1))  // b's "register 0" is physical 1
//!     .build()?;
//! sched::round_robin(&mut sim, 100);
//! assert!(sim.all_halted());
//! assert_eq!(sim.registers(), &[1, 2]); // each wrote "its" register 0
//! # Ok::<(), anonreg_sim::SimError>(())
//! ```

#![cfg_attr(not(test), forbid(unsafe_code))]
// Unit tests admit one audited exception: the counting allocator in
// `explore::dedup::counting`.
#![cfg_attr(test, deny(unsafe_code))]
#![warn(missing_docs)]

mod canon;
mod simulation;

pub mod explore;
pub mod obstruction;
pub mod sched;
pub mod script;
pub mod symmetry;
pub mod viz;

pub use simulation::{SimError, Simulation, SimulationBuilder, StepOutcome};

pub mod prelude {
    //! The one-line import for model checking:
    //! `use anonreg_sim::prelude::*;` brings in the [`Explorer`] builder,
    //! its [`ExploreConfig`]/[`ExploreError`] companions, the
    //! [`StateGraph`] it produces, and the [`Simulation`] it consumes.

    pub use crate::explore::{
        Edge, ExploreConfig, ExploreError, ExploreStats, Explorer, ScheduleAction, StateGraph,
    };
    pub use crate::{SimError, Simulation, SimulationBuilder};
    pub use anonreg_model::SymmetryMode;
}
