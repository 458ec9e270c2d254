//! Formal model for *memory-anonymous* shared-memory computation.
//!
//! This crate defines the computational model of Gadi Taubenfeld's PODC 2017
//! paper **"Coordination Without Prior Agreement"**: a fully asynchronous set
//! of processes that communicate through atomic multi-writer multi-reader
//! registers which have **no globally agreed names**. Each process privately
//! enumerates the registers through its own permutation (a [`View`]), so the
//! register one process calls "register 3" may be the register another calls
//! "register 7".
//!
//! The crate contains no algorithms and no execution engine — only the
//! vocabulary shared by every other crate in the workspace:
//!
//! * [`Pid`] — opaque process identifiers that support *only* equality
//!   comparison, matching the paper's "symmetric with equality" model.
//! * [`RegisterValue`] — the trait register contents must satisfy.
//! * [`Machine`] and [`Step`] — algorithms expressed as deterministic state
//!   machines that perform one atomic operation per step. The same machine
//!   runs under the deterministic simulator (`anonreg-sim`) and on real
//!   threads (`anonreg-runtime`).
//! * [`View`] — a process's private numbering of the shared registers.
//! * [`trace`] — recorded runs, used by specification checkers.
//! * [`PidMap`] — structural renaming of identifiers, used by the symmetry
//!   arguments behind the paper's lower bounds (Theorem 3.4).
//! * [`fingerprint`] — deterministic 64-bit state hashing, shared by the
//!   model checker's interning tables so parallel workers agree on state
//!   identity.
//! * [`canon`] — orbit canonicalization: byte-stable state encodings,
//!   first-occurrence identifier renumbering and the view-compatible
//!   permutation group, used by the explorer's symmetry reduction.
//!
//! # Example
//!
//! A trivial machine that writes its identifier into local register 0 and
//! halts:
//!
//! ```
//! use anonreg_model::{Machine, Pid, Step};
//!
//! #[derive(Clone, Debug, PartialEq, Eq, Hash)]
//! struct WriteOnce {
//!     pid: Pid,
//!     done: bool,
//! }
//!
//! impl Machine for WriteOnce {
//!     type Value = u64;
//!     type Event = ();
//!
//!     fn pid(&self) -> Pid { self.pid }
//!     fn register_count(&self) -> usize { 1 }
//!
//!     fn resume(&mut self, _read: Option<u64>) -> Step<u64, ()> {
//!         if self.done {
//!             Step::Halt
//!         } else {
//!             self.done = true;
//!             Step::Write(0, self.pid.get())
//!         }
//!     }
//! }
//!
//! let mut m = WriteOnce { pid: Pid::new(7).unwrap(), done: false };
//! assert_eq!(m.resume(None), Step::Write(0, 7));
//! assert_eq!(m.resume(None), Step::Halt);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod machine;
mod pid;
mod value;
mod view;

pub mod canon;
pub mod fingerprint;
pub mod rng;
pub mod trace;

pub use canon::SymmetryMode;
pub use fingerprint::{fingerprint_of, Fnv64};
pub use machine::{Machine, Step};
pub use pid::{ParsePidError, Pid, PidMap};
pub use value::RegisterValue;
pub use view::{View, ViewError};
