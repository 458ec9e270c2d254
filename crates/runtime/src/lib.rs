//! Real-thread runtime for memory-anonymous algorithms.
//!
//! The simulator (`anonreg-sim`) executes algorithms under a fully
//! controlled adversary; this crate runs the *same*
//! [`Machine`](anonreg_model::Machine) implementations on **real threads
//! over real atomics**, where the scheduler of the host OS plays the
//! adversary. That is the configuration the paper's introduction speculates
//! about — memory-anonymous algorithms' "plasticity" letting each thread
//! scan the shared registers in its own order — and experiment E9 measures.
//!
//! # Architecture
//!
//! * [`Register`] — the linearizable single-register contract, with two
//!   implementations:
//!   [`PackedAtomicRegister`] (a lock-free `AtomicU64`, for values that
//!   implement [`Pack64`] — the paper's remark in §4.1 notes multi-field
//!   records can be encoded into a single value, which is exactly what
//!   packing does) and [`LockRegister`] (an `RwLock`-based register for
//!   wide values like Figure 3's unbounded history sets; linearizable, not
//!   lock-free — the documented substitution in DESIGN.md).
//! * [`AnonymousMemory`] — a shared array of registers handed to threads
//!   through per-thread permuted [`MemoryView`]s. By default every thread
//!   receives a fresh *random* permutation: no thread can rely on register
//!   names agreeing with any other thread's, keeping implementations
//!   honest.
//! * [`Driver`] — drives any `Machine` against a `MemoryView`, with
//!   optional randomized backoff so obstruction-free algorithms make
//!   progress under real contention.
//! * High-level facades, one generic session per algorithm shape:
//!   [`AnonymousLock`] over a [`LockMachine`] serves the two-process locks
//!   ([`AnonymousMutex`], [`HybridAnonymousMutex`]) with plain and faulty
//!   handles; [`AnonymousOneShot`] over a [`OneShotMachine`] serves the
//!   one-shot objects ([`AnonymousConsensus`], [`AnonymousElection`],
//!   [`AnonymousRenaming`]). A new family gets the whole facade by
//!   implementing one of the two traits.
//!
//! # Quickstart
//!
//! ```
//! use anonreg_runtime::AnonymousConsensus;
//! use anonreg_model::Pid;
//!
//! // Two threads agree on a value without agreeing on register names.
//! let consensus = AnonymousConsensus::new(2)?;
//! let a = consensus.handle(Pid::new(1).unwrap())?;
//! let b = consensus.handle(Pid::new(2).unwrap())?;
//! let (da, db) = std::thread::scope(|s| {
//!     let ta = s.spawn(move || a.propose(10).unwrap());
//!     let tb = s.spawn(move || b.propose(20).unwrap());
//!     (ta.join().unwrap(), tb.join().unwrap())
//! });
//! assert_eq!(da, db);
//! assert!(da == 10 || da == 20);
//! # Ok::<(), anonreg_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod error;
mod facade;
mod fault;
mod memory;
mod pack;
mod register;

pub use driver::{Backoff, Driver, DriverReport, DriverStep};
pub use error::RuntimeError;
pub use facade::{
    AnonymousConsensus, AnonymousElection, AnonymousLock, AnonymousMutex, AnonymousOneShot,
    AnonymousRenaming, ConsensusHandle, ElectionHandle, FaultyHybridMutexHandle, FaultyLockHandle,
    FaultyMutexHandle, HybridAnonymousMutex, HybridMutexGuard, HybridMutexHandle, LockGuard,
    LockHandle, LockMachine, MutexGuard, MutexHandle, OneShotHandle, OneShotMachine,
    RenamingHandle,
};
pub use fault::{
    DriveOutcome, FaultCell, FaultKind, FaultPlan, FaultPoint, FaultProfile, FaultRecord,
    FaultyDriver, FaultyStep,
};
pub use memory::{AnonymousMemory, MemoryView};
pub use pack::Pack64;
pub use register::{LockRegister, PackedAtomicRegister, Register};
