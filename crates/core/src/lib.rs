//! Memory-anonymous coordination algorithms — **coordination without prior
//! agreement** on the names of shared memory locations.
//!
//! This crate is a faithful, production-quality implementation of the
//! algorithms in Gadi Taubenfeld's PODC 2017 paper *"Coordination Without
//! Prior Agreement"*. In the paper's model, processes communicate through
//! atomic multi-writer multi-reader registers that have **no globally agreed
//! names**: each process enumerates the registers through its own private
//! permutation, so no two processes need to agree which register is "first".
//!
//! # The algorithms
//!
//! | Module | Paper artifact | Guarantee |
//! |--------|----------------|-----------|
//! | [`mutex`] | Figure 1 | symmetric deadlock-free mutual exclusion for 2 processes with any odd `m ≥ 3` registers (Theorems 3.1–3.3) |
//! | [`consensus`] | Figure 2 | symmetric obstruction-free multi-valued consensus for `n` processes with `2n − 1` registers (Theorems 4.1, 4.2) |
//! | [`election`] | §4 remark | symmetric obstruction-free leader election (consensus on identifiers) |
//! | [`renaming`] | Figure 3 | symmetric obstruction-free **adaptive perfect renaming**: `k` participants acquire distinct names from `{1..k}` (Theorems 5.1–5.3) |
//! | [`hybrid`] | §8 exploration | mutual exclusion over `m` anonymous registers **plus one named register** — works for even `m` too; verified by exhaustive model checking |
//! | [`ordered`] | §2 variant | mutual exclusion under *symmetric with arbitrary comparisons*: identifier order breaks the even-`m` tie with zero extra registers; verified by exhaustive model checking |
//! | [`baseline`] | — | classic *named-register* algorithms (Peterson, Bakery, lock-based consensus, Moir–Anderson splitters) used as comparison baselines |
//! | [`spec`] | §3–§5 definitions | trace checkers for every correctness property above |
//!
//! Every algorithm is expressed as an [`anonreg_model::Machine`]: a
//! deterministic state machine performing one atomic register operation per
//! step. The same implementation is exhaustively model-checked by
//! `anonreg-sim`, attacked by the covering adversaries of `anonreg-lower`,
//! and run at full speed on real threads by `anonreg-runtime`.
//!
//! # Quickstart
//!
//! Run the Figure 1 mutex solo (the machine enters its critical section and
//! exits once):
//!
//! ```
//! use anonreg::mutex::{AnonMutex, MutexEvent};
//! use anonreg::{Machine, Pid, Step};
//!
//! let mut machine = AnonMutex::new(Pid::new(42).unwrap(), 3)?.with_cycles(1);
//! let mut registers = vec![0u64; 3];
//! let mut read = None;
//! let mut events = Vec::new();
//! loop {
//!     match machine.resume(read.take()) {
//!         Step::Read(j) => read = Some(registers[j]),
//!         Step::Write(j, v) => registers[j] = v,
//!         Step::Event(e) => events.push(e),
//!         Step::Halt => break,
//!     }
//! }
//! assert_eq!(events, vec![MutexEvent::Enter, MutexEvent::Exit]);
//! assert_eq!(registers, vec![0, 0, 0]); // exit code restored the initial state
//! # Ok::<(), anonreg::mutex::MutexConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Implements `Clone` for a machine struct from its full field list, with
/// a `clone_from` that refills each field in place.
///
/// `derive(Clone)` leaves `clone_from` at its default,
/// `*self = source.clone()`, which allocates a fresh copy of every heap
/// field. The explorer refills reused successor states with `clone_from`,
/// so machines that own heap fields list them here instead. `clone` builds
/// and `clone_from` destructures the struct exhaustively: a field missing
/// from the list is a compile error, not a silently stale copy.
macro_rules! clone_in_place {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl Clone for $ty {
            fn clone(&self) -> Self {
                $ty { $($field: Clone::clone(&self.$field)),+ }
            }

            fn clone_from(&mut self, source: &Self) {
                let $ty { $($field),+ } = self;
                $(Clone::clone_from($field, &source.$field);)+
            }
        }
    };
}

pub mod baseline;
pub mod codec;
pub mod consensus;
pub mod election;
pub mod hybrid;
pub mod mutex;
pub mod ordered;
pub mod renaming;
pub mod spec;

pub use anonreg_model::{
    trace, Machine, ParsePidError, Pid, PidMap, RegisterValue, Step, View, ViewError,
};
