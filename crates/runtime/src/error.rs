//! The error type of the high-level runtime APIs.

use std::fmt;

use anonreg_model::Pid;

/// Errors from the high-level runtime APIs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// The lock is not correct over `m` registers: Figure 1 needs an odd
    /// `m ≥ 3` (Theorem 3.1; `m = 1` admits a mutual exclusion violation,
    /// and even `m` admits livelock), the hybrid lock `m ≥ 2`.
    BadRegisterCount {
        /// The rejected register count.
        m: usize,
    },
    /// The algorithm needs at least one process.
    NoProcesses,
    /// A third handle was requested from a strictly-two-process lock.
    TooManyHandles,
    /// Input value `0` is reserved for untouched registers.
    ZeroInput,
    /// Identifiers and inputs must fit in 32 bits to ride in packed atomic
    /// registers (see [`Pack64`](crate::Pack64)).
    ValueTooWide {
        /// The offending value.
        value: u64,
    },
    /// Two handles of the same object requested the same process
    /// identifier. The paper's model requires distinct identifiers — two
    /// "processes" sharing one id are indistinguishable to the symmetric
    /// algorithms and break every guarantee.
    DuplicatePid {
        /// The duplicated identifier.
        pid: Pid,
    },
    /// The fault plan schedules a restart for a participant of an object
    /// that cannot survive one: a restarted renaming incarnation could
    /// claim a second name, breaking the `{1..k}` bound.
    RestartRefused {
        /// The identifier the plan restarts.
        pid: Pid,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::BadRegisterCount { m } => {
                write!(f, "the lock is not correct with m = {m}")
            }
            RuntimeError::NoProcesses => write!(f, "need at least one process"),
            RuntimeError::TooManyHandles => write!(f, "a two-process lock allows two live handles"),
            RuntimeError::ZeroInput => write!(f, "input value 0 is reserved"),
            RuntimeError::ValueTooWide { value } => {
                write!(
                    f,
                    "value {value} does not fit in 32 bits for packed registers"
                )
            }
            RuntimeError::DuplicatePid { pid } => {
                write!(f, "identifier {pid} was already claimed by another handle")
            }
            RuntimeError::RestartRefused { pid } => {
                write!(f, "a restart of {pid} could claim a second name")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}
