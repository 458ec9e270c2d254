//! High-level thread-friendly APIs over the memory-anonymous algorithms:
//! one generic session per algorithm shape, [`AnonymousLock`] for the
//! two-process locks and [`AnonymousOneShot`] for the one-shot objects.
//! Each participant mints its machines from one incarnation factory:
//! incarnation 0 feeds the plain [`Driver`], and the same factory feeds
//! the [`FaultyDriver`] on the fault path.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use anonreg::consensus::{AnonConsensus, ConsRecord, ConsensusEvent};
use anonreg::election::{AnonElection, ElectionEvent};
use anonreg::hybrid::HybridMutex;
use anonreg::mutex::{AnonMutex, Section};
use anonreg::renaming::{AnonRenaming, RenRecord, RenamingEvent};
use anonreg_model::rng::Rng64;
use anonreg_model::{Machine, Pid, View};

use crate::{
    AnonymousMemory, Backoff, DriveOutcome, Driver, FaultCell, FaultKind, FaultPlan, FaultRecord,
    FaultyDriver, LockRegister, MemoryView, PackedAtomicRegister, Register, RuntimeError,
};

/// Shared registry of identifiers already handed out by one coordination
/// object.
type PidRegistry = Arc<Mutex<Vec<Pid>>>;

/// RAII claim on an identifier in one object's registry. Dropping the
/// lease releases the pid, so dropping a handle and re-creating one with
/// the same identifier works — only *concurrent* duplicates are rejected,
/// which is all the paper's distinct-identifier assumption requires.
#[derive(Debug)]
struct PidLease {
    registry: PidRegistry,
    pid: Pid,
}

impl Drop for PidLease {
    fn drop(&mut self) {
        if let Ok(mut issued) = self.registry.lock() {
            if let Some(i) = issued.iter().position(|p| *p == self.pid) {
                issued.swap_remove(i);
            }
        }
    }
}

fn claim_pid(registry: &PidRegistry, pid: Pid) -> Result<PidLease, RuntimeError> {
    let mut issued = registry.lock().expect("pid registry poisoned");
    if issued.contains(&pid) {
        return Err(RuntimeError::DuplicatePid { pid });
    }
    issued.push(pid);
    drop(issued);
    Ok(PidLease {
        registry: Arc::clone(registry),
        pid,
    })
}

/// RAII claim on one of a bounded number of handle slots (the two-process
/// locks). Dropping the slot frees it for a future handle.
#[derive(Debug)]
struct HandleSlot {
    handles: Arc<AtomicUsize>,
}

impl Drop for HandleSlot {
    fn drop(&mut self) {
        // Release pairs with `claim_slot`'s AcqRel compare-exchange:
        // everything the departing handle did happens-before the claim
        // that reuses its slot (certificate ORD-RT-HANDLE-002, `check
        // sanitize`).
        self.handles.fetch_sub(1, Ordering::Release);
    }
}

/// Claims a slot if fewer than `max` are live, returning it with the
/// number of slots live before the claim.
fn claim_slot(handles: &Arc<AtomicUsize>, max: usize) -> Result<(HandleSlot, usize), RuntimeError> {
    // A compare-exchange loop, not an optimistic increment: the counter
    // never exceeds `max`, so a refused claimer cannot make a concurrent
    // legitimate one fail. AcqRel on success observes prior releases
    // (slot drops) and publishes this claim; Acquire on the reads. The
    // counter guards only slot occupancy — the algorithms' own registers
    // carry their own ordering — so SeqCst buys nothing here (certificate
    // ORD-RT-HANDLE-002).
    let live = handles
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |live| {
            (live < max).then_some(live + 1)
        })
        .map_err(|_| RuntimeError::TooManyHandles)?;
    let handles = Arc::clone(handles);
    Ok((HandleSlot { handles }, live))
}

fn check_packable(value: u64) -> Result<(), RuntimeError> {
    if value > u64::from(u32::MAX) {
        Err(RuntimeError::ValueTooWide { value })
    } else {
        Ok(())
    }
}

/// The view of incarnation `incarnation` of participant `pid`: a seeded
/// random permutation of the first `anonymous` registers, the rest (named)
/// left in place. `salt` tells apart handles that reuse a pid.
fn minted_view<R>(
    memory: &AnonymousMemory<R>,
    anonymous: usize,
    pid: Pid,
    salt: u64,
    incarnation: u64,
) -> MemoryView<R> {
    let salt = salt.wrapping_add(incarnation.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut rng = Rng64::seed_from_u64(pid.get().wrapping_mul(0x9e37_79b9).wrapping_add(salt));
    let mut perm = rng.permutation(anonymous);
    perm.extend(anonymous..memory.len());
    memory.view(View::from_perm(perm).expect("a shuffled range is a permutation"))
}

// ---------------------------------------------------------------------------
// Lock sessions
// ---------------------------------------------------------------------------

/// The register type every lock session runs over.
type LockRegisters = PackedAtomicRegister<u64>;

/// A two-process lock machine [`AnonymousLock`] can drive: what differs
/// between the lock families.
pub trait LockMachine: Machine<Value = u64> + 'static {
    /// The number of physical registers a lock configured with `m` needs:
    /// the `m` anonymous registers, which every participant sees through
    /// its own random permutation, then any named registers, which every
    /// participant sees at the same index.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadRegisterCount`] if the algorithm is not correct
    /// with `m`.
    fn registers(m: usize) -> Result<usize, RuntimeError>;

    /// The machine for `pid` under an `m` that
    /// [`registers`](LockMachine::registers) accepted.
    fn for_pid(pid: Pid, m: usize) -> Self;

    /// The code section the machine is in.
    fn section(&self) -> Section;

    /// Asks the machine to abandon its entry attempt at its next decision
    /// point, through the algorithm's own lose path.
    fn request_abort(&mut self);
}

impl LockMachine for AnonMutex {
    /// `m` anonymous registers, odd and at least 3 (Theorem 3.1).
    fn registers(m: usize) -> Result<usize, RuntimeError> {
        if m < 3 || m.is_multiple_of(2) {
            return Err(RuntimeError::BadRegisterCount { m });
        }
        Ok(m)
    }

    fn for_pid(pid: Pid, m: usize) -> Self {
        AnonMutex::new(pid, m).expect("validated register count")
    }

    #[inline]
    fn section(&self) -> Section {
        AnonMutex::section(self)
    }

    #[inline]
    fn request_abort(&mut self) {
        AnonMutex::request_abort(self);
    }
}

impl LockMachine for HybridMutex {
    /// `m + 1` for `m ≥ 2` anonymous registers plus the named tie-breaker.
    fn registers(m: usize) -> Result<usize, RuntimeError> {
        if m < 2 {
            return Err(RuntimeError::BadRegisterCount { m });
        }
        Ok(m + 1)
    }

    fn for_pid(pid: Pid, m: usize) -> Self {
        HybridMutex::new(pid, m).expect("validated register count")
    }

    #[inline]
    fn section(&self) -> Section {
        HybridMutex::section(self)
    }

    #[inline]
    fn request_abort(&mut self) {
        HybridMutex::request_abort(self);
    }
}

/// A memory-anonymous lock for **two** threads, generic over its
/// [`LockMachine`]; see [`AnonymousMutex`] and [`HybridAnonymousMutex`].
///
/// Each participating thread obtains a [`LockHandle`] (at most two may
/// exist) and brackets its critical sections with
/// [`enter`](LockHandle::enter)/the returned [`LockGuard`]. The two
/// handles see the registers through *different random permutations* —
/// there is no agreement on names, which is the point.
#[derive(Debug)]
pub struct AnonymousLock<M> {
    memory: AnonymousMemory<LockRegisters>,
    m: usize,
    handles: Arc<AtomicUsize>,
    pids: PidRegistry,
    cell: Arc<FaultCell>,
    machine: PhantomData<fn() -> M>,
}

/// A lock participant's claims, released on drop: its pid lease and one of
/// the lock's two handle slots.
type Seat = (PidLease, HandleSlot);

impl<M: LockMachine> AnonymousLock<M> {
    /// Allocates a lock over `m` anonymous registers, plus any named ones
    /// the family adds (see [`LockMachine::registers`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::BadRegisterCount`] if the family rejects `m`.
    pub fn new(m: usize) -> Result<Self, RuntimeError> {
        Ok(AnonymousLock {
            memory: AnonymousMemory::new(M::registers(m)?),
            m,
            handles: Arc::default(),
            pids: PidRegistry::default(),
            cell: Arc::default(),
            machine: PhantomData,
        })
    }

    /// Claims `pid` and a handle slot, returning the claims and the salt
    /// of the participant's views: the number of slots live before.
    fn seat(&self, pid: Pid) -> Result<(Seat, u64), RuntimeError> {
        let lease = claim_pid(&self.pids, pid)?;
        let (slot, live) = claim_slot(&self.handles, 2)?;
        Ok(((lease, slot), live as u64))
    }

    /// The incarnation factory of participant `pid`.
    fn factory(
        &self,
        pid: Pid,
        salt: u64,
    ) -> impl FnMut(u64) -> (M, MemoryView<LockRegisters>) + Send {
        let (memory, m) = (self.memory.clone(), self.m);
        move |incarnation| {
            (
                M::for_pid(pid, m),
                minted_view(&memory, m, pid, salt, incarnation),
            )
        }
    }

    /// Creates a participant handle with a fresh random register view.
    ///
    /// Dropping a handle releases both its identifier and its slot, so a
    /// replacement handle (same pid or a new one) can be created later.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::TooManyHandles`] while two handles are live — the
    /// algorithms are proven for two processes only (more is the paper's
    /// headline open problem). [`RuntimeError::DuplicatePid`] if the
    /// identifier is already held by a live handle.
    pub fn handle(&self, pid: Pid) -> Result<LockHandle<M>, RuntimeError> {
        let (seat, salt) = self.seat(pid)?;
        let (machine, view) = self.factory(pid, salt)(0);
        Ok(LockHandle {
            driver: Driver::new(machine, view),
            _seat: seat,
        })
    }

    /// Creates a participant handle whose execution is subjected to
    /// `plan`'s fault schedule for `pid`: crashes abandon the machine with
    /// the registers as written (§2's failure model), stalls pause it for
    /// foreign ops, restarts re-run a fresh machine under a new view.
    ///
    /// # Errors
    ///
    /// Same as [`handle`](AnonymousLock::handle).
    pub fn faulty_handle(
        &self,
        pid: Pid,
        plan: &FaultPlan,
    ) -> Result<FaultyLockHandle<M>, RuntimeError> {
        let (seat, salt) = self.seat(pid)?;
        let factory = self.factory(pid, salt);
        Ok(FaultyLockHandle {
            driver: FaultyDriver::new(pid, factory, plan, Arc::clone(&self.cell)),
            _seat: seat,
        })
    }
}

/// One thread's handle on an [`AnonymousLock`].
#[derive(Debug)]
pub struct LockHandle<M: LockMachine> {
    driver: Driver<M, LockRegisters>,
    _seat: Seat,
}

impl<M: LockMachine> LockHandle<M> {
    /// Enters the critical section (spinning until acquired) and returns a
    /// guard; dropping the guard leaves the critical section and runs the
    /// wait-free exit code.
    pub fn enter(&mut self) -> LockGuard<'_, M> {
        let entered = self.driver.run_until(|m| m.section() == Section::Critical);
        debug_assert!(entered, "an unbounded lock machine never halts");
        LockGuard { handle: self }
    }

    /// Attempts to enter the critical section within roughly `max_ops`
    /// atomic operations. On timeout the entry attempt is *aborted* — the
    /// machine takes the algorithm's own giving-up path, erasing its marks
    /// so the other process is not blocked — and `None` is returned.
    ///
    /// Aborting is sound because it is exactly the Figure 1 lose move; the
    /// abortable configurations are model-checked in the `anonreg` test
    /// suite.
    pub fn try_enter(&mut self, max_ops: u64) -> Option<LockGuard<'_, M>> {
        if self
            .driver
            .run_until_bounded(|m| m.section() == Section::Critical, max_ops)
        {
            return Some(LockGuard { handle: self });
        }
        // Timed out: abort and drive the machine back to its remainder.
        // The abort path is wait-free (one cleanup pass), so this is
        // bounded.
        self.driver.machine_mut().request_abort();
        let parked = self.driver.run_until(|m| m.section() == Section::Remainder);
        debug_assert!(parked);
        None
    }

    /// Total atomic operations this handle has performed.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.driver.report().ops()
    }
}

/// Holds the critical section; released on drop (the exit code is
/// wait-free, so the drop performs a bounded number of writes and cannot
/// block).
#[derive(Debug)]
pub struct LockGuard<'a, M: LockMachine> {
    handle: &'a mut LockHandle<M>,
}

impl<M: LockMachine> Drop for LockGuard<'_, M> {
    fn drop(&mut self) {
        let released = self
            .handle
            .driver
            .run_until(|m| m.section() == Section::Remainder);
        debug_assert!(released);
    }
}

/// A fault-injected handle on an [`AnonymousLock`]
/// (see [`AnonymousLock::faulty_handle`]).
///
/// Because the process can crash at any machine step, entry and exit are
/// explicit outcome-returning calls rather than a guard: a crashed
/// process's drop could not run the exit protocol without violating §2's
/// "never writes again". Like a plain handle, dropping one releases its
/// pid and slot (a crashed process's registers stay as written — a
/// replacement handle may therefore block until its budget expires, which
/// is exactly the behavior the stress harness measures).
#[derive(Debug)]
pub struct FaultyLockHandle<M: LockMachine> {
    driver: FaultyDriver<M, LockRegisters>,
    _seat: Seat,
}

impl<M: LockMachine> FaultyLockHandle<M> {
    /// Drives the doorway until the critical section is reached
    /// (`Satisfied`), the process crashes, or `max_steps` machine steps
    /// elapse (`OutOfBudget`; unlike [`LockHandle::try_enter`] the
    /// attempt is *not* aborted, so the caller can retry or
    /// [`abort`](FaultyLockHandle::abort) explicitly).
    pub fn try_enter(&mut self, max_steps: u64) -> DriveOutcome {
        self.driver
            .run_until_bounded(|m| m.section() == Section::Critical, max_steps)
    }

    /// Leaves the critical section, driving the wait-free exit code until
    /// the machine is back in its remainder (`Satisfied`) — unless a
    /// scheduled fault crashes it mid-exit.
    pub fn exit(&mut self, max_steps: u64) -> DriveOutcome {
        self.driver
            .run_until_bounded(|m| m.section() == Section::Remainder, max_steps)
    }

    /// Abandons a pending entry attempt through the algorithm's own lose
    /// path, erasing this process's marks (see
    /// [`LockHandle::try_enter`]).
    pub fn abort(&mut self, max_steps: u64) -> DriveOutcome {
        if let Some(machine) = self.driver.machine_mut() {
            machine.request_abort();
        }
        self.exit(max_steps)
    }

    /// Has the process crashed?
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.driver.is_crashed()
    }

    /// The faults injected so far, in firing order.
    #[must_use]
    pub fn fault_log(&self) -> &[FaultRecord] {
        self.driver.fault_log()
    }

    /// Machine incarnations started (1 = never restarted).
    #[must_use]
    pub fn incarnations(&self) -> u64 {
        self.driver.incarnations()
    }
}

/// The Figure 1 memory-anonymous mutual exclusion lock for **two** threads,
/// over `m` registers; `m` must be odd and at least 3 (Theorem 3.1).
///
/// # Example
///
/// ```
/// use anonreg_runtime::AnonymousMutex;
/// use anonreg_model::Pid;
///
/// let lock = AnonymousMutex::new(5)?;
/// let mut a = lock.handle(Pid::new(1).unwrap())?;
/// let mut b = lock.handle(Pid::new(2).unwrap())?;
/// let counter = std::sync::atomic::AtomicU64::new(0);
/// std::thread::scope(|s| {
///     for handle in [&mut a, &mut b] {
///         s.spawn(|| {
///             for _ in 0..100 {
///                 let _guard = handle.enter();
///                 counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
///             }
///         });
///     }
/// });
/// assert_eq!(counter.into_inner(), 200);
/// # Ok::<(), anonreg_runtime::RuntimeError>(())
/// ```
pub type AnonymousMutex = AnonymousLock<AnonMutex>;
/// One thread's handle on an [`AnonymousMutex`].
pub type MutexHandle = LockHandle<AnonMutex>;
/// Holds an [`AnonymousMutex`]'s critical section; released on drop.
pub type MutexGuard<'a> = LockGuard<'a, AnonMutex>;
/// A fault-injected handle on an [`AnonymousMutex`].
pub type FaultyMutexHandle = FaultyLockHandle<AnonMutex>;

/// The hybrid lock: `m` anonymous registers **plus one named register** —
/// the smallest instance of the paper's §8 "some named, some unnamed"
/// model. Works for every `m ≥ 2`, *even values included*, which the pure
/// anonymous model provably cannot achieve (Theorem 3.1).
///
/// Each handle permutes the `m` anonymous registers randomly; the named
/// tie-breaker is pinned to the same physical slot for everyone — that one
/// agreed name is the entire difference between the models. Restarts of a
/// faulty handle re-permute only the anonymous registers.
///
/// Correctness is established by exhaustive model checking (see
/// `anonreg::hybrid` and experiment E11).
pub type HybridAnonymousMutex = AnonymousLock<HybridMutex>;
/// One thread's handle on a [`HybridAnonymousMutex`].
pub type HybridMutexHandle = LockHandle<HybridMutex>;
/// Holds a [`HybridAnonymousMutex`]'s critical section; released on drop.
pub type HybridMutexGuard<'a> = LockGuard<'a, HybridMutex>;
/// A fault-injected handle on a [`HybridAnonymousMutex`].
pub type FaultyHybridMutexHandle = FaultyLockHandle<HybridMutex>;

// ---------------------------------------------------------------------------
// One-shot sessions
// ---------------------------------------------------------------------------

/// A one-shot machine [`AnonymousOneShot`] can drive: `n` participants
/// over `2n − 1` registers, each running one operation that ends in one
/// event. Holds what differs between the one-shot families.
pub trait OneShotMachine: Machine + 'static {
    /// The register type the object's memory is made of.
    type Register: Register<Self::Value> + 'static;
    /// What a participant brings to its operation (`()` if nothing).
    type Input: Copy + Send + 'static;
    /// What the operation returns.
    type Output;

    /// Whether a restarted incarnation may stand in for a crashed one.
    /// With `false`, [`OneShotHandle::run_with_faults`] refuses plans that
    /// restart the participant.
    const RESTARTABLE: bool = true;

    /// Rejects an input or identifier the machine or its registers cannot
    /// carry; accepts everything by default.
    ///
    /// # Errors
    ///
    /// The family's [`RuntimeError`] for the rejected value.
    fn validate(_pid: Pid, _input: Self::Input) -> Result<(), RuntimeError> {
        Ok(())
    }

    /// The machine for `pid` among `n` participants, for an input that
    /// [`validate`](OneShotMachine::validate) accepted.
    fn for_pid(pid: Pid, n: usize, input: Self::Input) -> Self;

    /// The operation's result, from the machine's event.
    fn output(event: Self::Event) -> Self::Output;
}

/// A memory-anonymous one-shot object for up to `n` threads over `2n − 1`
/// registers, generic over its [`OneShotMachine`]; see
/// [`AnonymousConsensus`], [`AnonymousElection`] and
/// [`AnonymousRenaming`].
#[derive(Debug)]
pub struct AnonymousOneShot<M: OneShotMachine> {
    memory: AnonymousMemory<M::Register>,
    n: usize,
    salt: AtomicUsize,
    pids: PidRegistry,
    cell: Arc<FaultCell>,
}

impl<M: OneShotMachine> AnonymousOneShot<M> {
    /// Allocates an object for up to `n` participants.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoProcesses`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, RuntimeError> {
        if n == 0 {
            return Err(RuntimeError::NoProcesses);
        }
        Ok(AnonymousOneShot {
            memory: AnonymousMemory::new(2 * n - 1),
            n,
            salt: AtomicUsize::new(0),
            pids: PidRegistry::default(),
            cell: Arc::default(),
        })
    }

    /// Creates a participant handle with a fresh random register view.
    /// The identifier is released when the handle is dropped or consumed
    /// by its operation.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::DuplicatePid`] if the identifier is already held by
    /// a live handle of this object.
    pub fn handle(&self, pid: Pid) -> Result<OneShotHandle<M>, RuntimeError> {
        let lease = claim_pid(&self.pids, pid)?;
        let salt = self.salt.fetch_add(1, Ordering::Relaxed) as u64;
        Ok(OneShotHandle {
            memory: self.memory.clone(),
            pid,
            n: self.n,
            salt,
            cell: Arc::clone(&self.cell),
            _lease: lease,
        })
    }
}

/// One thread's handle on an [`AnonymousOneShot`], consumed by its one
/// operation.
#[derive(Debug)]
pub struct OneShotHandle<M: OneShotMachine> {
    memory: AnonymousMemory<M::Register>,
    pid: Pid,
    n: usize,
    salt: u64,
    cell: Arc<FaultCell>,
    _lease: PidLease,
}

impl<M: OneShotMachine> OneShotHandle<M> {
    /// This participant's incarnation factory for `input`.
    fn factory(&self, input: M::Input) -> impl FnMut(u64) -> (M, MemoryView<M::Register>) + Send {
        let (memory, pid, n, salt) = (self.memory.clone(), self.pid, self.n, self.salt);
        move |incarnation| {
            let view = minted_view(&memory, memory.len(), pid, salt, incarnation);
            (M::for_pid(pid, n, input), view)
        }
    }

    /// Runs the operation with `input` and blocks until it outputs.
    ///
    /// Runs with randomized backoff: obstruction freedom guarantees
    /// termination only in solo windows, which backoff manufactures with
    /// probability 1.
    ///
    /// # Errors
    ///
    /// Whatever [`OneShotMachine::validate`] rejects.
    pub fn run(self, input: M::Input) -> Result<M::Output, RuntimeError> {
        M::validate(self.pid, input)?;
        let (machine, view) = self.factory(input)(0);
        let mut driver = Driver::new(machine, view).with_backoff(Backoff::standard());
        let event = driver
            .run_until_event()
            .expect("a one-shot machine outputs before halting");
        Ok(M::output(event))
    }

    /// Runs the operation under `plan`'s fault schedule for this pid.
    /// Returns `Ok(Some(output))` once the operation outputs, `Ok(None)` if
    /// the process crashed or exhausted `max_steps` machine steps first.
    /// Restarted incarnations rerun the operation under a fresh random
    /// view.
    ///
    /// # Errors
    ///
    /// Whatever [`OneShotMachine::validate`] rejects;
    /// [`RuntimeError::RestartRefused`] if `plan` restarts this pid and
    /// the family is not [`RESTARTABLE`](OneShotMachine::RESTARTABLE).
    pub fn run_with_faults(
        self,
        input: M::Input,
        plan: &FaultPlan,
        max_steps: u64,
    ) -> Result<Option<M::Output>, RuntimeError> {
        M::validate(self.pid, input)?;
        let restarts = plan
            .for_pid(self.pid)
            .iter()
            .any(|point| point.kind == FaultKind::Restart);
        if restarts && !M::RESTARTABLE {
            return Err(RuntimeError::RestartRefused { pid: self.pid });
        }
        let factory = self.factory(input);
        let mut driver = FaultyDriver::new(self.pid, factory, plan, Arc::clone(&self.cell))
            .with_backoff(Backoff::standard());
        Ok(driver.next_event(max_steps).map(M::output))
    }
}

impl OneShotMachine for AnonConsensus {
    type Register = PackedAtomicRegister<ConsRecord>;
    type Input = u64;
    type Output = u64;

    /// Input 0 is reserved; the input and the pid share one 64-bit
    /// register, so each must fit in 32 bits.
    fn validate(pid: Pid, input: u64) -> Result<(), RuntimeError> {
        if input == 0 {
            return Err(RuntimeError::ZeroInput);
        }
        check_packable(input)?;
        check_packable(pid.get())
    }

    fn for_pid(pid: Pid, n: usize, input: u64) -> Self {
        AnonConsensus::new(pid, n, input).expect("inputs validated above")
    }

    fn output(ConsensusEvent::Decide(value): ConsensusEvent) -> u64 {
        value
    }
}

/// The Figure 2 memory-anonymous consensus object for `n` threads over
/// `2n − 1` packed atomic registers.
///
/// See the crate-level example. Identifiers and proposals must fit in 32
/// bits (they share one 64-bit atomic register).
pub type AnonymousConsensus = AnonymousOneShot<AnonConsensus>;
/// One thread's handle on an [`AnonymousConsensus`].
pub type ConsensusHandle = OneShotHandle<AnonConsensus>;

impl ConsensusHandle {
    /// Proposes `input` and blocks until a decision is reached. All
    /// deciders return the same value, which is some participant's input.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ZeroInput`] for input 0;
    /// [`RuntimeError::ValueTooWide`] if `input` or the pid exceeds 32
    /// bits.
    pub fn propose(self, input: u64) -> Result<u64, RuntimeError> {
        self.run(input)
    }

    /// Proposes `input` under `plan`'s fault schedule for this pid (see
    /// [`run_with_faults`](OneShotHandle::run_with_faults)). Restarts are
    /// safe: Figure 2's guarantees hold for any set of distinct ids, and a
    /// restarted process replaces only itself.
    ///
    /// # Errors
    ///
    /// Same input validation as [`propose`](ConsensusHandle::propose).
    pub fn propose_with_faults(
        self,
        input: u64,
        plan: &FaultPlan,
        max_steps: u64,
    ) -> Result<Option<u64>, RuntimeError> {
        self.run_with_faults(input, plan, max_steps)
    }
}

impl OneShotMachine for AnonElection {
    type Register = PackedAtomicRegister<ConsRecord>;
    type Input = ();
    type Output = Pid;

    /// The pid rides in a packed register, so it must fit in 32 bits.
    fn validate(pid: Pid, (): ()) -> Result<(), RuntimeError> {
        check_packable(pid.get())
    }

    fn for_pid(pid: Pid, n: usize, (): ()) -> Self {
        AnonElection::new(pid, n).expect("n validated at construction")
    }

    fn output(ElectionEvent::Elected(leader): ElectionEvent) -> Pid {
        leader
    }
}

/// Memory-anonymous leader election (§4 note): consensus on identifiers.
pub type AnonymousElection = AnonymousOneShot<AnonElection>;
/// One thread's handle on an [`AnonymousElection`].
pub type ElectionHandle = OneShotHandle<AnonElection>;

impl ElectionHandle {
    /// Participates in the election and blocks until the leader is known.
    /// All participants return the same leader, which is one of them.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ValueTooWide`] if the pid exceeds 32 bits.
    pub fn elect(self) -> Result<Pid, RuntimeError> {
        self.run(())
    }

    /// Participates under `plan`'s fault schedule for this pid; restarts
    /// are safe, as for consensus on identifiers (see
    /// [`propose_with_faults`](ConsensusHandle::propose_with_faults)).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ValueTooWide`] if the pid exceeds 32 bits.
    pub fn elect_with_faults(
        self,
        plan: &FaultPlan,
        max_steps: u64,
    ) -> Result<Option<Pid>, RuntimeError> {
        self.run_with_faults((), plan, max_steps)
    }
}

impl OneShotMachine for AnonRenaming {
    type Register = LockRegister<RenRecord>;
    type Input = ();
    type Output = u32;

    /// A crashed incarnation may already hold a name, and its replacement
    /// would claim a second one.
    const RESTARTABLE: bool = false;

    fn for_pid(pid: Pid, n: usize, (): ()) -> Self {
        AnonRenaming::new(pid, n).expect("n validated at construction")
    }

    fn output(RenamingEvent::Named(name): RenamingEvent) -> u32 {
        name
    }
}

/// The Figure 3 memory-anonymous adaptive perfect renaming object: `k ≤ n`
/// participating threads acquire distinct names from `{1..k}`.
///
/// Figure 3's registers carry unbounded history sets, so this facade uses
/// [`LockRegister`]s (linearizable, lock-based — the documented
/// substitution for the paper's unbounded atomic registers).
///
/// # Example
///
/// ```
/// use anonreg_runtime::AnonymousRenaming;
/// use anonreg_model::Pid;
///
/// let renaming = AnonymousRenaming::new(3)?;
/// let names = std::thread::scope(|s| {
///     let handles: Vec<_> = [71u64, 9002, 13]
///         .into_iter()
///         .map(|id| {
///             let h = renaming.handle(Pid::new(id).unwrap()).unwrap();
///             s.spawn(move || h.acquire())
///         })
///         .collect();
///     handles.into_iter().map(|t| t.join().unwrap()).collect::<Vec<_>>()
/// });
/// let mut sorted = names.clone();
/// sorted.sort_unstable();
/// assert_eq!(sorted, vec![1, 2, 3]); // perfect renaming
/// # Ok::<(), anonreg_runtime::RuntimeError>(())
/// ```
pub type AnonymousRenaming = AnonymousOneShot<AnonRenaming>;
/// One thread's handle on an [`AnonymousRenaming`].
pub type RenamingHandle = OneShotHandle<AnonRenaming>;

impl RenamingHandle {
    /// Acquires a new name from `{1..k}` where `k` is the number of
    /// participants, blocking until done.
    #[must_use]
    pub fn acquire(self) -> u32 {
        self.run(()).expect("renaming accepts every pid")
    }

    /// Acquires a name under `plan`'s fault schedule for this pid.
    /// Returns `Ok(None)` if the process crashed or exhausted `max_steps`
    /// machine steps before being named.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RestartRefused`] if `plan` restarts this pid:
    /// renaming accepts crashes and stalls only.
    pub fn acquire_with_faults(
        self,
        plan: &FaultPlan,
        max_steps: u64,
    ) -> Result<Option<u32>, RuntimeError> {
        self.run_with_faults((), plan, max_steps)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Barrier;

    use super::*;

    fn pid(n: u64) -> Pid {
        Pid::new(n).unwrap()
    }

    /// A third concurrent handle is refused, whichever the lock family.
    fn allows_exactly_two_handles<M: LockMachine>(m: usize) {
        let lock = AnonymousLock::<M>::new(m).unwrap();
        let _a = lock.handle(pid(1)).unwrap();
        let _b = lock.handle(pid(2)).unwrap();
        assert_eq!(
            lock.handle(pid(3)).unwrap_err(),
            RuntimeError::TooManyHandles
        );
    }

    /// Two threads cycling through the critical section never overlap.
    fn two_threads_exclude<M: LockMachine>(m: usize, rounds: usize) {
        let lock = AnonymousLock::<M>::new(m).unwrap();
        let mut a = lock.handle(pid(10)).unwrap();
        let mut b = lock.handle(pid(20)).unwrap();
        let in_cs = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for handle in [&mut a, &mut b] {
                s.spawn(|| {
                    for _ in 0..rounds {
                        let _guard = handle.enter();
                        let now = in_cs.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "overlap with m={m}");
        assert!(a.ops() > 0 && b.ops() > 0);
    }

    /// `try_enter` succeeds uncontended, times out (aborting cleanly) while
    /// the other handle holds the lock, and both handles re-enter after.
    fn try_enter_times_out_and_recovers<M: LockMachine>(m: usize, contended_budget: u64) {
        let lock = AnonymousLock::<M>::new(m).unwrap();
        let mut a = lock.handle(pid(1)).unwrap();
        let mut b = lock.handle(pid(2)).unwrap();
        let guard = a.try_enter(1_000).expect("uncontended try_enter succeeds");
        assert!(b.try_enter(contended_budget).is_none());
        // After the abort, b left no marks: releasing a and retrying works.
        drop(guard);
        drop(b.try_enter(10_000).expect("lock is free again"));
        drop(a.try_enter(10_000).expect("a re-enters"));
    }

    /// A faulty handle restarted mid-doorway enters and exits as its
    /// second incarnation.
    fn faulty_handle_restarts<M: LockMachine>(m: usize) {
        let lock = AnonymousLock::<M>::new(m).unwrap();
        let plan = FaultPlan::new(0).restart(pid(1), 2);
        let mut h = lock.faulty_handle(pid(1), &plan).unwrap();
        assert_eq!(h.try_enter(10_000), DriveOutcome::Satisfied);
        assert_eq!(h.exit(10_000), DriveOutcome::Satisfied);
        assert_eq!(h.incarnations(), 2);
        assert_eq!(h.fault_log().len(), 1);
        assert!(!h.is_crashed());
    }

    #[test]
    fn mutex_rejects_bad_register_counts() {
        for m in [0, 1, 2, 4, 6] {
            assert_eq!(
                AnonymousMutex::new(m).unwrap_err(),
                RuntimeError::BadRegisterCount { m }
            );
        }
        assert!(AnonymousMutex::new(3).is_ok());
        assert!(AnonymousMutex::new(9).is_ok());
    }

    #[test]
    fn mutex_allows_exactly_two_handles() {
        allows_exactly_two_handles::<AnonMutex>(3);
    }

    #[test]
    fn slot_claims_never_exceed_the_cap() {
        // Three claimers race for two slots and sample the counter while
        // they hold their claim (or refusal): a refused claim must never
        // show up as a third live slot, which would make a concurrent
        // legitimate claim fail.
        let handles = Arc::new(AtomicUsize::new(0));
        let over_cap = AtomicUsize::new(0);
        let start = Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..200_000 {
                        let claim = claim_slot(&handles, 2);
                        if handles.load(Ordering::Acquire) > 2 {
                            over_cap.fetch_add(1, Ordering::Relaxed);
                        }
                        drop(claim);
                    }
                });
            }
        });
        assert_eq!(over_cap.into_inner(), 0, "the slot counter exceeded 2");
        assert_eq!(handles.load(Ordering::Acquire), 0);
    }

    #[test]
    fn mutex_single_thread_reenters() {
        let lock = AnonymousMutex::new(3).unwrap();
        let mut h = lock.handle(pid(1)).unwrap();
        for _ in 0..10 {
            let guard = h.enter();
            drop(guard);
        }
        assert!(h.ops() > 0);
    }

    #[test]
    fn mutex_two_threads_exclude() {
        two_threads_exclude::<AnonMutex>(5, 200);
    }

    #[test]
    fn try_enter_succeeds_uncontended_and_times_out_contended() {
        try_enter_times_out_and_recovers::<AnonMutex>(3, 500);
    }

    #[test]
    fn consensus_agrees_across_threads() {
        for n in [2usize, 3, 5] {
            let consensus = AnonymousConsensus::new(n).unwrap();
            let decisions: Vec<u64> = std::thread::scope(|s| {
                let joins: Vec<_> = (0..n)
                    .map(|i| {
                        let h = consensus.handle(pid(i as u64 * 100 + 7)).unwrap();
                        s.spawn(move || h.propose(i as u64 + 1).unwrap())
                    })
                    .collect();
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
            let first = decisions[0];
            assert!(
                decisions.iter().all(|&d| d == first),
                "n={n}: {decisions:?}"
            );
            assert!((1..=n as u64).contains(&first));
        }
    }

    #[test]
    fn consensus_validates_inputs() {
        let consensus = AnonymousConsensus::new(2).unwrap();
        assert_eq!(
            consensus.handle(pid(1)).unwrap().propose(0).unwrap_err(),
            RuntimeError::ZeroInput
        );
        assert!(matches!(
            consensus
                .handle(pid(2))
                .unwrap()
                .propose(1 << 40)
                .unwrap_err(),
            RuntimeError::ValueTooWide { .. }
        ));
        let wide_pid = consensus.handle(pid(1 << 40)).unwrap();
        assert!(matches!(
            wide_pid.propose(3).unwrap_err(),
            RuntimeError::ValueTooWide { .. }
        ));
    }

    #[test]
    fn election_elects_a_participant() {
        let election = AnonymousElection::new(3).unwrap();
        let ids = [400u64, 500, 600];
        let leaders: Vec<Pid> = std::thread::scope(|s| {
            let joins: Vec<_> = ids
                .iter()
                .map(|&id| {
                    let h = election.handle(pid(id)).unwrap();
                    s.spawn(move || h.elect().unwrap())
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let first = leaders[0];
        assert!(leaders.iter().all(|&l| l == first));
        assert!(ids.contains(&first.get()));
    }

    #[test]
    fn renaming_is_perfect_under_contention() {
        for n in [2usize, 4] {
            let renaming = AnonymousRenaming::new(n).unwrap();
            let mut names: Vec<u32> = std::thread::scope(|s| {
                let joins: Vec<_> = (0..n)
                    .map(|i| {
                        let h = renaming.handle(pid(1000 + i as u64 * 31)).unwrap();
                        s.spawn(move || h.acquire())
                    })
                    .collect();
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
            names.sort_unstable();
            let expected: Vec<u32> = (1..=n as u32).collect();
            assert_eq!(names, expected, "n={n}");
        }
    }

    #[test]
    fn renaming_is_adaptive_with_few_participants() {
        // k = 2 of n = 5 potential participants: names within {1, 2}.
        let renaming = AnonymousRenaming::new(5).unwrap();
        let mut names: Vec<u32> = std::thread::scope(|s| {
            let joins: Vec<_> = [11u64, 22]
                .into_iter()
                .map(|id| {
                    let h = renaming.handle(pid(id)).unwrap();
                    s.spawn(move || h.acquire())
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        names.sort_unstable();
        assert_eq!(names, vec![1, 2]);
    }

    #[test]
    fn hybrid_mutex_validates_and_limits_handles() {
        assert_eq!(
            HybridAnonymousMutex::new(1).unwrap_err(),
            RuntimeError::BadRegisterCount { m: 1 }
        );
        allows_exactly_two_handles::<HybridMutex>(2);
    }

    #[test]
    fn hybrid_mutex_excludes_with_even_m() {
        // The headline of the hybrid model: even m works on real threads.
        for m in [2usize, 4] {
            two_threads_exclude::<HybridMutex>(m, 150);
        }
    }

    #[test]
    fn zero_process_objects_rejected() {
        assert!(AnonymousConsensus::new(0).is_err());
        assert!(AnonymousElection::new(0).is_err());
        assert!(AnonymousRenaming::new(0).is_err());
    }

    #[test]
    fn hybrid_try_enter_times_out_and_recovers() {
        try_enter_times_out_and_recovers::<HybridMutex>(2, 400);
    }

    #[test]
    fn duplicate_pids_are_rejected_everywhere() {
        let lock = AnonymousMutex::new(3).unwrap();
        let _a = lock.handle(pid(7)).unwrap();
        assert_eq!(
            lock.handle(pid(7)).unwrap_err(),
            RuntimeError::DuplicatePid { pid: pid(7) }
        );

        let consensus = AnonymousConsensus::new(2).unwrap();
        let _c = consensus.handle(pid(7)).unwrap();
        assert!(matches!(
            consensus.handle(pid(7)).unwrap_err(),
            RuntimeError::DuplicatePid { .. }
        ));

        let election = AnonymousElection::new(2).unwrap();
        let _e = election.handle(pid(7)).unwrap();
        assert!(election.handle(pid(7)).is_err());

        let renaming = AnonymousRenaming::new(2).unwrap();
        let _r = renaming.handle(pid(7)).unwrap();
        assert!(renaming.handle(pid(7)).is_err());

        let hybrid = HybridAnonymousMutex::new(2).unwrap();
        let _h = hybrid.handle(pid(7)).unwrap();
        assert!(hybrid.handle(pid(7)).is_err());
    }

    #[test]
    fn dropping_a_mutex_handle_releases_pid_and_slot() {
        let lock = AnonymousMutex::new(3).unwrap();
        let a = lock.handle(pid(7)).unwrap();
        // Same pid is rejected while the handle is live...
        assert!(matches!(
            lock.handle(pid(7)).unwrap_err(),
            RuntimeError::DuplicatePid { .. }
        ));
        drop(a);
        // ...and accepted again once it is dropped.
        let mut a2 = lock.handle(pid(7)).unwrap();
        drop(a2.enter());
        drop(a2);

        // The slot is released too: cycling through many handles works as
        // long as at most two are ever live.
        let _b = lock.handle(pid(8)).unwrap();
        let c = lock.handle(pid(9)).unwrap();
        assert_eq!(
            lock.handle(pid(10)).unwrap_err(),
            RuntimeError::TooManyHandles
        );
        drop(c);
        let _d = lock.handle(pid(10)).unwrap();
    }

    #[test]
    fn dropping_a_consensus_handle_releases_its_pid() {
        let consensus = AnonymousConsensus::new(2).unwrap();
        let first = consensus.handle(pid(7)).unwrap();
        assert!(consensus.handle(pid(7)).is_err());
        drop(first);
        let second = consensus.handle(pid(7)).unwrap();
        assert_eq!(second.propose(5).unwrap(), 5);
        // propose consumed the handle, so the pid is free once more.
        assert!(consensus.handle(pid(7)).is_ok());
    }

    #[test]
    fn dropping_election_and_renaming_handles_releases_pids() {
        let election = AnonymousElection::new(2).unwrap();
        drop(election.handle(pid(3)).unwrap());
        assert!(election.handle(pid(3)).is_ok());

        let renaming = AnonymousRenaming::new(2).unwrap();
        drop(renaming.handle(pid(3)).unwrap());
        assert!(renaming.handle(pid(3)).is_ok());

        let hybrid = HybridAnonymousMutex::new(2).unwrap();
        drop(hybrid.handle(pid(3)).unwrap());
        assert!(hybrid.handle(pid(3)).is_ok());
    }

    #[test]
    fn faulty_mutex_handle_crashes_on_schedule() {
        let lock = AnonymousMutex::new(3).unwrap();
        // Crash after 2 machine steps: mid-doorway, before Enter.
        let plan = FaultPlan::new(0).crash(pid(1), 2);
        let mut h = lock.faulty_handle(pid(1), &plan).unwrap();
        assert_eq!(h.try_enter(10_000), DriveOutcome::Crashed);
        assert!(h.is_crashed());
        assert_eq!(h.fault_log().len(), 1);
        // A crashed handle stays crashed.
        assert_eq!(h.exit(10_000), DriveOutcome::Crashed);
    }

    #[test]
    fn faulty_mutex_handle_without_faults_cycles() {
        let lock = AnonymousMutex::new(3).unwrap();
        let plan = FaultPlan::new(0);
        let mut h = lock.faulty_handle(pid(1), &plan).unwrap();
        for _ in 0..3 {
            assert_eq!(h.try_enter(10_000), DriveOutcome::Satisfied);
            assert_eq!(h.exit(10_000), DriveOutcome::Satisfied);
        }
        assert!(!h.is_crashed());
        assert_eq!(h.incarnations(), 1);
    }

    #[test]
    fn faulty_hybrid_handle_cycles_and_aborts() {
        let lock = HybridAnonymousMutex::new(2).unwrap();
        let mut a = lock.faulty_handle(pid(1), &FaultPlan::new(0)).unwrap();
        assert_eq!(a.try_enter(10_000), DriveOutcome::Satisfied);
        // The other handle cannot enter while a holds the lock; aborting
        // parks it cleanly so a can exit and b can enter.
        let mut b = lock.faulty_handle(pid(2), &FaultPlan::new(0)).unwrap();
        assert_eq!(b.try_enter(400), DriveOutcome::OutOfBudget);
        assert_eq!(b.abort(10_000), DriveOutcome::Satisfied);
        assert_eq!(a.exit(10_000), DriveOutcome::Satisfied);
        assert_eq!(b.try_enter(10_000), DriveOutcome::Satisfied);
        assert_eq!(b.exit(10_000), DriveOutcome::Satisfied);
        assert!(a.fault_log().is_empty());
    }

    #[test]
    fn faulty_lock_handles_restart_and_cycle() {
        faulty_handle_restarts::<AnonMutex>(3);
        faulty_handle_restarts::<HybridMutex>(2);
    }

    #[test]
    fn consensus_with_faults_crashed_proposer_returns_none() {
        let consensus = AnonymousConsensus::new(2).unwrap();
        let plan = FaultPlan::new(0).crash(pid(1), 1);
        let crashed = consensus
            .handle(pid(1))
            .unwrap()
            .propose_with_faults(5, &plan, 100_000)
            .unwrap();
        assert_eq!(crashed, None);
        // The survivor still decides (solo): validity gives its own input
        // unless the crashed proposer's value was already visible.
        let survivor = consensus
            .handle(pid(2))
            .unwrap()
            .propose_with_faults(6, &plan, 1_000_000)
            .unwrap();
        let decided = survivor.expect("fault-free survivor decides");
        assert!(decided == 5 || decided == 6);
    }

    #[test]
    fn election_and_renaming_with_empty_plans_complete() {
        let election = AnonymousElection::new(2).unwrap();
        let leader = election
            .handle(pid(4))
            .unwrap()
            .elect_with_faults(&FaultPlan::new(0), 1_000_000)
            .unwrap();
        assert_eq!(leader, Some(pid(4)));

        let renaming = AnonymousRenaming::new(2).unwrap();
        let name = renaming
            .handle(pid(4))
            .unwrap()
            .acquire_with_faults(&FaultPlan::new(0), 1_000_000);
        assert_eq!(name, Ok(Some(1)));
    }

    #[test]
    fn renaming_refuses_restart_plans() {
        let renaming = AnonymousRenaming::new(2).unwrap();
        let plan = FaultPlan::new(0).restart(pid(4), 3);
        assert_eq!(
            renaming
                .handle(pid(4))
                .unwrap()
                .acquire_with_faults(&plan, 1_000_000),
            Err(RuntimeError::RestartRefused { pid: pid(4) })
        );
        // The refusal ran nothing, and a pid the plan does not restart
        // is named as usual.
        let name = renaming
            .handle(pid(5))
            .unwrap()
            .acquire_with_faults(&plan, 1_000_000);
        assert_eq!(name, Ok(Some(1)));
    }

    #[test]
    fn renaming_names_under_crash_and_stall_plans() {
        let renaming = AnonymousRenaming::new(2).unwrap();
        let plan = FaultPlan::new(0).crash(pid(2), 0).stall(pid(1), 2, 4);
        let crashed = renaming
            .handle(pid(2))
            .unwrap()
            .acquire_with_faults(&plan, 1_000_000);
        assert_eq!(crashed, Ok(None));
        let named = renaming
            .handle(pid(1))
            .unwrap()
            .acquire_with_faults(&plan, 1_000_000);
        assert_eq!(named, Ok(Some(1)));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            RuntimeError::BadRegisterCount { m: 2 },
            RuntimeError::NoProcesses,
            RuntimeError::TooManyHandles,
            RuntimeError::ZeroInput,
            RuntimeError::ValueTooWide { value: 1 << 40 },
            RuntimeError::DuplicatePid { pid: pid(3) },
            RuntimeError::RestartRefused { pid: pid(3) },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
