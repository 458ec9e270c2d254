//! Deduplication substrate of the explorer.
//!
//! Three cooperating pieces:
//!
//! * [`FpTable`] — a lock-free open-addressing fingerprint table that
//!   starts at [`MIN_SLOTS`] and doubles whenever half its slots are
//!   claimed, so its memory follows the states a run interns, not the
//!   run's `max_states` cap. Each 16-byte slot is a pair of atomics: `fp`
//!   holds the low half of the state's 128-bit FNV-1a fingerprint (the
//!   probe key) and `meta` packs `(id + 1) << 32 | hi32` once the entry is
//!   published. Insertion claims a slot with a single compare-and-swap and
//!   publishes the id with a release store, exactly the Arc-style
//!   publication idiom: the writer releases after the payload (the
//!   canonical code and its locator) is in place, and readers acquire
//!   through `meta` before touching any of it. Beside the slots the table
//!   keeps one 8-byte locator per id, saying where the [`CodeStore`] put
//!   the id's code, and grows the locators with the slots. Probes borrow
//!   the caller's code; the store copies it only for a freshly claimed id.
//! * [`InMemory`] — the default code store: one append-only arena per
//!   worker. An arena is a directory of chunks of atomic words, allocated
//!   on first use; a record is one length word followed by the code
//!   packed into little-endian words. Only the worker that owns an arena
//!   appends to it (it holds the arena's one [`Writer`]); any worker reads
//!   it. Codes cost no allocation of their own, and a run frees them a
//!   chunk at a time.
//! * [`SpillStore`] — an append-only on-disk code store behind a sharded
//!   LRU in-memory tier, so canonical codes no longer pin the run's state
//!   count to RAM. Codes append to per-worker unlinked temp files (the
//!   kernel reclaims them when the run drops the handles); a flushed
//!   watermark per file tells readers which byte ranges `read_at` may
//!   touch. A candidate whose code is neither cached nor yet flushed is
//!   matched on its 128-bit fingerprint alone and counted as
//!   `dedup_unverified` (collision probability < 2⁻⁷⁰ at 10⁸ states).
//!
//! # Growth
//!
//! Probers hold a read guard of the table's one `RwLock` across a whole
//! [`Batch`] of interns. Each generation of the table admits claims for
//! half its slots; a prober that finds the budget spent drops its guard,
//! takes the write lock and doubles the table. Every other prober is then
//! outside a batch, and a claimant publishes before it leaves its batch,
//! so no slot is claimed-but-unpublished: the doubling rehashes the
//! stored `(fp, meta)` pairs alone, reads no code, and grows the id-indexed
//! locators to the new budget. Ids never change.
//!
//! # Memory-ordering certificates
//!
//! Every non-SeqCst ordering below cites a note from
//! `anonreg_sanitizer::explorer_site_notes()`:
//!
//! * `ORD-DEDUP-CLAIM-001` — the claim CAS on `fp` is Relaxed/Relaxed:
//!   the claim transfers no payload, only slot ownership, which CAS
//!   atomicity alone guarantees; all payload synchronises through `meta`.
//! * `ORD-DEDUP-META-002` — `meta` is stored Release after the code is
//!   published and loaded Acquire before the code is read: the one true
//!   synchronisation edge of the table (Arc-Impl idiom).
//! * `ORD-DEDUP-SPIN-003` — a reader that observes a claimed slot with
//!   `meta == 0` spins with periodic abort checks; claimants always
//!   publish (the limit path publishes a sentinel), so the spin is
//!   bounded by the claim-to-publish window unless the run is tearing
//!   down.
//! * `ORD-DEDUP-FLUSH-006` — the spill watermark is stored Release after
//!   `write_all_at` returns and loaded Acquire before `read_at`, so a
//!   covered range is durably readable.
//! * `ORD-DEDUP-GROW-008` — the claim budget counter is Relaxed: it only
//!   caps how many slots a generation hands out; the doubling itself
//!   synchronises through the `RwLock`.
//! * `ORD-DEDUP-ARENA-009` — an id's locator and its arena record are
//!   stored Relaxed before `meta`'s Release and loaded Relaxed after its
//!   Acquire: each word is written once, by the claimant, so the meta edge
//!   alone makes the written value the one every reader sees.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock, RwLock, RwLockReadGuard};

use anonreg_model::fingerprint::Fp128;
use anonreg_obs::Metric;

/// Substitute probe key for the (vanishingly rare) fingerprint whose low
/// half is zero — zero marks an empty slot.
const ZERO_KEY_SUBSTITUTE: u64 = 0x9e37_79b9_7f4a_7c15;

/// `meta` sentinel published by a claimant that hit the state limit, so
/// concurrent probers of the same slot stop spinning and abort too.
const LIMIT_META: u64 = u64::MAX;

/// Hard ceiling on table slots (2²⁸ × 16 B = 4 GiB). A run interns at
/// most half this many states, keeping probe chains short at ≤ 50% load.
const MAX_SLOTS: usize = 1 << 28;
/// Slots every table starts with (16 KiB).
const MIN_SLOTS: usize = 1 << 10;

/// A value on cache lines of its own. Words that several workers write
/// (the table's lock and counters, the explorer's shared counters and
/// per-worker queues) each sit in one, so a write by one worker does not
/// evict the words its siblings use. 128 bytes, because x86 prefetchers
/// pull 64-byte lines in adjacent pairs.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(T);

impl<T> Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

#[derive(Default)]
struct Slot {
    /// Low fingerprint half; 0 = empty. Written once by the claim CAS.
    fp: AtomicU64,
    /// `(id + 1) << 32 | hi32` once published; 0 = claimed-unpublished;
    /// [`LIMIT_META`] if the claimant hit the state limit.
    meta: AtomicU64,
}

/// Outcome of a [`Batch::intern`] probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The code was new; this thread claimed the returned id.
    Fresh(u32),
    /// The code was already interned under the returned id.
    Known(u32),
    /// The state limit was reached (by this thread or a concurrent one).
    Limit,
    /// The abort callback fired while waiting on a concurrent publisher.
    Aborted,
}

/// Where interned canonical codes live. The table keeps one `u64`
/// locator per id: the store appends a freshly claimed id's code and says
/// where it went, and hands the locator back when a probe needs the code.
pub(crate) trait CodeStore: Sync {
    /// How many workers append codes; [`FpTable::writers`] makes one
    /// writer for each.
    fn workers(&self) -> usize;

    /// Whether state `id`, stored at `loc`, has canonical code `code`.
    fn is_same(&self, loc: u64, id: u32, code: &[u8]) -> bool;

    /// Appends a copy of `code` for freshly claimed `id` at `tail`, the
    /// calling worker's end of the store, and returns where it went. Runs
    /// before the id is published (ORD-DEDUP-META-002 makes the store
    /// visible to every prober that finds the id). This is the only place
    /// a code is copied out of the caller's buffer, so a probe that finds
    /// its state already interned writes nothing.
    fn publish(&self, tail: &mut Tail, id: u32, code: &[u8]) -> u64;

    /// Emits the store's own counters at the end of a run.
    fn report<P: anonreg_obs::Probe>(&self, _probe: &P) {}
}

/// One worker's end of the code store: its index, and where its next
/// record goes in its in-memory arena (the spill store keeps its own
/// offsets). Only [`FpTable::writers`] makes tails, one per worker.
pub(crate) struct Tail {
    worker: usize,
    chunk: usize,
    /// Word offset in `chunk`.
    at: usize,
}

impl Tail {
    fn new(worker: usize) -> Self {
        Tail {
            worker,
            chunk: 0,
            at: 0,
        }
    }
}

/// Words in each of an arena's first two chunks (4 KiB each). Chunks
/// come in pairs of equal size, each pair twice the size of the one
/// before, so the chunk being filled holds at most about half as much as
/// all the chunks before it, which bounds what its unused rest wastes.
const CHUNK_WORDS: usize = 512;
/// Chunks in an arena's directory (room for 2⁴² words).
const CHUNKS: usize = 64;
/// Locator layout: bits 63..22 = word offset in the chunk, bits 21..16 =
/// chunk, bits 15..0 = worker.
const ARENA_CHUNK_SHIFT: u32 = 16;
const ARENA_AT_SHIFT: u32 = 22;
const ARENA_WORKER_MASK: u64 = (1 << ARENA_CHUNK_SHIFT) - 1;
const ARENA_CHUNK_MASK: u64 = (1 << (ARENA_AT_SHIFT - ARENA_CHUNK_SHIFT)) - 1;

/// Words in arena chunk `k`.
fn chunk_words(k: usize) -> usize {
    CHUNK_WORDS << (k / 2)
}

/// `code` as the words of an arena record's body: little-endian, the last
/// one zero-padded.
fn code_words(code: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let (body, rest) = code.as_chunks::<8>();
    body.iter()
        .map(|bytes| u64::from_le_bytes(*bytes))
        .chain((!rest.is_empty()).then(|| {
            let mut word = [0; 8];
            word[..rest.len()].copy_from_slice(rest);
            u64::from_le_bytes(word)
        }))
}

/// One worker's append-only arena: chunk `k` holds [`chunk_words`]`(k)`
/// words once allocated.
type Arena = [OnceLock<Box<[AtomicU64]>>; CHUNKS];

/// Canonical codes kept in memory, in one append-only arena per worker.
pub(crate) struct InMemory {
    arenas: Box<[Arena]>,
}

impl InMemory {
    /// A store for `workers` workers. Allocates only the chunk
    /// directories; a chunk is allocated when its first record lands.
    pub(crate) fn new(workers: usize) -> Self {
        assert!(
            workers as u64 <= ARENA_WORKER_MASK + 1,
            "a locator packs a 16-bit worker index"
        );
        InMemory {
            arenas: (0..workers)
                .map(|_| std::array::from_fn(|_| OnceLock::new()))
                .collect(),
        }
    }
}

impl CodeStore for InMemory {
    fn workers(&self) -> usize {
        self.arenas.len()
    }

    fn is_same(&self, loc: u64, _id: u32, code: &[u8]) -> bool {
        let worker = (loc & ARENA_WORKER_MASK) as usize;
        let chunk = (loc >> ARENA_CHUNK_SHIFT & ARENA_CHUNK_MASK) as usize;
        let at = (loc >> ARENA_AT_SHIFT) as usize;
        let words = self.arenas[worker][chunk]
            .get()
            .expect("a published record's chunk exists");
        // ORD-DEDUP-ARENA-009: Relaxed loads after the meta Acquire.
        words[at].load(Ordering::Relaxed) == code.len() as u64
            && words[at + 1..]
                .iter()
                .zip(code_words(code))
                .all(|(word, expected)| word.load(Ordering::Relaxed) == expected)
    }

    fn publish(&self, tail: &mut Tail, _id: u32, code: &[u8]) -> u64 {
        let need = 1 + code.len().div_ceil(8);
        // A record never straddles chunks: skip what is left of this one.
        while tail.at + need > chunk_words(tail.chunk) {
            tail.chunk += 1;
            tail.at = 0;
        }
        let k = tail.chunk;
        let words = self.arenas[tail.worker][k]
            .get_or_init(|| (0..chunk_words(k)).map(|_| AtomicU64::new(0)).collect());
        let record = &words[tail.at..tail.at + need];
        // ORD-DEDUP-ARENA-009: written once, published by the meta Release.
        record[0].store(code.len() as u64, Ordering::Relaxed);
        for (word, value) in record[1..].iter().zip(code_words(code)) {
            word.store(value, Ordering::Relaxed);
        }
        let loc = (tail.at as u64) << ARENA_AT_SHIFT
            | (k as u64) << ARENA_CHUNK_SHIFT
            | tail.worker as u64;
        tail.at += need;
        loc
    }
}

/// One generation of the table: its slots and the id-indexed locators.
struct Shared {
    slots: Box<[Slot]>,
    /// `slots.len() / 2` locators — the generation's claim budget, so every
    /// id it hands out has one.
    locs: Vec<AtomicU64>,
}

/// Lock-free open-addressing fingerprint table, grown by doubling.
///
/// Slots are never unclaimed: `fp` and a published `meta` are immutable
/// within a generation, which is what makes the wait-free read path
/// sound; a doubling moves them only while it holds the write lock.
pub(crate) struct FpTable<S: CodeStore> {
    shared: Padded<RwLock<Shared>>,
    /// Slots claimed or being claimed — at most the generation's budget.
    claims: Padded<AtomicUsize>,
    next_id: Padded<AtomicUsize>,
    store: S,
    /// Effective state budget: `min(max_states, MAX_SLOTS / 2)`.
    limit: usize,
    /// Run once, by [`FpTable::writers`].
    writers_made: Once,
}

/// What one pass over the slots found.
enum Found {
    Done(Probe),
    /// The slot at this index was claimed for this id, which still needs
    /// publishing.
    Claimed(usize, u32),
    /// The generation's budget is spent; double the table of this many
    /// slots and probe again.
    Full(usize),
}

impl<S: CodeStore> FpTable<S> {
    pub(crate) fn new(max_states: usize, store: S) -> Self {
        FpTable {
            shared: Padded(RwLock::new(Shared {
                slots: (0..MIN_SLOTS).map(|_| Slot::default()).collect(),
                locs: (0..MIN_SLOTS / 2).map(|_| AtomicU64::default()).collect(),
            })),
            claims: Padded::default(),
            next_id: Padded::default(),
            store,
            limit: max_states.min(MAX_SLOTS / 2),
            writers_made: Once::new(),
        }
    }

    /// The table's writers, one per worker of its store: every intern
    /// goes through one. A table makes them once, so each worker's end of
    /// the store has exactly one writer.
    ///
    /// # Panics
    ///
    /// On a second call.
    pub(crate) fn writers(&self) -> Vec<Writer<'_, S>> {
        let mut first = false;
        self.writers_made.call_once(|| first = true);
        assert!(first, "a table makes its writers once");
        (0..self.store.workers())
            .map(|worker| Writer {
                table: self,
                tail: Tail::new(worker),
            })
            .collect()
    }

    /// The code store behind the table.
    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    /// States interned so far (clamped to the budget).
    pub(crate) fn len(&self) -> usize {
        self.next_id.load(Ordering::Relaxed).min(self.limit)
    }

    /// The current number of slots.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.read().slots.len()
    }

    fn read(&self) -> RwLockReadGuard<'_, Shared> {
        self.shared.read().expect("dedup table lock")
    }

    fn find(
        &self,
        shared: &Shared,
        fp: Fp128,
        code: &[u8],
        should_abort: &impl Fn() -> bool,
    ) -> Found {
        let key = if fp.lo == 0 {
            ZERO_KEY_SUBSTITUTE
        } else {
            fp.lo
        };
        let hi32 = fp.hi as u32;
        let mask = shared.slots.len() - 1;
        let mut idx = (key as usize) & mask;
        loop {
            let slot = &shared.slots[idx];
            let cur = slot.fp.load(Ordering::Relaxed);
            if cur == key {
                // Candidate: spin out the claim-to-publish window, then
                // verify the high fingerprint half and the code itself.
                // ORD-DEDUP-SPIN-003 / ORD-DEDUP-META-002.
                let mut spins = 0u32;
                let meta = loop {
                    let meta = slot.meta.load(Ordering::Acquire);
                    if meta != 0 {
                        break meta;
                    }
                    spins = spins.wrapping_add(1);
                    if spins & 1023 == 0 && should_abort() {
                        return Found::Done(Probe::Aborted);
                    }
                    std::hint::spin_loop();
                };
                if meta == LIMIT_META {
                    return Found::Done(Probe::Limit);
                }
                if meta as u32 == hi32 {
                    let id = (meta >> 32) as u32 - 1;
                    // ORD-DEDUP-ARENA-009: Relaxed after the meta Acquire.
                    let loc = shared.locs[id as usize].load(Ordering::Relaxed);
                    if self.store.is_same(loc, id, code) {
                        return Found::Done(Probe::Known(id));
                    }
                }
                // Different state sharing 64 (or even 96) fingerprint
                // bits: keep probing — it lives (or will live) in a
                // later slot of the same chain.
                idx = (idx + 1) & mask;
            } else if cur == 0 {
                // ORD-DEDUP-GROW-008: Relaxed — the budget counter only
                // bounds claims; the doubling synchronises through the lock.
                if self.claims.fetch_add(1, Ordering::Relaxed) >= shared.locs.len() {
                    self.claims.fetch_sub(1, Ordering::Relaxed);
                    return if shared.slots.len() < MAX_SLOTS {
                        Found::Full(shared.slots.len())
                    } else {
                        Found::Done(Probe::Limit)
                    };
                }
                // ORD-DEDUP-CLAIM-001: Relaxed claim; payload publication
                // is meta's job. On failure re-examine the same slot,
                // which is now permanently nonzero.
                if slot
                    .fp
                    .compare_exchange(0, key, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                    if id >= self.limit {
                        // Claimants always publish, even on the limit
                        // path, so concurrent spinners can't hang.
                        slot.meta.store(LIMIT_META, Ordering::Release);
                        return Found::Done(Probe::Limit);
                    }
                    return Found::Claimed(idx, id as u32);
                }
                // ORD-DEDUP-GROW-008.
                self.claims.fetch_sub(1, Ordering::Relaxed);
            } else {
                idx = (idx + 1) & mask;
            }
        }
    }

    /// Doubles a table of `seen` slots, unless a sibling prober already
    /// did. Holds the write lock, so every slot is empty or published and
    /// the stored `(fp, meta)` pairs are all the rehash needs.
    fn grow(&self, seen: usize) {
        let mut guard = self.shared.write().expect("dedup table lock");
        let shared = &mut *guard;
        if shared.slots.len() != seen {
            return;
        }
        let mut slots: Box<[Slot]> = (0..seen * 2).map(|_| Slot::default()).collect();
        let mask = slots.len() - 1;
        for old in shared.slots.iter_mut() {
            let key = *old.fp.get_mut();
            if key == 0 {
                continue;
            }
            let mut idx = (key as usize) & mask;
            while *slots[idx].fp.get_mut() != 0 {
                idx = (idx + 1) & mask;
            }
            slots[idx] = std::mem::take(old);
        }
        shared.slots = slots;
        shared.locs.resize_with(seen, AtomicU64::default);
    }
}

/// A worker's right to intern into an [`FpTable`]: the only way to
/// append to the worker's end of the code store.
pub(crate) struct Writer<'t, S: CodeStore> {
    table: &'t FpTable<S>,
    tail: Tail,
}

impl<'t, S: CodeStore> Writer<'t, S> {
    /// Opens a batch of interns: a read guard held until the batch drops.
    pub(crate) fn batch(&mut self) -> Batch<'_, 't, S> {
        let table = self.table;
        Batch {
            writer: self,
            guard: Some(table.read()),
        }
    }
}

/// A prober's hold on an [`FpTable`] across a batch of interns. The
/// batch keeps the table's read guard between probes, giving it up only
/// to double the table.
pub(crate) struct Batch<'w, 't, S: CodeStore> {
    writer: &'w mut Writer<'t, S>,
    guard: Option<RwLockReadGuard<'t, Shared>>,
}

impl<S: CodeStore> Batch<'_, '_, S> {
    /// Finds or inserts the state whose canonical code `code` is
    /// fingerprinted as `fp`.
    ///
    /// A candidate sharing 96 fingerprint bits is confirmed through
    /// [`CodeStore::is_same`]; a fresh code is copied by
    /// [`CodeStore::publish`] before its id becomes visible, so only a
    /// claimed id writes to the store.
    /// `should_abort()` bounds the publication-wait spin
    /// (ORD-DEDUP-SPIN-003).
    pub(crate) fn intern(
        &mut self,
        fp: Fp128,
        code: &[u8],
        should_abort: impl Fn() -> bool,
    ) -> Probe {
        let table = self.writer.table;
        loop {
            let shared = self.guard.as_ref().expect("a batch holds its guard");
            match table.find(shared, fp, code, &should_abort) {
                Found::Done(probe) => return probe,
                Found::Claimed(idx, id) => {
                    let loc = table.store.publish(&mut self.writer.tail, id, code);
                    // ORD-DEDUP-ARENA-009: Relaxed, published below.
                    shared.locs[id as usize].store(loc, Ordering::Relaxed);
                    let meta = (u64::from(id) + 1) << 32 | u64::from(fp.hi as u32);
                    // ORD-DEDUP-META-002: Release-publish after payload.
                    shared.slots[idx].meta.store(meta, Ordering::Release);
                    return Probe::Fresh(id);
                }
                Found::Full(seen) => {
                    self.guard = None;
                    table.grow(seen);
                    self.guard = Some(table.read());
                }
            }
        }
    }
}

/// Packed spill location: bit 63 = published, bits 62..23 = byte offset,
/// bits 22..5 = length, bits 4..0 = worker index.
const LOC_PUBLISHED: u64 = 1 << 63;
const LOC_OFFSET_SHIFT: u32 = 23;
const LOC_LEN_SHIFT: u32 = 5;
const LOC_LEN_MASK: u64 = (1 << 18) - 1;
const LOC_WORKER_MASK: u64 = (1 << 5) - 1;

/// Spill writes are buffered per worker and flushed in chunks this big.
const FLUSH_CHUNK: usize = 1 << 20;

/// How many ways the in-memory LRU tier is sharded.
const LRU_SHARDS: usize = 16;

struct SpillWriter {
    buf: Vec<u8>,
    /// File offset where `buf[0]` will land.
    base: u64,
}

struct SpillFile {
    file: File,
    /// Bytes durably written and safe to `read_at`. ORD-DEDUP-FLUSH-006.
    flushed: AtomicU64,
    /// Owned by the worker the file belongs to; the mutex is for safety,
    /// not sharing (it is uncontended on the append path).
    writer: Mutex<SpillWriter>,
}

#[derive(Default)]
struct LruShard {
    codes: HashMap<u32, Box<[u8]>>,
    order: VecDeque<u32>,
    bytes: usize,
}

/// Running counters a [`SpillStore`] accumulates; drained into the probe
/// at the end of a run.
#[derive(Default)]
struct SpillCounters {
    bytes_spilled: AtomicU64,
    disk_reads: AtomicU64,
    unverified: AtomicU64,
}

/// Append-only on-disk canonical-code store with a sharded LRU front.
///
/// Each worker appends codes it interns to its own unlinked temp file
/// (deleted from the namespace at creation; the kernel reclaims the
/// blocks when the run drops the handle, even on panic). The packed
/// location of every code is published through its id's table locator
/// before the dedup table's `meta` release, so any reader that found the
/// id can decode where its code lives.
pub(crate) struct SpillStore {
    files: Vec<SpillFile>,
    lru: Vec<Mutex<LruShard>>,
    lru_budget_per_shard: usize,
    counters: SpillCounters,
}

impl SpillStore {
    /// `workers` capped at 32 by the loc packing; the engine clamps its
    /// thread count accordingly when spilling.
    pub(crate) fn new(workers: usize, lru_budget_bytes: usize) -> io::Result<Self> {
        assert!(workers <= 32, "spill supports at most 32 workers");
        static STORE_SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir();
        let mut files = Vec::with_capacity(workers);
        for w in 0..workers {
            let path = dir.join(format!("anonreg-spill-{}-{seq}-{w}", std::process::id()));
            let file = File::options()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&path)?;
            // Unlink immediately: the data lives as long as the handle.
            let _ = std::fs::remove_file(&path);
            files.push(SpillFile {
                file,
                flushed: AtomicU64::new(0),
                writer: Mutex::new(SpillWriter {
                    buf: Vec::with_capacity(FLUSH_CHUNK),
                    base: 0,
                }),
            });
        }
        let lru = (0..LRU_SHARDS)
            .map(|_| Mutex::new(LruShard::default()))
            .collect();
        Ok(SpillStore {
            files,
            lru,
            lru_budget_per_shard: (lru_budget_bytes / LRU_SHARDS).max(1 << 16),
            counters: SpillCounters::default(),
        })
    }

    fn shard(&self, id: u32) -> &Mutex<LruShard> {
        &self.lru[id as usize % LRU_SHARDS]
    }

    fn cache(&self, id: u32, code: Box<[u8]>) {
        let mut shard = self.shard(id).lock().unwrap();
        if shard.codes.contains_key(&id) {
            return;
        }
        shard.bytes += code.len();
        shard.codes.insert(id, code);
        shard.order.push_back(id);
        while shard.bytes > self.lru_budget_per_shard {
            let Some(victim) = shard.order.pop_front() else {
                break;
            };
            if let Some(evicted) = shard.codes.remove(&victim) {
                shard.bytes -= evicted.len();
            }
        }
    }

    fn flush_locked(&self, worker: usize, w: &mut SpillWriter) {
        if w.buf.is_empty() {
            return;
        }
        write_all_at(&self.files[worker].file, &w.buf, w.base)
            .expect("spill write failed: out of disk space?");
        w.base += w.buf.len() as u64;
        // ORD-DEDUP-FLUSH-006: watermark released only after the bytes hit
        // the file, so a covering read_at is well-defined.
        self.files[worker].flushed.store(w.base, Ordering::Release);
        w.buf.clear();
    }

    /// Compares candidate `id`'s code against `code`.
    ///
    /// Returns `Some(equal)` when the code was retrievable (LRU hit, or
    /// its spill range is below the flushed watermark), `None` when the
    /// bytes are still in another worker's unflushed buffer — the caller
    /// trusts the 128-bit fingerprint and bumps `unverified`.
    fn matches(&self, loc: u64, id: u32, code: &[u8]) -> Option<bool> {
        if let Some(cached) = self.shard(id).lock().unwrap().codes.get(&id) {
            return Some(&**cached == code);
        }
        debug_assert!(loc & LOC_PUBLISHED != 0, "matches() before publish()");
        let offset = (loc >> LOC_OFFSET_SHIFT) & ((1 << 40) - 1);
        let len = (loc >> LOC_LEN_SHIFT & LOC_LEN_MASK) as usize;
        let worker = (loc & LOC_WORKER_MASK) as usize;
        if len != code.len() {
            return Some(false);
        }
        if self.files[worker].flushed.load(Ordering::Acquire) < offset + len as u64 {
            return None;
        }
        let mut buf = vec![0u8; len];
        read_exact_at(&self.files[worker].file, &mut buf, offset)
            .expect("spill read failed beneath the flushed watermark");
        self.counters.disk_reads.fetch_add(1, Ordering::Relaxed);
        let equal = buf == code;
        self.cache(id, buf.into_boxed_slice());
        Some(equal)
    }

    /// Reads back the code for `id`, flushing the owning worker's buffer
    /// if needed. Only sound after all workers have quiesced (used by the
    /// round-trip tests, not the hot path).
    #[cfg(test)]
    pub(crate) fn read_back(&self, loc: u64, id: u32) -> Box<[u8]> {
        if let Some(cached) = self.shard(id).lock().unwrap().codes.get(&id) {
            return cached.clone();
        }
        assert!(loc & LOC_PUBLISHED != 0);
        let offset = (loc >> LOC_OFFSET_SHIFT) & ((1 << 40) - 1);
        let len = (loc >> LOC_LEN_SHIFT & LOC_LEN_MASK) as usize;
        let worker = (loc & LOC_WORKER_MASK) as usize;
        let mut w = self.files[worker].writer.lock().unwrap();
        self.flush_locked(worker, &mut w);
        drop(w);
        let mut buf = vec![0u8; len];
        read_exact_at(&self.files[worker].file, &mut buf, offset).unwrap();
        buf.into_boxed_slice()
    }
}

impl CodeStore for SpillStore {
    fn workers(&self) -> usize {
        self.files.len()
    }

    fn is_same(&self, loc: u64, id: u32, code: &[u8]) -> bool {
        self.matches(loc, id, code).unwrap_or_else(|| {
            // Still buffered by another worker: trust the 128-bit
            // fingerprint, count the leap of faith.
            self.counters.unverified.fetch_add(1, Ordering::Relaxed);
            true
        })
    }

    /// Appends `code` for freshly claimed `id` to the file of `tail`'s
    /// worker and returns where it went.
    fn publish(&self, tail: &mut Tail, id: u32, code: &[u8]) -> u64 {
        let worker = tail.worker;
        debug_assert!(
            (code.len() as u64) <= LOC_LEN_MASK,
            "code too large to spill"
        );
        let offset;
        {
            let mut w = self.files[worker].writer.lock().unwrap();
            offset = w.base + w.buf.len() as u64;
            w.buf.extend_from_slice(code);
            if w.buf.len() >= FLUSH_CHUNK {
                self.flush_locked(worker, &mut w);
            }
        }
        self.counters
            .bytes_spilled
            .fetch_add(code.len() as u64, Ordering::Relaxed);
        let packed = LOC_PUBLISHED
            | offset << LOC_OFFSET_SHIFT
            | (code.len() as u64) << LOC_LEN_SHIFT
            | worker as u64;
        self.cache(id, code.into());
        packed
    }

    fn report<P: anonreg_obs::Probe>(&self, probe: &P) {
        let c = &self.counters;
        probe.counter(
            Metric::SpillBytes,
            0,
            c.bytes_spilled.load(Ordering::Relaxed),
        );
        probe.counter(Metric::SpillReads, 0, c.disk_reads.load(Ordering::Relaxed));
        probe.counter(
            Metric::DedupUnverified,
            0,
            c.unverified.load(Ordering::Relaxed),
        );
    }
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(buf)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// A test-only global allocator that tallies the heap blocks the
/// current thread allocates while armed, so a test can pin what one call
/// costs; other threads' allocations are never counted.
#[cfg(test)]
#[allow(unsafe_code)]
pub(super) mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// `(blocks, bytes)` allocated since arming; `None` when unarmed.
        static TALLY: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    }

    fn note(size: usize) {
        // `try_with`: a thread's locals may already be gone while it exits.
        let _ = TALLY.try_with(|t| {
            if let Some((blocks, bytes)) = t.get() {
                t.set(Some((blocks + 1, bytes + size)));
            }
        });
    }

    struct Counting;

    // SAFETY: every method passes its arguments unchanged to `System`,
    // so the caller's `GlobalAlloc` obligations are exactly the ones
    // `System` needs. Counting only touches a const-initialised
    // thread-local `Cell`, which never allocates or re-enters this
    // allocator.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Runs `f` and returns its result with the `(blocks, bytes)` this
    /// thread allocated during the call (a realloc counts as a block of
    /// its new size).
    pub(crate) fn allocations<R>(f: impl FnOnce() -> R) -> (R, (usize, usize)) {
        TALLY.set(Some((0, 0)));
        let out = f();
        let tally = TALLY.take().expect("armed above");
        (out, tally)
    }
}

#[cfg(test)]
mod tests {
    use super::counting::allocations;
    use super::*;
    use anonreg_model::fingerprint::fp128;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn no_abort() -> bool {
        false
    }

    /// A table over an in-memory store for `workers` workers.
    fn table(max_states: usize, workers: usize) -> FpTable<InMemory> {
        FpTable::new(max_states, InMemory::new(workers))
    }

    /// The one writer of a one-worker table.
    fn only_writer(table: &FpTable<InMemory>) -> Writer<'_, InMemory> {
        let mut writers = table.writers();
        assert_eq!(writers.len(), 1);
        writers.pop().unwrap()
    }

    /// Interns `code` under its own fingerprint in a one-probe batch.
    fn intern(writer: &mut Writer<'_, InMemory>, code: &[u8]) -> Probe {
        writer.batch().intern(fp128(code), code, no_abort)
    }

    #[test]
    fn intern_assigns_dense_ids_and_finds_duplicates() {
        let table = table(1000, 1);
        let mut w = only_writer(&table);
        let codes: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let ids: Vec<u32> = codes
            .iter()
            .map(|code| match intern(&mut w, code) {
                Probe::Fresh(id) => id,
                other => panic!("expected fresh, got {other:?}"),
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "ids must be unique");
        assert_eq!(*sorted.last().unwrap(), 99, "ids must be dense");
        for (i, code) in codes.iter().enumerate() {
            assert_eq!(intern(&mut w, code), Probe::Known(ids[i]));
        }
        assert_eq!(table.len(), 100);
    }

    /// A new table allocates its first slots, their locators and the
    /// arenas' chunk directories, and no chunk.
    #[test]
    fn a_new_table_allocates_no_chunk() {
        let (_table, allocated) = allocations(|| table(usize::MAX, 2));
        let bytes = MIN_SLOTS * std::mem::size_of::<Slot>()
            + MIN_SLOTS / 2 * std::mem::size_of::<AtomicU64>()
            + 2 * std::mem::size_of::<Arena>();
        assert_eq!(allocated, (3, bytes));
    }

    /// Codes are borrowed, and fresh ones append to the worker's arena:
    /// fresh interns allocate one block per chunk they open, the chunk
    /// itself, and nothing per code; a dedup hit allocates nothing.
    #[test]
    fn only_a_fresh_intern_allocates() {
        let table = table(1000, 1);
        let mut w = only_writer(&table);
        // 400 codes of 49 bytes are 400 records of 8 words: five chunks,
        // and within the first table generation's 512 claims.
        let codes: Vec<Vec<u8>> = (0..400u32)
            .map(|i| {
                let mut code = vec![0x3c; 49];
                code[..4].copy_from_slice(&i.to_le_bytes());
                code
            })
            .collect();
        let mut batch = w.batch();
        let ((), allocated) = allocations(|| {
            for code in &codes {
                assert!(matches!(
                    batch.intern(fp128(code), code, no_abort),
                    Probe::Fresh(_)
                ));
            }
        });
        let (known, hit) = allocations(|| batch.intern(fp128(&codes[7]), &codes[7], no_abort));
        assert_eq!(known, Probe::Known(7));
        assert_eq!(hit, (0, 0), "a dedup hit allocates nothing");
        drop(batch);
        let chunks = w.tail.chunk + 1;
        assert_eq!(chunks, 5);
        let bytes: usize = (0..chunks).map(|k| chunk_words(k) * 8).sum();
        assert_eq!(allocated, (chunks, bytes), "one block per chunk");
    }

    /// Codes of every length from 0 to 700 bytes, each with a twin that
    /// differs in its last byte and one with a zero byte appended, and
    /// one code longer than the first two chunks, interned by three
    /// workers across several chunk boundaries: each is Known under its
    /// own id, and its record matches its own code and no other.
    #[test]
    fn arena_round_trip_across_chunks_and_workers() {
        const WORKERS: usize = 3;
        let table = table(usize::MAX, WORKERS);
        let mut writers = table.writers();
        let mut codes: Vec<Vec<u8>> = vec![vec![0xa5; 5_000]];
        for len in 0..=700usize {
            let code: Vec<u8> = (0..len).map(|j| (len * 31 + j * 7) as u8).collect();
            if let Some(&last) = code.last() {
                // A twin that differs in the last, zero-padded word only.
                let mut twin = code.clone();
                *twin.last_mut().unwrap() = last ^ 0x80;
                codes.push(twin);
            }
            // And one whose words equal this code's but for the length.
            let mut longer = code.clone();
            longer.push(0);
            codes.push(longer);
            codes.push(code);
        }
        let ids: Vec<u32> = codes
            .iter()
            .enumerate()
            .map(|(i, code)| match intern(&mut writers[i % WORKERS], code) {
                Probe::Fresh(id) => id,
                other => panic!("code {i}: {other:?}"),
            })
            .collect();
        for w in &writers {
            assert!(
                w.tail.chunk >= 4,
                "worker {} filled chunks 0..={}",
                w.tail.worker,
                w.tail.chunk
            );
        }
        for (i, code) in codes.iter().enumerate() {
            assert_eq!(
                intern(&mut writers[(i + 1) % WORKERS], code),
                Probe::Known(ids[i])
            );
        }
        let shared = table.read();
        for (i, &id) in ids.iter().enumerate() {
            let loc = shared.locs[id as usize].load(Ordering::Relaxed);
            for (j, other) in codes.iter().enumerate() {
                assert_eq!(
                    table.store().is_same(loc, id, other),
                    i == j,
                    "record {i} against code {j}"
                );
            }
        }
    }

    /// Each worker's end of the store has one writer: a table makes its
    /// writers once.
    #[test]
    #[should_panic(expected = "a table makes its writers once")]
    fn writers_are_made_once() {
        let table = table(100, 2);
        let _first = table.writers();
        let _second = table.writers();
    }

    #[test]
    fn forced_fingerprint_collisions_probe_to_distinct_slots() {
        // Same 128-bit fingerprint, genuinely different states: the code
        // comparison disambiguates and each gets its own id.
        let table = table(100, 1);
        let mut w = only_writer(&table);
        let fp = Fp128 { lo: 42, hi: 7 };
        let mut batch = w.batch();
        let a = match batch.intern(fp, b"a", no_abort) {
            Probe::Fresh(id) => id,
            other => panic!("{other:?}"),
        };
        let b = match batch.intern(fp, b"b", no_abort) {
            Probe::Fresh(id) => id,
            other => panic!("{other:?}"),
        };
        assert_ne!(a, b);
        // Each is findable by its own code.
        assert_eq!(batch.intern(fp, b"a", no_abort), Probe::Known(a));
        assert_eq!(batch.intern(fp, b"b", no_abort), Probe::Known(b));
    }

    #[test]
    fn zero_low_half_is_storable() {
        let table = table(100, 1);
        let mut w = only_writer(&table);
        let fp = Fp128 { lo: 0, hi: 99 };
        let mut batch = w.batch();
        assert_eq!(batch.intern(fp, b"z", no_abort), Probe::Fresh(0));
        assert_eq!(batch.intern(fp, b"z", no_abort), Probe::Known(0));
    }

    #[test]
    fn limit_is_enforced_and_published() {
        // MIN_SLOTS floors the table, but the limit still honours max_states.
        let table = table(3, 1);
        let mut w = only_writer(&table);
        for i in 0..3u32 {
            assert!(matches!(intern(&mut w, &i.to_le_bytes()), Probe::Fresh(_)));
        }
        assert_eq!(intern(&mut w, b"one too many"), Probe::Limit);
        // The sentinel is published: re-probing the same fingerprint
        // reports Limit instead of spinning.
        assert_eq!(intern(&mut w, b"one too many"), Probe::Limit);
        assert_eq!(table.len(), 3);
    }

    /// A table starts small and doubles as it fills, whatever the cap.
    #[test]
    fn table_grows_with_the_states_not_the_cap() {
        let table = table(usize::MAX, 1);
        let mut w = only_writer(&table);
        assert_eq!(table.capacity(), MIN_SLOTS);
        for i in 0..5_000u32 {
            assert_eq!(intern(&mut w, &i.to_le_bytes()), Probe::Fresh(i));
        }
        // Half full at most, and no more than one doubling past that.
        assert_eq!(table.capacity(), 16 * 1024);
        for i in 0..5_000u32 {
            assert_eq!(intern(&mut w, &i.to_le_bytes()), Probe::Known(i));
        }
    }

    /// Seeded multi-threaded hammer: every thread interns the same key
    /// universe in a seed-dependent order, each through its own writer;
    /// exactly one Fresh claim per key may win, and all threads must
    /// agree on the id each key got.
    #[test]
    fn concurrent_interns_agree_on_ids() {
        const THREADS: usize = 4;
        const KEYS: usize = 256;
        for seed in 0u64..8 {
            let table = table(KEYS * 2, THREADS);
            let barrier = Barrier::new(THREADS);
            let codes: Vec<[u8; 8]> = (0..KEYS)
                .map(|i| (i as u64 ^ seed << 32).to_le_bytes())
                .collect();
            let observed: Vec<Vec<u32>> = std::thread::scope(|s| {
                let handles: Vec<_> = table
                    .writers()
                    .into_iter()
                    .enumerate()
                    .map(|(t, mut w)| {
                        let codes = &codes;
                        let barrier = &barrier;
                        s.spawn(move || {
                            barrier.wait();
                            let mut ids = vec![u32::MAX; KEYS];
                            // Seed-dependent visit order + stride makes
                            // threads collide on different keys each run.
                            let stride = (seed as usize * 2 + t * 4 + 1) | 1;
                            let mut k = (t * 31 + seed as usize * 17) % KEYS;
                            for step in 0..KEYS {
                                let i = k;
                                k = (k + stride) % KEYS;
                                match intern(&mut w, &codes[i]) {
                                    Probe::Fresh(id) | Probe::Known(id) => ids[i] = id,
                                    other => panic!("step {step}: {other:?}"),
                                }
                                if step % 16 == t {
                                    std::thread::yield_now();
                                }
                            }
                            ids
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // All threads agree per key; the id set is exactly 0..KEYS.
            let first = &observed[0];
            for other in &observed[1..] {
                assert_eq!(first, other, "seed {seed}: threads disagree on ids");
            }
            let mut all: Vec<u32> = first.clone();
            all.sort_unstable();
            let expect: Vec<u32> = (0..KEYS as u32).collect();
            assert_eq!(all, expect, "seed {seed}: ids not dense/unique");
            assert_eq!(table.len(), KEYS);
        }
    }

    /// Four threads intern 200k keys through many doublings, in batches
    /// like the engine's workers: ids stay dense, no key is lost or
    /// duplicated, and every key is Known on re-probe.
    #[test]
    fn concurrent_interns_survive_growth() {
        const THREADS: usize = 4;
        const KEYS: usize = 200_000;
        let table = table(usize::MAX, THREADS);
        let barrier = Barrier::new(THREADS);
        let (fresh, mut writers): (Vec<Vec<(usize, u32)>>, Vec<_>) = std::thread::scope(|s| {
            let handles: Vec<_> = table
                .writers()
                .into_iter()
                .enumerate()
                .map(|(t, mut w)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let mut fresh = Vec::new();
                        // Every thread offers every key, from a different
                        // starting point, eight keys per batch.
                        let keys: Vec<usize> =
                            (0..KEYS).map(|k| (k + t * KEYS / 4) % KEYS).collect();
                        for chunk in keys.chunks(8) {
                            let mut batch = w.batch();
                            for &k in chunk {
                                let code = (k as u64).to_le_bytes();
                                match batch.intern(fp128(&code), &code, no_abort) {
                                    Probe::Fresh(id) => fresh.push((k, id)),
                                    Probe::Known(_) => {}
                                    other => panic!("key {k}: {other:?}"),
                                }
                            }
                        }
                        (fresh, w)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).unzip()
        });
        let mut id_of = vec![u32::MAX; KEYS];
        for (k, id) in fresh.into_iter().flatten() {
            assert_eq!(id_of[k], u32::MAX, "key {k} claimed twice");
            id_of[k] = id;
        }
        let mut ids = id_of.clone();
        ids.sort_unstable();
        assert_eq!(ids, (0..KEYS as u32).collect::<Vec<_>>(), "ids not dense");
        assert_eq!(table.len(), KEYS);
        assert!(table.capacity() <= 4 * KEYS, "{} slots", table.capacity());
        for (k, &id) in id_of.iter().enumerate() {
            assert_eq!(
                intern(&mut writers[k % THREADS], &(k as u64).to_le_bytes()),
                Probe::Known(id)
            );
        }
    }

    /// The same growth race up to a state limit: exactly `limit` keys win
    /// ids `0..limit`, each stays Known, and every thread stops on Limit.
    #[test]
    fn concurrent_growth_stops_at_the_limit() {
        const THREADS: usize = 4;
        const LIMIT: usize = 60_000;
        let table = table(LIMIT, THREADS);
        let aborted = AtomicBool::new(false);
        let barrier = Barrier::new(THREADS);
        let (fresh, mut writers): (Vec<Vec<(u64, u32)>>, Vec<_>) = std::thread::scope(|s| {
            let handles: Vec<_> = table
                .writers()
                .into_iter()
                .zip(0u64..)
                .map(|(mut w, t)| {
                    let (aborted, barrier) = (&aborted, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let mut fresh = Vec::new();
                        for i in 0..LIMIT as u64 {
                            let code = (i * THREADS as u64 + t).to_le_bytes();
                            let should_abort = || aborted.load(Ordering::Relaxed);
                            match w.batch().intern(fp128(&code), &code, should_abort) {
                                Probe::Fresh(id) => fresh.push((i * THREADS as u64 + t, id)),
                                Probe::Known(_) => panic!("keys are disjoint"),
                                Probe::Limit | Probe::Aborted => {
                                    aborted.store(true, Ordering::Relaxed);
                                    break;
                                }
                            }
                        }
                        (fresh, w)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).unzip()
        });
        let fresh: Vec<(u64, u32)> = fresh.into_iter().flatten().collect();
        let mut ids: Vec<u32> = fresh.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..LIMIT as u32).collect::<Vec<_>>());
        assert_eq!(table.len(), LIMIT);
        for (key, id) in fresh {
            let w = &mut writers[key as usize % THREADS];
            assert_eq!(intern(w, &key.to_le_bytes()), Probe::Known(id));
        }
    }

    /// Concurrent claimants racing over the limit must all observe
    /// Limit/Fresh consistently and never hang on an unpublished slot.
    #[test]
    fn concurrent_limit_race_terminates() {
        const THREADS: usize = 4;
        let table = table(8, THREADS);
        let aborted = AtomicBool::new(false);
        let fresh = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for (t, mut w) in table.writers().into_iter().enumerate() {
                let aborted = &aborted;
                let fresh = &fresh;
                s.spawn(move || {
                    for i in 0..64u64 {
                        let code = (i * THREADS as u64 + t as u64).to_le_bytes();
                        let should_abort = || aborted.load(Ordering::Relaxed);
                        match w.batch().intern(fp128(&code), &code, should_abort) {
                            Probe::Fresh(_) => {
                                fresh.fetch_add(1, Ordering::Relaxed);
                            }
                            Probe::Known(_) => {}
                            Probe::Limit | Probe::Aborted => {
                                aborted.store(true, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                });
            }
        });
        assert!(
            aborted.load(Ordering::Relaxed),
            "limit should have been hit"
        );
        assert_eq!(
            fresh.load(Ordering::Relaxed),
            8,
            "exactly limit states claimed"
        );
    }

    #[test]
    fn spill_round_trip_is_identity() {
        let spill = SpillStore::new(2, 1 << 20).unwrap();
        // Codes long enough to straddle flush chunks, varied lengths.
        let codes: Vec<Box<[u8]>> = (0..2_000u32)
            .map(|i| {
                (0..(i % 97 + 3) as usize)
                    .map(|j| (i as usize * 131 + j * 7) as u8)
                    .collect()
            })
            .collect();
        let mut tails = [Tail::new(0), Tail::new(1)];
        let locs: Vec<u64> = codes
            .iter()
            .enumerate()
            .map(|(i, code)| spill.publish(&mut tails[i % 2], i as u32, code))
            .collect();
        for (i, code) in codes.iter().enumerate() {
            assert_eq!(
                spill.read_back(locs[i], i as u32),
                *code,
                "round-trip mismatch at id {i}"
            );
        }
        assert_eq!(
            spill.counters.bytes_spilled.load(Ordering::Relaxed),
            codes.iter().map(|c| c.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn spill_matches_verifies_through_lru_and_disk() {
        // Tiny LRU budget forces disk verification for old ids.
        let spill = SpillStore::new(1, 1).unwrap();
        // 4000 × 600-byte codes ≈ 2.4 MiB: well past the 1 MiB flush
        // chunk, so most ids are covered by the flushed watermark while
        // the tail stays in the write buffer (unverifiable by design).
        let codes: Vec<Box<[u8]>> = (0..4_000u32)
            .map(|i| {
                (0..600)
                    .map(|j| (i as usize).wrapping_mul(131).wrapping_add(j) as u8)
                    .collect()
            })
            .collect();
        let mut tail = Tail::new(0);
        let locs: Vec<u64> = codes
            .iter()
            .enumerate()
            .map(|(i, code)| spill.publish(&mut tail, i as u32, code))
            .collect();
        let mut unverified = 0u32;
        for (i, code) in codes.iter().enumerate() {
            match spill.matches(locs[i], i as u32, code) {
                Some(equal) => assert!(equal, "own code must match at {i}"),
                None => unverified += 1, // tail still in the write buffer
            }
            assert_ne!(
                spill.matches(locs[i], i as u32, b"definitely not that code"),
                Some(true),
                "wrong code must not match at {i}"
            );
        }
        assert!(unverified < 4_000, "nothing was verifiable");
        assert!(
            spill.counters.disk_reads.load(Ordering::Relaxed) > 0,
            "LRU budget of 1 byte must force disk reads"
        );
    }
}
