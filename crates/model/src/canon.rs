//! Orbit canonicalization support: the model-level half of symmetry
//! reduction.
//!
//! §2 of the paper defines memory-anonymous executions to be invariant
//! under register permutations, and the Theorem 3.4 ring argument shows
//! symmetric algorithms (identifiers admit only equality comparisons) are
//! additionally invariant under identifier renamings. Both invariances
//! together generate a finite group acting on global configurations; a
//! model checker only needs to store one representative per orbit
//! (Clarke/Emerson/Sistla-style symmetry reduction).
//!
//! This module provides the pieces that do not depend on the simulator:
//!
//! * [`SymmetryMode`] — how much of the group an exploration may use;
//! * [`ByteSink`] — a [`Hasher`] that *serializes* instead of mixing, so a
//!   configuration's `Hash` impl doubles as its in-process byte encoding;
//! * [`PidCanon`] — first-occurrence identifier renumbering, the canonical
//!   representative of a pid-renaming class;
//! * [`view_symmetries`] — the admissible register/slot permutations of a
//!   fixed view assignment.
//!
//! # Why views constrain the group
//!
//! Within one exploration every process keeps the view it started with, so
//! a register permutation `π` composed with a slot permutation (process
//! `j`'s configuration moving to slot `t`) only maps the system to *itself*
//! when `view_t = π ∘ view_j` for every such pair — otherwise the image is
//! a configuration of a *different* adversary choice and must not be
//! identified with this one. Given where slot `0` goes, `π` is forced
//! (`π = view_t ∘ view_0⁻¹`), so there are at most `n` candidate register
//! permutations, each inducing a partition of slots into view classes that
//! may be permuted among themselves.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hasher;
use std::str::FromStr;

use crate::fingerprint::Fnv64;
use crate::{Pid, View};

/// How much symmetry an exploration is allowed to quotient away.
///
/// There is no register-only mode (view-compatible register and slot
/// permutations without identifier renaming). Every machine in this
/// repository keeps its own pid in its local state, so two distinct
/// slots never reach identical local states and that group merges no
/// two reachable configurations: it stores exactly what `Off` stores.
/// One caveat: a machine whose local state omits its pid, but which
/// writes pids into registers and compares them by order, would be
/// sound under a register-only group and not under `Full`. No such
/// machine exists here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SymmetryMode {
    /// No reduction: states are identified only when bit-identical.
    #[default]
    Off,
    /// View-compatible register *and* slot permutations (§2 anonymity)
    /// plus canonical identifier renaming. Sound for *symmetric*
    /// algorithms in the sense of the Theorem 3.4 ring argument
    /// (identifiers compared only for equality); for non-symmetric
    /// machines the embedded identifiers pin every process to its slot
    /// and the mode degenerates to no extra merging.
    Full,
}

impl SymmetryMode {
    /// All modes, weakest first — handy for parity sweeps.
    pub const ALL: [SymmetryMode; 2] = [SymmetryMode::Off, SymmetryMode::Full];
}

impl fmt::Display for SymmetryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SymmetryMode::Off => "off",
            SymmetryMode::Full => "full",
        })
    }
}

/// Error parsing a [`SymmetryMode`] from the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSymmetryError(String);

impl fmt::Display for ParseSymmetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown symmetry mode `{}` (off|full)", self.0)
    }
}

impl std::error::Error for ParseSymmetryError {}

impl FromStr for SymmetryMode {
    type Err = ParseSymmetryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(SymmetryMode::Off),
            "full" => Ok(SymmetryMode::Full),
            other => Err(ParseSymmetryError(other.to_string())),
        }
    }
}

/// A [`Hasher`] that appends instead of mixing: feeding a value's `Hash`
/// impl through a `ByteSink` yields a byte encoding of the value.
///
/// Every `u16`/`u32`/`u64`/`usize` write — and with it every enum
/// discriminant, slice length and signed integer, which `Hash` routes
/// through them — is an unsigned LEB128 varint: seven bits per byte, low
/// group first, the high bit set on every byte but the last. A value
/// below 128 takes one byte, `u64::MAX` (or `-1i64`) ten. Bytes and
/// `bool`s go in as they are; `u128` keeps its 16 little-endian bytes.
///
/// For `derive(Hash)` types this encoding is injective in practice: a
/// varint is self-delimiting, and enum discriminants and slice length
/// prefixes keep the fields prefix-free, so two structurally different
/// values produce different byte strings. The explorer's dedup therefore
/// compares these encodings directly (safer than a 64-bit fingerprint: a
/// hash collision can at worst *fail to merge*, never conflate).
///
/// One caveat: std's `hash_slice` sends a slice of integers (a
/// `Vec<u64>`, `Vec<usize>`, …) through [`Hasher::write`] as its raw
/// in-memory bytes — native-endian, at full width, bypassing the
/// varints. Such a field is still encoded injectively, only wastefully
/// and per platform; a machine keeps its integer vectors compact by
/// hashing them element-wise (as `anonreg`'s mutex families do with
/// their mark vectors). A state code never outlives the exploration
/// that made it — even the disk spill keeps codes only for its own run —
/// so per-platform bytes would be enough.
#[derive(Clone, Debug, Default)]
pub struct ByteSink {
    bytes: Vec<u8>,
}

impl ByteSink {
    /// A fresh, empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes encoded so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the sink, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The FNV-1a fingerprint of the encoded bytes, i.e. of the *code*.
    /// It differs from hashing the same values straight into an
    /// [`Fnv64`], which widens integers to fixed little-endian words
    /// instead of varints.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(&self.bytes);
        h.finish()
    }
}

/// A sink that appends to `bytes`, reusing its allocation: take a
/// caller's buffer, encode into it, and hand it back with
/// [`ByteSink::into_bytes`].
impl From<Vec<u8>> for ByteSink {
    fn from(bytes: Vec<u8>) -> Self {
        ByteSink { bytes }
    }
}

impl Hasher for ByteSink {
    fn finish(&self) -> u64 {
        self.fingerprint()
    }

    fn write(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    fn write_u8(&mut self, i: u8) {
        self.bytes.push(i);
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    /// LEB128: seven bits per byte, low group first, continuation bit set
    /// on all but the last byte.
    fn write_u64(&mut self, mut i: u64) {
        while i >= 0x80 {
            self.bytes.push(i as u8 | 0x80);
            i >>= 7;
        }
        self.bytes.push(i as u8);
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

/// First-occurrence identifier renumbering: the `k`-th distinct [`Pid`]
/// encountered maps to `Pid(k)`. Scanning a configuration in a fixed
/// order through a `PidCanon` yields the canonical representative of its
/// pid-renaming class — two configurations related by an identifier
/// bijection produce identical renumberings.
#[derive(Clone, Debug, Default)]
pub struct PidCanon {
    map: HashMap<u64, u64>,
}

impl PidCanon {
    /// A fresh renumbering with no identifiers seen yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical identifier for `pid`, assigning the next free number
    /// on first encounter.
    pub fn canon(&mut self, pid: Pid) -> Pid {
        let next = self.map.len() as u64 + 1;
        let id = *self.map.entry(pid.get()).or_insert(next);
        Pid::new(id).expect("canonical pids start at 1")
    }

    /// How many distinct identifiers have been renumbered.
    #[must_use]
    pub fn seen(&self) -> usize {
        self.map.len()
    }
}

/// One admissible symmetry of a fixed view assignment: a register
/// permutation together with the slot classes it allows to permute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewSymmetry {
    /// The register permutation as `perm[old_physical] = new_physical`.
    pub perm: Vec<usize>,
    /// Slot classes: within each class, any bijection from `sources`
    /// (slots of the original configuration) onto `targets` (positions of
    /// the image) respects the view assignment. Classes partition
    /// `0..n` on both sides.
    pub classes: Vec<ViewClass>,
}

/// One slot class of a [`ViewSymmetry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewClass {
    /// Target positions, ascending.
    pub targets: Vec<usize>,
    /// Source slots that may occupy them, ascending.
    pub sources: Vec<usize>,
}

/// Enumerates the admissible symmetries of a view assignment: every
/// register permutation `π` for which slots can be re-assigned such that
/// the slot landing on position `t` carried view `π⁻¹ ∘ view_t`. The
/// identity symmetry is always first. At most `n` symmetries exist (one
/// candidate `π` per possible image of slot 0).
#[must_use]
pub fn view_symmetries(views: &[View]) -> Vec<ViewSymmetry> {
    let n = views.len();
    if n == 0 {
        return vec![ViewSymmetry {
            perm: Vec::new(),
            classes: Vec::new(),
        }];
    }
    let inv0 = views[0].inverse();
    let mut out: Vec<ViewSymmetry> = Vec::new();
    for k in 0..n {
        // The forced register permutation if slot 0's configuration moves
        // to position k.
        // `pi` maps physical→physical: the register v_0 calls `l` goes to
        // the one v_k calls `l`, so π ∘ v_0 = v_k.
        let pi = views[k].compose(&inv0);
        let perm: Vec<usize> = (0..pi.len()).map(|r| pi.physical(r)).collect();
        debug_assert!(
            (0..views[0].len()).all(|l| perm[views[0].physical(l)] == views[k].physical(l))
        );
        if out.iter().any(|s| s.perm == perm) {
            continue;
        }
        // Group slots by the view their image position must carry.
        let needed: Vec<View> = views.iter().map(|v| pi.compose(v)).collect();
        let mut classes: Vec<ViewClass> = Vec::new();
        let mut admissible = true;
        for (j, need) in needed.iter().enumerate() {
            if let Some(class) = classes.iter_mut().find(|c| &views[c.targets[0]] == need) {
                class.sources.push(j);
                continue;
            }
            let targets: Vec<usize> = (0..n).filter(|&t| &views[t] == need).collect();
            if targets.is_empty() {
                admissible = false;
                break;
            }
            classes.push(ViewClass {
                targets,
                sources: vec![j],
            });
        }
        if !admissible {
            continue;
        }
        // The classes must partition both sides with matching sizes.
        let covered: usize = classes.iter().map(|c| c.targets.len()).sum();
        if covered != n || classes.iter().any(|c| c.sources.len() != c.targets.len()) {
            continue;
        }
        out.push(ViewSymmetry { perm, classes });
    }
    // `k = 0` always yields the identity; keep it first for callers that
    // treat candidate 0 specially.
    debug_assert!(out[0].perm.iter().enumerate().all(|(r, &p)| r == p));
    out
}

#[cfg(test)]
mod tests {
    use std::hash::Hash;

    use super::*;

    #[test]
    fn byte_sink_is_stable_and_prefix_sensitive() {
        let mut a = ByteSink::new();
        42u64.hash(&mut a);
        let mut b = ByteSink::new();
        42u64.hash(&mut b);
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut c = ByteSink::new();
        vec![1u64, 2].hash(&mut c);
        let mut d = ByteSink::new();
        vec![1u64].hash(&mut d);
        2u64.hash(&mut d);
        // The slice length prefix keeps adjacent fields from bleeding.
        assert_ne!(c.into_bytes(), d.into_bytes());
    }

    #[test]
    fn byte_sink_fingerprint_is_fnv_of_the_code() {
        let mut sink = ByteSink::new();
        ("hello", 7u64).hash(&mut sink);
        let mut direct = Fnv64::new();
        direct.write(sink.bytes());
        assert_eq!(sink.fingerprint(), direct.finish());
        // Hashing the values straight into an `Fnv64` widens `7u64` to
        // eight bytes, so it fingerprints different bytes.
        assert_ne!(
            sink.fingerprint(),
            crate::fingerprint::fingerprint_of(&("hello", 7u64))
        );
    }

    fn code_of<T: Hash + ?Sized>(value: &T) -> Vec<u8> {
        let mut sink = ByteSink::new();
        value.hash(&mut sink);
        sink.into_bytes()
    }

    #[test]
    fn varint_lengths_at_the_group_boundaries() {
        for (value, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::MAX, 10),
        ] {
            assert_eq!(code_of(&value).len(), len, "{value}");
        }
        assert_eq!(code_of(&-1i64).len(), 10);
        assert_eq!(code_of(&128u64), vec![0x80, 0x01]);
        assert_eq!(code_of(&300u32), vec![0xac, 0x02]);
    }

    #[test]
    fn usize_encodes_like_u64() {
        for x in [0usize, 1, 127, 128, 16_384, usize::MAX] {
            let mut a = ByteSink::new();
            a.write_usize(x);
            let mut b = ByteSink::new();
            b.write_u64(x as u64);
            assert_eq!(a.bytes(), b.bytes(), "{x}");
        }
    }

    /// Seeded property: distinct `(Vec<u32>, u64, Option<u64>)` values
    /// never share a code, so varint fields stay prefix-free next to
    /// length prefixes and discriminants. Values cluster on the varint
    /// group boundaries, where a broken encoding would collide first.
    #[test]
    fn distinct_values_never_share_a_code() {
        use crate::rng::Rng64;
        const EDGES: [u64; 8] = [0, 1, 127, 128, 255, 16_383, 16_384, u64::MAX];
        let mut rng = Rng64::seed_from_u64(0x1EB128);
        let draw = |rng: &mut Rng64| match rng.gen_index(3) {
            0 => EDGES[rng.gen_index(EDGES.len())],
            1 => rng.next_u64() >> (7 * rng.gen_index(10)),
            _ => rng.gen_index(4) as u64,
        };
        let mut seen: HashMap<Vec<u8>, (Vec<u32>, u64, Option<u64>)> = HashMap::new();
        for _ in 0..20_000 {
            let len = rng.gen_index(4);
            let list: Vec<u32> = (0..len).map(|_| draw(&mut rng) as u32).collect();
            let scalar = draw(&mut rng);
            let opt = (rng.gen_index(2) == 1).then(|| draw(&mut rng));
            let value = (list, scalar, opt);
            let prior = seen.entry(code_of(&value)).or_insert_with(|| value.clone());
            assert_eq!(*prior, value, "two values share a code");
        }
        assert!(
            seen.len() > 10_000,
            "the draw repeats too often to test much"
        );
    }

    #[test]
    fn pid_canon_renumbers_by_first_occurrence() {
        let p = |n| Pid::new(n).unwrap();
        let mut canon = PidCanon::new();
        assert_eq!(canon.canon(p(17)), p(1));
        assert_eq!(canon.canon(p(5)), p(2));
        assert_eq!(canon.canon(p(17)), p(1));
        assert_eq!(canon.seen(), 2);

        // A renamed scan canonicalizes identically.
        let mut other = PidCanon::new();
        assert_eq!(other.canon(p(3)), p(1));
        assert_eq!(other.canon(p(9)), p(2));
        assert_eq!(other.canon(p(3)), p(1));
    }

    #[test]
    fn ring_views_admit_the_cyclic_group() {
        let views: Vec<View> = (0..3).map(|k| View::rotated(3, k)).collect();
        let syms = view_symmetries(&views);
        assert_eq!(syms.len(), 3, "C3 on the Theorem 3.4 ring");
        assert!(syms[0].perm.iter().enumerate().all(|(r, &p)| r == p));
        for sym in &syms {
            // Every class is a singleton: the rotation forces each slot.
            assert!(sym.classes.iter().all(|c| c.sources.len() == 1));
        }
    }

    #[test]
    fn identical_views_admit_the_symmetric_group() {
        let views = vec![View::identity(2); 3];
        let syms = view_symmetries(&views);
        // Only π = id survives, with one class of all three slots.
        assert_eq!(syms.len(), 1);
        assert_eq!(syms[0].classes.len(), 1);
        assert_eq!(syms[0].classes[0].sources, vec![0, 1, 2]);
        assert_eq!(syms[0].classes[0].targets, vec![0, 1, 2]);
    }

    #[test]
    fn mismatched_views_admit_only_identity() {
        let views = vec![View::identity(3), View::rotated(3, 1)];
        let syms = view_symmetries(&views);
        assert_eq!(syms.len(), 1, "identity plus rot1 pin both slots");
        assert_eq!(syms[0].classes.len(), 2);
    }

    #[test]
    fn symmetry_mode_round_trips_through_strings() {
        for mode in SymmetryMode::ALL {
            assert_eq!(mode.to_string().parse::<SymmetryMode>().unwrap(), mode);
        }
        assert!("sideways".parse::<SymmetryMode>().is_err());
        assert!("registers".parse::<SymmetryMode>().is_err());
    }
}
