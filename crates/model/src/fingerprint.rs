//! Stable 64-bit fingerprinting for state interning.
//!
//! The explicit-state model checker in `anonreg-sim` deduplicates billions
//! of candidate configurations. Rust's default [`std::collections::HashMap`]
//! hasher is randomly keyed per process, which is exactly right for
//! DoS-resistant maps but wrong for *interning*: the parallel explorer
//! shards its dedup table by state hash and exchanges `(id, fingerprint)`
//! pairs between workers, so every thread must compute the **same**
//! fingerprint for the same configuration, and a run must be reproducible
//! from its recorded fingerprints.
//!
//! [`Fnv64`] is the classic FNV-1a 64-bit hash as a [`Hasher`], with the
//! multi-byte integer writes pinned to little-endian. Fingerprints agree
//! across threads and processes of one build; across platforms only for
//! values without integer slices, which std's `hash_slice` feeds to
//! [`Hasher::write`] as native-endian bytes. It is *not* collision
//! resistant against adversarial inputs — interners must confirm candidate
//! matches with a full equality check, which is what the explorer's sharded
//! table does.

use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// The FNV-1a 64-bit hash as a deterministic [`Hasher`].
///
/// Unlike [`std::collections::hash_map::RandomState`], two `Fnv64` values
/// fed the same bytes always agree — across instances, threads, processes
/// and platforms (integer writes are little-endian).
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// Creates a hasher at the standard FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a is inherently byte-serial, but splitting the loop into
        // fixed four-byte batches lets the compiler keep the state in a
        // register and unroll the multiply chain; the output is byte-exact
        // with the naive loop (checked against the reference vectors).
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(4);
        for chunk in &mut chunks {
            state = (state ^ u64::from(chunk[0])).wrapping_mul(FNV_PRIME);
            state = (state ^ u64::from(chunk[1])).wrapping_mul(FNV_PRIME);
            state = (state ^ u64::from(chunk[2])).wrapping_mul(FNV_PRIME);
            state = (state ^ u64::from(chunk[3])).wrapping_mul(FNV_PRIME);
        }
        for &b in chunks.remainder() {
            state = (state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.state = state;
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        // Hash as u64 so 32- and 64-bit builds agree.
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

/// The stable fingerprint of any hashable value: `value` fed through a
/// fresh [`Fnv64`].
#[must_use]
pub fn fingerprint_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = Fnv64::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A 128-bit FNV-1a fingerprint split into two independent 64-bit halves.
///
/// The lock-free dedup table in `anonreg-sim` keys probe sequences on
/// `lo` and stores (part of) `hi` alongside the interned id, so a match
/// on both halves carries ~96–128 bits of discrimination before the full
/// canonical-code comparison. At 10⁸ interned states the birthday bound
/// for a 128-bit hash puts the collision probability below 2⁻⁷⁰, which is
/// what lets the spill tier fall back to fingerprint-only matching when a
/// code is neither cached nor yet flushed to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fp128 {
    /// Low half: selects the probe sequence in open-addressing tables.
    pub lo: u64,
    /// High half: verified in-slot before any code comparison.
    pub hi: u64,
}

/// Hashes `bytes` with FNV-1a 128 (standard offset basis and prime) and
/// returns the two 64-bit halves.
///
/// Like [`Fnv64`], the loop is batched four bytes at a time without
/// changing the byte-serial result.
#[must_use]
pub fn fp128(bytes: &[u8]) -> Fp128 {
    let mut state = FNV128_OFFSET;
    let mut chunks = bytes.chunks_exact(4);
    for chunk in &mut chunks {
        state = (state ^ u128::from(chunk[0])).wrapping_mul(FNV128_PRIME);
        state = (state ^ u128::from(chunk[1])).wrapping_mul(FNV128_PRIME);
        state = (state ^ u128::from(chunk[2])).wrapping_mul(FNV128_PRIME);
        state = (state ^ u128::from(chunk[3])).wrapping_mul(FNV128_PRIME);
    }
    for &b in chunks.remainder() {
        state = (state ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
    }
    Fp128 {
        lo: state as u64,
        hi: (state >> 64) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = fingerprint_of(&(1u64, vec![2u8, 3], "state"));
        let b = fingerprint_of(&(1u64, vec![2u8, 3], "state"));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(fingerprint_of(&1u64), fingerprint_of(&2u64));
        assert_ne!(fingerprint_of(&[1u8, 2]), fingerprint_of(&[2u8, 1]));
    }

    #[test]
    fn matches_reference_vectors() {
        // FNV-1a 64 reference values for raw byte input.
        let mut h = Fnv64::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn batched_write_matches_serial_fnv() {
        // Lengths straddling the 4-byte batch boundary must agree with a
        // plain byte-at-a-time FNV-1a evaluation.
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            let mut serial = FNV_OFFSET;
            for &b in &bytes {
                serial = (serial ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            let mut h = Fnv64::new();
            h.write(&bytes);
            assert_eq!(h.finish(), serial, "length {len}");
        }
    }

    #[test]
    fn fp128_matches_reference_vectors() {
        // FNV-1a 128 reference values (lo = low 64 bits, hi = high 64).
        let empty = fp128(b"");
        assert_eq!(empty.hi, 0x6c62_272e_07bb_0142);
        assert_eq!(empty.lo, 0x62b8_2175_6295_c58d);
        // "a": 0xd228cb696f1a8caf78912b704e4a8964
        let a = fp128(b"a");
        assert_eq!(a.hi, 0xd228_cb69_6f1a_8caf);
        assert_eq!(a.lo, 0x7891_2b70_4e4a_8964);
    }

    #[test]
    fn fp128_batches_match_serial() {
        for len in 0..32usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(91)).collect();
            let mut serial = FNV128_OFFSET;
            for &b in &bytes {
                serial = (serial ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
            }
            let got = fp128(&bytes);
            assert_eq!(got.lo, serial as u64, "length {len}");
            assert_eq!(got.hi, (serial >> 64) as u64, "length {len}");
        }
    }

    #[test]
    fn fp128_halves_are_independent_discriminators() {
        let a = fp128(b"configuration-a");
        let b = fp128(b"configuration-b");
        assert_ne!(a, b);
        assert_ne!(a.lo, b.lo);
        assert_ne!(a.hi, b.hi);
    }

    #[test]
    fn integer_writes_are_width_stable() {
        // usize hashes like u64, so fingerprints agree across pointer widths.
        let mut a = Fnv64::new();
        a.write_usize(7);
        let mut b = Fnv64::new();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
