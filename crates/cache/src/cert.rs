//! The certificate container: writer, streaming replay verifier, errors.
//!
//! # On-disk layout (version 2, all integers little-endian)
//!
//! ```text
//! header   96 bytes  magic "ANRGCERT" | version u32 | verdict_count u32
//!                    | structural lo,hi | state_count | edge_count
//!                    | state_set_fp lo,hi | edge_fp lo,hi
//!                    | verdict_fp lo,hi
//! states   per state, in strictly ascending code order:
//!                    varint(shared prefix with previous code)
//!                    varint(suffix length) + suffix bytes
//! edges    per edge, sorted by (src, tgt, proc, crash):
//!                    varint(src - previous src) + varint(tgt)
//!                    + varint(proc) + u8 crash
//! verdicts per verdict: varint(name length) + name utf-8 + u8 bool
//! ```
//!
//! State codes are the explorer's canonical encodings, so sorting them
//! gives every state a *canonical index* (its rank) that is identical no
//! matter which engine — or which run — produced the certificate; edges
//! are recorded against those ranks, which is what makes certificates
//! from race-ordered multi-worker runs byte-comparable to one-worker
//! ones. The state and edge fingerprints are wrapping sums of per-item
//! [`fp128`] values, so they are order-independent and recomputable in
//! one streaming pass; the verdict fingerprint additionally folds each
//! record's index in, because verdict *order* is meaningful (it is the
//! registration order the explorer reports back).

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use anonreg_model::fingerprint::{fp128, Fp128};

/// File magic: an anonreg reachability certificate.
const MAGIC: [u8; 8] = *b"ANRGCERT";
/// Container version this crate reads and writes.
const VERSION: u32 = 2;
/// Fixed header length in bytes.
const HEADER_LEN: usize = 96;
/// Sanity cap on a single state code's length (codes are flat register +
/// slot encodings, a few hundred bytes at the extreme; a corrupt length
/// prefix must not drive an allocation by gigabytes).
const MAX_CODE_LEN: u64 = 1 << 24;
/// Sanity cap on a verdict name's length.
const MAX_NAME_LEN: u64 = 1 << 12;
/// Sanity cap on the header's verdict count — same rule as
/// [`MAX_CODE_LEN`]: a corrupt count must not drive an allocation by
/// gigabytes (explorations register a handful of verdicts, not 2³²).
const MAX_VERDICTS: u32 = 1 << 16;

/// Why a certificate could not be written or replayed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertError {
    /// The underlying file operation failed.
    Io(String),
    /// The bytes are not a well-formed certificate (bad magic, torn
    /// section, non-ascending codes, out-of-range edge index, mismatched
    /// section fingerprint…). The message names the first violation.
    Corrupt(String),
    /// The certificate is well-formed but pins a different verification
    /// problem: its structural key does not match the current machines,
    /// limits or symmetry mode. Re-run a cold exploration (or
    /// `check verify-cache --invalidate`) to refresh it.
    Stale {
        /// The structural key of the problem being verified now.
        expected: Fp128,
        /// The structural key embedded in the certificate.
        found: Fp128,
    },
    /// The certificate was written by an incompatible container version.
    Version {
        /// The version field found in the header.
        found: u32,
    },
    /// The certificate is intact and pins the right structural key, but
    /// the verdict set it records is not the one registered on the
    /// replaying explorer. The structural key already covers the
    /// registered verdict names, so reaching this means a key collision
    /// or a tampered store — either way the recorded verdicts cannot be
    /// trusted to answer the current question.
    VerdictMismatch {
        /// Verdict names the certificate records, in recorded order.
        recorded: Vec<String>,
        /// Verdict names registered on the replaying explorer, in
        /// registration order.
        registered: Vec<String>,
    },
}

/// Renders a 128-bit key the way [`crate::store::CacheStore`] names
/// certificate files: high half first, 32 hex digits.
fn key_hex(fp: Fp128) -> String {
    format!("{:016x}{:016x}", fp.hi, fp.lo)
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Io(msg) => write!(f, "certificate io error: {msg}"),
            CertError::Corrupt(msg) => write!(f, "corrupt certificate: {msg}"),
            CertError::Stale { expected, found } => write!(
                f,
                "stale certificate: it pins structural key {} but the current \
                 machines/config hash to {}; the verified semantics changed, so \
                 the cached verdicts cannot be trusted — re-run a cold \
                 exploration to refresh it",
                key_hex(*found),
                key_hex(*expected),
            ),
            CertError::Version { found } => write!(
                f,
                "unsupported certificate version {found} (this build reads version {VERSION})"
            ),
            CertError::VerdictMismatch {
                recorded,
                registered,
            } => write!(
                f,
                "verdict-set mismatch: the certificate records [{}] but the replaying \
                 explorer registers [{}]; re-run a cold exploration to refresh it",
                recorded.join(", "),
                registered.join(", "),
            ),
        }
    }
}

impl std::error::Error for CertError {}

impl From<io::Error> for CertError {
    fn from(e: io::Error) -> Self {
        CertError::Io(e.to_string())
    }
}

/// What a successful [`replay`] re-validated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Distinct states in the certified reachable set.
    pub states: u64,
    /// Transitions in the certified edge multiset.
    pub edges: u64,
    /// The named verdicts the original exploration established, in
    /// recorded order.
    pub verdicts: Vec<(String, bool)>,
}

/// LEB128-encodes `value` into `out`.
fn write_varint(out: &mut impl Write, mut value: u64) -> io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

/// Decodes one LEB128 value, rejecting encodings longer than 10 bytes.
/// A file that ends mid-varint is damage, not an IO failure, so EOF maps
/// to [`CertError::Corrupt`] like every other truncation; callers inside
/// section decoding add the section/index context via [`in_section`].
fn read_varint(input: &mut impl Read) -> Result<u64, CertError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        input.read_exact(&mut byte).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                CertError::Corrupt("truncated varint".into())
            } else {
                CertError::Io(e.to_string())
            }
        })?;
        if shift >= 63 && byte[0] > 1 {
            return Err(CertError::Corrupt("varint overflows 64 bits".into()));
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(CertError::Corrupt("varint longer than 10 bytes".into()));
        }
    }
}

/// Prefixes a corruption report with its section/index context, so a
/// truncation inside `read_varint` names where the damage was found just
/// like the neighbouring `read_exact` sites. Other variants pass through.
fn in_section(e: CertError, context: impl FnOnce() -> String) -> CertError {
    match e {
        CertError::Corrupt(msg) => CertError::Corrupt(format!("{}: {msg}", context())),
        other => other,
    }
}

/// Order-independent section fingerprint: a wrapping sum of per-item
/// 128-bit FNV fingerprints, halves accumulated separately.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct FpSum {
    lo: u64,
    hi: u64,
}

impl FpSum {
    fn absorb(&mut self, fp: Fp128) {
        self.lo = self.lo.wrapping_add(fp.lo);
        self.hi = self.hi.wrapping_add(fp.hi);
    }

    fn as_fp(self) -> Fp128 {
        Fp128 {
            lo: self.lo,
            hi: self.hi,
        }
    }
}

/// The 25-byte edge record hashed into the edge-multiset fingerprint.
fn edge_fp(src: u64, tgt: u64, proc: u64, crash: bool) -> Fp128 {
    let mut buf = [0u8; 25];
    buf[0..8].copy_from_slice(&src.to_le_bytes());
    buf[8..16].copy_from_slice(&tgt.to_le_bytes());
    buf[16..24].copy_from_slice(&proc.to_le_bytes());
    buf[24] = u8::from(crash);
    fp128(&buf)
}

/// The fingerprint of one verdict record. The state and edge sections
/// are fingerprinted order-independently, but verdict *order* carries
/// meaning (it is the registration order the explorer reports back), so
/// the record's index is folded in — reordering, renaming or flipping a
/// verdict all change the section fingerprint.
fn verdict_fp(index: u64, name: &str, value: bool) -> Fp128 {
    let mut buf = Vec::with_capacity(17 + name.len());
    buf.extend_from_slice(&index.to_le_bytes());
    buf.extend_from_slice(&(name.len() as u64).to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    buf.push(u8::from(value));
    fp128(&buf)
}

/// Length of the shared prefix of two byte strings.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Distinguishes concurrently written temp files in one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Streams one certificate to disk. Codes first (strictly ascending),
/// then edges (sorted by source index), then [`CertWriter::finish`] with
/// the verdicts; the header is back-patched and the file atomically
/// renamed into place, so readers never observe a half-written
/// certificate.
#[derive(Debug)]
pub struct CertWriter {
    /// `Some` until `finish` consumes it (the `Drop` impl forbids a
    /// plain move-out).
    out: Option<BufWriter<File>>,
    tmp: PathBuf,
    path: PathBuf,
    structural: Fp128,
    prev_code: Vec<u8>,
    state_count: u64,
    state_fp: FpSum,
    edges_started: bool,
    prev_src: u64,
    edge_count: u64,
    edge_fp: FpSum,
}

impl CertWriter {
    /// Opens a writer that will become the certificate at `path` (its
    /// parent directory must exist) for the problem keyed `structural`.
    pub fn create(path: &Path, structural: Fp128) -> Result<Self, CertError> {
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut name = path
            .file_name()
            .ok_or_else(|| CertError::Io("certificate path has no file name".into()))?
            .to_os_string();
        name.push(format!(".tmp.{}.{seq}", std::process::id()));
        let tmp = path.with_file_name(name);
        let mut out = BufWriter::new(File::create(&tmp)?);
        // Placeholder header; back-patched by `finish`.
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(CertWriter {
            out: Some(out),
            tmp,
            path: path.to_path_buf(),
            structural,
            prev_code: Vec::new(),
            state_count: 0,
            state_fp: FpSum::default(),
            edges_started: false,
            prev_src: 0,
            edge_count: 0,
            edge_fp: FpSum::default(),
        })
    }

    /// Appends the next canonical state code. Codes must arrive in
    /// strictly ascending lexicographic order (their rank is the state's
    /// canonical index).
    pub fn push_code(&mut self, code: &[u8]) -> Result<(), CertError> {
        if self.edges_started {
            return Err(CertError::Corrupt(
                "writer misuse: state code pushed after the edge section began".into(),
            ));
        }
        if self.state_count > 0 && code <= self.prev_code.as_slice() {
            return Err(CertError::Corrupt(
                "writer misuse: state codes must be strictly ascending".into(),
            ));
        }
        let prefix = common_prefix(&self.prev_code, code);
        let out = self.out.as_mut().expect("writer already finished");
        write_varint(out, prefix as u64)?;
        write_varint(out, (code.len() - prefix) as u64)?;
        out.write_all(&code[prefix..])?;
        self.state_fp.absorb(fp128(code));
        self.prev_code.clear();
        self.prev_code.extend_from_slice(code);
        self.state_count += 1;
        Ok(())
    }

    /// Appends one edge over canonical state indices. Edges must arrive
    /// with non-decreasing `src`.
    pub fn push_edge(
        &mut self,
        src: u64,
        tgt: u64,
        proc: u64,
        crash: bool,
    ) -> Result<(), CertError> {
        if self.edges_started && src < self.prev_src {
            return Err(CertError::Corrupt(
                "writer misuse: edges must be sorted by source index".into(),
            ));
        }
        if src >= self.state_count || tgt >= self.state_count {
            return Err(CertError::Corrupt(format!(
                "writer misuse: edge ({src} -> {tgt}) references a state beyond the \
                 {} recorded",
                self.state_count
            )));
        }
        let delta = if self.edges_started {
            src - self.prev_src
        } else {
            src
        };
        let out = self.out.as_mut().expect("writer already finished");
        write_varint(out, delta)?;
        write_varint(out, tgt)?;
        write_varint(out, proc)?;
        out.write_all(&[u8::from(crash)])?;
        self.edge_fp.absorb(edge_fp(src, tgt, proc, crash));
        self.edges_started = true;
        self.prev_src = src;
        self.edge_count += 1;
        Ok(())
    }

    /// Writes the verdict section, back-patches the header and renames
    /// the finished certificate into place.
    pub fn finish(mut self, verdicts: &[(String, bool)]) -> Result<(), CertError> {
        let out = self.out.as_mut().expect("writer already finished");
        let mut verdicts_fp = FpSum::default();
        for (index, (name, value)) in verdicts.iter().enumerate() {
            write_varint(out, name.len() as u64)?;
            out.write_all(name.as_bytes())?;
            out.write_all(&[u8::from(*value)])?;
            verdicts_fp.absorb(verdict_fp(index as u64, name, *value));
        }
        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(
            &u32::try_from(verdicts.len())
                .map_err(|_| CertError::Corrupt("more than u32::MAX verdicts".into()))?
                .to_le_bytes(),
        );
        header[16..24].copy_from_slice(&self.structural.lo.to_le_bytes());
        header[24..32].copy_from_slice(&self.structural.hi.to_le_bytes());
        header[32..40].copy_from_slice(&self.state_count.to_le_bytes());
        header[40..48].copy_from_slice(&self.edge_count.to_le_bytes());
        header[48..56].copy_from_slice(&self.state_fp.lo.to_le_bytes());
        header[56..64].copy_from_slice(&self.state_fp.hi.to_le_bytes());
        header[64..72].copy_from_slice(&self.edge_fp.lo.to_le_bytes());
        header[72..80].copy_from_slice(&self.edge_fp.hi.to_le_bytes());
        header[80..88].copy_from_slice(&verdicts_fp.lo.to_le_bytes());
        header[88..96].copy_from_slice(&verdicts_fp.hi.to_le_bytes());

        let mut file = self
            .out
            .take()
            .expect("writer already finished")
            .into_inner()
            .map_err(|e| CertError::Io(e.to_string()))?;
        file.rewind()?;
        file.write_all(&header)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&self.tmp, &self.path)?;
        Ok(())
    }
}

impl Drop for CertWriter {
    fn drop(&mut self) {
        // An unfinished writer leaves no debris behind: `finish` renames
        // the temp file away before `self` drops, making this a no-op on
        // the success path.
        let _ = std::fs::remove_file(&self.tmp);
    }
}

fn read_u32(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf.try_into().expect("4-byte slice"))
}

fn read_u64(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf.try_into().expect("8-byte slice"))
}

/// Re-validates the certificate at `path` against the problem keyed
/// `expected` whose initial configuration encodes to `initial_code`.
///
/// One buffered sequential pass, bounded memory (the previous code and
/// the current one — never the whole set): the structural key must
/// match, the code list must be strictly ascending (so its entries are
/// distinct and their ranks well-defined), `initial_code` must be a
/// member, every edge endpoint must land inside the recorded set (the
/// closure check: no recorded successor escapes), and all three section
/// fingerprints — states, edges, verdicts — must re-derive bit-exactly
/// from the streamed items.
///
/// # Errors
///
/// [`CertError::Stale`] when the structural key differs — the machines,
/// limits or symmetry mode changed since emission; [`CertError::Corrupt`]
/// for any structural violation; [`CertError::Version`] /
/// [`CertError::Io`] as named.
pub fn replay(
    path: &Path,
    expected: Fp128,
    initial_code: &[u8],
) -> Result<ReplaySummary, CertError> {
    let mut input = BufReader::new(File::open(path)?);
    let mut header = [0u8; HEADER_LEN];
    input
        .read_exact(&mut header)
        .map_err(|_| CertError::Corrupt("file shorter than the fixed certificate header".into()))?;
    if header[0..8] != MAGIC {
        return Err(CertError::Corrupt(
            "bad magic: not an anonreg reachability certificate".into(),
        ));
    }
    let version = read_u32(&header[8..12]);
    if version != VERSION {
        return Err(CertError::Version { found: version });
    }
    let verdict_count = read_u32(&header[12..16]);
    if verdict_count > MAX_VERDICTS {
        return Err(CertError::Corrupt(format!(
            "verdict count {verdict_count} exceeds the {MAX_VERDICTS} sanity cap"
        )));
    }
    let found = Fp128 {
        lo: read_u64(&header[16..24]),
        hi: read_u64(&header[24..32]),
    };
    if found != expected {
        return Err(CertError::Stale { expected, found });
    }
    let state_count = read_u64(&header[32..40]);
    let edge_count = read_u64(&header[40..48]);
    let state_fp_want = Fp128 {
        lo: read_u64(&header[48..56]),
        hi: read_u64(&header[56..64]),
    };
    let edge_fp_want = Fp128 {
        lo: read_u64(&header[64..72]),
        hi: read_u64(&header[72..80]),
    };
    let verdict_fp_want = Fp128 {
        lo: read_u64(&header[80..88]),
        hi: read_u64(&header[88..96]),
    };
    if state_count == 0 {
        return Err(CertError::Corrupt("certificate records zero states".into()));
    }

    // States: strictly ascending delta-decoded codes, membership check
    // for the initial configuration, running set fingerprint.
    let mut prev: Vec<u8> = Vec::new();
    let mut current: Vec<u8> = Vec::new();
    let mut state_fp_got = FpSum::default();
    let mut initial_found = false;
    for index in 0..state_count {
        let ctx = |e| in_section(e, || format!("state {index}"));
        let prefix = read_varint(&mut input).map_err(ctx)?;
        let suffix = read_varint(&mut input).map_err(ctx)?;
        if suffix > MAX_CODE_LEN {
            return Err(CertError::Corrupt(format!(
                "state {index}: suffix length {suffix} exceeds the {MAX_CODE_LEN}-byte cap"
            )));
        }
        if prefix as usize > prev.len() {
            return Err(CertError::Corrupt(format!(
                "state {index}: shared prefix {prefix} exceeds the previous code's length"
            )));
        }
        current.clear();
        current.extend_from_slice(&prev[..prefix as usize]);
        let start = current.len();
        current.resize(start + suffix as usize, 0);
        input
            .read_exact(&mut current[start..])
            .map_err(|_| CertError::Corrupt(format!("state {index}: truncated code suffix")))?;
        if index > 0 && current <= prev {
            return Err(CertError::Corrupt(format!(
                "state {index}: codes are not strictly ascending"
            )));
        }
        state_fp_got.absorb(fp128(&current));
        initial_found |= current == initial_code;
        std::mem::swap(&mut prev, &mut current);
    }
    if state_fp_got.as_fp() != state_fp_want {
        return Err(CertError::Corrupt(
            "state-set fingerprint does not re-derive from the recorded codes".into(),
        ));
    }
    if !initial_found {
        return Err(CertError::Corrupt(
            "the initial configuration is not a member of the recorded state set".into(),
        ));
    }

    // Edges: closure check (both endpoints inside the set), source
    // monotonicity, running multiset fingerprint.
    let mut edge_fp_got = FpSum::default();
    let mut src = 0u64;
    let mut started = false;
    for index in 0..edge_count {
        let ctx = |e| in_section(e, || format!("edge {index}"));
        let delta = read_varint(&mut input).map_err(ctx)?;
        src = if started {
            src.checked_add(delta).ok_or_else(|| {
                CertError::Corrupt(format!("edge {index}: source index overflows"))
            })?
        } else {
            delta
        };
        started = true;
        let tgt = read_varint(&mut input).map_err(ctx)?;
        let proc = read_varint(&mut input).map_err(ctx)?;
        let mut crash = [0u8; 1];
        input
            .read_exact(&mut crash)
            .map_err(|_| CertError::Corrupt(format!("edge {index}: truncated record")))?;
        if crash[0] > 1 {
            return Err(CertError::Corrupt(format!(
                "edge {index}: crash flag must be 0 or 1"
            )));
        }
        if src >= state_count || tgt >= state_count {
            return Err(CertError::Corrupt(format!(
                "edge {index} ({src} -> {tgt}): successor escapes the recorded set of \
                 {state_count} states (closure violation)"
            )));
        }
        edge_fp_got.absorb(edge_fp(src, tgt, proc, crash[0] == 1));
    }
    if edge_fp_got.as_fp() != edge_fp_want {
        return Err(CertError::Corrupt(
            "edge-multiset fingerprint does not re-derive from the recorded edges".into(),
        ));
    }

    // Verdicts (count already capped at MAX_VERDICTS, so the
    // pre-allocation is bounded), then a hard end-of-file.
    let mut verdict_fp_got = FpSum::default();
    let mut verdicts = Vec::with_capacity(verdict_count as usize);
    for index in 0..verdict_count {
        let len =
            read_varint(&mut input).map_err(|e| in_section(e, || format!("verdict {index}")))?;
        if len > MAX_NAME_LEN {
            return Err(CertError::Corrupt(format!(
                "verdict {index}: name length {len} exceeds the {MAX_NAME_LEN}-byte cap"
            )));
        }
        let mut name = vec![0u8; len as usize];
        input
            .read_exact(&mut name)
            .map_err(|_| CertError::Corrupt(format!("verdict {index}: truncated name")))?;
        let name = String::from_utf8(name)
            .map_err(|_| CertError::Corrupt(format!("verdict {index}: name is not utf-8")))?;
        let mut value = [0u8; 1];
        input
            .read_exact(&mut value)
            .map_err(|_| CertError::Corrupt(format!("verdict {index}: truncated value")))?;
        if value[0] > 1 {
            return Err(CertError::Corrupt(format!(
                "verdict {index}: value must be 0 or 1"
            )));
        }
        verdict_fp_got.absorb(verdict_fp(u64::from(index), &name, value[0] == 1));
        verdicts.push((name, value[0] == 1));
    }
    if verdict_fp_got.as_fp() != verdict_fp_want {
        return Err(CertError::Corrupt(
            "verdict-section fingerprint does not re-derive from the recorded verdicts".into(),
        ));
    }
    let mut trailing = [0u8; 1];
    if input.read(&mut trailing)? != 0 {
        return Err(CertError::Corrupt(
            "trailing bytes after the verdict section".into(),
        ));
    }

    Ok(ReplaySummary {
        states: state_count,
        edges: edge_count,
        verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("anonreg-cache-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.cert")
    }

    fn key(n: u64) -> Fp128 {
        Fp128 { lo: n, hi: !n }
    }

    /// A tiny three-state certificate used across the tests.
    fn write_sample(path: &Path, structural: Fp128) {
        let mut w = CertWriter::create(path, structural).unwrap();
        w.push_code(b"alpha").unwrap();
        w.push_code(b"alphb").unwrap();
        w.push_code(b"beta").unwrap();
        w.push_edge(0, 1, 0, false).unwrap();
        w.push_edge(0, 2, 1, false).unwrap();
        w.push_edge(1, 2, 1, true).unwrap();
        w.finish(&[("safety".into(), true), ("livelock".into(), false)])
            .unwrap();
    }

    #[test]
    fn round_trips() {
        let path = tmp_path("roundtrip");
        write_sample(&path, key(7));
        let summary = replay(&path, key(7), b"alpha").unwrap();
        assert_eq!(summary.states, 3);
        assert_eq!(summary.edges, 3);
        assert_eq!(
            summary.verdicts,
            vec![
                ("safety".to_string(), true),
                ("livelock".to_string(), false)
            ]
        );
    }

    #[test]
    fn initial_membership_is_checked_anywhere_in_the_set() {
        let path = tmp_path("membership");
        write_sample(&path, key(7));
        // A middle member works; a non-member is refused.
        assert!(replay(&path, key(7), b"alphb").is_ok());
        let err = replay(&path, key(7), b"gamma").unwrap_err();
        assert!(matches!(err, CertError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("initial configuration"));
    }

    #[test]
    fn stale_structural_key_is_refused_with_both_keys_named() {
        let path = tmp_path("stale");
        write_sample(&path, key(7));
        let err = replay(&path, key(8), b"alpha").unwrap_err();
        assert_eq!(
            err,
            CertError::Stale {
                expected: key(8),
                found: key(7)
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("re-run a cold exploration"), "{msg}");
    }

    #[test]
    fn truncated_and_garbage_files_are_corrupt_not_panics() {
        let path = tmp_path("garbage");
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(
            replay(&path, key(1), b"x").unwrap_err(),
            CertError::Corrupt(_)
        ));
        std::fs::write(&path, vec![0u8; HEADER_LEN + 8]).unwrap();
        assert!(matches!(
            replay(&path, key(1), b"x").unwrap_err(),
            CertError::Corrupt(_)
        ));
    }

    #[test]
    fn flipped_code_byte_breaks_the_set_fingerprint() {
        let path = tmp_path("bitflip");
        write_sample(&path, key(7));
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the states section (just past the header).
        let idx = HEADER_LEN + 3;
        bytes[idx] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        let err = replay(&path, key(7), b"alpha").unwrap_err();
        assert!(matches!(err, CertError::Corrupt(_)), "{err}");
    }

    #[test]
    fn huge_verdict_count_is_refused_before_allocating() {
        let path = tmp_path("verdictcount");
        write_sample(&path, key(7));
        let mut bytes = std::fs::read(&path).unwrap();
        // Patch the header's verdict_count to u32::MAX: replay must
        // report corruption, not attempt a multi-gigabyte allocation.
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let err = replay(&path, key(7), b"alpha").unwrap_err();
        assert!(matches!(err, CertError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("sanity cap"), "{err}");
    }

    #[test]
    fn truncation_mid_varint_is_corrupt_with_section_context() {
        let path = tmp_path("midvarint");
        write_sample(&path, key(7));
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the states section: the first record's prefix
        // varint survives, its suffix-length varint does not.
        std::fs::write(&path, &bytes[..HEADER_LEN + 1]).unwrap();
        let err = replay(&path, key(7), b"alpha").unwrap_err();
        assert!(
            matches!(err, CertError::Corrupt(_)),
            "truncation is damage, not io: {err}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains("state 0") && msg.contains("truncated varint"),
            "{msg}"
        );
    }

    #[test]
    fn flipped_verdict_value_breaks_the_verdict_fingerprint() {
        let path = tmp_path("verdictflip");
        write_sample(&path, key(7));
        let mut bytes = std::fs::read(&path).unwrap();
        // The last byte is the "livelock" verdict's value; names and
        // values are pinned by the verdict fingerprint, so a flip must
        // not replay as a clean (wrong) answer.
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, bytes).unwrap();
        let err = replay(&path, key(7), b"alpha").unwrap_err();
        assert!(matches!(err, CertError::Corrupt(_)), "{err}");
        assert!(
            err.to_string().contains("verdict-section fingerprint"),
            "{err}"
        );
    }

    #[test]
    fn unknown_version_is_reported() {
        let path = tmp_path("version");
        write_sample(&path, key(7));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 9;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(
            replay(&path, key(7), b"alpha").unwrap_err(),
            CertError::Version { found: 9 }
        );
    }

    #[test]
    fn writer_enforces_code_order_and_edge_closure() {
        let path = tmp_path("misuse");
        let mut w = CertWriter::create(&path, key(1)).unwrap();
        w.push_code(b"bb").unwrap();
        assert!(w.push_code(b"aa").is_err(), "descending code accepted");
        assert!(
            w.push_edge(0, 5, 0, false).is_err(),
            "dangling edge accepted"
        );
        // The unfinished temp file is cleaned up on drop.
        drop(w);
        assert!(!path.exists());
    }

    #[test]
    fn varints_round_trip_across_widths() {
        for value in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value).unwrap();
            let got = read_varint(&mut io::Cursor::new(&buf)).unwrap();
            assert_eq!(got, value);
        }
    }
}
