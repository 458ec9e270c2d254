//! Canonical state codes: the simulator half of symmetry reduction.
//!
//! A configuration's *state code* is a flat byte encoding of its registers
//! and process slots. With symmetry off it encodes the configuration as
//! is; under [`SymmetryMode::Full`] it encodes the lexicographically least
//! image of the configuration under the view-compatible permutation group
//! composed with canonical identifier renumbering — the orbit's canonical
//! representative. Two
//! configurations get the same code exactly when some group element maps
//! one to the other, so deduplicating explored states by code stores one
//! representative per orbit.
//!
//! # Soundness
//!
//! * The group only contains view-compatible pairs `(σ, π)` — slot
//!   re-assignments whose forced register permutation maps every view onto
//!   the view its target position actually carries (see
//!   [`anonreg_model::canon::view_symmetries`]). Such a pair is a pure
//!   relabeling of anonymous registers and slot indices: it commutes with
//!   every machine's transition function, no assumption needed.
//! * `Full` also renumbers identifiers by first occurrence. That
//!   commutes with transitions only for *symmetric* algorithms (Theorem
//!   3.4: identifiers admit only equality comparisons). For non-symmetric
//!   machines the embedded identifiers and literals pin each process to
//!   its slot, so spurious merges do not arise in practice — the
//!   cross-family parity suite checks this empirically.
//! * Candidate enumeration is exact while the group is small. When
//!   same-view slots with identical *invariant signatures* (identifier-
//!   blind local state × the register contents seen through the slot's
//!   view) would blow past [`CANDIDATE_CAP`] orderings, excess orderings
//!   are dropped. Dropping candidates can only *split* an orbit across
//!   two representatives — never merge two orbits — so the reduction
//!   degrades, soundly, toward no reduction.
//!
//! The encoding itself reuses the `Hash` impls of machines and values via
//! [`ByteSink`]; for `derive(Hash)` types that encoding is injective
//! (integers are self-delimiting LEB128 varints, and enum discriminants
//! and slice length prefixes keep the fields prefix-free), and the
//! explorer compares full codes, never just their fingerprints. The
//! "least image" is least in plain byte order over those varint codes;
//! which total order is used does not matter, only that the candidate set
//! is the same for every member of an orbit and the encoding is
//! injective, so equal codes mean equal images.

use std::hash::{Hash, Hasher};

use anonreg_model::canon::{view_symmetries, ByteSink, PidCanon, ViewSymmetry};
use anonreg_model::{Machine, Pid, PidMap, SymmetryMode};

use crate::Simulation;

/// Hard ceiling on candidate images tried per state per register
/// permutation. Reached only when many same-view slots share an invariant
/// signature; beyond it the enumeration soundly under-approximates.
pub(crate) const CANDIDATE_CAP: usize = 1024;

/// The encoder entry point: appends a state code to the buffer and
/// returns whether canonicalization *moved* the configuration off its
/// literal encoding.
type EncodeFn<M> = fn(&Simulation<M>, &[ViewSymmetry], &mut Vec<u8>) -> bool;

/// A state-code encoder fixed at [`Explorer`](crate::explore::Explorer)
/// build time.
///
/// Carries a plain function pointer instead of a trait object so the
/// engines can stay generic over machines *without* identifier-renaming
/// bounds: the pointer for a symmetric encoder is only minted inside
/// [`StateEncoder::for_mode`], where the `PidMap` bounds hold.
pub(crate) struct StateEncoder<M: Machine> {
    mode: SymmetryMode,
    syms: Vec<ViewSymmetry>,
    encode: EncodeFn<M>,
}

impl<M: Machine + Eq + Hash> StateEncoder<M> {
    /// The identity encoder: state codes are plain encodings, no orbit
    /// search.
    pub(crate) fn plain() -> Self {
        StateEncoder {
            mode: SymmetryMode::Off,
            syms: Vec::new(),
            encode: plain_entry::<M>,
        }
    }

    /// The symmetry mode this encoder canonicalizes under.
    pub(crate) fn mode(&self) -> SymmetryMode {
        self.mode
    }

    /// Appends `sim`'s state code to `out`, returning whether
    /// canonicalization *moved* the configuration (a non-identity image
    /// won). The plain path allocates nothing once `out` has grown to a
    /// code's size, so a caller that reuses `out` encodes without
    /// allocating.
    pub(crate) fn encode_into(&self, sim: &Simulation<M>, out: &mut Vec<u8>) -> bool {
        (self.encode)(sim, &self.syms, out)
    }
}

impl<M> StateEncoder<M>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    /// An encoder for `mode` over the view assignment of `initial`
    /// (views never change within one exploration — crashes halt a slot
    /// in place — so the admissible permutation group is computed once).
    pub(crate) fn for_mode(mode: SymmetryMode, initial: &Simulation<M>) -> Self {
        match mode {
            SymmetryMode::Off => Self::plain(),
            SymmetryMode::Full => StateEncoder {
                mode,
                syms: view_symmetries(initial.views()),
                encode: canonical_code::<M>,
            },
        }
    }
}

fn plain_entry<M: Machine + Eq + Hash>(
    sim: &Simulation<M>,
    _syms: &[ViewSymmetry],
    out: &mut Vec<u8>,
) -> bool {
    encode_plain(sim, out);
    false
}

/// The public entry point behind [`Simulation::canonical_fingerprint`]:
/// canonicalizes under the group of `sim`'s own view assignment.
pub(crate) fn state_code<M>(sim: &Simulation<M>, mode: SymmetryMode) -> Box<[u8]>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let mut code = Vec::new();
    match mode {
        SymmetryMode::Off => encode_plain(sim, &mut code),
        SymmetryMode::Full => {
            canonical_code(sim, &view_symmetries(sim.views()), &mut code);
        }
    }
    code.into_boxed_slice()
}

/// Appends the plain (identity) encoding to `out`: registers in physical
/// order, then slots in index order. Views are omitted — they are fixed
/// per slot for the whole exploration, so they cannot distinguish states
/// within one run.
fn encode_plain<M: Machine + Eq + Hash>(sim: &Simulation<M>, out: &mut Vec<u8>) {
    let n = sim.process_count();
    let mut sink = ByteSink::from(std::mem::take(out));
    sink.write_usize(sim.registers().len());
    for value in sim.registers() {
        value.hash(&mut sink);
    }
    sink.write_usize(n);
    for proc in 0..n {
        let slot = sim.slot(proc);
        slot.machine.hash(&mut sink);
        slot.pending_input.hash(&mut sink);
        slot.poised.hash(&mut sink);
        slot.halted.hash(&mut sink);
    }
    *out = sink.into_bytes();
}

/// The canonical code: appends the minimum encoding over all admissible
/// images to `out` and returns whether it differs from the identity
/// image. The candidate search allocates per candidate.
fn canonical_code<M>(sim: &Simulation<M>, syms: &[ViewSymmetry], out: &mut Vec<u8>) -> bool
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let n = sim.process_count();
    let m = sim.registers().len();
    let identity_src: Vec<usize> = (0..n).collect();
    let identity_inv: Vec<usize> = (0..m).collect();
    let id_code = encode_candidate(sim, &identity_inv, &identity_src);

    // `best` must be the minimum over the *equivariant* candidate set
    // only. Seeding it with `id_code` would look harmless but breaks
    // orbit invariance: the identity arrangement is specific to this
    // member, so a member whose own encoding undercuts every shared
    // candidate would canonicalize differently from its orbit siblings.
    let mut best: Option<Vec<u8>> = None;
    let mut src_of_target = vec![0usize; n];
    for sym in syms {
        let mut perm_inv = vec![0usize; m];
        for (old, &new) in sym.perm.iter().enumerate() {
            perm_inv[new] = old;
        }
        // Per-class source orderings, refined by invariant signature.
        let orderings: Vec<Vec<Vec<usize>>> = sym
            .classes
            .iter()
            .map(|class| class_orderings(sim, &class.sources))
            .collect();
        // Walk the cartesian product of class orderings, capped.
        let mut picks = vec![0usize; orderings.len()];
        let mut tried = 0usize;
        'product: loop {
            for (class, (&pick, ordering)) in sym.classes.iter().zip(picks.iter().zip(&orderings)) {
                for (&target, &source) in class.targets.iter().zip(&ordering[pick]) {
                    src_of_target[target] = source;
                }
            }
            let code = encode_candidate(sim, &perm_inv, &src_of_target);
            if best.as_ref().is_none_or(|b| code < *b) {
                best = Some(code);
            }
            tried += 1;
            if tried >= CANDIDATE_CAP {
                break;
            }
            // Odometer increment over the per-class ordering indices.
            for (pick, ordering) in picks.iter_mut().zip(&orderings) {
                *pick += 1;
                if *pick < ordering.len() {
                    continue 'product;
                }
                *pick = 0;
            }
            break;
        }
    }
    // The identity symmetry is always admissible, so the enumeration
    // produced at least one candidate; the fallback is unreachable.
    let best = best.as_deref().unwrap_or(&id_code);
    out.extend_from_slice(best);
    *best != *id_code
}

/// All orderings of `sources` consistent with ascending invariant
/// signatures: slots with distinct signatures are ordered by signature
/// (they can never trade places in a minimal image), tied slots are
/// permuted exhaustively up to [`CANDIDATE_CAP`].
fn class_orderings<M>(sim: &Simulation<M>, sources: &[usize]) -> Vec<Vec<usize>>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    if sources.len() == 1 {
        return vec![sources.to_vec()];
    }
    let mut tagged: Vec<(Vec<u8>, usize)> = sources
        .iter()
        .map(|&j| (slot_signature(sim, j), j))
        .collect();
    tagged.sort();
    // Tie groups of equal signature, in sorted order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut last_sig: Option<Vec<u8>> = None;
    for (sig, j) in tagged {
        if last_sig.as_ref() == Some(&sig) {
            groups
                .last_mut()
                .expect("group exists for seen sig")
                .push(j);
        } else {
            groups.push(vec![j]);
            last_sig = Some(sig);
        }
    }
    let mut orderings: Vec<Vec<usize>> = vec![Vec::new()];
    for group in groups {
        let perms = permutations_capped(&group, CANDIDATE_CAP / orderings.len().max(1));
        let mut next = Vec::with_capacity(orderings.len() * perms.len());
        for prefix in &orderings {
            for perm in &perms {
                let mut ordering = prefix.clone();
                ordering.extend_from_slice(perm);
                next.push(ordering);
            }
        }
        orderings = next;
        if orderings.len() >= CANDIDATE_CAP {
            orderings.truncate(CANDIDATE_CAP);
        }
    }
    orderings
}

/// Permutations of `items` in a deterministic order, at most `cap` of them.
fn permutations_capped(items: &[usize], cap: usize) -> Vec<Vec<usize>> {
    let cap = cap.max(1);
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(items.len());
    let mut used = vec![false; items.len()];
    fn recurse(
        items: &[usize],
        used: &mut [bool],
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
        cap: usize,
    ) {
        if out.len() >= cap {
            return;
        }
        if current.len() == items.len() {
            out.push(current.clone());
            return;
        }
        for i in 0..items.len() {
            if !used[i] {
                used[i] = true;
                current.push(items[i]);
                recurse(items, used, current, out, cap);
                current.pop();
                used[i] = false;
            }
        }
    }
    recurse(items, &mut used, &mut current, &mut out, cap);
    out
}

/// The invariant signature of slot `j`: its local state with identifiers
/// blinded plus the register contents its view orders —
/// invariant under every group element, so sorting by it never separates
/// two slots a symmetry could exchange.
fn slot_signature<M>(sim: &Simulation<M>, j: usize) -> Vec<u8>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let blind = &mut |_: Pid| Pid::new(1).expect("1 is a valid pid");
    let slot = sim.slot(j);
    let mut sink = ByteSink::new();
    slot.machine.map_pids(blind).hash(&mut sink);
    slot.pending_input.map_pids(blind).hash(&mut sink);
    match &slot.poised {
        None => sink.write_u8(0),
        Some((local, value)) => {
            sink.write_u8(1);
            sink.write_usize(*local);
            value.map_pids(blind).hash(&mut sink);
        }
    }
    slot.halted.hash(&mut sink);
    let view = sim.view(j);
    for local in 0..view.len() {
        sim.registers()[view.physical(local)]
            .map_pids(blind)
            .hash(&mut sink);
    }
    sink.into_bytes()
}

/// Encodes the image of `sim` under register permutation `perm` (given as
/// its inverse) and slot re-assignment `src_of_target`, renumbering
/// identifiers by first occurrence. The scan order
/// (registers in new physical order, then slots in target order) fixes the
/// renumbering deterministically.
fn encode_candidate<M>(sim: &Simulation<M>, perm_inv: &[usize], src_of_target: &[usize]) -> Vec<u8>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let mut canon = PidCanon::new();
    let rename_pid = &mut move |p: Pid| canon.canon(p);
    let mut sink = ByteSink::new();
    sink.write_usize(perm_inv.len());
    for &old in perm_inv {
        sim.registers()[old].map_pids(rename_pid).hash(&mut sink);
    }
    sink.write_usize(src_of_target.len());
    for &source in src_of_target {
        let slot = sim.slot(source);
        slot.machine.map_pids(rename_pid).hash(&mut sink);
        slot.pending_input.map_pids(rename_pid).hash(&mut sink);
        match &slot.poised {
            None => sink.write_u8(0),
            Some((local, value)) => {
                sink.write_u8(1);
                sink.write_usize(*local);
                value.map_pids(rename_pid).hash(&mut sink);
            }
        }
        slot.halted.hash(&mut sink);
    }
    sink.into_bytes()
}
