//! Canonical state codes: the simulator half of symmetry reduction.
//!
//! A configuration's *state code* is a flat byte encoding of its registers
//! and process slots. With symmetry off it encodes the configuration as
//! is; under [`SymmetryMode::Registers`]/[`SymmetryMode::Full`] it encodes
//! the lexicographically least image of the configuration under the
//! view-compatible permutation group (plus, for `Full`, canonical
//! identifier renumbering) — the orbit's canonical representative. Two
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
//! * `Full` additionally renumbers identifiers by first occurrence. That
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
type EncodeFn<M> = fn(&Simulation<M>, &[ViewSymmetry], SymmetryMode, &mut Vec<u8>) -> bool;

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
    skipped: bool,
}

impl<M: Machine + Eq + Hash> StateEncoder<M> {
    /// The identity encoder: state codes are plain encodings, no orbit
    /// search.
    pub(crate) fn plain() -> Self {
        StateEncoder {
            mode: SymmetryMode::Off,
            syms: Vec::new(),
            encode: plain_entry::<M>,
            skipped: false,
        }
    }

    /// The symmetry mode this encoder canonicalizes under.
    pub(crate) fn mode(&self) -> SymmetryMode {
        self.mode
    }

    /// Whether canonical encoding was short-circuited to the identity
    /// path because the admissible group is trivial (identity register
    /// permutation, no exchangeable slots). Engines report this via the
    /// `canon_skipped` counter so the fast path is observable.
    pub(crate) fn skips_trivial_orbits(&self) -> bool {
        self.skipped
    }

    /// Appends `sim`'s state code to `out`, returning whether
    /// canonicalization *moved* the configuration (a non-identity image
    /// won). The plain path allocates nothing once `out` has grown to a
    /// code's size, so a caller that reuses `out` encodes without
    /// allocating.
    pub(crate) fn encode_into(&self, sim: &Simulation<M>, out: &mut Vec<u8>) -> bool {
        (self.encode)(sim, &self.syms, self.mode, out)
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
    ///
    /// # The trivial-orbit fast path
    ///
    /// Under `Registers` the orbit search is short-circuited to the
    /// plain identity encoding when it provably cannot merge two
    /// distinct states *of this exploration*:
    ///
    /// * **Trivial group** — only the identity symmetry is admissible.
    ///   With no renaming, the identity candidate's bytes equal the
    ///   plain encoding, so state codes are unchanged by construction.
    /// * **Pid-pinned slots** — the initial machines carry pairwise
    ///   distinct identifiers that are visible in their encodings (see
    ///   [`pids_pin_slots`]). A process's identifier is fixed for its
    ///   lifetime, so every reachable state keeps pid `p_j` at slot
    ///   `j`. Suppose two reachable states `X`, `Y` shared a canonical
    ///   code: some admissible `(π₁, σ₁)` image of `X` equals some
    ///   `(π₂, σ₂)` image of `Y` byte for byte. The encoding is
    ///   prefix-free (varint integers are self-delimiting), so the slot
    ///   written at target `t` matches:
    ///   `X`'s slot `σ₁(t)` equals `Y`'s slot `σ₂(t)` — including the
    ///   embedded pid, forcing `σ₁ = σ₂` (pids are distinct). A
    ///   symmetry's register permutation is determined by where it
    ///   sends slot 0 (`π = v_{σ(0)} ∘ v₀⁻¹`), so `π₁ = π₂` too, and
    ///   the register sections then force `X = Y`. Canonicalization is
    ///   therefore injective on the reachable set — zero reduction at
    ///   full orbit-search cost, exactly what E16 measured on the ring
    ///   mutex and symmetric consensus. Substituting the (also
    ///   injective) plain encoding preserves state and edge counts.
    ///
    /// The fast path can only ever *skip* reduction, never introduce a
    /// spurious merge — in the worst case (a machine whose encoding
    /// hides its pid in later states, defeating the build-time probe)
    /// the explorer falls back to the unreduced graph, which is always
    /// a sound model. `Full` renames identifiers, which un-pins the
    /// slots, so it always keeps the canonical path.
    pub(crate) fn for_mode(mode: SymmetryMode, initial: &Simulation<M>) -> Self {
        match mode {
            SymmetryMode::Off => Self::plain(),
            SymmetryMode::Registers | SymmetryMode::Full => {
                let syms = view_symmetries(initial.views());
                if mode == SymmetryMode::Registers
                    && (group_is_trivial(&syms) || pids_pin_slots(initial))
                {
                    return StateEncoder {
                        mode,
                        syms: Vec::new(),
                        encode: plain_entry::<M>,
                        skipped: true,
                    };
                }
                StateEncoder {
                    mode,
                    syms,
                    encode: canonical_code::<M>,
                    skipped: false,
                }
            }
        }
    }
}

/// Whether the admissible group contains only the identity: a single
/// symmetry whose register permutation is the identity and whose
/// classes admit no slot exchange (every class has at most one source).
fn group_is_trivial(syms: &[ViewSymmetry]) -> bool {
    match syms {
        [only] => {
            only.perm.iter().enumerate().all(|(i, &p)| i == p)
                && only.classes.iter().all(|c| c.sources.len() <= 1)
        }
        _ => false,
    }
}

/// Whether the initial machines carry pairwise distinct identifiers
/// *and* those identifiers are visible in the machines' encodings —
/// checked by renaming every pid in a machine to a fresh one and
/// requiring the encoding to change. A machine whose `Hash` ignores its
/// pid (a genuinely anonymous local state, where two slots can become
/// byte-identical and `Registers`-mode merging is real) fails the probe,
/// keeping the canonical path. The probe inspects initial states only;
/// identifiers are lifetime-constant per the [`Machine::pid`] contract,
/// and a machine that *stops* encoding its pid mid-run would at worst
/// re-enable a reduction this fast path skips — never unsoundness.
fn pids_pin_slots<M>(sim: &Simulation<M>) -> bool
where
    M: Machine + Eq + Hash + PidMap,
{
    let n = sim.process_count();
    let mut pids: Vec<u64> = (0..n).map(|j| sim.slot(j).machine.pid().get()).collect();
    let fresh =
        Pid::new(pids.iter().copied().max().unwrap_or(0) + 1).expect("max pid + 1 is nonzero");
    pids.sort_unstable();
    pids.dedup();
    if pids.len() != n {
        return false;
    }
    (0..n).all(|j| {
        let machine = &sim.slot(j).machine;
        let mut original = ByteSink::new();
        machine.hash(&mut original);
        let mut renamed = ByteSink::new();
        machine.map_pids(&mut |_| fresh).hash(&mut renamed);
        original.into_bytes() != renamed.into_bytes()
    })
}

fn plain_entry<M: Machine + Eq + Hash>(
    sim: &Simulation<M>,
    _syms: &[ViewSymmetry],
    _mode: SymmetryMode,
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
        SymmetryMode::Registers | SymmetryMode::Full => {
            canonical_code(sim, &view_symmetries(sim.views()), mode, &mut code);
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
fn canonical_code<M>(
    sim: &Simulation<M>,
    syms: &[ViewSymmetry],
    mode: SymmetryMode,
    out: &mut Vec<u8>,
) -> bool
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let rename = mode == SymmetryMode::Full;
    let n = sim.process_count();
    let m = sim.registers().len();
    let identity_src: Vec<usize> = (0..n).collect();
    let identity_inv: Vec<usize> = (0..m).collect();
    let id_code = encode_candidate(sim, &identity_inv, &identity_src, rename);

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
            .map(|class| class_orderings(sim, &class.sources, rename))
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
            let code = encode_candidate(sim, &perm_inv, &src_of_target, rename);
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
fn class_orderings<M>(sim: &Simulation<M>, sources: &[usize], rename: bool) -> Vec<Vec<usize>>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    if sources.len() == 1 {
        return vec![sources.to_vec()];
    }
    let mut tagged: Vec<(Vec<u8>, usize)> = sources
        .iter()
        .map(|&j| (slot_signature(sim, j, rename), j))
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
/// blinded (under `Full`) plus the register contents its view orders —
/// invariant under every group element, so sorting by it never separates
/// two slots a symmetry could exchange.
fn slot_signature<M>(sim: &Simulation<M>, j: usize, rename: bool) -> Vec<u8>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let blind = &mut |_: Pid| Pid::new(1).expect("1 is a valid pid");
    let slot = sim.slot(j);
    let mut sink = ByteSink::new();
    if rename {
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
    } else {
        slot.machine.hash(&mut sink);
        slot.pending_input.hash(&mut sink);
        slot.poised.hash(&mut sink);
    }
    slot.halted.hash(&mut sink);
    let view = sim.view(j);
    for local in 0..view.len() {
        let value = &sim.registers()[view.physical(local)];
        if rename {
            value.map_pids(blind).hash(&mut sink);
        } else {
            value.hash(&mut sink);
        }
    }
    sink.into_bytes()
}

/// Encodes the image of `sim` under register permutation `perm` (given as
/// its inverse) and slot re-assignment `src_of_target`, renumbering
/// identifiers by first occurrence when `rename` is set. The scan order
/// (registers in new physical order, then slots in target order) fixes the
/// renumbering deterministically.
fn encode_candidate<M>(
    sim: &Simulation<M>,
    perm_inv: &[usize],
    src_of_target: &[usize],
    rename: bool,
) -> Vec<u8>
where
    M: Machine + Eq + Hash + PidMap,
    M::Value: PidMap,
{
    let mut canon = PidCanon::new();
    let rename_pid = &mut move |p: Pid| canon.canon(p);
    let mut sink = ByteSink::new();
    sink.write_usize(perm_inv.len());
    for &old in perm_inv {
        let value = &sim.registers()[old];
        if rename {
            value.map_pids(rename_pid).hash(&mut sink);
        } else {
            value.hash(&mut sink);
        }
    }
    sink.write_usize(src_of_target.len());
    for &source in src_of_target {
        let slot = sim.slot(source);
        if rename {
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
        } else {
            slot.machine.hash(&mut sink);
            slot.pending_input.hash(&mut sink);
            slot.poised.hash(&mut sink);
        }
        slot.halted.hash(&mut sink);
    }
    sink.into_bytes()
}
