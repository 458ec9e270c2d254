//! Golden values for a configuration's identity.
//!
//! A configuration is identified three ways: [`Simulation::fingerprint`]
//! (registers plus every slot, its view included, in slot order),
//! [`Simulation::canonical_code`] (what the explorer deduplicates by) and
//! [`Simulation::same_configuration`]. These tests pin all three on fixed
//! Figure 1 and Figure 2 configurations driven by fixed schedules, so a
//! change to how a simulation stores its slots or views cannot silently
//! change a state's identity.

use anonreg::consensus::AnonConsensus;
use anonreg::mutex::AnonMutex;
use anonreg_model::{Machine, Pid, PidMap, SymmetryMode, View};
use anonreg_sim::Simulation;

fn pid(n: u64) -> Pid {
    Pid::new(n).unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Figure 1 at `m = 3`: pid 7 behind the identity view, pid 4 behind
/// `View::rotated(3, shift)`. The pids are not in first-occurrence order,
/// so `Full` renames them.
fn figure1(shift: usize) -> Simulation<AnonMutex> {
    Simulation::builder()
        .process(AnonMutex::new(pid(7), 3).unwrap(), View::identity(3))
        .process(AnonMutex::new(pid(4), 3).unwrap(), View::rotated(3, shift))
        .build()
        .unwrap()
}

/// Figure 2 with two processes over three registers, pids 3 and 1 with
/// inputs 1 and 2, both behind the identity view — so the slots may trade
/// places as well as have their pids renamed.
fn figure2() -> Simulation<AnonConsensus> {
    Simulation::builder()
        .process(AnonConsensus::new(pid(3), 2, 1).unwrap(), View::identity(3))
        .process(AnonConsensus::new(pid(1), 2, 2).unwrap(), View::identity(3))
        .build()
        .unwrap()
}

/// A fixed interleaving that writes registers on both sides.
const SCHEDULE: [usize; 9] = [0, 1, 1, 0, 0, 1, 0, 1, 1];

fn driven<M: Machine>(mut sim: Simulation<M>) -> Simulation<M> {
    for &p in &SCHEDULE {
        sim.step(p).unwrap();
    }
    sim
}

/// Asserts `sim`'s fingerprint and its `Off`/`Full` codes.
fn assert_identity<M>(sim: &Simulation<M>, fingerprint: u64, codes: [&str; 2])
where
    M: Machine + Eq + std::hash::Hash + PidMap,
    M::Value: PidMap,
{
    assert_eq!(sim.fingerprint(), fingerprint, "fingerprint");
    for (mode, code) in [SymmetryMode::Off, SymmetryMode::Full]
        .into_iter()
        .zip(codes)
    {
        assert_eq!(hex(&sim.canonical_code(mode)), code, "{mode:?} code");
    }
}

#[test]
fn figure1_identity_is_pinned() {
    assert_identity(
        &driven(figure1(1)),
        0x8ee2_81f1_7627_13d9,
        [
            "030704040207030003000000020000000001010000000403000300000002000000000101070000",
            "030102020201030003000000020000000001010000000203000300000002000000000101010000",
        ],
    );
}

#[test]
fn figure2_identity_is_pinned() {
    assert_identity(
        &driven(figure2()),
        0x3442_883b_4c5b_7144,
        [
            "0301020000000002030203010103000000000000000200000001020302020300000000000000010101020000",
            "0301020000000002020203010103000000000000000200000001020302020300000000000000010101020000",
        ],
    );
}

/// Views never enter a state code (they are fixed for a whole
/// exploration), but they are part of a configuration: two simulations
/// that differ only in a view are different configurations and
/// fingerprint differently.
#[test]
fn a_view_alone_separates_configurations() {
    let (a, b) = (figure1(1), figure1(2));
    assert!(!a.same_configuration(&b));
    assert!(a.same_configuration(&figure1(1)));
    assert_eq!(a.fingerprint(), 0xcec0_7bd4_5175_0737);
    assert_eq!(b.fingerprint(), 0xfe47_b821_a9b7_41b7);
    assert_eq!(
        a.canonical_code(SymmetryMode::Off),
        b.canonical_code(SymmetryMode::Off)
    );
}
