//! Experiment harness: every table of the reproduction, as code.
//!
//! The paper is theory — its "evaluation" is a set of theorems. Each
//! experiment module here regenerates one of the tables defined in
//! `EXPERIMENTS.md`, turning a theorem into measured rows:
//!
//! | module | experiment | paper artifact |
//! |--------|-----------|----------------|
//! | [`e1_parity`] | E1 | Theorem 3.1 — odd/even register-count dichotomy, by exhaustive model checking |
//! | [`e2_ring`] | E2 | Theorem 3.4 — lock-step ring starvation across `(m, ℓ)` |
//! | [`e3_consensus`] | E3 | Theorems 4.1/4.2 — randomized adversary sweeps |
//! | [`e4_consensus_space`] | E4 | Theorem 6.3 — constructed disagreements below `2n − 1` registers |
//! | [`e5_renaming`] | E5 | Theorems 5.1–5.3 — uniqueness + adaptivity sweeps |
//! | [`e6_renaming_space`] | E6 | Theorem 6.5 — constructed duplicate names |
//! | [`e7_unknown_n`] | E7 | Theorem 6.2 — unknown process count attacks |
//! | [`e8_election`] | E8 | §4 note — election sweeps |
//! | [`e9_threads`] | E9 | §1 plasticity — real-thread throughput vs named baselines |
//! | [`e10_solo_steps`] | E10 | proof bounds — solo step complexity vs `n` |
//! | [`e11_hybrid`] | E11 | §8 exploration — one named register restores even-`m` mutual exclusion, model-checked |
//! | [`e12_starvation`] | E12 | §8 open-problem context — deadlock-freedom vs starvation-freedom, separated mechanically |
//! | [`e13_ordered`] | E13 | §2 variant — identifier order breaks the even-`m` wall with zero extra registers, model-checked |
//! | [`e14_scaling`] | E14 | parallel model checking — `Explorer` thread scaling on the Figure 2 consensus space |
//! | [`e15_faults`] | E15 | §2 failure model — seeded fault-injection stress sweeps across every family |
//! | [`e16_symmetry`] | E16 | §2 anonymity + Theorem 3.4 symmetry — orbit-canonicalized exploration reductions |
//! | [`e17_ordering`] | E17 | §2 atomic-register model — vector-clock sanitizer certifies minimal memory orderings per family |
//! | [`e18_profile`] | E18 | §2 operations on the clock — per-worker wall-clock phase profiles of exploration and the runtime driver |
//! | [`e19_scale`] | E19 | model checking at scale — stats-mode exploration with POR and disk spill |
//!
//! `cargo run --release -p anonreg-bench --bin repro` prints them all, and
//! `repro -- --json FILE` also writes their metrics as JSONL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod e10_solo_steps;
pub mod e11_hybrid;
pub mod e12_starvation;
pub mod e13_ordered;
pub mod e14_scaling;
pub mod e15_faults;
pub mod e16_symmetry;
pub mod e17_ordering;
pub mod e18_profile;
pub mod e19_scale;
pub mod e1_parity;
pub mod e2_ring;
pub mod e3_consensus;
pub mod e4_consensus_space;
pub mod e5_renaming;
pub mod e6_renaming_space;
pub mod e7_unknown_n;
pub mod e8_election;
pub mod e9_threads;

pub mod benchdiff;
pub mod benchjson;
pub mod lintsuite;
pub mod live;
pub mod table;
pub mod workload;
