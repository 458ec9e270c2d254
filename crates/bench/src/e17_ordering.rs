//! E17 — memory-ordering inference: certified minimal orderings per
//! algorithm family.
//!
//! The thread runtime realizes the paper's atomic registers with `SeqCst`
//! atomics; the `anonreg-sanitizer` substrate asks which of those
//! orderings each of the seven families actually needs. This experiment
//! runs [`certify_family`] for every family — greedy per-site ladders
//! `Relaxed → Acquire/Release → SeqCst`,
//! each rung accepted only when a seeded sweep (half the schedules under
//! injected faults) shows neither a missing happens-before edge nor a
//! safety violation — and tabulates the certified plans, the rungs
//! rejected on the way, and the negative controls (the broken fixtures
//! the sanitizer *must* flag).
//!
//! The certified orderings are empirical and bound to the sanitizer's
//! SC-per-location observation model, which is why the runtime's
//! general-purpose register operations stay `SeqCst` and only
//! structurally justified sites (certificates `ORD-RT-PEEK-001`,
//! `ORD-RT-HANDLE-002`) run relaxed — see `ci/seqcst_allowlist.txt`.

use std::sync::atomic::Ordering;

use anonreg_sanitizer::fixtures::run_fixture;
use anonreg_sanitizer::{
    broken_fixtures, certify_family, FamilyCertification, FixtureOutcome, Site, FAMILIES,
};

use crate::benchjson::BenchMetric;
use crate::table::Table;

/// Schedules per inference sweep in the default configuration.
pub const DEFAULT_SCHEDULES: u64 = 12;

/// Schedules per inference sweep under `--quick`.
pub const QUICK_SCHEDULES: u64 = 6;

/// Schedules a fixture scan tries before giving up.
pub const FIXTURE_SCHEDULES: u64 = 16;

/// The ladder level of an ordering (0 relaxed, 1 acquire/release,
/// 2 sequentially consistent) — how the metrics stream encodes a
/// certified ordering numerically.
#[must_use]
pub fn ordering_level(ordering: Ordering) -> u64 {
    match ordering {
        Ordering::Relaxed => 0,
        Ordering::Acquire | Ordering::Release | Ordering::AcqRel => 1,
        _ => 2,
    }
}

/// Certifies every family at `base_seed` with `schedules` schedules per
/// sweep.
#[must_use]
pub fn certifications(base_seed: u64, schedules: u64) -> Vec<FamilyCertification> {
    FAMILIES
        .iter()
        .map(|&family| certify_family(family, base_seed, schedules))
        .collect()
}

/// Runs every broken fixture, scanning up to [`FIXTURE_SCHEDULES`]
/// schedules for the violation each must produce.
#[must_use]
pub fn fixture_outcomes(base_seed: u64) -> Vec<FixtureOutcome> {
    broken_fixtures()
        .iter()
        .map(|f| run_fixture(f, base_seed, FIXTURE_SCHEDULES))
        .collect()
}

/// Renders the certification table.
#[must_use]
pub fn render(certs: &[FamilyCertification]) -> String {
    let mut t = Table::new(vec![
        "family",
        "read",
        "claim",
        "clear",
        "rejected rungs",
        "hb edges",
        "stale reads",
        "timeouts",
        "verdict",
    ]);
    for c in certs {
        t.row(vec![
            c.family.to_string(),
            format!("{:?}", c.plan.read),
            format!("{:?}", c.plan.claim),
            format!("{:?}", c.plan.clear),
            c.rejected.len().to_string(),
            c.hb_edges.to_string(),
            c.stale_reads.to_string(),
            c.timeouts.to_string(),
            if c.clean {
                "clean".to_string()
            } else {
                format!("{} VIOLATIONS", c.violations_at_plan)
            },
        ]);
    }
    t.render()
}

/// Renders the negative-control table.
#[must_use]
pub fn render_fixtures(outcomes: &[FixtureOutcome]) -> String {
    let mut t = Table::new(vec![
        "fixture",
        "flagged",
        "schedules tried",
        "firing seed",
        "violation",
    ]);
    for o in outcomes {
        t.row(vec![
            o.name.to_string(),
            if o.flagged() { "yes" } else { "NO" }.to_string(),
            o.schedules_tried.to_string(),
            o.seed.map_or_else(|| "-".to_string(), |s| s.to_string()),
            o.violation
                .as_ref()
                .map_or_else(|| "-".to_string(), |v| v.kind.name().to_string()),
        ]);
    }
    t.render()
}

/// Machine-readable metrics for the given certifications and fixture
/// outcomes (experiment `E17`).
#[must_use]
pub fn metrics(certs: &[FamilyCertification], fixtures: &[FixtureOutcome]) -> Vec<BenchMetric> {
    let mut out = Vec::new();
    for c in certs {
        for (name, value) in [
            ("read_level", ordering_level(c.plan.of(Site::Read))),
            ("claim_level", ordering_level(c.plan.of(Site::Claim))),
            ("clear_level", ordering_level(c.plan.of(Site::Clear))),
            ("rejected_rungs", c.rejected.len() as u64),
            ("violations_at_plan", c.violations_at_plan),
            ("hb_edges", c.hb_edges),
            ("stale_reads", c.stale_reads),
            ("timeouts", c.timeouts),
            ("clean", u64::from(c.clean)),
        ] {
            out.push(BenchMetric::new(
                "E17",
                c.family,
                format!("{}_{name}", c.family),
                value as f64,
                "count",
            ));
        }
    }
    for o in fixtures {
        for (name, value) in [
            ("flagged", u64::from(o.flagged())),
            ("schedules_tried", o.schedules_tried),
        ] {
            out.push(BenchMetric::new(
                "E17",
                o.name,
                format!("{}_{name}", o.name),
                value as f64,
                "count",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_certifies_clean() {
        let certs = certifications(0xE17, 2);
        assert_eq!(certs.len(), FAMILIES.len());
        for c in &certs {
            assert!(c.clean, "{}: certification must verify clean", c.family);
            // No family should need more than SeqCst anywhere (trivially
            // true) and every rejected rung sits strictly below the
            // accepted ordering for its site.
            for r in &c.rejected {
                assert!(
                    ordering_level(r.ordering) < ordering_level(c.plan.of(r.site)),
                    "{}: rejected {:?} at {:?} but certified {:?}",
                    c.family,
                    r.ordering,
                    r.site,
                    c.plan.of(r.site)
                );
            }
        }
    }

    #[test]
    fn fixtures_are_flagged_and_tabulated() {
        let outcomes = fixture_outcomes(3);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert!(o.flagged(), "{} must be flagged", o.name);
        }
        let table = render_fixtures(&outcomes);
        assert!(table.contains("relaxed-doorway-write"));
        assert!(table.contains("missing-hb-edge"));
    }

    #[test]
    fn render_and_metrics_cover_all_rows() {
        let certs = certifications(1, 2);
        let fixtures = fixture_outcomes(1);
        let table = render(&certs);
        for family in FAMILIES {
            assert!(table.contains(family));
        }
        let ms = metrics(&certs, &fixtures);
        assert_eq!(ms.len(), 9 * certs.len() + 2 * fixtures.len());
        assert!(ms.iter().all(|m| m.experiment == "E17"));
    }

    #[test]
    fn ordering_levels_are_ordered() {
        assert!(ordering_level(Ordering::Relaxed) < ordering_level(Ordering::Acquire));
        assert!(ordering_level(Ordering::Release) < ordering_level(Ordering::SeqCst));
    }
}
