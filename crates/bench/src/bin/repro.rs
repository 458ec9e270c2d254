//! `repro` — regenerates every experiment table of the reproduction.
//!
//! ```text
//! cargo run --release -p anonreg-bench --bin repro                    # everything
//! cargo run --release -p anonreg-bench --bin repro -- --quick        # smaller sweeps
//! cargo run --release -p anonreg-bench --bin repro -- e1 e4          # selected experiments
//! cargo run --release -p anonreg-bench --bin repro -- --json out.jsonl
//!                                        # also write schema-v1 bench metrics
//! ```
//!
//! The full-text output of a complete run is not checked in (it embeds
//! machine-dependent timings); regenerate it with
//! `cargo run --release -p anonreg-bench --bin repro > repro_full.txt`.

use std::env;
use std::time::Instant;

use anonreg_bench::benchjson::BenchMetric;
use anonreg_bench::{
    e10_solo_steps, e11_hybrid, e12_starvation, e13_ordered, e14_scaling, e15_faults, e16_symmetry,
    e17_ordering, e18_profile, e19_scale, e1_parity, e2_ring, e3_consensus, e4_consensus_space,
    e5_renaming, e6_renaming_space, e7_unknown_n, e8_election, e9_threads,
};
use anonreg_obs::schema::meta_line;
use anonreg_obs::Json;

/// Every experiment id, in run order.
const IDS: [&str; 19] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19",
];

const USAGE: &str = "usage: repro [--quick] [--json FILE] [e1 .. e19]";

#[derive(Debug, Default, PartialEq)]
struct Config {
    quick: bool,
    json: Option<String>,
    selected: Vec<String>,
}

impl Config {
    fn wants(&self, id: &str) -> bool {
        self.selected.is_empty() || self.selected.iter().any(|s| s == id)
    }
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(Config),
    Help,
}

/// Parses the command line. Anything but `--quick`, `--json FILE`,
/// `--help` and the ids in [`IDS`] (bare or as `--e1`) is refused, so a
/// typo never runs the wrong experiment or the wrong scale.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut config = Config::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => config.quick = true,
            "--json" => config.json = Some(args.next().ok_or("--json requires a file path")?),
            "--help" | "-h" => return Ok(Command::Help),
            other => {
                let id = other.trim_start_matches("--");
                if IDS.contains(&id) {
                    config.selected.push(id.to_string());
                } else if other.starts_with('-') {
                    return Err(format!("unknown flag {other:?}"));
                } else {
                    return Err(format!("unknown experiment {other:?}"));
                }
            }
        }
    }
    Ok(Command::Run(config))
}

fn main() {
    let config = match parse_args(env::args().skip(1)) {
        Ok(Command::Run(config)) => config,
        Ok(Command::Help) => {
            println!(
                "{USAGE}\n\
                 Regenerates the experiment tables of the PODC'17\n\
                 'Coordination Without Prior Agreement' reproduction.\n\
                 --json FILE also writes every metric as schema-v1\n\
                 JSONL bench lines (validate with `check obs validate`)."
            );
            return;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}\nvalid experiment ids: {}", IDS.join(" "));
            std::process::exit(2);
        }
    };

    let mut metrics: Vec<BenchMetric> = Vec::new();
    let mut section = |id: &str, title: &str, body: &dyn Fn() -> (String, Vec<BenchMetric>)| {
        if !config.wants(id) {
            return;
        }
        let start = Instant::now();
        let (rendered, section_metrics) = body();
        println!("== {} — {title}", id.to_uppercase());
        println!("{rendered}");
        println!("({id} took {:?})\n", start.elapsed());
        metrics.extend(section_metrics);
    };

    let q = config.quick;

    section(
        "e1",
        "mutex register parity (Theorem 3.1), exhaustive model checking",
        &|| {
            let rows = e1_parity::rows(if q { 4 } else { 6 });
            (e1_parity::render(&rows), e1_parity::metrics(&rows))
        },
    );
    section("e2", "lock-step ring starvation (Theorem 3.4)", &|| {
        let rows = e2_ring::rows(if q { 8 } else { 12 }, 4, if q { 300 } else { 2_000 });
        (e2_ring::render(&rows), e2_ring::metrics(&rows))
    });
    section(
        "e3",
        "consensus agreement/validity sweeps (Theorems 4.1, 4.2)",
        &|| {
            let rows = e3_consensus::rows(if q { 4 } else { 6 }, if q { 50 } else { 400 });
            (e3_consensus::render(&rows), e3_consensus::metrics(&rows))
        },
    );
    section(
        "e4",
        "consensus space lower bound via covering (Theorem 6.3)",
        &|| {
            let rows = e4_consensus_space::rows(if q { 5 } else { 8 });
            (
                e4_consensus_space::render(&rows),
                e4_consensus_space::metrics(&rows),
            )
        },
    );
    section(
        "e5",
        "renaming uniqueness + adaptivity (Theorems 5.1–5.3)",
        &|| {
            let rows = e5_renaming::rows(if q { 4 } else { 6 }, if q { 30 } else { 200 });
            (e5_renaming::render(&rows), e5_renaming::metrics(&rows))
        },
    );
    section(
        "e6",
        "renaming space lower bound via covering (Theorem 6.5)",
        &|| {
            let rows = e6_renaming_space::rows(if q { 5 } else { 8 });
            (
                e6_renaming_space::render(&rows),
                e6_renaming_space::metrics(&rows),
            )
        },
    );
    section("e7", "unknown process count attacks (Theorem 6.2)", &|| {
        let rows = e7_unknown_n::rows(if q { 4 } else { 7 });
        (e7_unknown_n::render(&rows), e7_unknown_n::metrics(&rows))
    });
    section("e8", "election sweeps (§4 note)", &|| {
        let rows = e8_election::rows(if q { 4 } else { 6 }, if q { 30 } else { 200 });
        (e8_election::render(&rows), e8_election::metrics(&rows))
    });
    section(
        "e9",
        "real-thread throughput vs named baselines (§1 plasticity)",
        &|| {
            let (entries, reps) = if q { (2_000, 20) } else { (20_000, 200) };
            let rows = e9_threads::rows(entries, reps, reps);
            (e9_threads::render(&rows), e9_threads::metrics(&rows))
        },
    );
    section("e10", "solo step complexity vs proof bounds", &|| {
        let rows = e10_solo_steps::rows(if q { 6 } else { 10 });
        (
            e10_solo_steps::render(&rows),
            e10_solo_steps::metrics(&rows),
        )
    });
    section(
        "e11",
        "hybrid model: m anonymous + 1 named register (§8)",
        &|| {
            let rows = e11_hybrid::rows(if q { 3 } else { 4 });
            (e11_hybrid::render(&rows), e11_hybrid::metrics(&rows))
        },
    );
    section(
        "e12",
        "fair starvation across mutual exclusion algorithms (§8)",
        &|| {
            let rows = e12_starvation::rows();
            (
                e12_starvation::render(&rows),
                e12_starvation::metrics(&rows),
            )
        },
    );
    section(
        "e13",
        "arbitrary-comparisons model: id order breaks ties (§2)",
        &|| {
            let rows = e13_ordered::rows(if q { 3 } else { 4 });
            (e13_ordered::render(&rows), e13_ordered::metrics(&rows))
        },
    );
    section(
        "e14",
        "parallel explorer thread scaling on Figure 2 consensus",
        &|| {
            let rows = if q {
                e14_scaling::rows(2, 3, &[1, 2], 200_000)
            } else {
                e14_scaling::rows(3, 2, &[1, 2, 4], 4_000_000)
            }
            .expect("scaling workload exceeded its state limit");
            (e14_scaling::render(&rows), e14_scaling::metrics(&rows))
        },
    );

    section(
        "e15",
        "fault-injection stress sweeps under the §2 failure model",
        &|| {
            let rows = e15_faults::rows(1, if q { 10 } else { 50 });
            (e15_faults::render(&rows), e15_faults::metrics(&rows))
        },
    );

    section(
        "e16",
        "symmetry-reduced exploration (§2 anonymity, Theorem 3.4)",
        &|| {
            let workloads = if q {
                vec![
                    e16_symmetry::Workload::MutexRing { m: 2, procs: 2 },
                    e16_symmetry::Workload::SymmetricConsensus { n: 2, registers: 2 },
                ]
            } else {
                e16_symmetry::Workload::full_scale().to_vec()
            };
            let mut rows = Vec::new();
            for w in workloads {
                rows.extend(
                    e16_symmetry::rows(w, 4, 8_000_000)
                        .expect("symmetry workload exceeded its state limit"),
                );
            }
            (e16_symmetry::render(&rows), e16_symmetry::metrics(&rows))
        },
    );

    section(
        "e17",
        "memory-ordering inference over the vector-clock sanitizer (§2 model)",
        &|| {
            let schedules = if q {
                e17_ordering::QUICK_SCHEDULES
            } else {
                e17_ordering::DEFAULT_SCHEDULES
            };
            let certs = e17_ordering::certifications(1, schedules);
            let fixtures = e17_ordering::fixture_outcomes(1);
            let rendered = format!(
                "{}\nnegative controls (must be flagged):\n{}",
                e17_ordering::render(&certs),
                e17_ordering::render_fixtures(&fixtures)
            );
            (rendered, e17_ordering::metrics(&certs, &fixtures))
        },
    );

    section(
        "e18",
        "wall-clock phase profiles: explorer workers + runtime driver (§2 on the clock)",
        &|| {
            let mut runs = e18_profile::rows(!q, if q { 2 } else { 4 }, 8_000_000)
                .expect("profiled workloads fit the state budget");
            runs.push(e18_profile::profile_runtime(3, if q { 50 } else { 200 }));
            let noop_speed = e18_profile::driver_noop_speed();
            (
                e18_profile::render(&runs, noop_speed),
                e18_profile::metrics(&runs, noop_speed),
            )
        },
    );

    section(
        "e19",
        "model checking at scale: stats mode + POR + disk spill",
        &|| {
            let (workloads, with_baseline) = if q {
                (e19_scale::quick().to_vec(), true)
            } else {
                (e19_scale::full_scale().to_vec(), false)
            };
            let rows = e19_scale::rows(&workloads, with_baseline, 4, 100_000_000)
                .expect("scale workload exceeded its state limit");
            (e19_scale::render(&rows), e19_scale::metrics(&rows))
        },
    );

    if let Some(path) = &config.json {
        let mut out = meta_line(
            "repro",
            &[
                ("mode", Json::Str(if q { "quick" } else { "full" }.into())),
                ("metrics", Json::U64(metrics.len() as u64)),
            ],
        )
        .render();
        out.push('\n');
        for metric in &metrics {
            out.push_str(&metric.to_jsonl_line());
            out.push('\n');
        }
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {} metric lines to {path}", metrics.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn no_arguments_run_everything_at_full_scale() {
        assert_eq!(parse(&[]), Ok(Command::Run(Config::default())));
    }

    #[test]
    fn flags_and_ids_combine() {
        let Ok(Command::Run(config)) = parse(&["--quick", "e2", "--json", "f.jsonl", "e19"]) else {
            panic!("valid arguments refused");
        };
        assert!(config.quick);
        assert_eq!(config.json.as_deref(), Some("f.jsonl"));
        assert!(config.wants("e2") && config.wants("e19"));
        assert!(!config.wants("e1"));
    }

    #[test]
    fn help_wins() {
        assert_eq!(parse(&["e1", "--help"]), Ok(Command::Help));
        assert_eq!(parse(&["-h"]), Ok(Command::Help));
    }

    #[test]
    fn unknown_experiment_is_refused() {
        for id in ["e20", "e0", "E1", "e01", "all"] {
            let err = parse(&[id]).unwrap_err();
            assert!(err.contains("unknown experiment"), "{id}: {err}");
        }
    }

    #[test]
    fn unknown_flag_is_refused_not_taken_as_an_id() {
        let err = parse(&["--qiuck", "e2"]).unwrap_err();
        assert!(err.contains("--qiuck"), "{err}");
        assert!(parse(&["--e20"]).is_err());
    }

    #[test]
    fn dashed_ids_select_the_bare_id() {
        assert_eq!(
            parse(&["--e2"]),
            Ok(Command::Run(Config {
                selected: vec!["e2".to_string()],
                ..Config::default()
            }))
        );
    }

    #[test]
    fn json_without_a_path_is_refused() {
        assert!(parse(&["--json"]).is_err());
    }

    #[test]
    fn every_id_is_selectable() {
        for id in IDS {
            let Ok(Command::Run(config)) = parse(&[id]) else {
                panic!("{id} refused");
            };
            assert_eq!(config.selected, [id]);
        }
    }
}
