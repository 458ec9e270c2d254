//! Golden-file pin for the schema-v2 live stream format.
//!
//! `golden_v2_stream.jsonl` is a real `check explore --stream` capture:
//! a v1 `meta` header, interleaved v2 `delta`/`progress` records, the
//! flushed `profile` records, the v2 `snapshot` end-marker, and the
//! authoritative v1 snapshot tail. Freezing the bytes pins the format —
//! the validator must keep accepting this exact file, so the stream
//! schema cannot drift without deliberately regenerating the golden
//! (the intended signal for a stream-schema bump) — and every broken
//! copy of it below must keep failing validation.

use std::collections::BTreeMap;

use anonreg_obs::schema::{validate_jsonl, validate_jsonl_v1};
use anonreg_obs::Json;

const GOLDEN: &str = include_str!("golden_v2_stream.jsonl");

/// 0-based index of the `snapshot` end-marker line.
fn marker() -> usize {
    GOLDEN
        .lines()
        .position(|l| l.contains("\"t\":\"snapshot\""))
        .expect("end marker present")
}

fn join(lines: &[&str]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn golden_stream_validates_under_both_validators() {
    let total = validate_jsonl(GOLDEN).expect("golden stream must stay schema-valid");
    let (v1, skipped) = validate_jsonl_v1(GOLDEN).expect("v1 validator must tolerate v2 records");
    // The v1-consumers-skip rule: every line is either validated as v1
    // or counted as a skipped v2 stream record, nothing is dropped.
    assert_eq!(total, v1 + skipped);
    assert!(skipped > 0, "golden stream must carry v2 records");
    assert!(v1 > 0, "golden stream must carry the meta header + v1 tail");
}

#[test]
fn golden_stream_carries_every_v2_record_type() {
    let mut kinds = std::collections::BTreeSet::new();
    for line in GOLDEN.lines().filter(|l| !l.trim().is_empty()) {
        let json = Json::parse(line).expect("golden line parses");
        if json.get("v").and_then(Json::as_u64) == Some(2) {
            kinds.insert(
                json.get("t")
                    .and_then(Json::as_str)
                    .expect("v2 record has `t`")
                    .to_string(),
            );
        }
    }
    for kind in ["delta", "progress", "profile", "snapshot"] {
        assert!(kinds.contains(kind), "golden stream lost `{kind}` records");
    }
}

#[test]
fn golden_stream_has_several_deltas_before_the_final_snapshot() {
    let deltas_before = GOLDEN
        .lines()
        .take(marker())
        .filter(|l| l.contains("\"t\":\"delta\""))
        .count();
    assert!(
        deltas_before >= 3,
        "want >= 3 live deltas before the end marker, got {deltas_before}"
    );
}

/// The records of line type `t`.
fn of_type<'a>(records: &'a [Json], t: &'a str) -> impl Iterator<Item = &'a Json> {
    records
        .iter()
        .filter(move |r| r.get("t").and_then(Json::as_str) == Some(t))
}

#[test]
fn golden_deltas_add_up_to_the_v1_tail() {
    let records: Vec<Json> = GOLDEN.lines().map(|l| Json::parse(l).unwrap()).collect();
    let (stream, tail) = records.split_at(marker());
    let num = |r: &Json, field| r.get(field).and_then(Json::as_u64).unwrap();
    let key = |r: &Json| {
        let name = r.get("name").and_then(Json::as_str).unwrap();
        (name.to_string(), num(r, "key"))
    };
    let listed = |field| {
        of_type(stream, "delta").flat_map(move |d| d.get(field).and_then(Json::as_arr).unwrap())
    };
    let mut summed = BTreeMap::new();
    for c in listed("counters") {
        *summed.entry(key(c)).or_insert(0) += num(c, "delta");
    }
    let totals: BTreeMap<_, _> = of_type(tail, "counter")
        .map(|c| (key(c), num(c, "value")))
        .collect();
    assert!(!totals.is_empty());
    assert_eq!(summed, totals, "counter deltas must sum to the v1 totals");
    assert_eq!(listed("spans").count(), of_type(tail, "span").count());
    assert_eq!(listed("events").count(), of_type(tail, "event").count());
}

#[test]
fn truncating_the_golden_stream_is_detected() {
    // Kill the stream mid-flight: drop everything from the end marker on.
    let lines: Vec<&str> = GOLDEN.lines().collect();
    let truncated = join(&lines[..marker()]);
    let e = validate_jsonl(&truncated).unwrap_err();
    assert_eq!(e.line, marker(), "a missing marker names the last line");
    assert!(e.reason.contains("end-marker"), "{e}");

    // Tear the final line mid-record as a crash would.
    let e = validate_jsonl(&truncated[..truncated.len() - 20]).unwrap_err();
    assert_eq!(e.line, marker());
    assert!(e.reason.contains("invalid JSON"), "{e}");

    // Killed before its first record: the `meta` header alone, which
    // declares a live stream through its `stream_interval_ms`.
    let header = join(&lines[..1]);
    assert!(header.contains("\"stream_interval_ms\""));
    let e = validate_jsonl(&header).unwrap_err();
    assert_eq!(e.line, 1, "{e}");
    assert!(e.reason.contains("end-marker"), "{e}");
}

#[test]
fn reordering_or_splicing_the_golden_stream_is_detected() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    let m = marker();
    assert!(lines[1].contains("\"seq\":0") && lines[2].contains("\"seq\":1"));

    let mut swapped = lines.clone();
    swapped.swap(1, 2);

    let mut doubled_marker = lines.clone();
    doubled_marker.insert(m + 1, lines[m]);

    let second_run = lines[3].replace("check-explore-28213", "check-explore-1");
    let mut two_runs = lines.clone();
    two_runs[3] = &second_run;

    let mut after_marker = lines.clone();
    let last_profile = after_marker.remove(m - 1);
    after_marker.push(last_profile);

    let early_marker = lines[m].replace("\"elapsed_ms\":254", "\"elapsed_ms\":0");
    let mut clock_back = lines.clone();
    clock_back[m] = &early_marker;

    let cases = [
        ("swapped", swapped, 3, "seq 0 after seq 1"),
        (
            "two markers",
            doubled_marker,
            m + 2,
            "v2 `snapshot` after the end-marker",
        ),
        (
            "two runs",
            two_runs,
            4,
            "in a stream of run `check-explore-28213`",
        ),
        (
            "after marker",
            after_marker,
            lines.len(),
            "v2 `profile` after the end-marker",
        ),
        ("clock back", clock_back, m + 1, "elapsed_ms 0 after 254"),
    ];
    for (what, broken, line, needle) in cases {
        let e = validate_jsonl(&join(&broken)).expect_err(what);
        assert_eq!(e.line, line, "{what}: {e}");
        assert!(e.reason.contains(needle), "{what}: {e}");
    }
}
