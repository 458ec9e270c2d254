//! The versioned JSONL wire schema and its validator.
//!
//! Every line an anonreg tool emits is a single JSON object carrying the
//! schema version in `"v"` and a line type in `"t"`. Schema v1 defines:
//!
//! | `t`          | required fields                                          |
//! |--------------|----------------------------------------------------------|
//! | `meta`       | `tool` (str); free extra fields                          |
//! | `counter`    | `name` (str), `key` (u64), `value` (u64)                 |
//! | `gauge`      | `name` (str), `key`, `last`, `max`, `samples` (u64)      |
//! | `hist`       | `name` (str), `key`, `count`, `sum`, `min`, `max` (u64), `buckets` (arr of u64) |
//! | `span`       | `name` (str), `key` (u64), `length` (u64)                |
//! | `event`      | `name` (str), `fields` (obj of u64)                      |
//! | `bench`      | `experiment` (str), `family` (str), `name` (str), `value` (num), `unit` (str) |
//! | `trace_meta` | `procs` (u64), `registers` (u64), `ops` (u64)            |
//! | `op`         | `proc` (u64), `pid` (u64), `kind` (str: `read`/`write`/`event`/`halt`) |
//!
//! Schema v2 adds the *live stream* record types. Every v2 line carries
//! a monotonic sequence number `seq` (u64), the run id `run` (str), and
//! `elapsed_ms` (u64) since the stream opened:
//!
//! | `t`        | additional required fields                                 |
//! |------------|------------------------------------------------------------|
//! | `delta`    | `counters` (arr of `{name,key,delta}`), `gauges`/`hists` (arr of full v1-shaped stats, overwrite semantics), `spans`/`events` (arr, new records only) |
//! | `progress` | `states`, `frontier`, `depth`, `eta_ms` (u64), `states_per_sec`, `dedup_rate` (num) |
//! | `profile`  | `worker` (u64), `frames` (arr of `{stack` (str)`, self_ns` (u64)`}`) |
//! | `snapshot` | none — end-of-stream marker; plain v1 snapshot lines follow |
//!
//! Counters stream as *deltas* (a counter's `delta`s summed over the
//! stream give its final total); gauge and histogram stats are full
//! overwrites; spans and events appear once, in the delta that first
//! observed them. A v1 consumer must skip any line whose `v` is `2`
//! without error and read the trailing v1 snapshot —
//! [`validate_jsonl_v1`] models exactly that behavior.
//!
//! [`validate_line`] and [`validate_value`] enforce these tables line by
//! line (both versions). [`validate_jsonl`] also checks that a stream is
//! whole and in order — one `run`, strictly increasing `seq`,
//! non-decreasing `elapsed_ms`, and exactly one `snapshot` marker as the
//! last v2 record — so `check obs validate` rejects a truncated or
//! reordered stream, including one cut before its first v2 record (the
//! stream's v1 `meta` header carries `stream_interval_ms`). The golden-file tests in `crates/obs/tests` pin
//! concrete encodings so the format cannot drift without a deliberate
//! version bump.

use crate::json::{Json, JsonError};

/// The current wire schema version. Bump when any line shape changes
/// incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// The live-stream schema version: `delta`, `progress`, `profile` and
/// `snapshot` records emitted while a run is in flight. Streams end
/// with a plain v1 snapshot so v1 consumers stay compatible.
pub const STREAM_SCHEMA_VERSION: u64 = 2;

/// A schema violation found by [`validate_line`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError {
    /// 1-based line number within the validated document (1 for a single
    /// line).
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for SchemaError {}

fn err(line: usize, reason: impl Into<String>) -> SchemaError {
    SchemaError {
        line,
        reason: reason.into(),
    }
}

fn parse_err(line: usize, e: &JsonError) -> SchemaError {
    err(
        line,
        format!("invalid JSON at byte {}: {}", e.pos, e.reason),
    )
}

fn require_u64(obj: &Json, field: &str, line: usize) -> Result<u64, SchemaError> {
    obj.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| err(line, format!("missing or non-u64 field `{field}`")))
}

fn require_str<'a>(obj: &'a Json, field: &str, line: usize) -> Result<&'a str, SchemaError> {
    obj.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| err(line, format!("missing or non-string field `{field}`")))
}

fn require_num(obj: &Json, field: &str, line: usize) -> Result<f64, SchemaError> {
    obj.get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| err(line, format!("missing or non-numeric field `{field}`")))
}

/// Validates one already-parsed JSONL object against the schema (v1 or
/// v2 — the version is read from the line's own `v` field).
///
/// # Errors
///
/// Returns the first violation found, tagged with `line` (1-based).
pub fn validate_value(value: &Json, line: usize) -> Result<(), SchemaError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(err(line, "line is not a JSON object"));
    }
    let v = require_u64(value, "v", line)?;
    match v {
        SCHEMA_VERSION => validate_v1(value, line),
        STREAM_SCHEMA_VERSION => validate_v2(value, line),
        other => Err(err(
            line,
            format!(
                "unsupported schema version {other} (expected {SCHEMA_VERSION} or {STREAM_SCHEMA_VERSION})"
            ),
        )),
    }
}

fn validate_v1(value: &Json, line: usize) -> Result<(), SchemaError> {
    let t = require_str(value, "t", line)?;
    match t {
        "meta" => {
            require_str(value, "tool", line)?;
        }
        "counter" => {
            require_str(value, "name", line)?;
            require_u64(value, "key", line)?;
            require_u64(value, "value", line)?;
        }
        "gauge" => {
            require_str(value, "name", line)?;
            for field in ["key", "last", "max", "samples"] {
                require_u64(value, field, line)?;
            }
        }
        "hist" => {
            require_str(value, "name", line)?;
            for field in ["key", "count", "sum", "min", "max"] {
                require_u64(value, field, line)?;
            }
            let buckets = value
                .get("buckets")
                .and_then(Json::as_arr)
                .ok_or_else(|| err(line, "missing or non-array field `buckets`"))?;
            if buckets.iter().any(|b| b.as_u64().is_none()) {
                return Err(err(line, "non-u64 entry in `buckets`"));
            }
        }
        "span" => {
            require_str(value, "name", line)?;
            require_u64(value, "key", line)?;
            require_u64(value, "length", line)?;
        }
        "event" => {
            require_str(value, "name", line)?;
            let fields = value
                .get("fields")
                .ok_or_else(|| err(line, "missing field `fields`"))?;
            match fields {
                Json::Obj(entries) => {
                    if entries.iter().any(|(_, v)| v.as_u64().is_none()) {
                        return Err(err(line, "non-u64 value in `fields`"));
                    }
                }
                _ => return Err(err(line, "field `fields` is not an object")),
            }
        }
        "bench" => {
            require_str(value, "experiment", line)?;
            require_str(value, "family", line)?;
            require_str(value, "name", line)?;
            require_num(value, "value", line)?;
            require_str(value, "unit", line)?;
        }
        "trace_meta" => {
            for field in ["procs", "registers", "ops"] {
                require_u64(value, field, line)?;
            }
        }
        "op" => {
            require_u64(value, "proc", line)?;
            require_u64(value, "pid", line)?;
            let kind = require_str(value, "kind", line)?;
            match kind {
                "read" | "write" => {
                    require_u64(value, "local", line)?;
                    require_u64(value, "physical", line)?;
                    if value.get("value").is_none() {
                        return Err(err(line, "missing field `value`"));
                    }
                }
                "event" => {
                    if value.get("payload").is_none() {
                        return Err(err(line, "missing field `payload`"));
                    }
                }
                "halt" => {}
                other => return Err(err(line, format!("unknown op kind `{other}`"))),
            }
        }
        other => return Err(err(line, format!("unknown line type `{other}`"))),
    }
    Ok(())
}

/// A required array field whose entries are validated one by one.
fn require_arr<'a>(obj: &'a Json, field: &str, line: usize) -> Result<&'a [Json], SchemaError> {
    obj.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| err(line, format!("missing or non-array field `{field}`")))
}

fn validate_v2(value: &Json, line: usize) -> Result<(), SchemaError> {
    // Every stream record carries the envelope: a monotonic sequence
    // number, the run id, and elapsed wall-clock.
    require_u64(value, "seq", line)?;
    require_str(value, "run", line)?;
    require_u64(value, "elapsed_ms", line)?;
    let t = require_str(value, "t", line)?;
    match t {
        "delta" => {
            for entry in require_arr(value, "counters", line)? {
                require_str(entry, "name", line)?;
                require_u64(entry, "key", line)?;
                require_u64(entry, "delta", line)?;
            }
            for entry in require_arr(value, "gauges", line)? {
                require_str(entry, "name", line)?;
                for field in ["key", "last", "max", "samples"] {
                    require_u64(entry, field, line)?;
                }
            }
            for entry in require_arr(value, "hists", line)? {
                require_str(entry, "name", line)?;
                for field in ["key", "count", "sum", "min", "max"] {
                    require_u64(entry, field, line)?;
                }
                let buckets = require_arr(entry, "buckets", line)?;
                if buckets.iter().any(|b| b.as_u64().is_none()) {
                    return Err(err(line, "non-u64 entry in `buckets`"));
                }
            }
            for entry in require_arr(value, "spans", line)? {
                require_str(entry, "name", line)?;
                require_u64(entry, "key", line)?;
                require_u64(entry, "length", line)?;
            }
            for entry in require_arr(value, "events", line)? {
                require_str(entry, "name", line)?;
                match entry.get("fields") {
                    Some(Json::Obj(fields)) => {
                        if fields.iter().any(|(_, v)| v.as_u64().is_none()) {
                            return Err(err(line, "non-u64 value in `fields`"));
                        }
                    }
                    _ => return Err(err(line, "missing or non-object field `fields`")),
                }
            }
        }
        "progress" => {
            for field in ["states", "frontier", "depth", "eta_ms"] {
                require_u64(value, field, line)?;
            }
            require_num(value, "states_per_sec", line)?;
            require_num(value, "dedup_rate", line)?;
        }
        "profile" => {
            require_u64(value, "worker", line)?;
            for entry in require_arr(value, "frames", line)? {
                require_str(entry, "stack", line)?;
                require_u64(entry, "self_ns", line)?;
            }
        }
        "snapshot" => {}
        other => return Err(err(line, format!("unknown v2 line type `{other}`"))),
    }
    Ok(())
}

/// Parses and validates one JSONL line against schema v1.
///
/// # Errors
///
/// Returns a [`SchemaError`] (with `line == 1`) if the line is not valid
/// JSON or violates the schema.
pub fn validate_line(line: &str) -> Result<(), SchemaError> {
    let value = Json::parse(line).map_err(|e| parse_err(1, &e))?;
    validate_value(&value, 1)
}

/// Validates a whole JSONL document (one object per non-empty line).
///
/// Every line must satisfy its version's table. A document that holds
/// at least one v2 record, or whose v1 `meta` header declares a
/// `stream_interval_ms`, is a live stream and must also be whole and
/// in order: all v2 records share one `run`, `seq` strictly increases,
/// `elapsed_ms` never decreases, and exactly one `snapshot` end-marker
/// is the last v2 record (only v1 lines follow it). A run killed before
/// its end-marker, or a stream whose records were reordered, is
/// rejected. v1-only documents are checked line by line.
///
/// Returns the number of validated lines.
///
/// # Errors
///
/// Returns the first violation, tagged with its 1-based line number; a
/// missing end-marker is reported at the document's last line.
pub fn validate_jsonl(text: &str) -> Result<usize, SchemaError> {
    let mut validated = 0;
    let mut last_line = 0;
    // `(run, seq, elapsed_ms)` of the previous v2 record, and the line of
    // the `snapshot` end-marker once seen.
    let mut prev: Option<(String, u64, u64)> = None;
    let mut marker = None;
    // Whether a v1 `meta` header declared a live stream.
    let mut declared = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let value = Json::parse(raw).map_err(|e| parse_err(line, &e))?;
        validate_value(&value, line)?;
        validated += 1;
        last_line = line;
        if value.get("v").and_then(Json::as_u64) != Some(STREAM_SCHEMA_VERSION) {
            declared |= value.get("t").and_then(Json::as_str) == Some("meta")
                && value.get("stream_interval_ms").is_some();
            continue;
        }
        let t = require_str(&value, "t", line)?;
        let run = require_str(&value, "run", line)?;
        let seq = require_u64(&value, "seq", line)?;
        let elapsed = require_u64(&value, "elapsed_ms", line)?;
        let broken = match (&prev, marker) {
            (_, Some(at)) => Some(format!("v2 `{t}` after the end-marker at line {at}")),
            (Some((r, ..)), _) if r != run => Some(format!("run `{run}` in a stream of run `{r}`")),
            (Some((_, s, _)), _) if seq <= *s => Some(format!("seq {seq} after seq {s}")),
            (Some((.., e)), _) if elapsed < *e => Some(format!("elapsed_ms {elapsed} after {e}")),
            _ => None,
        };
        if let Some(reason) = broken {
            return Err(err(line, reason));
        }
        if t == "snapshot" {
            marker = Some(line);
        }
        prev = Some((run.to_string(), seq, elapsed));
    }
    if (declared || prev.is_some()) && marker.is_none() {
        return Err(err(
            last_line,
            "stream has no `snapshot` end-marker (truncated?)",
        ));
    }
    Ok(validated)
}

/// Validates a JSONL document the way a *v1-only consumer* reads it:
/// lines whose `v` field is anything other than [`SCHEMA_VERSION`] are
/// skipped without error (they must still be well-formed JSON objects
/// carrying a u64 `v`), and every v1 line must satisfy the v1 table.
///
/// Returns `(validated_v1_lines, skipped_other_version_lines)`. This is
/// the compatibility contract for stream files: old tooling reads the
/// trailing v1 snapshot and ignores the live-stream records.
///
/// # Errors
///
/// Returns the first violation among v1 lines (or any malformed line),
/// tagged with its 1-based line number.
pub fn validate_jsonl_v1(text: &str) -> Result<(usize, usize), SchemaError> {
    let mut validated = 0;
    let mut skipped = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let value = Json::parse(raw).map_err(|e| parse_err(line, &e))?;
        if !matches!(value, Json::Obj(_)) {
            return Err(err(line, "line is not a JSON object"));
        }
        if require_u64(&value, "v", line)? != SCHEMA_VERSION {
            skipped += 1;
            continue;
        }
        validate_v1(&value, line)?;
        validated += 1;
    }
    Ok((validated, skipped))
}

/// Builds the `meta` header line every emitted document should start
/// with. `extra` fields ride along verbatim.
#[must_use]
pub fn meta_line(tool: &str, extra: &[(&str, Json)]) -> Json {
    let mut fields = vec![
        ("v".to_string(), Json::U64(SCHEMA_VERSION)),
        ("t".to_string(), Json::Str("meta".to_string())),
        ("tool".to_string(), Json::Str(tool.to_string())),
    ];
    for (k, v) in extra {
        fields.push(((*k).to_string(), v.clone()));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_every_line_type() {
        let lines = [
            r#"{"v":1,"t":"meta","tool":"repro","quick":true}"#,
            r#"{"v":1,"t":"counter","name":"reg_read","key":0,"value":42}"#,
            r#"{"v":1,"t":"gauge","name":"explore_frontier","key":0,"last":3,"max":17,"samples":9}"#,
            r#"{"v":1,"t":"hist","name":"backoff_spins","key":0,"count":2,"sum":10,"min":3,"max":7,"buckets":[0,0,1,1]}"#,
            r#"{"v":1,"t":"span","name":"solo_run","key":2,"length":14}"#,
            r#"{"v":1,"t":"event","name":"explore_done","fields":{"states":5}}"#,
            r#"{"v":1,"t":"bench","experiment":"E1","family":"mutex","name":"states","value":1234,"unit":"states"}"#,
            r#"{"v":1,"t":"trace_meta","procs":2,"registers":3,"ops":10}"#,
            r#"{"v":1,"t":"op","proc":0,"pid":7,"kind":"read","local":1,"physical":2,"value":0}"#,
            r#"{"v":1,"t":"op","proc":0,"pid":7,"kind":"write","local":1,"physical":2,"value":9}"#,
            r#"{"v":1,"t":"op","proc":1,"pid":9,"kind":"event","payload":"Enter"}"#,
            r#"{"v":1,"t":"op","proc":1,"pid":9,"kind":"halt"}"#,
        ];
        for line in lines {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        let doc = lines.join("\n");
        assert_eq!(validate_jsonl(&doc).unwrap(), lines.len());
    }

    #[test]
    fn rejects_bad_lines() {
        let cases = [
            ("not json at all", "invalid JSON"),
            (r#"[1,2,3]"#, "not a JSON object"),
            (r#"{"t":"counter","name":"x","key":0,"value":1}"#, "`v`"),
            (
                r#"{"v":3,"t":"meta","tool":"x"}"#,
                "unsupported schema version",
            ),
            (
                r#"{"v":2,"t":"meta","seq":0,"run":"r","elapsed_ms":0,"tool":"x"}"#,
                "unknown v2 line type",
            ),
            (
                r#"{"v":2,"t":"delta","run":"r","elapsed_ms":0,"counters":[],"gauges":[],"hists":[],"spans":[],"events":[]}"#,
                "`seq`",
            ),
            (
                r#"{"v":2,"t":"delta","seq":1,"run":"r","elapsed_ms":5,"counters":[{"name":"x","key":0}],"gauges":[],"hists":[],"spans":[],"events":[]}"#,
                "`delta`",
            ),
            (
                r#"{"v":2,"t":"progress","seq":1,"run":"r","elapsed_ms":5,"states":10,"frontier":2,"depth":3,"eta_ms":0,"states_per_sec":5.0}"#,
                "`dedup_rate`",
            ),
            (
                r#"{"v":2,"t":"profile","seq":1,"run":"r","elapsed_ms":5,"worker":0,"frames":[{"stack":"w0;step"}]}"#,
                "`self_ns`",
            ),
            (r#"{"v":1,"t":"mystery"}"#, "unknown line type"),
            (r#"{"v":1,"t":"counter","name":"x","key":0}"#, "`value`"),
            (
                r#"{"v":1,"t":"hist","name":"x","key":0,"count":1,"sum":1,"min":1,"max":1,"buckets":[1,"no"]}"#,
                "non-u64 entry",
            ),
            (
                r#"{"v":1,"t":"op","proc":0,"pid":1,"kind":"jump"}"#,
                "unknown op kind",
            ),
            (
                r#"{"v":1,"t":"bench","experiment":"E1","family":"mutex","name":"x","value":"high","unit":"u"}"#,
                "non-numeric field `value`",
            ),
        ];
        for (line, needle) in cases {
            let e = validate_line(line).unwrap_err();
            assert!(
                e.reason.contains(needle),
                "{line}: expected `{needle}` in `{}`",
                e.reason
            );
        }
    }

    #[test]
    fn accepts_every_v2_line_type() {
        let lines = [
            r#"{"v":2,"t":"delta","seq":0,"run":"r1","elapsed_ms":50,"counters":[{"name":"explore_states","key":0,"delta":120}],"gauges":[{"name":"explore_frontier","key":0,"last":3,"max":17,"samples":9}],"hists":[{"name":"backoff_spins","key":0,"count":2,"sum":10,"min":3,"max":7,"buckets":[0,1,1]}],"spans":[{"name":"explore","key":0,"length":5}],"events":[{"name":"explore_done","fields":{"states":5}}]}"#,
            r#"{"v":2,"t":"delta","seq":1,"run":"r1","elapsed_ms":100,"counters":[],"gauges":[],"hists":[],"spans":[],"events":[]}"#,
            r#"{"v":2,"t":"progress","seq":2,"run":"r1","elapsed_ms":100,"states":500,"frontier":40,"depth":9,"eta_ms":1200,"states_per_sec":5000.0,"dedup_rate":0.35}"#,
            r#"{"v":2,"t":"profile","seq":3,"run":"r1","elapsed_ms":150,"worker":1,"frames":[{"stack":"worker1;step","self_ns":12345}]}"#,
            r#"{"v":2,"t":"snapshot","seq":4,"run":"r1","elapsed_ms":150}"#,
        ];
        for line in lines {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert_eq!(validate_jsonl(&lines.join("\n")).unwrap(), lines.len());
    }

    #[test]
    fn v1_consumers_skip_v2_lines() {
        let doc = concat!(
            "{\"v\":1,\"t\":\"meta\",\"tool\":\"check\"}\n",
            "{\"v\":2,\"t\":\"delta\",\"seq\":0,\"run\":\"r\",\"elapsed_ms\":1,",
            "\"counters\":[],\"gauges\":[],\"hists\":[],\"spans\":[],\"events\":[]}\n",
            "{\"v\":2,\"t\":\"snapshot\",\"seq\":1,\"run\":\"r\",\"elapsed_ms\":2}\n",
            "{\"v\":1,\"t\":\"counter\",\"name\":\"reg_read\",\"key\":0,\"value\":42}\n",
        );
        assert_eq!(validate_jsonl_v1(doc).unwrap(), (2, 2));
        // Garbage inside a v2 line does not bother a v1 consumer either:
        // only the version tag is inspected before skipping.
        let with_junk = "{\"v\":2,\"t\":\"delta\",\"seq\":\"not-a-number\"}\n";
        assert_eq!(validate_jsonl_v1(with_junk).unwrap(), (0, 1));
        // But a broken v1 line is still an error.
        let bad_v1 = "{\"v\":1,\"t\":\"mystery\"}\n";
        assert!(validate_jsonl_v1(bad_v1).is_err());
    }

    #[test]
    fn validate_jsonl_reports_line_numbers() {
        let doc = "{\"v\":1,\"t\":\"meta\",\"tool\":\"x\"}\n\n{\"v\":1,\"t\":\"nope\"}\n";
        let e = validate_jsonl(doc).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn meta_line_is_valid() {
        let line = meta_line("check", &[("mode", Json::Str("obs".into()))]);
        validate_value(&line, 1).unwrap();
        assert_eq!(line.get("mode").and_then(Json::as_str), Some("obs"));
    }
}
