//! Bench-artifact plumbing: a minimal JSON reader, the idempotent
//! top-level-member splice every soak bin shares, and the tier-1 regression
//! checks over `BENCH_pipeline.json`.
//!
//! The vendored `serde_json` stub renders JSON but does not parse it, so the
//! pieces that *read* the artifact — the `bench_guard` bin behind
//! `scripts/tier1.sh` — use the hand-written recursive-descent reader here
//! instead of brittle `grep`/`sed` pipelines. The splice is textual (the
//! rest of the document stays byte-identical) but brace- and string-aware,
//! so re-running a soak replaces its own member without disturbing — or
//! truncating — anything another bin wrote.
//!
//! Side files — the scorecards and the append-only run history — land in
//! an `artifacts/` directory next to the artifact a bin was asked to write
//! ([`side_path`]), so a run aimed elsewhere never touches the committed
//! ones.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A parsed JSON value. Numbers are kept as `f64` — every field the guards
/// read is well within 2^53.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on non-objects or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Nested lookup: `doc.path(&["stages", "localize", "records_per_s"])`.
    #[must_use]
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for key in keys {
            cur = cur.get(key)?;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn boolean(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset on malformed input — including
/// non-finite number tokens (`inf`, `nan`), which JSON forbids and which the
/// tier-1 guard treats as a build failure.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of document".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad keyword at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = token
        .parse()
        .map_err(|_| format!("bad number {token:?} at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number {token:?} at byte {start}"));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *bytes
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (possibly multi-byte).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or_else(|| "empty".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected member key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// The byte span of top-level member `key` in an object document, including
/// its value and the separating comma (the one after the member, or the one
/// before when the member is last). `None` when the key is absent at the top
/// level (nested occurrences are skipped correctly).
fn top_level_member_span(doc: &str, key: &str) -> Option<(usize, usize)> {
    let bytes = doc.as_bytes();
    let mut pos = doc.find('{')?;
    pos += 1;
    loop {
        skip_ws(bytes, &mut pos);
        match bytes.get(pos) {
            Some(b'}') | None => return None,
            Some(b',') => {
                pos += 1;
                continue;
            }
            Some(b'"') => {}
            Some(_) => return None, // malformed — let the caller rebuild
        }
        let key_start = pos;
        let this_key = parse_string(bytes, &mut pos).ok()?;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b':') {
            return None;
        }
        pos += 1;
        // Skip the value without building it.
        let mut probe = pos;
        parse_value(bytes, &mut probe).ok()?;
        if this_key == key {
            let mut end = probe;
            skip_ws(bytes, &mut end);
            let mut start = key_start;
            if bytes.get(end) == Some(&b',') {
                end += 1; // swallow the trailing comma
            } else {
                // Last member: swallow the comma before it instead.
                let before = doc[..key_start].trim_end();
                if before.ends_with(',') {
                    start = before.len() - 1;
                }
            }
            return Some((start, end));
        }
        pos = probe;
    }
}

/// Splices a top-level `"key": value` member into a JSON object document,
/// replacing any existing member of that key and leaving every other byte of
/// the document untouched. `member` is the fully rendered member including
/// the key (e.g. `"  \"fleet\": {\n    ...\n  }\n"`), without a trailing
/// comma. Unreadable or non-object documents are rebuilt as an object
/// holding only the member.
#[must_use]
pub fn splice_member(doc: &str, key: &str, member: &str) -> String {
    let member = member.trim_end().trim_end_matches(',');
    let trimmed = doc.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return format!("{{\n{member}\n}}\n");
    }
    let mut doc = doc.to_string();
    if let Some((start, end)) = top_level_member_span(&doc, key) {
        doc.replace_range(start..end, "");
    }
    // Insert before the final closing brace.
    let close = doc.rfind('}').expect("checked above");
    let body = doc[..close].trim_end();
    let needs_comma = !body.trim_start_matches('{').trim().is_empty();
    if needs_comma {
        format!("{body},\n{member}\n}}\n")
    } else {
        format!("{{\n{member}\n}}\n")
    }
}

/// Reads `path`, splices the member, writes it back.
///
/// # Panics
///
/// Panics if the artifact cannot be written.
pub fn splice_into_file(path: &str, key: &str, member: &str) {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    std::fs::write(path, splice_member(&existing, key, member)).expect("write bench artifact");
}

/// One failed tier-1 expectation over the bench artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn expect_bool(doc: &Json, path: &[&str], want: bool, out: &mut Vec<Violation>) {
    match doc.path(path).and_then(Json::boolean) {
        Some(got) if got == want => {}
        Some(got) => out.push(Violation(format!(
            "{} is {got}, expected {want}",
            path.join(".")
        ))),
        None => out.push(Violation(format!(
            "{} missing or not a bool",
            path.join(".")
        ))),
    }
}

fn expect_floor(doc: &Json, path: &[&str], floor: f64, out: &mut Vec<Violation>) {
    match doc.path(path).and_then(Json::num) {
        Some(got) if got >= floor => {}
        Some(got) => out.push(Violation(format!(
            "{} regressed: {got} < {floor}",
            path.join(".")
        ))),
        None => out.push(Violation(format!(
            "{} missing or not a number",
            path.join(".")
        ))),
    }
}

fn expect_positive(doc: &Json, path: &[&str], out: &mut Vec<Violation>) {
    match doc.path(path).and_then(Json::num) {
        Some(got) if got > 0.0 => {}
        Some(got) => out.push(Violation(format!(
            "{} is {got}, expected > 0",
            path.join(".")
        ))),
        None => out.push(Violation(format!(
            "{} missing or not a number",
            path.join(".")
        ))),
    }
}

/// Every tier-1 expectation over `BENCH_pipeline.json`, in one place:
/// determinism bits, recovery verdicts, throughput floors (sized for the
/// slowest host exercised so far, a 1-core 2.1 GHz Xeon) and the fleet-scale
/// soak contract. Returns the violations; empty means the gate passes.
#[must_use]
pub fn check_pipeline(doc: &Json) -> Vec<Violation> {
    let mut out = Vec::new();
    // Engine determinism and footprint.
    expect_bool(doc, &["deterministic"], true, &mut out);
    expect_positive(doc, &["store_bytes"], &mut out);
    // Kernel floors: ~60 % of measured steady state on the slowest host.
    expect_floor(
        doc,
        &["stages", "localize", "records_per_s"],
        2_000_000.0,
        &mut out,
    );
    expect_floor(
        doc,
        &["stages", "speech", "records_per_s"],
        20_000_000.0,
        &mut out,
    );
    // Recording plane: the memoised recording kernel's throughput floor
    // (~60 % of the ~2.8 days/s measured on the slowest host) and an
    // honestly measured parallel ratio (interleaved on one core, so the
    // ratio itself carries no floor — only the measurement discipline does).
    expect_bool(doc, &["record", "deterministic"], true, &mut out);
    expect_positive(doc, &["record", "wall_s"], &mut out);
    expect_bool(doc, &["record", "speedup_measured"], true, &mut out);
    expect_floor(doc, &["record", "days_per_s"], 1.7, &mut out);
    // Ingest: byte-identical recovery and a sustained-throughput floor
    // (~1/3 of the slowest `ingest_soak` run, 1.25M records/s, measured with
    // the bulk-draining shard queue on a 2-core Intel Xeon sandbox host;
    // 12 later runs there read 2.26M–2.97M).
    expect_bool(doc, &["ingest", "recovery_divergent"], false, &mut out);
    expect_floor(
        doc,
        &["ingest", "sustained_records_per_s"],
        400_000.0,
        &mut out,
    );
    // Fleet: the soak must cover ≥ 1,000 badge-days and stay deterministic
    // across worker and shard counts.
    expect_bool(doc, &["fleet", "fleet_deterministic"], true, &mut out);
    expect_floor(doc, &["fleet", "badge_days"], 1_000.0, &mut out);
    // Fleet recording throughput rides the same batched kernel; floor at
    // ~60 % of the slowest host's steady state.
    expect_floor(doc, &["fleet", "badge_days_per_s"], 55.0, &mut out);
    expect_positive(doc, &["fleet", "habitats"], &mut out);
    // Scenario generation: ≥ 25 seeded scenarios must pass the layout
    // validator and replay bit-identically (recording, analysis and
    // streaming), and the worst generated plan's field-cache
    // resolved_fraction must stay near-total (measured 1.0 on every plan in
    // the generator's family; 0.95 leaves slack for grid changes).
    expect_bool(doc, &["scenario_gen", "deterministic"], true, &mut out);
    expect_floor(
        doc,
        &["scenario_gen", "scenarios_validated"],
        25.0,
        &mut out,
    );
    expect_floor(doc, &["scenario_gen", "cache_purity_min"], 0.95, &mut out);
    out
}

/// Runs [`check_pipeline`] against a file, folding read/parse failures into
/// the violation list (a malformed artifact — including `inf`/`nan` tokens —
/// must fail the gate, not slip past it).
#[must_use]
pub fn check_pipeline_file(path: &str) -> Vec<Violation> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => return vec![Violation(format!("cannot read {path}: {e}"))],
    };
    match parse(&text) {
        Ok(doc) => check_pipeline(&doc),
        Err(e) => vec![Violation(format!("{path} is not valid JSON: {e}"))],
    }
}

/// Where a bin writing the artifact `out_path` puts its side file `name`:
/// `<directory of out_path>/artifacts/<name>`. The default
/// `BENCH_pipeline.json` resolves to `artifacts/<name>`.
#[must_use]
pub fn side_path(out_path: &str, name: &str) -> PathBuf {
    Path::new(out_path)
        .parent()
        .unwrap_or(Path::new(""))
        .join("artifacts")
        .join(name)
}

/// Writes `text` to [`side_path`]`(out_path, name)`, creating the directory,
/// and returns the path. A failure is a warning on stderr: the side files
/// are for reading, the artifact is what the gate checks.
pub fn write_side_file(out_path: &str, name: &str, text: &str) -> PathBuf {
    let path = side_path(out_path, name);
    if let Err(e) = create_parent(&path).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// Appends one line `{"ts": <unix seconds>, <fields>}` to the run history
/// `bench_history.jsonl` beside `out_path` ([`side_path`]): the across-runs
/// record the single-artifact snapshot cannot give. `BENCH_TS=<unix
/// seconds>` pins the timestamp (reproducible CI).
pub fn append_history(out_path: &str, fields: &str) {
    use std::io::Write as _;
    let path = side_path(out_path, "bench_history.jsonl");
    let line = format!("{{\"ts\": {}, {fields}}}\n", history_timestamp());
    let appended = create_parent(&path).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
    });
    if let Err(e) = appended {
        eprintln!("warning: could not append {}: {e}", path.display());
    }
}

fn create_parent(path: &Path) -> std::io::Result<()> {
    path.parent().map_or(Ok(()), std::fs::create_dir_all)
}

fn history_timestamp() -> u64 {
    if let Some(ts) = std::env::var_os("BENCH_TS") {
        if let Some(parsed) = ts.to_str().and_then(|s| s.parse::<u64>().ok()) {
            return parsed;
        }
        eprintln!("BENCH_TS is not a unix-seconds integer; using wall clock");
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Renders one `key: value` line list as an indented JSON object member —
/// the house format of `BENCH_pipeline.json` top-level blocks.
#[must_use]
pub fn render_member(key: &str, fields: &[(&str, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  \"{key}\": {{");
    for (i, (name, value)) in fields.iter().enumerate() {
        let comma = if i + 1 == fields.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{name}\": {value}{comma}");
    }
    let _ = write!(out, "  }}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "day": 3,
  "deterministic": true,
  "stages": {
    "localize": {"records_per_s": 5359556.7},
    "speech": {"records_per_s": 50062568.6}
  },
  "ingest": {
    "sustained_records_per_s": 262852.6,
    "recovery_divergent": false
  }
}
"#;

    #[test]
    fn side_files_land_beside_the_artifact() {
        assert_eq!(
            side_path("BENCH_pipeline.json", "bench_history.jsonl"),
            Path::new("artifacts/bench_history.jsonl")
        );
        assert_eq!(
            side_path("/some/other/out.json", "fleet_scorecard.txt"),
            Path::new("/some/other/artifacts/fleet_scorecard.txt")
        );
        assert_eq!(
            side_path("runs/a.json", "x.txt"),
            Path::new("runs/artifacts/x.txt")
        );
    }

    #[test]
    fn parses_the_house_artifact_shape() {
        let doc = parse(DOC).expect("parses");
        assert_eq!(doc.get("day").and_then(Json::num), Some(3.0));
        assert_eq!(doc.get("deterministic").and_then(Json::boolean), Some(true));
        assert_eq!(
            doc.path(&["stages", "localize", "records_per_s"])
                .and_then(Json::num),
            Some(5_359_556.7)
        );
        assert_eq!(
            doc.path(&["ingest", "recovery_divergent"])
                .and_then(Json::boolean),
            Some(false)
        );
    }

    #[test]
    fn parser_rejects_non_finite_and_malformed() {
        assert!(parse(r#"{"x": inf}"#).is_err());
        assert!(parse(r#"{"x": nan}"#).is_err());
        assert!(parse(r#"{"x": 1"#).is_err());
        assert!(parse(r#"{"x" 1}"#).is_err());
        assert!(parse("{} trailing").is_err());
        // Escapes and arrays round-trip.
        let doc = parse(r#"{"s": "a\nb", "a": [1, true, null]}"#).expect("parses");
        assert_eq!(doc.get("s"), Some(&Json::Str("a\nb".to_string())));
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
    }

    fn member(tag: &str) -> String {
        render_member(
            "fleet",
            &[("habitats", "200".into()), ("tag", format!("\"{tag}\""))],
        )
    }

    #[test]
    fn splice_appends_then_replaces_idempotently() {
        let once = splice_member(DOC, "fleet", &member("first"));
        let doc = parse(&once).expect("spliced doc parses");
        assert_eq!(
            doc.path(&["fleet", "habitats"]).and_then(Json::num),
            Some(200.0)
        );
        // Unrelated members survive.
        assert_eq!(doc.get("day").and_then(Json::num), Some(3.0));
        assert_eq!(
            doc.path(&["stages", "speech", "records_per_s"])
                .and_then(Json::num),
            Some(50_062_568.6)
        );
        // Re-splicing replaces, never duplicates.
        let twice = splice_member(&once, "fleet", &member("second"));
        assert_eq!(twice.matches("\"fleet\"").count(), 1);
        let doc = parse(&twice).expect("re-spliced doc parses");
        assert_eq!(
            doc.path(&["fleet", "tag"]),
            Some(&Json::Str("second".into()))
        );
        assert_eq!(doc.get("day").and_then(Json::num), Some(3.0));
        // Identical input → byte-identical output.
        assert_eq!(twice, splice_member(&twice, "fleet", &member("second")));
    }

    #[test]
    fn splice_does_not_truncate_members_after_the_target() {
        // The hazard the old sed-style splice had: replacing a middle member
        // must not cut off everything after it.
        let with_fleet = splice_member(DOC, "fleet", &member("first"));
        let with_both = splice_member(&with_fleet, "ingest", "  \"ingest\": {\n    \"sustained_records_per_s\": 999.0,\n    \"recovery_divergent\": false\n  }");
        let doc = parse(&with_both).expect("parses");
        assert_eq!(
            doc.path(&["ingest", "sustained_records_per_s"])
                .and_then(Json::num),
            Some(999.0)
        );
        assert_eq!(
            doc.path(&["fleet", "tag"]),
            Some(&Json::Str("first".into())),
            "member after the replaced one must survive"
        );
    }

    #[test]
    fn splice_handles_empty_and_malformed_documents() {
        let fresh = splice_member("", "fleet", &member("x"));
        assert!(parse(&fresh).is_ok());
        let fresh = splice_member("not json at all", "fleet", &member("x"));
        assert!(parse(&fresh).is_ok());
        let fresh = splice_member("{}", "fleet", &member("x"));
        let doc = parse(&fresh).expect("parses");
        assert_eq!(
            doc.path(&["fleet", "habitats"]).and_then(Json::num),
            Some(200.0)
        );
    }

    #[test]
    fn nested_keys_do_not_shadow_top_level_splice() {
        // "speech" exists nested under "stages"; splicing a top-level
        // "speech" must not touch the nested one.
        let out = splice_member(DOC, "speech", "  \"speech\": {\"top\": true}");
        let doc = parse(&out).expect("parses");
        assert_eq!(
            doc.path(&["speech", "top"]).and_then(Json::boolean),
            Some(true)
        );
        assert_eq!(
            doc.path(&["stages", "speech", "records_per_s"])
                .and_then(Json::num),
            Some(50_062_568.6)
        );
    }

    #[test]
    fn guard_passes_a_healthy_artifact_and_names_regressions() {
        let healthy = r#"{
  "deterministic": true,
  "store_bytes": 60347486,
  "stages": {
    "localize": {"records_per_s": 5359556.7},
    "speech": {"records_per_s": 50062568.6}
  },
  "record": {"wall_s": 0.5, "days_per_s": 2.8, "speedup_measured": true, "deterministic": true},
  "ingest": {"sustained_records_per_s": 2380679.4, "recovery_divergent": false},
  "fleet": {"habitats": 200, "badge_days": 2400, "badge_days_per_s": 90.0, "fleet_deterministic": true},
  "scenario_gen": {"scenarios_validated": 30, "cache_purity_min": 1.0, "deterministic": true}
}"#;
        assert_eq!(check_pipeline(&parse(healthy).expect("parses")), Vec::new());

        // Every check fails once, and each violation names its path.
        let sick = r#"{
  "deterministic": false,
  "store_bytes": 0,
  "stages": {
    "localize": {"records_per_s": 100.0},
    "speech": {"records_per_s": 100.0}
  },
  "record": {"wall_s": 0.0, "days_per_s": 0.4, "speedup_measured": false, "deterministic": false},
  "ingest": {"sustained_records_per_s": 262852.6, "recovery_divergent": true},
  "fleet": {"habitats": 0, "badge_days": 12, "badge_days_per_s": 9.0, "fleet_deterministic": false},
  "scenario_gen": {"scenarios_validated": 12, "cache_purity_min": 0.4, "deterministic": false}
}"#;
        let violations = check_pipeline(&parse(sick).expect("parses"));
        let text: Vec<String> = violations.iter().map(ToString::to_string).collect();
        let expected = [
            "deterministic is false",
            "store_bytes is 0",
            "stages.localize.records_per_s regressed",
            "stages.speech.records_per_s regressed",
            "record.deterministic is false",
            "record.wall_s is 0",
            "record.speedup_measured is false",
            "record.days_per_s regressed",
            "ingest.recovery_divergent is true",
            "ingest.sustained_records_per_s regressed",
            "fleet.fleet_deterministic is false",
            "fleet.badge_days regressed",
            "fleet.badge_days_per_s regressed",
            "fleet.habitats is 0",
            "scenario_gen.deterministic is false",
            "scenario_gen.scenarios_validated regressed",
            "scenario_gen.cache_purity_min regressed",
        ];
        for want in expected {
            assert!(text.iter().any(|v| v.starts_with(want)), "{want}: {text:?}");
        }
        assert_eq!(text.len(), expected.len(), "{text:?}");
        // Missing members are named, not silently passed.
        let empty = check_pipeline(&parse("{}").expect("parses"));
        assert!(empty
            .iter()
            .any(|v| v.0.contains("fleet.fleet_deterministic")));
        assert!(empty.iter().any(|v| v.0.contains("scenario_gen")));
        assert!(empty.iter().any(|v| v.0.contains("record.days_per_s")));
    }
}
