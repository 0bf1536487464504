//! The line-delimited JSON request/response protocol.
//!
//! One request per line, one response line per request `id`, in
//! completion order (not submission order — clients correlate by `id`).
//!
//! Requests (`op` defaults to `run`):
//!
//! ```text
//! {"id":"r1","benchmark":"gcc","spec":{"d_policy":"gated:100","instructions":4000}}
//! {"id":"r2","op":"run","benchmark":"mesa","priority":1,"deadline_ms":5000,"spec":{}}
//! {"id":"s1","op":"stats"}
//! {"id":"p1","op":"ping"}
//! {"id":"d1","op":"drain"}
//! {"id":"m1","op":"metrics"}
//! ```
//!
//! Responses carry an explicit terminal status — `ok`, `shed`, `timeout`
//! or `error` — so a client never has to infer an outcome from silence:
//!
//! ```text
//! {"id":"r1","status":"ok","benchmark":"gcc","spec_key":"gcc@…","row":{…}}
//! {"id":"r2","status":"shed","reason":"queue full","retry_after_ms":120}
//! {"id":"r3","status":"timeout","error":"…"}
//! {"id":"r4","status":"error","kind":"invalid-spec","error":"…"}
//! ```
//!
//! A `spec` object is read through `bitline-sim`'s spec table
//! ([`bitline_sim::spec::from_json`]): its keys are the table's keys,
//! each value keeps its JSON type (policies and leakage modes are
//! strings, counts are unsigned integers, `fault_rate` and `vdd` are
//! finite numbers, switches are booleans), and values apply over the
//! same env-free default as `bitline-sim`
//! ([`bitline_sim::spec::front_end_default`]), which is also what a
//! request without a `spec` runs.
//!
//! Parsing is strict: an unknown key, in the request or its spec, is a
//! `bad-request` error naming the key, not silently ignored, matching the
//! fail-fast posture of `SystemSpec::validate`.

use bitline_cmos::TechnologyNode;
use bitline_obs::json::{self, as_object, expect_keys, get_str, json_u64, try_get, Json};
use bitline_sim::{spec, RunResult, SystemSpec};
use std::fmt::Write as _;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a benchmark under a spec (the default op).
    Run(Box<RunRequest>),
    /// Report serving counters and journal warm-restart accounting.
    Stats {
        /// Request id echoed in the response.
        id: String,
    },
    /// Liveness probe.
    Ping {
        /// Request id echoed in the response.
        id: String,
    },
    /// Begin a graceful drain (same effect as SIGTERM).
    Drain {
        /// Request id echoed in the response.
        id: String,
    },
    /// Full obs JSONL export (every metric + recent spans), as opposed to
    /// the `stats` counter summary.
    Metrics {
        /// Request id echoed in the response.
        id: String,
    },
}

/// A `run` request: one benchmark under one [`SystemSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Client-chosen correlation id, echoed in the response line.
    pub id: String,
    /// Benchmark name (must be in the workload suite).
    pub benchmark: String,
    /// The full system configuration to simulate.
    pub spec: SystemSpec,
    /// Admission priority; lower runs first, FIFO within a priority.
    pub priority: u8,
    /// Per-request wall-clock deadline in milliseconds; arms the run's
    /// `CancelToken`. Falls back to the daemon's `--request-budget`.
    pub deadline_ms: Option<u64>,
}

/// A request that failed to parse; `id` is carried when the line got far
/// enough to reveal one, so the error response can still be correlated.
#[derive(Debug, Clone, PartialEq)]
pub struct BadRequest {
    /// The request id, when one was readable.
    pub id: Option<String>,
    /// What was wrong.
    pub message: String,
}

impl BadRequest {
    fn new(id: Option<&str>, message: impl Into<String>) -> Self {
        BadRequest { id: id.map(str::to_owned), message: message.into() }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A [`BadRequest`] naming the violation; `id` is set when readable.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let value = json::parse(line).map_err(|e| BadRequest::new(None, e))?;
    let obj = as_object(&value).map_err(|e| BadRequest::new(None, e))?;
    let id = match get_str(obj, "id") {
        Ok(id) => id.to_owned(),
        Err(e) => return Err(BadRequest::new(None, e)),
    };
    let fail = |e: String| BadRequest::new(Some(&id), e);
    let op = match try_get(obj, "op") {
        None => "run",
        Some(Json::Str(s)) => s.as_str(),
        Some(_) => return Err(fail("key `op` must be a string".into())),
    };
    match op {
        "run" => {
            expect_keys(obj, &["id", "op", "benchmark", "priority", "deadline_ms", "spec"])
                .map_err(fail)?;
            let benchmark = get_str(obj, "benchmark").map_err(fail)?.to_owned();
            let priority = match try_get(obj, "priority") {
                None => 0,
                Some(v) => u8::try_from(json_u64(v).map_err(fail)?)
                    .map_err(|_| fail("priority must be 0..=255".into()))?,
            };
            let deadline_ms = match try_get(obj, "deadline_ms") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    let ms = json_u64(v).map_err(fail)?;
                    if ms == 0 {
                        return Err(fail(
                            "deadline_ms 0 would cancel the run before it starts; omit the key \
                             for no deadline"
                                .into(),
                        ));
                    }
                    Some(ms)
                }
            };
            let spec = match try_get(obj, "spec") {
                None => spec::front_end_default(),
                Some(v) => {
                    let fields =
                        as_object(v).map_err(|_| fail("key `spec` must be an object".into()))?;
                    spec::from_json(spec::front_end_default(), fields).map_err(fail)?
                }
            };
            Ok(Request::Run(Box::new(RunRequest { id, benchmark, spec, priority, deadline_ms })))
        }
        "stats" | "ping" | "drain" | "metrics" => {
            expect_keys(obj, &["id", "op"]).map_err(fail)?;
            Ok(match op {
                "stats" => Request::Stats { id },
                "ping" => Request::Ping { id },
                "metrics" => Request::Metrics { id },
                _ => Request::Drain { id },
            })
        }
        other => Err(fail(format!("unknown op `{other}` (try run, stats, ping, drain, metrics)"))),
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The result row streamed back for a completed run. All values derive
/// from the run and the analytic static baseline priced over the *same*
/// run, so no second simulation is needed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Load-replay squashes.
    pub replays: u64,
    /// D-cache (hits, misses).
    pub d_hits: u64,
    /// D-cache misses.
    pub d_misses: u64,
    /// I-cache hits.
    pub i_hits: u64,
    /// I-cache misses.
    pub i_misses: u64,
    /// Fraction of D-cache accesses that found their subarray precharged.
    pub d_precharged: f64,
    /// Fraction of I-cache accesses that found their subarray precharged.
    pub i_precharged: f64,
    /// D-cache bitline discharge relative to the static baseline.
    pub d_discharge: f64,
    /// I-cache bitline discharge relative to the static baseline.
    pub i_discharge: f64,
    /// Overall D-cache energy reduction vs the static baseline.
    pub d_energy_reduction: f64,
    /// Overall I-cache energy reduction vs the static baseline.
    pub i_energy_reduction: f64,
}

impl RunRow {
    /// Builds the response row from a completed run, pricing energy at
    /// `node`.
    #[must_use]
    pub fn from_result(run: &RunResult, node: TechnologyNode) -> RunRow {
        let (policy, baseline) = run.energy(node);
        RunRow {
            cycles: run.cycles(),
            committed: run.stats.committed,
            ipc: run.stats.ipc(),
            replays: run.stats.replays,
            d_hits: run.l1d().hits,
            d_misses: run.l1d().misses,
            i_hits: run.l1i().hits,
            i_misses: run.l1i().misses,
            d_precharged: run.l1d().report.precharged_fraction(),
            i_precharged: run.l1i().report.precharged_fraction(),
            d_discharge: policy.d.relative_discharge(&baseline.d),
            i_discharge: policy.i.relative_discharge(&baseline.i),
            d_energy_reduction: policy.d.overall_reduction(&baseline.d),
            i_energy_reduction: policy.i.overall_reduction(&baseline.i),
        }
    }
}

fn push_f64(out: &mut String, v: f64) {
    // Rust's f64 Display is shortest-roundtrip, so replayed rows are
    // byte-identical to the originals; non-finite values (impossible for
    // these metrics, but the encoder stays total) become null.
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Renders an `ok` response line (no trailing newline).
#[must_use]
pub fn ok_line(id: &str, benchmark: &str, spec_key: &str, row: &RunRow) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"ok\",\"benchmark\":");
    json::escape_into(&mut out, benchmark);
    out.push_str(",\"spec_key\":");
    json::escape_into(&mut out, spec_key);
    let _ = write!(
        out,
        ",\"row\":{{\"cycles\":{},\"committed\":{},\"ipc\":",
        row.cycles, row.committed
    );
    push_f64(&mut out, row.ipc);
    let _ = write!(
        out,
        ",\"replays\":{},\"d_hits\":{},\"d_misses\":{},\"i_hits\":{},\"i_misses\":{}",
        row.replays, row.d_hits, row.d_misses, row.i_hits, row.i_misses
    );
    for (key, v) in [
        ("d_precharged", row.d_precharged),
        ("i_precharged", row.i_precharged),
        ("d_discharge", row.d_discharge),
        ("i_discharge", row.i_discharge),
        ("d_energy_reduction", row.d_energy_reduction),
        ("i_energy_reduction", row.i_energy_reduction),
    ] {
        let _ = write!(out, ",\"{key}\":");
        push_f64(&mut out, v);
    }
    out.push_str("}}");
    out
}

/// Renders a `shed` response line carrying the retry hint.
#[must_use]
pub fn shed_line(id: &str, reason: &str, retry_after_ms: u64) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"shed\",\"reason\":");
    json::escape_into(&mut out, reason);
    let _ = write!(out, ",\"retry_after_ms\":{retry_after_ms}}}");
    out
}

/// Renders a `timeout` response line.
#[must_use]
pub fn timeout_line(id: &str, message: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"timeout\",\"error\":");
    json::escape_into(&mut out, message);
    out.push('}');
    out
}

/// Renders an `error` response line with a stable machine-readable kind
/// (`bad-request`, or a [`bitline_sim::SimError::kind`] tag).
#[must_use]
pub fn error_line(id: &str, kind: &str, message: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"error\",\"kind\":");
    json::escape_into(&mut out, kind);
    out.push_str(",\"error\":");
    json::escape_into(&mut out, message);
    out.push('}');
    out
}

/// Renders the `ping` response line.
#[must_use]
pub fn pong_line(id: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"ok\",\"pong\":true}");
    out
}

/// Renders the `drain` acknowledgement line.
#[must_use]
pub fn drain_line(id: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"ok\",\"draining\":true}");
    out
}

/// Renders the `metrics` response line: the full obs JSONL export carried
/// as one escaped string field (clients unescape and validate it with
/// `bitline_obs::validate_jsonl`).
#[must_use]
pub fn metrics_line(id: &str, jsonl: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"ok\",\"metrics_jsonl\":");
    json::escape_into(&mut out, jsonl);
    out.push('}');
    out
}

/// Renders the `stats` response line from `(name, value)` pairs, in the
/// order given.
#[must_use]
pub fn stats_line(id: &str, stats: &[(&str, u64)]) -> String {
    let mut out = String::new();
    out.push_str("{\"id\":");
    json::escape_into(&mut out, id);
    out.push_str(",\"status\":\"ok\",\"stats\":{");
    for (i, (name, value)) in stats.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::escape_into(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitline_obs::json::get_u64;
    use bitline_sim::{FaultSpec, HierarchySpec, LeakageKind, PolicyKind, VddSpec};

    #[test]
    fn run_requests_parse_with_defaults_and_overrides() {
        let req = parse_request(r#"{"id":"r1","benchmark":"gcc"}"#).unwrap();
        let Request::Run(run) = req else { panic!("expected run") };
        assert_eq!(run.id, "r1");
        assert_eq!(run.benchmark, "gcc");
        assert_eq!(run.priority, 0);
        assert_eq!(run.deadline_ms, None);
        assert_eq!(run.spec, spec::front_end_default());

        let req = parse_request(
            r#"{"id":"r2","op":"run","benchmark":"mesa","priority":3,"deadline_ms":250,
                "spec":{"d_policy":"gated:64","instructions":9000,"seed":7,"ecc":true}}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap();
        let Request::Run(run) = req else { panic!("expected run") };
        assert_eq!(run.priority, 3);
        assert_eq!(run.deadline_ms, Some(250));
        assert_eq!(run.spec.d_policy, PolicyKind::Gated { threshold: 64 });
        assert_eq!(run.spec.i_policy, PolicyKind::Gated { threshold: 64 });
        assert_eq!(run.spec.instructions, 9000);
        assert_eq!(run.spec.seed, 7);
        assert!(run.spec.faults.ecc);
    }

    #[test]
    fn every_spec_flag_and_its_serve_key_build_the_same_spec() {
        // One non-default value per table row: the CLI spelling (none for
        // a switch), the JSON value serve receives, and the spec both must
        // build, so a row wired to the wrong field fails.
        let base = spec::front_end_default();
        let (faults, hierarchy, vdd) = (base.faults, base.hierarchy, base.vdd);
        let samples: [(&str, &str, &str, SystemSpec); 16] = [
            (
                "d_policy",
                "predecode:32",
                r#""predecode:32""#,
                SystemSpec {
                    d_policy: PolicyKind::GatedPredecode { threshold: 32 },
                    i_policy: PolicyKind::Gated { threshold: 32 },
                    ..base
                },
            ),
            (
                "i_policy",
                "resizable:500:0.02",
                r#""resizable:500:0.02""#,
                SystemSpec {
                    i_policy: PolicyKind::Resizable { interval_accesses: 500, slack: 0.02 },
                    ..base
                },
            ),
            ("subarray_bytes", "256", "256", SystemSpec { subarray_bytes: 256, ..base }),
            ("instructions", "9000", "9000", SystemSpec { instructions: 9000, ..base }),
            ("seed", "7", "7", SystemSpec { seed: 7, ..base }),
            ("way_prediction", "", "true", SystemSpec { way_prediction: true, ..base }),
            (
                "fault_rate",
                "0.01",
                "0.01",
                SystemSpec { faults: FaultSpec { rate: 0.01, ..faults }, ..base },
            ),
            (
                "fault_seed",
                "11",
                "11",
                SystemSpec { faults: FaultSpec { seed: 11, ..faults }, ..base },
            ),
            (
                "fail_safe",
                "",
                "true",
                SystemSpec { faults: FaultSpec { fail_safe: true, ..faults }, ..base },
            ),
            ("ecc", "", "true", SystemSpec { faults: FaultSpec { ecc: true, ..faults }, ..base }),
            (
                "scrub_period",
                "4096",
                "4096",
                SystemSpec { faults: FaultSpec { scrub_period: Some(4096), ..faults }, ..base },
            ),
            (
                "levels",
                "3",
                "3",
                SystemSpec { hierarchy: HierarchySpec { levels: 3, ..hierarchy }, ..base },
            ),
            (
                "l2_policy",
                "drowsy:50",
                r#""drowsy:50""#,
                SystemSpec {
                    hierarchy: HierarchySpec {
                        l2_policy: PolicyKind::Drowsy { threshold: 50 },
                        ..hierarchy
                    },
                    ..base
                },
            ),
            (
                "leakage_mode",
                "6t",
                r#""6t""#,
                SystemSpec {
                    hierarchy: HierarchySpec { leakage_mode: LeakageKind::LowPower6T, ..hierarchy },
                    ..base
                },
            ),
            ("vdd", "0.85", "0.85", SystemSpec { vdd: VddSpec { scale: 0.85, ..vdd }, ..base }),
            (
                "vdd_governor",
                "",
                "true",
                SystemSpec { vdd: VddSpec { governor: true, ..vdd }, ..base },
            ),
        ];
        for (field, (key, text, json, want)) in spec::FIELDS.iter().zip(samples) {
            assert_eq!(field.key, key, "samples follow the table");
            assert_ne!(want, base, "{key}: sample must not be the default");
            let mut cli = spec::Assignments::default();
            assert!(cli.flag(field.flag, || Ok(text.to_owned())).unwrap());
            let cli = cli.apply(base).unwrap();
            assert_eq!(cli, want, "{key}: the flag must set its own field");
            let line = format!(r#"{{"id":"t","benchmark":"gcc","spec":{{"{key}":{json}}}}}"#);
            let Ok(Request::Run(run)) = parse_request(&line) else { panic!("{line}") };
            assert_eq!(run.spec, cli, "{key}");
        }
    }

    #[test]
    fn rejected_spec_values_name_their_key_and_keep_the_id() {
        // `1e999` is syntactically valid JSON that parses to +inf.
        for (key, value, why) in [
            ("leakage_mode", r#""antigravity""#, "unknown leakage mode"),
            ("levels", "900", "too large"),
            ("vdd", "1e999", "finite"),
            ("vdd", "-1e999", "finite"),
            ("fault_rate", "1e999", "finite"),
            ("fault_rate", "-1e999", "finite"),
            ("vdd", r#""0.9""#, "number"),
            ("vdd_governor", "1", "boolean"),
        ] {
            let line = format!(r#"{{"id":"v","benchmark":"gcc","spec":{{"{key}":{value}}}}}"#);
            let e = parse_request(&line).unwrap_err();
            assert!(e.message.starts_with(&format!("spec {key}: ")), "{line}: {}", e.message);
            assert!(e.message.contains(why), "{line}: {}", e.message);
            assert_eq!(e.id.as_deref(), Some("v"));
        }
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(
            parse_request(r#"{"id":"s","op":"stats"}"#),
            Ok(Request::Stats { id: "s".into() })
        );
        assert_eq!(
            parse_request(r#"{"id":"p","op":"ping"}"#),
            Ok(Request::Ping { id: "p".into() })
        );
        assert_eq!(
            parse_request(r#"{"id":"d","op":"drain"}"#),
            Ok(Request::Drain { id: "d".into() })
        );
        assert_eq!(
            parse_request(r#"{"id":"m","op":"metrics"}"#),
            Ok(Request::Metrics { id: "m".into() })
        );
    }

    #[test]
    fn violations_fail_fast_and_keep_the_id_when_readable() {
        let e = parse_request("not json").unwrap_err();
        assert_eq!(e.id, None);
        let e = parse_request(r#"{"benchmark":"gcc"}"#).unwrap_err();
        assert!(e.message.contains("missing key `id`"));
        let e = parse_request(r#"{"id":"r","benchmark":"gcc","bogus":1}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("r"));
        assert!(e.message.contains("unexpected key `bogus`"));
        let e = parse_request(r#"{"id":"r","benchmark":"gcc","spec":{"d_policy":"warp"}}"#)
            .unwrap_err();
        assert!(e.message.contains("unknown policy"));
        let e = parse_request(r#"{"id":"r","benchmark":"gcc","deadline_ms":0}"#).unwrap_err();
        assert!(e.message.contains("deadline_ms 0"));
        let e = parse_request(r#"{"id":"r","op":"mystery"}"#).unwrap_err();
        assert!(e.message.contains("unknown op `mystery`"));
        let e = parse_request(r#"{"id":"r","op":"stats","extra":true}"#).unwrap_err();
        assert!(e.message.contains("unexpected key `extra`"));
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let row = RunRow {
            cycles: 10,
            committed: 8,
            ipc: 0.8,
            replays: 0,
            d_hits: 5,
            d_misses: 1,
            i_hits: 7,
            i_misses: 0,
            d_precharged: 0.5,
            i_precharged: 1.0,
            d_discharge: 0.25,
            i_discharge: 0.75,
            d_energy_reduction: 0.1,
            i_energy_reduction: 0.2,
        };
        for line in [
            ok_line("a\"b", "gcc", "gcc@0011223344556677", &row),
            shed_line("r", "queue full", 42),
            timeout_line("r", "gcc: exceeded 1ms"),
            error_line("r", "invalid-spec", "subarray 48 is not a power of two"),
            pong_line("r"),
            drain_line("r"),
            stats_line("r", &[("accepted", 3), ("shed", 1)]),
            metrics_line("r", "{\"kind\":\"counter\",\"name\":\"serve.accepted\",\"value\":1}\n"),
        ] {
            assert!(!line.contains('\n'));
            let parsed = json::parse(&line).expect(&line);
            let obj = as_object(&parsed).unwrap();
            assert!(try_get(obj, "id").is_some());
            assert!(try_get(obj, "status").is_some());
        }
        let parsed = json::parse(&shed_line("r", "queue full", 42)).unwrap();
        let obj = as_object(&parsed).unwrap();
        assert_eq!(get_u64(obj, "retry_after_ms"), Ok(42));
    }
}
