//! JSON-lines export of the global metrics snapshot and span ring buffer,
//! plus the matching parser/validator used by tests and the CI smoke.
//!
//! The file format (`bitline-obs/v1`) is one JSON object per line:
//!
//! ```text
//! {"type":"meta","schema":"bitline-obs/v1","emitted_us":12345}
//! {"type":"counter","name":"exec.pool.units","value":96}
//! {"type":"gauge","name":"exec.pool.workers","value":8}
//! {"type":"histogram","name":"exec.pool.queue_wait_us","count":9,"sum":120,
//!  "min":2,"max":40,"buckets":[[2,3],[6,6]]}
//! {"type":"span","name":"fig8/run","thread":"exec-worker-0","start_us":10,
//!  "dur_us":900,"fields":{"benchmark":"mesa"}}
//! ```
//!
//! Both directions are hand-rolled: the workspace's `serde` is an offline
//! no-op shim, so the encoder writes strings directly and parsing rides on
//! the shared recursive-descent reader in [`crate::json`]. Keeping the
//! parser in this crate means the exporter is round-trip tested against
//! itself (see `tests/proptests.rs`) and the CI validator shares one
//! schema.

use crate::json::{
    self, as_array, as_object, expect_keys, get, get_i64, get_opt_u64, get_str, get_u64, json_u64,
    Json,
};
use crate::registry::{HistogramSnapshot, MetricsSnapshot};
use crate::span::SpanRecord;

/// Schema identifier stamped into (and required of) the meta line.
pub const SCHEMA: &str = "bitline-obs/v1";

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One line of a metrics file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// File header: schema identifier and emission time.
    Meta {
        /// Schema identifier; always [`SCHEMA`] for files this crate writes.
        schema: String,
        /// Microseconds since the process epoch at export time.
        emitted_us: u64,
    },
    /// A counter's value.
    Counter {
        /// Metric name.
        name: String,
        /// Counter value.
        value: u64,
    },
    /// A gauge's value.
    Gauge {
        /// Metric name.
        name: String,
        /// Gauge value.
        value: i64,
    },
    /// A histogram's frozen shape.
    Histogram {
        /// Metric name.
        name: String,
        /// The snapshot.
        snapshot: HistogramSnapshot,
    },
    /// One completed span.
    Span(SpanRecord),
}

use json::escape_into as push_json_string;

impl Record {
    /// Encodes the record as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        match self {
            Record::Meta { schema, emitted_us } => {
                out.push_str("{\"type\":\"meta\",\"schema\":");
                push_json_string(&mut out, schema);
                out.push_str(&format!(",\"emitted_us\":{emitted_us}}}"));
            }
            Record::Counter { name, value } => {
                out.push_str("{\"type\":\"counter\",\"name\":");
                push_json_string(&mut out, name);
                out.push_str(&format!(",\"value\":{value}}}"));
            }
            Record::Gauge { name, value } => {
                out.push_str("{\"type\":\"gauge\",\"name\":");
                push_json_string(&mut out, name);
                out.push_str(&format!(",\"value\":{value}}}"));
            }
            Record::Histogram { name, snapshot } => {
                out.push_str("{\"type\":\"histogram\",\"name\":");
                push_json_string(&mut out, name);
                out.push_str(&format!(",\"count\":{},\"sum\":{}", snapshot.count, snapshot.sum));
                match snapshot.min {
                    Some(v) => out.push_str(&format!(",\"min\":{v}")),
                    None => out.push_str(",\"min\":null"),
                }
                match snapshot.max {
                    Some(v) => out.push_str(&format!(",\"max\":{v}")),
                    None => out.push_str(",\"max\":null"),
                }
                out.push_str(",\"buckets\":[");
                for (i, (bucket, count)) in snapshot.buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{bucket},{count}]"));
                }
                out.push_str("]}");
            }
            Record::Span(span) => {
                out.push_str("{\"type\":\"span\",\"name\":");
                push_json_string(&mut out, &span.name);
                out.push_str(",\"thread\":");
                push_json_string(&mut out, &span.thread);
                out.push_str(&format!(
                    ",\"start_us\":{},\"dur_us\":{},\"fields\":{{",
                    span.start_us, span.dur_us
                ));
                for (i, (k, v)) in span.fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(&mut out, k);
                    out.push(':');
                    push_json_string(&mut out, v);
                }
                out.push_str("}}");
            }
        }
        out
    }

    /// Parses one JSON line into a record.
    ///
    /// # Errors
    ///
    /// A message describing the first syntax or schema violation.
    pub fn parse(line: &str) -> Result<Record, String> {
        let json = json::parse(line)?;
        let obj = as_object(&json)?;
        let kind = get_str(obj, "type")?;
        match kind {
            "meta" => {
                expect_keys(obj, &["type", "schema", "emitted_us"])?;
                Ok(Record::Meta {
                    schema: get_str(obj, "schema")?.to_owned(),
                    emitted_us: get_u64(obj, "emitted_us")?,
                })
            }
            "counter" => {
                expect_keys(obj, &["type", "name", "value"])?;
                Ok(Record::Counter {
                    name: get_str(obj, "name")?.to_owned(),
                    value: get_u64(obj, "value")?,
                })
            }
            "gauge" => {
                expect_keys(obj, &["type", "name", "value"])?;
                Ok(Record::Gauge {
                    name: get_str(obj, "name")?.to_owned(),
                    value: get_i64(obj, "value")?,
                })
            }
            "histogram" => {
                expect_keys(obj, &["type", "name", "count", "sum", "min", "max", "buckets"])?;
                let buckets = as_array(get(obj, "buckets")?)?
                    .iter()
                    .map(|pair| {
                        let pair = as_array(pair)?;
                        if pair.len() != 2 {
                            return Err("bucket pair must be [index, count]".to_owned());
                        }
                        let index = json_u64(&pair[0])?;
                        let index = u32::try_from(index)
                            .map_err(|_| format!("bucket index {index} out of range"))?;
                        Ok((index, json_u64(&pair[1])?))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Record::Histogram {
                    name: get_str(obj, "name")?.to_owned(),
                    snapshot: HistogramSnapshot {
                        count: get_u64(obj, "count")?,
                        sum: get_u64(obj, "sum")?,
                        min: get_opt_u64(obj, "min")?,
                        max: get_opt_u64(obj, "max")?,
                        buckets,
                    },
                })
            }
            "span" => {
                expect_keys(obj, &["type", "name", "thread", "start_us", "dur_us", "fields"])?;
                let fields = match get(obj, "fields")? {
                    Json::Obj(pairs) => pairs
                        .iter()
                        .map(|(k, v)| match v {
                            Json::Str(s) => Ok((k.clone(), s.clone())),
                            _ => Err(format!("span field `{k}` must be a string")),
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    _ => return Err("span `fields` must be an object".to_owned()),
                };
                Ok(Record::Span(SpanRecord {
                    name: get_str(obj, "name")?.to_owned(),
                    thread: get_str(obj, "thread")?.to_owned(),
                    start_us: get_u64(obj, "start_us")?,
                    dur_us: get_u64(obj, "dur_us")?,
                    fields,
                }))
            }
            other => Err(format!("unknown record type `{other}`")),
        }
    }
}

// ---------------------------------------------------------------------------
// Rendering and file export
// ---------------------------------------------------------------------------

/// Flattens a snapshot and span list into export records, meta line first.
#[must_use]
pub fn records(snapshot: &MetricsSnapshot, spans: &[SpanRecord]) -> Vec<Record> {
    let mut out =
        vec![Record::Meta { schema: SCHEMA.to_owned(), emitted_us: crate::span::epoch_micros() }];
    for (name, &value) in &snapshot.counters {
        out.push(Record::Counter { name: name.clone(), value });
    }
    for (name, &value) in &snapshot.gauges {
        out.push(Record::Gauge { name: name.clone(), value });
    }
    for (name, snap) in &snapshot.histograms {
        out.push(Record::Histogram { name: name.clone(), snapshot: snap.clone() });
    }
    out.extend(spans.iter().cloned().map(Record::Span));
    out
}

/// Renders a snapshot and span list as a complete JSONL document.
#[must_use]
pub fn render_jsonl(snapshot: &MetricsSnapshot, spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for record in records(snapshot, spans) {
        out.push_str(&record.to_json_line());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Parsing and validation
// ---------------------------------------------------------------------------

/// Parses a JSONL document into records; blank lines are skipped.
///
/// # Errors
///
/// The first violation, prefixed with its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(Record::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// What [`validate_jsonl`] found in a well-formed file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Counter records.
    pub counters: usize,
    /// Gauge records.
    pub gauges: usize,
    /// Histogram records.
    pub histograms: usize,
    /// Span records.
    pub spans: usize,
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} counters, {} gauges, {} histograms, {} spans",
            self.counters, self.gauges, self.histograms, self.spans
        )
    }
}

/// Validates a metrics document against the `bitline-obs/v1` schema: every
/// line must parse as a known record, and the first record must be a meta
/// line carrying the exact schema identifier.
///
/// # Errors
///
/// A message naming the offending line and violation.
pub fn validate_jsonl(text: &str) -> Result<ValidationReport, String> {
    let records = parse_jsonl(text)?;
    match records.first() {
        Some(Record::Meta { schema, .. }) if schema == SCHEMA => {}
        Some(Record::Meta { schema, .. }) => {
            return Err(format!("schema mismatch: got `{schema}`, want `{SCHEMA}`"));
        }
        Some(_) => return Err("first record must be the meta line".to_owned()),
        None => return Err("empty metrics file".to_owned()),
    }
    let mut report = ValidationReport::default();
    for record in &records[1..] {
        match record {
            Record::Meta { .. } => return Err("duplicate meta line".to_owned()),
            Record::Counter { .. } => report.counters += 1,
            Record::Gauge { .. } => report.gauges += 1,
            Record::Histogram { .. } => report.histograms += 1,
            Record::Span(_) => report.spans += 1,
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Human-readable summary
// ---------------------------------------------------------------------------

/// Renders the global registry as an aligned, human-readable table
/// (the CLI's `--metrics-summary`).
#[must_use]
pub fn summary_table() -> String {
    let snap = crate::registry().snapshot();
    let spans = crate::recent_spans();
    let mut out = String::new();
    let width = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .map(String::len)
        .max()
        .unwrap_or(6)
        .max(6);
    if !snap.counters.is_empty() || !snap.gauges.is_empty() {
        out.push_str(&format!("{:width$}  {:>14}\n", "metric", "value"));
        for (name, value) in &snap.counters {
            out.push_str(&format!("{name:width$}  {value:>14}\n"));
        }
        for (name, value) in &snap.gauges {
            out.push_str(&format!("{name:width$}  {value:>14}\n"));
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str(&format!(
            "{:width$}  {:>10} {:>12} {:>12} {:>12}\n",
            "histogram", "count", "mean", "p99<=", "max"
        ));
        for (name, h) in &snap.histograms {
            let mean = h.mean().map_or_else(|| "-".to_owned(), |m| format!("{m:.1}"));
            let p99 =
                h.quantile_upper_bound(0.99).map_or_else(|| "-".to_owned(), |v| v.to_string());
            let max = h.max.map_or_else(|| "-".to_owned(), |v| v.to_string());
            out.push_str(&format!(
                "{name:width$}  {:>10} {mean:>12} {p99:>12} {max:>12}\n",
                h.count
            ));
        }
    }
    out.push_str(&format!("spans recorded: {}\n", spans.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter("a.count").add(42);
        r.gauge("b.gauge").set(-7);
        let h = r.histogram("c.histo");
        h.record(0);
        h.record(300);
        r.snapshot()
    }

    fn sample_spans() -> Vec<SpanRecord> {
        vec![SpanRecord {
            name: "fig8/run".to_owned(),
            fields: vec![("benchmark".to_owned(), "mesa".to_owned())],
            start_us: 5,
            dur_us: 120,
            thread: "exec-worker-0".to_owned(),
        }]
    }

    #[test]
    fn rendered_document_validates_and_reparses() {
        let text = render_jsonl(&sample_snapshot(), &sample_spans());
        let report = validate_jsonl(&text).expect("valid document");
        assert_eq!(report, ValidationReport { counters: 1, gauges: 1, histograms: 1, spans: 1 });
        let records = parse_jsonl(&text).expect("parses");
        assert!(matches!(&records[0], Record::Meta { schema, .. } if schema == SCHEMA));
        assert!(records.contains(&Record::Counter { name: "a.count".to_owned(), value: 42 }));
        assert!(records.contains(&Record::Gauge { name: "b.gauge".to_owned(), value: -7 }));
    }

    #[test]
    fn tricky_strings_round_trip() {
        let span = SpanRecord {
            name: "we\u{1F980}ird\"\\\n\tname\u{0}".to_owned(),
            fields: vec![("k\"ey".to_owned(), "v\u{7}al".to_owned())],
            start_us: 1,
            dur_us: 2,
            thread: String::new(),
        };
        let line = Record::Span(span.clone()).to_json_line();
        assert_eq!(Record::parse(&line), Ok(Record::Span(span)));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_jsonl("").is_err(), "empty file");
        assert!(validate_jsonl("{\"type\":\"counter\",\"name\":\"x\",\"value\":1}\n").is_err());
        let good = render_jsonl(&sample_snapshot(), &[]);
        let twice = format!("{good}{good}");
        assert!(validate_jsonl(&twice).unwrap_err().contains("duplicate meta"));
        let mangled = good.replace("\"value\":42", "\"value\":-42");
        assert!(validate_jsonl(&mangled).unwrap_err().contains("out of u64 range"));
        let unknown = good.replace("\"type\":\"counter\"", "\"type\":\"mystery\"");
        assert!(validate_jsonl(&unknown).unwrap_err().contains("unknown record type"));
    }

    #[test]
    fn summary_table_lists_metrics() {
        crate::counter!("obs.test.summary").add(3);
        let table = summary_table();
        assert!(table.contains("obs.test.summary"));
        assert!(table.contains("spans recorded:"));
    }

    #[test]
    fn number_edges_round_trip() {
        let r = Record::Counter { name: "n".to_owned(), value: u64::MAX };
        assert_eq!(Record::parse(&r.to_json_line()), Ok(r));
        let g = Record::Gauge { name: "g".to_owned(), value: i64::MIN };
        assert_eq!(Record::parse(&g.to_json_line()), Ok(g));
    }
}
