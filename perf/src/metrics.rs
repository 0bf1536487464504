//! The metrics `BENCHMARK.json` declares, the tally of attempted and failed
//! operations, and the result line every run ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use bitline_obs::json::{self, Json};

use crate::stats::valid_name;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("sim_mips", "MIPS"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.gen_ns_per_instr", "ns/instr"),
    ("traces.materialise_ns_per_instr", "ns/instr"),
    ("traces.replay_ns_per_instr", "ns/instr"),
    ("traces.bytes_per_instr", "B/instr"),
    ("cpu.ns_per_instr.static", "ns/instr"),
    ("cpu.ns_per_instr.gated", "ns/instr"),
    ("cpu.ns_per_instr.gated-predecode", "ns/instr"),
    ("cpu.self_ns_per_instr", "ns/instr"),
    ("cpu.cpi", "cycles/instr"),
    ("cpu.replays_per_kinstr", "1/kinstr"),
    ("cache.l1d_ns_per_access.static", "ns/access"),
    ("cache.l1d_ns_per_access.gated", "ns/access"),
    ("cache.l1d_ns_per_access.gated-predecode", "ns/access"),
    ("cache.l1i_ns_per_fetch.static", "ns/fetch"),
    ("cache.l1i_ns_per_fetch.gated", "ns/fetch"),
    ("cache.l1d_miss_ratio", "ratio"),
    ("cache.delayed_fraction", "ratio"),
    ("policy.ns_per_access.static", "ns/access"),
    ("policy.ns_per_access.gated", "ns/access"),
    ("policy.ns_per_access.gated-predecode", "ns/access"),
    ("policy.ns_per_access.oracle", "ns/access"),
    ("policy.precharges_per_kaccess.static", "1/kaccess"),
    ("policy.precharges_per_kaccess.gated", "1/kaccess"),
    ("policy.precharges_per_kaccess.gated-predecode", "1/kaccess"),
    ("policy.precharges_per_kaccess.oracle", "1/kaccess"),
    ("faults.ns_per_access.vdd-static", "ns/access"),
    ("faults.ns_per_access.vdd-governor", "ns/access"),
    ("faults.overhead_ratio", "ratio"),
    ("faults.replays_per_kaccess", "1/kaccess"),
    ("vdd.escalations", "count"),
    ("energy.accountant_build_ms", "ms"),
    ("energy.price_us_per_call", "us"),
    ("energy.pricing_calls", "count"),
    ("sim.runs", "count"),
    ("sim.run_cache.hit_ratio", "ratio"),
    ("sim.busy_share", "ratio"),
    ("checkpoint.encode_us_per_run", "us"),
    ("checkpoint.decode_us_per_run", "us"),
    ("checkpoint.bytes_per_run", "B"),
    ("checkpoint.spec_key_us", "us"),
    ("journal.append_ms_per_frame", "ms"),
    ("journal.open_ms", "ms"),
    ("serve.parse_us_per_line", "us"),
    ("ledger.attributed_s", "s"),
    ("ledger.residual_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Attempted and failed operations of one run. Every failure is also
/// explained on stderr, so a `correct: false` result names its cause.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; a failed one is reported with `why`.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("bitline-perf: FAILED: {}", why());
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Prints one human-readable metric row: name, value, unit and detail.
pub fn row(name: &str, value: f64, unit: &str, detail: &str) {
    println!("  {name:<46} {value:>14.6} {unit:<12} {detail}");
}

/// Prints the row of a metric that has no value on this workload.
pub fn na_row(name: &str, unit: &str, why: &str) {
    println!("  {name:<46} {:>14} {unit:<12} {why}", "n/a");
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every declared metric in `declared` order.
///
/// # Panics
///
/// When `values` lacks a declared metric or holds a non-finite value —
/// both bugs in this benchmark, which its tests catch.
pub fn result_line(
    declared: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
    tally: &Tally,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value =
            values.get(name).copied().unwrap_or_else(|| panic!("metric {name} not measured"));
        assert!(value.is_finite(), "metric {name} = {value}");
        assert!(valid_name(name), "metric name {name}");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclaredMetric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Regression bound as a share of the median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the tooling reads.
#[derive(Debug, Clone)]
pub struct Declaration {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<DeclaredMetric>,
    pub per_layer: Vec<DeclaredMetric>,
}

impl Declaration {
    /// Reads `BENCHMARK.json` under `root`.
    pub fn load(root: &Path) -> Result<Declaration, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text)?;
        let obj = json::as_object(&doc)?;
        let list = |key: &str| -> Result<Vec<&[(String, Json)]>, String> {
            json::as_array(json::get(obj, key)?)?.iter().map(json::as_object).collect()
        };
        let metrics = |key: &str| -> Result<Vec<DeclaredMetric>, String> {
            list(key)?
                .into_iter()
                .map(|m| {
                    Ok(DeclaredMetric {
                        name: json::get_str(m, "name")?.to_owned(),
                        unit: json::get_str(m, "unit")?.to_owned(),
                        better: json::get_str(m, "better")?.to_owned(),
                        bound: json::try_get(m, "bound").map(json::json_f64).transpose()?,
                    })
                })
                .collect()
        };
        Ok(Declaration {
            workloads: list("workloads")?
                .into_iter()
                .map(|w| json::get_str(w, "name").map(str::to_owned))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declaration() -> Declaration {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perf/ has a parent");
        Declaration::load(root).expect("BENCHMARK.json parses")
    }

    #[test]
    fn code_and_benchmark_json_declare_the_same_metrics() {
        let decl = declaration();
        let pairs = |ms: &[DeclaredMetric]| -> Vec<(String, String)> {
            ms.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let owned = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(pairs(&decl.end_to_end), owned(&END_TO_END));
        assert_eq!(pairs(&decl.per_layer), owned(&PER_LAYER));
        let setup = decl.end_to_end.iter().find(|m| m.name == "setup_s").expect("declared");
        let largest = decl.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
    }

    #[test]
    fn every_declared_name_follows_the_metric_regex() {
        let decl = declaration();
        let names = decl
            .workloads
            .iter()
            .chain(decl.end_to_end.iter().chain(&decl.per_layer).map(|m| &m.name));
        let mut seen = std::collections::HashSet::new();
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.clone()), "{name} declared twice");
        }
        for m in decl.end_to_end.iter().chain(&decl.per_layer) {
            assert!(m.better == "lower" || m.better == "higher", "{}: {}", m.name, m.better);
        }
        for m in &decl.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", m.name);
        }
    }

    #[test]
    fn result_line_carries_exactly_the_four_keys() {
        let values = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = result_line(&END_TO_END, &values, &Tally { attempted: 3, failed: 0 });
        let parsed = json::parse(&line).expect("result line is JSON");
        let obj = json::as_object(&parsed).unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json::get(obj, "correct"), Ok(&Json::Bool(true)));
    }
}
