//! `bitline-perf compare A.jsonl B.jsonl`: each side's median and
//! quartiles per workload and metric, and a verdict against the bound
//! `BENCHMARK.json` fixes.
//!
//! Each input line is `{"workload": NAME, "result": RESULT}`, where RESULT
//! is the last line of one run (`perf/run.sh` writes these with `OUT=`).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use bitline_obs::json;

use crate::metrics::{Declaration, DeclaredMetric};
use crate::stats::{median, quartiles, spread};

type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |e: String| format!("{path}:{}: {e}", i + 1);
        let doc = json::parse(line).map_err(bad)?;
        let obj = json::as_object(&doc).map_err(bad)?;
        let workload = json::get_str(obj, "workload").map_err(bad)?;
        let result = json::get(obj, "result").and_then(json::as_object).map_err(bad)?;
        let metrics = json::get(result, "metrics").and_then(json::as_object).map_err(bad)?;
        for (name, m) in metrics {
            let value = json::as_object(m)
                .and_then(|m| json::get(m, "value"))
                .and_then(json::json_f64)
                .map_err(bad)?;
            samples.entry((workload.to_owned(), name.clone())).or_default().push(value);
        }
    }
    Ok(samples)
}

/// The verdict for one (workload, metric) pair. A move by more than the
/// bound is `worse` or `improved`; when either side's spread exceeds the
/// bound the pair is `unresolved`, unless every run of one side reads
/// better than every run of the other. Per-layer metrics carry no bound.
pub fn verdict(m: &DeclaredMetric, a: &[f64], b: &[f64]) -> &'static str {
    let Some(bound) = m.bound else { return "-" };
    let (Some(ma), Some(mb)) = (median(a), median(b)) else { return "unresolved" };
    let lower = m.better == "lower";
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let (b_all_better, b_all_worse) =
        if lower { (max(b) < min(a), min(b) > max(a)) } else { (min(b) > max(a), max(b) < min(a)) };
    let wide = [a, b].iter().any(|xs| spread(xs).unwrap_or(0.0) > bound);
    if wide {
        return match (b_all_better, b_all_worse) {
            (true, _) => "improved",
            (_, true) => "worse",
            _ => "unresolved",
        };
    }
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let worse_by = if lower { change } else { -change };
    if worse_by > bound {
        "worse"
    } else if -worse_by > bound {
        "improved"
    } else {
        "unchanged"
    }
}

fn describe(xs: &[f64]) -> String {
    let med = median(xs).unwrap_or(f64::NAN);
    match quartiles(xs) {
        Some((q1, q3)) => format!("{med:>12.6} [{q1:.6}, {q3:.6}] n{}", xs.len()),
        None => format!("{med:>12.6} n{}", xs.len()),
    }
}

/// Runs the subcommand; exits 1 when any pair got worse.
pub fn main(args: &[String], root: &Path) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: bitline-perf compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    let loaded = Declaration::load(root).and_then(|d| Ok((d, load(a)?, load(b)?)));
    let (decl, a, b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("bitline-perf compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worse = 0;
    println!(
        "{:<12} {:<46} {:<40} {:<40} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    for workload in &decl.workloads {
        for m in decl.end_to_end.iter().chain(&decl.per_layer) {
            let key = (workload.clone(), m.name.clone());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else { continue };
            let v = verdict(m, xa, xb);
            worse += usize::from(v == "worse");
            println!("{workload:<12} {:<46} {:<40} {:<40} {v}", m.name, describe(xa), describe(xb));
        }
    }
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str, bound: Option<f64>) -> DeclaredMetric {
        DeclaredMetric { name: "m".into(), unit: "s".into(), better: better.into(), bound }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let lower = metric("lower", Some(0.1));
        let a = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(verdict(&lower, &a, &[1.02, 1.03, 1.01, 1.02]), "unchanged");
        assert_eq!(verdict(&lower, &a, &[1.2, 1.21, 1.19, 1.2]), "worse");
        assert_eq!(verdict(&lower, &a, &[0.8, 0.81, 0.79, 0.8]), "improved");
        let higher = metric("higher", Some(0.1));
        assert_eq!(verdict(&higher, &a, &[1.2, 1.21, 1.19, 1.2]), "improved");
        assert_eq!(verdict(&higher, &a, &[0.8, 0.81, 0.79, 0.8]), "worse");
        assert_eq!(verdict(&metric("lower", None), &a, &a), "-");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let lower = metric("lower", Some(0.1));
        let noisy = [0.7, 1.0, 1.3, 1.0, 0.8, 1.2];
        assert_eq!(verdict(&lower, &noisy, &[0.75, 1.05, 1.25, 1.0, 0.9, 1.1]), "unresolved");
        assert_eq!(verdict(&lower, &noisy, &[0.3, 0.4, 0.5, 0.6, 0.45, 0.55]), "improved");
        assert_eq!(verdict(&lower, &noisy, &[2.0, 2.5, 3.0, 2.2, 2.8, 2.4]), "worse");
    }
}
