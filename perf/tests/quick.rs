//! A `--quick` run of every workload, untraced and traced, ends with a
//! correct result line that carries exactly the metrics `BENCHMARK.json`
//! declares for that mode, each with its declared unit.
//!
//! Each run builds the release `bitline-sim` and `bitline-serve` first, so
//! the first run of this test takes as long as that build.

use std::path::Path;
use std::process::Command;

use bitline_obs::json::{self, Json};

fn field<'j>(obj: &'j [(String, Json)], key: &str) -> &'j Json {
    json::get(obj, key).unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn object(value: &Json) -> &[(String, Json)] {
    json::as_object(value).expect("a JSON object")
}

fn names_and_units(decl: &[(String, Json)], key: &str) -> Vec<(String, String)> {
    json::as_array(field(decl, key))
        .expect("a metric list")
        .iter()
        .map(|m| {
            let m = object(m);
            let s = |k| json::get_str(m, k).expect("a string").to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn quick_runs_emit_every_declared_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perf/ has a parent");
    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let decl = object(&doc);
    let workloads: Vec<String> = json::as_array(field(decl, "workloads"))
        .expect("a workload list")
        .iter()
        .map(|w| json::get_str(object(w), "name").expect("a name").to_owned())
        .collect();
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_bitline-perf"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.01"])
                .args(["--trace", trace, "--quick"])
                .output()
                .expect("bitline-perf starts");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let context = || {
                format!(
                    "{workload} --trace {trace}\nstdout:\n{stdout}\nstderr:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                )
            };
            assert!(out.status.success(), "{}", context());
            let last = stdout.lines().last().unwrap_or_else(|| panic!("{}", context()));
            let result = json::parse(last).unwrap_or_else(|e| panic!("{e}: {}", context()));
            let result = object(&result);
            let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{}", context());
            assert_eq!(field(result, "correct"), &Json::Bool(true), "{}", context());
            assert_eq!(json::get_u64(result, "failed"), Ok(0), "{}", context());
            assert!(json::get_u64(result, "attempted").expect("a count") >= 1);
            let emitted: Vec<(String, String)> = object(field(result, "metrics"))
                .iter()
                .map(|(name, m)| {
                    let m = object(m);
                    let value = json::json_f64(field(m, "value")).expect("a number");
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    (name.clone(), json::get_str(m, "unit").expect("a unit").to_owned())
                })
                .collect();
            assert_eq!(emitted, names_and_units(decl, key), "{}", context());
        }
    }
}
