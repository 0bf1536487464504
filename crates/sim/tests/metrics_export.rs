//! A metrics export names every counter a run can record, zeros included:
//! a process that never faulted still exports the `faults.*`, `ecc.*` and
//! `vdd.*` families, so consumers need no special case for a quiet run.
//!
//! The export comes from a fresh `bitline-sim` process running a table
//! that simulates nothing; the names it must carry are the ones the
//! per-level reports record, recorded here under both L1s.

use std::process::Command;

use bitline_ecc::ReliabilityReport;
use bitline_faults::{FaultReport, VddReport};

#[test]
fn a_quiet_process_exports_every_report_counter() {
    let path = std::env::temp_dir().join(format!("bitline-metrics-{}.jsonl", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_bitline-sim"))
        .arg("--metrics")
        .arg(&path)
        .arg("table1")
        .env_clear()
        .output()
        .expect("bitline-sim runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let export = std::fs::read_to_string(&path).expect("the export is written");
    std::fs::remove_file(&path).ok();

    for cache in ["d", "i"] {
        FaultReport::new(1).record_metrics(cache);
        ReliabilityReport::new(1).record_metrics(cache);
        VddReport::new(1, 1).record_metrics(cache);
    }
    let counters = bitline_obs::registry().snapshot().counters;
    let recorded: Vec<&String> = counters
        .keys()
        .filter(|name| ["faults.", "ecc.", "vdd."].iter().any(|family| name.starts_with(family)))
        .collect();
    assert!(recorded.len() >= 3 * 2 * 6, "the reports record their families: {recorded:?}");
    for name in recorded {
        assert!(export.contains(&format!("\"name\":\"{name}\"")), "{name} missing from the export");
    }
}
