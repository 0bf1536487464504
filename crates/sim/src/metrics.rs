//! Metrics export for `bitline-sim`.
//!
//! `--metrics PATH` writes the process-wide `bitline-obs` registry plus
//! the recent span ring as schema-tagged JSON lines once the process
//! finishes its work; `--metrics-summary` prints the human-readable table
//! instead of (or in addition to) the machine-readable file. Export always
//! happens *after* the figure rows are printed, so stdout stays
//! byte-identical with and without metrics.

use std::path::Path;

/// Counter names every export carries, even at zero: consumers (the CI
/// smoke, dashboards) can rely on the taxonomy being present without
/// special-casing runs that never touched a subsystem (e.g. a
/// checkpoint-less run still exports `exec.journal.appends = 0`).
const DECLARED_COUNTERS: &[&str] = &[
    "exec.pool.batches",
    "exec.pool.units",
    "exec.pool.inline_units",
    "exec.pool.reassembled",
    "exec.journal.appends",
    "exec.journal.fsyncs",
    "exec.journal.loaded",
    "exec.journal.quarantined",
    "exec.traces.materialised",
    "exec.traces.streams",
    "sim.run_cache.hits",
    "sim.run_cache.misses",
    "sim.accountants.hits",
    "sim.accountants.misses",
    "sim.runner.runs",
    "sim.runner.chunks",
    "sim.runner.committed_instructions",
    "sim.runner.cycles",
    "sim.runner.busy_micros",
    "sim.runner.timeouts",
    "sim.checkpoint.appended",
    "sim.checkpoint.replayed",
    "sim.checkpoint.recomputed",
    "sim.checkpoint.quarantined",
    "sim.checkpoint.version_skew",
    "sim.harness.ok",
    "sim.harness.skipped",
    "sim.harness.retries",
    "sim.harness.timeout_attempts",
    "sim.harness.recovered_timeouts",
    "faults.d.injected",
    "faults.d.detected",
    "faults.d.replayed",
    "faults.d.silent",
    "faults.i.injected",
    "faults.i.detected",
    "faults.i.replayed",
    "faults.i.silent",
    "ecc.d.corrected",
    "ecc.d.due",
    "ecc.d.sdc",
    "ecc.d.scrub_words",
    "ecc.d.latent_cleared",
    "ecc.d.fail_safe_subarrays",
    "ecc.i.corrected",
    "ecc.i.due",
    "ecc.i.sdc",
    "ecc.i.scrub_words",
    "ecc.i.latent_cleared",
    "ecc.i.fail_safe_subarrays",
    "vdd.d.upsets",
    "vdd.d.replays",
    "vdd.d.sdc",
    "vdd.d.escalations",
    "vdd.d.deescalations",
    "vdd.d.pinned_subarrays",
    "vdd.i.upsets",
    "vdd.i.replays",
    "vdd.i.sdc",
    "vdd.i.escalations",
    "vdd.i.deescalations",
    "vdd.i.pinned_subarrays",
];

/// Interns the canonical counter taxonomy into the registry so every
/// export carries the full set of names, zeros included.
pub fn declare_baseline() {
    let registry = bitline_obs::registry();
    for name in DECLARED_COUNTERS {
        let _ = registry.counter(name);
    }
}

/// Writes the current registry and span ring to `path` as JSON lines,
/// atomically (temp file + rename). The canonical counter taxonomy is
/// declared first so the file always carries the full name set.
///
/// # Errors
///
/// A human-readable message on I/O failure.
pub fn write_metrics(path: &Path) -> Result<(), String> {
    declare_baseline();
    bitline_obs::export_jsonl(path).map_err(|e| format!("metrics {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_metrics_emits_schema_valid_jsonl_with_the_declared_taxonomy() {
        let path = std::env::temp_dir().join("bitline-metrics-module-test.jsonl");
        write_metrics(&path).expect("export succeeds");
        let text = std::fs::read_to_string(&path).expect("file exists");
        let report = bitline_obs::validate_jsonl(&text).expect("schema-valid");
        assert!(report.counters >= DECLARED_COUNTERS.len());
        for name in DECLARED_COUNTERS {
            let needle = format!("\"name\":\"{name}\"");
            assert!(text.contains(&needle), "declared counter {name} missing from export");
        }
        std::fs::remove_file(&path).ok();
    }
}
