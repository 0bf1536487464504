//! Metrics export for `bitline-sim`.
//!
//! `--metrics PATH` writes the process-wide `bitline-obs` registry plus
//! the recent span ring as schema-tagged JSON lines once the process
//! finishes its work; `--metrics-summary` prints the human-readable table
//! instead of (or in addition to) the machine-readable file. Export always
//! happens *after* the figure rows are printed, so stdout stays
//! byte-identical with and without metrics.

use std::path::Path;

use bitline_ecc::ReliabilityReport;
use bitline_faults::{FaultReport, VddReport};

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
    "exec.traces.windows",
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
    "sim.core.stepped_cycles",
    "sim.core.skipped_cycles",
    "sim.core.awake_visits",
    "sim.core.operand_checks",
    "sim.core.wheel_events",
    "sim.core.replay_slots",
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
];

/// Gauge names every export carries, even at zero: the largest trace
/// window any lockstep set of runs held (zero when no run read one), and
/// the most bytes retained streams held at once over every trace store.
const DECLARED_GAUGES: &[&str] = &[
    "exec.traces.window_peak_segments",
    "exec.traces.window_peak_bytes",
    "exec.traces.retained_peak_bytes",
];

/// Interns the canonical counter and gauge taxonomy into the registry so
/// every export carries the full set of names, zeros included. The per-level
/// report families (`faults.*`, `ecc.*`, `vdd.*`) are declared by
/// recording an empty report of each kind under both L1s, so they name
/// exactly what a run records.
pub fn declare_baseline() {
    let registry = bitline_obs::registry();
    for name in DECLARED_COUNTERS {
        let _ = registry.counter(name);
    }
    for name in DECLARED_GAUGES {
        let _ = registry.gauge(name);
    }
    for cache in ["d", "i"] {
        FaultReport::new(0).record_metrics(cache);
        ReliabilityReport::new(0).record_metrics(cache);
        VddReport::new(0, 0).record_metrics(cache);
    }
}

/// Writes the current registry and span ring to `path` as JSON lines,
/// atomically ([`bitline_exec::atomic_write`]: temp file, sync, rename),
/// creating a missing parent directory. The canonical counter taxonomy is
/// declared first so the file always carries the full name set.
///
/// # Errors
///
/// A human-readable message on I/O failure.
pub fn write_metrics(path: &Path) -> Result<(), String> {
    declare_baseline();
    let text = bitline_obs::render_jsonl(
        &bitline_obs::registry().snapshot(),
        &bitline_obs::recent_spans(),
    );
    let error = |e: std::io::Error| format!("metrics {}: {e}", path.display());
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(error)?;
    }
    bitline_exec::atomic_write(path, text.as_bytes()).map_err(error)
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
        for name in DECLARED_COUNTERS.iter().chain(DECLARED_GAUGES) {
            let needle = format!("\"name\":\"{name}\"");
            assert!(text.contains(&needle), "declared metric {name} missing from export");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_metrics_writes_a_valid_file_atomically() {
        // A directory that does not exist yet: the export creates it.
        let dir = std::env::temp_dir().join(format!("bitline-metrics-{}", std::process::id()));
        let path = dir.join("run").join("metrics.jsonl");
        bitline_obs::counter!("sim.test.export").incr();
        write_metrics(&path).expect("export succeeds");
        let text = std::fs::read_to_string(&path).expect("file exists");
        bitline_obs::validate_jsonl(&text).expect("schema-valid");
        assert!(text.contains("sim.test.export"));
        let files = std::fs::read_dir(path.parent().unwrap()).unwrap().count();
        assert_eq!(files, 1, "no temp residue next to the exported file");
        std::fs::remove_dir_all(&dir).ok();
    }
}
