//! One failure path: under a run budget no run can meet, every experiment
//! that simulates returns the run's own [`SimError::TimedOut`] — the
//! harness retried it once at twice the budget, then skipped it as a
//! timeout — and never a panic caught as [`SimError::RunFailed`]. The
//! tables and Figure 2 price circuits without simulating, so they still
//! render.
//!
//! One `#[test]`: the run budget and `BITLINE_SUITE` are process-global.

use std::time::Duration;

use bitline_sim::{experiments, spec, supervise, SimError};

#[test]
fn every_simulating_experiment_times_out_under_a_one_nanosecond_budget() {
    std::env::set_var("BITLINE_SUITE", "mesa,bisort");
    // 1 ns, not zero: a zero duration means "unset" in the process-global
    // budget encoding.
    supervise::set_run_budget(Some(Duration::from_nanos(1)));
    let spec = spec::front_end_default();
    for e in &experiments::ALL {
        let simulates = !matches!(e.name, "table1" | "table2" | "table3" | "fig2");
        match (e.run)(2_000, &spec) {
            Err(SimError::TimedOut { .. }) if simulates => {}
            Ok(_) if !simulates => {}
            other => panic!("{}: got {:?}", e.name, other.map(|_| "rows")),
        }
    }
    supervise::set_run_budget(None);
    std::env::remove_var("BITLINE_SUITE");
}
