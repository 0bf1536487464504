//! Every `bitline-sim` experiment, pinned: for each row of
//! [`experiments::ALL`], the text the command prints — which is also its
//! `.dat` file — must equal `goldens/<name>.dat` on the two smallest
//! workloads (`mesa`, `bisort`) at 2 000 instructions per run, whatever
//! the schedule. A cold run at jobs=1, a warm rerun served wholly from the
//! run cache, and a cold rerun at jobs=8 must render the same bytes. Every
//! experiment but the tables and Figure 2 must go through the run cache.
//!
//! Every run is seeded and deterministic, so any drift is a behaviour
//! change somewhere in the model stack. After an *intentional* change,
//! regenerate the goldens with:
//!
//! ```sh
//! BITLINE_BLESS=1 cargo test -p bitline-sim --test goldens
//! ```
//!
//! One `#[test]`: the suite restriction rides on the process-global
//! `BITLINE_SUITE` env var and the run cache is process-wide, so
//! concurrent test functions would race.

use std::path::Path;

use bitline_exec::pool;
use bitline_sim::experiments::{self, Experiment};
use bitline_sim::{clear_run_caches, run_cache_stats, spec, FaultSpec, SimError};

const INSTRS: u64 = 2_000;

fn run(e: &Experiment, jobs: usize) -> String {
    // The command line's spec when no spec flag is given.
    let spec = spec::front_end_default();
    pool::with_jobs(jobs, || (e.run)(INSTRS, &spec))
        .unwrap_or_else(|err| panic!("{}: {err}", e.name))
}

/// Distinct values in column `i` of the data rows.
fn distinct(text: &str, i: usize) -> usize {
    let mut values: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().nth(i).unwrap())
        .collect();
    values.sort_unstable();
    values.dedup();
    values.len()
}

#[test]
fn every_experiment_matches_its_golden_whatever_the_schedule() {
    std::env::set_var("BITLINE_SUITE", "mesa,bisort");
    let bless = std::env::var("BITLINE_BLESS").is_ok_and(|v| v == "1");
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens");

    // An out-of-range base rate fails before any run.
    let before = run_cache_stats();
    for rate in [-0.1, 1.5] {
        let faults = FaultSpec { rate, ..FaultSpec::default() };
        match experiments::reliability::run(INSTRS, &faults) {
            Err(SimError::InvalidSpec(msg)) => assert!(msg.contains("fault rate"), "{msg}"),
            other => panic!("fault rate {rate}: expected InvalidSpec, got {:?}", other.map(|_| ())),
        }
    }
    assert_eq!(run_cache_stats().misses, before.misses, "a rejected rate must not run anything");

    for e in &experiments::ALL {
        // Only the tables and Figure 2 price circuits without simulating.
        let simulates = !matches!(e.name, "table1" | "table2" | "table3" | "fig2");
        clear_run_caches();
        let cold = run(e, 1);
        let cold_misses = run_cache_stats().misses;
        assert_eq!(cold_misses > 0, simulates, "{}: {cold_misses} cold run-cache misses", e.name);
        let path = goldens.join(format!("{}.dat", e.name));
        if bless {
            std::fs::write(&path, &cold).expect("bless golden");
            eprintln!("blessed {}", path.display());
        } else {
            let want = std::fs::read_to_string(&path).unwrap_or_else(|err| {
                panic!("{}: {err}\n(run with BITLINE_BLESS=1 to write it)", path.display())
            });
            assert_eq!(
                cold, want,
                "{}.dat drifted from its golden — if the change is intentional, \
                 regenerate with BITLINE_BLESS=1",
                e.name
            );
        }

        // Everything is in the run cache now: the bytes must replay
        // exactly, with no recomputation.
        let before = run_cache_stats();
        assert_eq!(run(e, 1), cold, "{}: a warm rerun must replay the cold bytes", e.name);
        let after = run_cache_stats();
        assert_eq!(after.misses, before.misses, "{}: a warm rerun recomputed", e.name);
        assert_eq!(
            after.hits > before.hits,
            simulates,
            "{}: a warm rerun must hit the run cache",
            e.name
        );

        clear_run_caches();
        assert_eq!(run(e, 8), cold, "{}: the rows must not depend on the job count", e.name);

        match e.name {
            "hierarchy" => {
                assert!(distinct(&cold, 1) >= 2, "golden must cover two level counts");
                assert!(distinct(&cold, 2) >= 3, "golden must cover three leakage modes");
                assert!(distinct(&cold, 0) >= 3, "golden must cover three technology nodes");
            }
            "voltage" => {
                assert!(distinct(&cold, 0) >= 4, "golden must cover every technology node");
                assert!(distinct(&cold, 1) >= 4, "golden must cover four supply scales");
                assert_eq!(distinct(&cold, 2), 2, "golden must cover static and governor modes");
            }
            _ => {}
        }
    }

    // And no golden outlives its experiment.
    for entry in std::fs::read_dir(&goldens).expect("goldens dir") {
        let path = entry.expect("goldens entry").path();
        if path.extension().is_some_and(|x| x == "dat") {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
            assert!(experiments::find(stem).is_some(), "{}: no such experiment", path.display());
        }
    }

    std::env::remove_var("BITLINE_SUITE");
}
