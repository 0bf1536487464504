//! Differential inertness: with the hierarchy disabled (the default
//! spec), every existing figure renders byte-identical output whether or
//! not multi-level machinery has run in the same process — and a
//! leakage mode alone re-prices energy without touching a single cycle.
//!
//! This is the contract that lets the hierarchy land without re-blessing
//! any existing golden: `goldens` pins the bytes against the
//! checked-in files; this test pins them against *interleaved hierarchy
//! activity*, which the goldens cannot see.
//!
//! One `#[test]`: `BITLINE_SUITE` and the run cache are process-global.

use bitline_cmos::TechnologyNode;
use bitline_sim::experiments::{fig3, headline, hierarchy};
use bitline_sim::{
    clear_run_caches, try_run_benchmark, HierarchySpec, LeakageKind, RunResult, SystemSpec,
};

const INSTRS: u64 = 2_000;

/// Runs `name` under `spec`; a test has no use for a failed run.
fn simulate(name: &str, spec: &SystemSpec) -> RunResult {
    try_run_benchmark(name, spec).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn fig3_bytes() -> String {
    let (rows, avg) = fig3::run(INSTRS).expect("fig3 completes");
    fig3::render(&rows, &avg)
}

#[test]
fn single_level_figures_are_unchanged_by_hierarchy_activity() {
    std::env::set_var("BITLINE_SUITE", "mesa,bisort");

    // --- figure bytes: cold, then interleaved with hierarchy runs ---
    clear_run_caches();
    let cold_fig3 = fig3_bytes();
    let cold_headline = format!("{:?}", headline::run(INSTRS).expect("headline completes"));

    // Pollute the process with multi-level activity: every (levels, node,
    // mode) cell of the hierarchy table.
    let rows = hierarchy::run(INSTRS).expect("hierarchy completes");
    assert!(!rows.is_empty());

    // Warm: the single-level runs replay from cache, byte-identical.
    let warm_fig3 = fig3_bytes();
    assert_eq!(warm_fig3, cold_fig3, "fig3 bytes must survive hierarchy activity (warm)");

    // Cold recompute with hierarchy entries still in the trace store and
    // memo caches: still byte-identical.
    clear_run_caches();
    let _ = hierarchy::run(INSTRS).expect("hierarchy completes again");
    let recomputed_fig3 = fig3_bytes();
    assert_eq!(recomputed_fig3, cold_fig3, "fig3 bytes must survive hierarchy activity (cold)");

    // Headline semantics: every derived metric identical, bit for bit.
    let headline_again = format!("{:?}", headline::run(INSTRS).expect("headline completes again"));
    assert_eq!(headline_again, cold_headline, "headline semantics must be hierarchy-invariant");

    // --- a leakage mode alone is pricing-only: zero cycle movement ---
    // Gated precharging, so the subarrays actually accumulate the idle
    // time a drowsy mode saves on.
    let gated = SystemSpec {
        d_policy: bitline_sim::PolicyKind::Gated { threshold: 100 },
        i_policy: bitline_sim::PolicyKind::Gated { threshold: 100 },
        instructions: INSTRS,
        ..SystemSpec::default()
    };
    let stock = simulate("mesa", &gated);
    let drowsy = simulate(
        "mesa",
        &SystemSpec {
            hierarchy: HierarchySpec {
                leakage_mode: LeakageKind::Drowsy,
                ..HierarchySpec::default()
            },
            ..gated
        },
    );
    assert_eq!(drowsy.cycles(), stock.cycles(), "a leakage mode must never touch cycles");
    assert_eq!(
        format!("{:?}", drowsy.stats),
        format!("{:?}", stock.stats),
        "pipeline statistics must be leakage-mode-invariant"
    );
    assert_eq!(
        format!("{:?}", drowsy.l1d().report),
        format!("{:?}", stock.l1d().report),
        "subarray activity must be leakage-mode-invariant"
    );
    let (stock_e, _) = stock.energy(TechnologyNode::N70);
    let (drowsy_e, _) = drowsy.energy(TechnologyNode::N70);
    assert!(
        drowsy_e.d.cell_leak_j < stock_e.d.cell_leak_j,
        "the drowsy mode must re-price cell leakage downward"
    );

    std::env::remove_var("BITLINE_SUITE");
}
