//! Differential inertness for the supply dimension: at nominal Vdd (the
//! default spec, or an explicit `--vdd 1.0` with the governor off) every
//! existing figure renders byte-identical output whether or not voltage
//! sweeps have run in the same process — and an undervolt that stays
//! inside the sense guardband re-prices energy without touching a cycle.
//!
//! This is the contract that lets the voltage dimension land without
//! re-blessing any existing golden: `goldens` pins the bytes
//! against the checked-in files; this test pins them against
//! *interleaved voltage activity*, which the goldens cannot see.
//!
//! One `#[test]`: `BITLINE_SUITE` and the run cache are process-global.

use bitline_cmos::TechnologyNode;
use bitline_sim::experiments::{fig3, headline, voltage};
use bitline_sim::{clear_run_caches, run_benchmark, SystemSpec, VddSpec};

const INSTRS: u64 = 2_000;

fn fig3_bytes() -> String {
    let (rows, avg) = fig3::run(INSTRS).expect("fig3 completes");
    fig3::render(&rows, &avg)
}

#[test]
fn nominal_supply_figures_are_unchanged_by_voltage_activity() {
    std::env::set_var("BITLINE_SUITE", "mesa,bisort");

    // --- figure bytes: cold, then interleaved with voltage sweeps ---
    clear_run_caches();
    let cold_fig3 = fig3_bytes();
    let cold_headline = format!("{:?}", headline::run(INSTRS).expect("headline completes"));

    // Pollute the process with every (scale, mode, node) cell of the
    // voltage table, including deep speculative undervolts.
    let rows = voltage::run(INSTRS).expect("voltage completes");
    assert!(!rows.is_empty());

    // Warm: the nominal-supply runs replay from cache, byte-identical.
    let warm_fig3 = fig3_bytes();
    assert_eq!(warm_fig3, cold_fig3, "fig3 bytes must survive voltage activity (warm)");

    // Cold recompute with voltage entries still in the trace store and
    // memo caches: still byte-identical.
    clear_run_caches();
    let _ = voltage::run(INSTRS).expect("voltage completes again");
    let recomputed_fig3 = fig3_bytes();
    assert_eq!(recomputed_fig3, cold_fig3, "fig3 bytes must survive voltage activity (cold)");

    // Headline semantics: every derived metric identical, bit for bit.
    let headline_again = format!("{:?}", headline::run(INSTRS).expect("headline completes again"));
    assert_eq!(headline_again, cold_headline, "headline semantics must be voltage-invariant");

    // --- explicit `--vdd 1.0` is the default machine, bit for bit ---
    let gated = SystemSpec {
        d_policy: bitline_sim::PolicyKind::Gated { threshold: 100 },
        i_policy: bitline_sim::PolicyKind::Gated { threshold: 100 },
        instructions: INSTRS,
        ..SystemSpec::default()
    };
    let stock = run_benchmark("mesa", &gated);
    let nominal = run_benchmark("mesa", &SystemSpec { vdd: VddSpec::nominal(), ..gated });
    assert_eq!(
        format!("{stock:?}"),
        format!("{nominal:?}"),
        "an explicit nominal supply must be byte-inert against the stock machine"
    );

    // --- an in-guardband undervolt is pricing-only: zero cycle movement ---
    let safe = run_benchmark(
        "mesa",
        &SystemSpec { vdd: VddSpec { scale: 0.98, governor: false }, ..gated },
    );
    assert_eq!(safe.cycles(), stock.cycles(), "a guardband-safe supply must never touch cycles");
    assert_eq!(
        format!("{:?}", safe.stats),
        format!("{:?}", stock.stats),
        "pipeline statistics must be supply-invariant inside the guardband"
    );
    assert_eq!(
        format!("{:?}", safe.l1d().report),
        format!("{:?}", stock.l1d().report),
        "subarray activity must be supply-invariant inside the guardband"
    );
    assert!(safe.l1d().vdd.is_none(), "no speculation inside the guardband, so no report");
    let (stock_e, _) = stock.energy(TechnologyNode::N70);
    let (safe_e, _) = safe.energy(TechnologyNode::N70);
    assert!(
        safe_e.d.dynamic_j < stock_e.d.dynamic_j,
        "the undervolt must re-price dynamic energy downward"
    );
    assert!(
        safe_e.d.cell_leak_j < stock_e.d.cell_leak_j,
        "the undervolt must re-price leakage downward"
    );

    std::env::remove_var("BITLINE_SUITE");
}
