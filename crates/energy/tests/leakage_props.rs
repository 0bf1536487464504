//! Property tests for the leakage-mode zoo: for any mode and any access
//! trace, total energy is non-negative and monotone in trace length, and
//! the sleep modes (drowsy, gated-Vdd) never report less leakage savings
//! than the static full-Vdd baseline when the trace has zero idle time.

use bitline_cache::{CacheConfig, PrechargePolicy};
use bitline_cmos::TechnologyNode;
use bitline_energy::{EnergyAccountant, LeakageKind};
use gated_precharge::{GatedPolicy, StaticPullUp};
use proptest::prelude::*;

fn accountant(node: TechnologyNode) -> EnergyAccountant {
    EnergyAccountant::new(node, CacheConfig::l1_data())
}

/// Drives a gated policy with a synthetic stream — one access every
/// `stride` cycles, round-robin over `hot` subarrays — and prices the
/// resulting report under `mode`.
fn priced(
    node: TechnologyNode,
    mode: LeakageKind,
    cycles: u64,
    stride: u64,
    hot: usize,
    threshold: u64,
) -> bitline_energy::CacheEnergyBreakdown {
    let mut policy = GatedPolicy::new(32, threshold, 1);
    let mut c = 0;
    let mut i = 0usize;
    while c < cycles {
        policy.access(i % hot, c);
        i += 1;
        c += stride;
    }
    let report = policy.finalize(cycles);
    let acct = accountant(node);
    acct.account_with_mode(&report, report.total_accesses(), 0, true, None, None, mode)
}

fn nodes() -> impl Strategy<Value = TechnologyNode> {
    proptest::sample::select(TechnologyNode::ALL.to_vec())
}

fn modes() -> impl Strategy<Value = LeakageKind> {
    proptest::sample::select(LeakageKind::ALL.to_vec())
}

proptest! {
    /// Every component of every mode's breakdown is non-negative on any
    /// trace shape.
    #[test]
    fn mode_energy_is_nonnegative(
        node in nodes(),
        mode in modes(),
        cycles in 1u64..60_000,
        stride in 1u64..50,
        hot in 1usize..32,
        threshold in 1u64..500,
    ) {
        let b = priced(node, mode, cycles, stride, hot, threshold);
        for v in [b.dynamic_j, b.pullup_leak_j, b.episode_j, b.cell_leak_j, b.counter_j, b.ecc_j] {
            prop_assert!(v >= 0.0, "negative component in {b:?}");
        }
        prop_assert!(b.total_j() >= 0.0);
    }

    /// Extending the trace never reduces any mode's total energy: a longer
    /// run only adds cycles (active or idle), accesses, and episodes, all
    /// of which cost non-negative energy.
    #[test]
    fn mode_energy_is_monotone_in_trace_length(
        node in nodes(),
        mode in modes(),
        cycles in 1u64..40_000,
        extra in 1u64..40_000,
        stride in 1u64..50,
        hot in 1usize..32,
        threshold in 1u64..500,
    ) {
        let short = priced(node, mode, cycles, stride, hot, threshold);
        let long = priced(node, mode, cycles + extra, stride, hot, threshold);
        prop_assert!(
            long.total_j() >= short.total_j() * (1.0 - 1e-12),
            "mode {} shrank: {} cycles -> {} J, {} cycles -> {} J",
            mode.label(), cycles, short.total_j(), cycles + extra, long.total_j()
        );
    }

    /// With zero idle time (a static pull-up trace never isolates, so the
    /// idle histogram is empty) the sleep modes have nothing to gate: their
    /// leakage savings versus the full-Vdd baseline are exactly the
    /// baseline's own (zero) — never negative, i.e. a sleep mode never
    /// *costs* leakage on an idle-free trace.
    #[test]
    fn sleep_modes_never_lose_to_static_at_zero_idle(
        node in nodes(),
        cycles in 1u64..60_000,
        stride in 1u64..50,
        hot in 1usize..32,
    ) {
        let mut policy = StaticPullUp::new(32);
        let mut c = 0;
        let mut i = 0usize;
        while c < cycles {
            policy.access(i % hot, c);
            i += 1;
            c += stride;
        }
        let report = policy.finalize(cycles);
        let reads = report.total_accesses();
        let acct = accountant(node);
        let full = acct.account_with_mode(&report, reads, 0, false, None, None,
            LeakageKind::FullVdd);
        for kind in [LeakageKind::Drowsy, LeakageKind::GatedVdd] {
            let slept = acct.account_with_mode(&report, reads, 0, false, None, None, kind);
            let savings = full.total_j() - slept.total_j();
            prop_assert!(
                savings.abs() < full.total_j() * 1e-12,
                "{} at zero idle must match full-Vdd: {} vs {}",
                kind.label(), slept.total_j(), full.total_j()
            );
            prop_assert!(savings >= -full.total_j() * 1e-12);
        }
    }

    /// On a trace with real idle episodes, at 70 nm — where cell leakage
    /// dominates the sleep/wake transition energy that shares the
    /// `cell_leak_j` bucket — the sleep modes strictly cut cell leakage
    /// relative to full Vdd. (At 180 nm the transition term can win;
    /// the hierarchy table shows that reversal deliberately.) At every
    /// node the bitline-side components are mode-invariant.
    #[test]
    fn sleep_modes_save_cell_leakage_on_idle_traces(
        node in nodes(),
        cycles in 10_000u64..60_000,
        hot in 1usize..4,
    ) {
        // Sparse accesses against a small threshold guarantee idle episodes.
        let full = priced(node, LeakageKind::FullVdd, cycles, 97, hot, 8);
        let drowsy = priced(node, LeakageKind::Drowsy, cycles, 97, hot, 8);
        let gated = priced(node, LeakageKind::GatedVdd, cycles, 97, hot, 8);
        if node == TechnologyNode::N70 {
            prop_assert!(drowsy.cell_leak_j < full.cell_leak_j);
            prop_assert!(gated.cell_leak_j < full.cell_leak_j);
        }
        // Bitline-side components belong to the precharge policy and are
        // untouched by the cell mode.
        prop_assert_eq!(drowsy.pullup_leak_j.to_bits(), full.pullup_leak_j.to_bits());
        prop_assert_eq!(drowsy.episode_j.to_bits(), full.episode_j.to_bits());
        prop_assert_eq!(gated.counter_j.to_bits(), full.counter_j.to_bits());
    }

    /// The 70 nm leakage cut holds for every idle-bearing trace shape,
    /// not just the sparse-stride family above.
    #[test]
    fn n70_sleep_modes_always_cut_leakage(
        cycles in 10_000u64..60_000,
        stride in 50u64..200,
        hot in 1usize..4,
    ) {
        let full = priced(TechnologyNode::N70, LeakageKind::FullVdd, cycles, stride, hot, 8);
        let drowsy = priced(TechnologyNode::N70, LeakageKind::Drowsy, cycles, stride, hot, 8);
        let gated = priced(TechnologyNode::N70, LeakageKind::GatedVdd, cycles, stride, hot, 8);
        prop_assert!(drowsy.cell_leak_j < full.cell_leak_j);
        prop_assert!(gated.cell_leak_j < full.cell_leak_j);
    }
}

#[test]
fn full_vdd_mode_is_bit_identical_to_plain_accounting() {
    let mut policy = GatedPolicy::new(32, 100, 1);
    let mut c = 0;
    let mut i = 0usize;
    while c < 50_000 {
        policy.access(i % 4, c);
        i += 1;
        c += 3;
    }
    let report = policy.finalize(50_000);
    let reads = report.total_accesses();
    let acct = accountant(TechnologyNode::N70);
    let plain = acct.account_with_ecc(&report, reads, 0, true, None, None);
    let moded = acct.account_with_mode(&report, reads, 0, true, None, None, LeakageKind::FullVdd);
    assert_eq!(plain.total_j().to_bits(), moded.total_j().to_bits());
    assert_eq!(plain.cell_leak_j.to_bits(), moded.cell_leak_j.to_bits());
}

#[test]
fn mode_labels_are_unique_and_roundtrip_through_fromstr() {
    let mut seen = std::collections::HashSet::new();
    for kind in LeakageKind::ALL {
        assert!(seen.insert(kind.label()), "duplicate label {}", kind.label());
        let parsed: LeakageKind = kind.label().parse().expect("label must parse");
        assert_eq!(parsed, kind);
    }
    assert_eq!("static".parse::<LeakageKind>(), Ok(LeakageKind::FullVdd));
    assert_eq!("6t".parse::<LeakageKind>(), Ok(LeakageKind::LowPower6T));
    assert!("nonsense".parse::<LeakageKind>().is_err());
}

#[test]
fn low_power_6t_trades_access_energy_for_leakage() {
    let full = priced(TechnologyNode::N70, LeakageKind::FullVdd, 50_000, 3, 4, 100);
    let lp = priced(TechnologyNode::N70, LeakageKind::LowPower6T, 50_000, 3, 4, 100);
    assert!(lp.cell_leak_j < full.cell_leak_j, "6T cells must leak less");
    assert!(lp.dynamic_j > full.dynamic_j, "6T cells must pay an access penalty");
}
