//! Property tests for the leakage-mode zoo: for any mode and any access
//! trace, total energy is non-negative and monotone in trace length, and
//! the sleep modes (drowsy, gated-Vdd) never report less leakage savings
//! than the static full-Vdd baseline when the trace has zero idle time.
//! A mode composes with a drowsy precharge policy instead of erasing its
//! retention savings, and the one pricing pass matches the layered
//! formula it replaced, bit for bit, wherever that formula was right.

use bitline_cache::{ActivityReport, CacheConfig, PrechargePolicy, WayStats};
use bitline_circuit::SubarrayEnergyModel;
use bitline_cmos::TechnologyNode;
use bitline_energy::{CacheEnergyBreakdown, EccActivity, EnergyAccountant, LeakageKind, LevelUse};
use gated_precharge::{DrowsyPolicy, GatedPolicy, OraclePolicy, StaticPullUp};
use proptest::prelude::*;

fn accountant(node: TechnologyNode) -> EnergyAccountant {
    EnergyAccountant::new(node, CacheConfig::l1_data())
}

/// Drives `policy` with a synthetic stream — one access every `stride`
/// cycles, round-robin over `hot` subarrays — and closes its report.
fn drive(mut policy: impl PrechargePolicy, cycles: u64, stride: u64, hot: usize) -> ActivityReport {
    let mut c = 0;
    let mut i = 0usize;
    while c < cycles {
        policy.access(i % hot, c);
        i += 1;
        c += stride;
    }
    policy.finalize(cycles)
}

/// Drives a gated policy (see [`drive`]) and prices the resulting report
/// under `mode`.
fn priced(
    node: TechnologyNode,
    mode: LeakageKind,
    cycles: u64,
    stride: u64,
    hot: usize,
    threshold: u64,
) -> CacheEnergyBreakdown {
    let report = drive(GatedPolicy::new(32, threshold, 1), cycles, stride, hot);
    let usage = LevelUse::new(&report, report.total_accesses(), 0);
    accountant(node).price(&LevelUse { decay_counters: true, leakage: mode, ..usage })
}

fn nodes() -> impl Strategy<Value = TechnologyNode> {
    proptest::sample::select(TechnologyNode::ALL.to_vec())
}

fn modes() -> impl Strategy<Value = LeakageKind> {
    proptest::sample::select(LeakageKind::ALL.to_vec())
}

/// The pricing formula the one pass replaced, kept as a reference: the
/// plain accounting, then the leakage mode re-pricing cell leakage from
/// the idle histograms (full-Vdd leaving it untouched), then the supply
/// factors scaling every term, then ECC on top of the scaled terms. It
/// drops a drowsy policy's retention cycles under any mode but full-Vdd,
/// so it is the reference only where that does not arise.
mod layered {
    use bitline_cache::CacheConfig;
    use bitline_circuit::SubarrayEnergyModel;
    use bitline_cmos::TechnologyNode;
    use bitline_energy::{
        CacheEnergyBreakdown, EccActivity, LeakageKind, LevelUse,
        AVERAGE_CASE_LEAKAGE_FACTOR as AVG, DROWSY_LEAKAGE_FACTOR,
    };

    fn account(m: &SubarrayEnergyModel, assoc: f64, u: &LevelUse<'_>) -> CacheEnergyBreakdown {
        let report = u.report;
        let per_way = m.read_access_energy_j();
        let read_array = match u.way_stats {
            None => u.reads as f64 * assoc * per_way,
            Some(ws) => {
                let resolved = ws.correct + ws.wrong;
                let unpredicted = u.reads.saturating_sub(resolved) as f64;
                (ws.correct as f64 + ws.wrong as f64 * (assoc + 1.0) + unpredicted * assoc)
                    * per_way
            }
        };
        let dynamic_j = read_array
            + u.reads as f64 * m.peripheral_access_energy_j()
            + u.writes as f64 * (m.write_access_energy_j() + m.peripheral_access_energy_j());
        let pullup_leak_j = report.total_pulled_up_cycles() * m.pulled_up_cycle_energy_j() * AVG;
        let mut episode_j = 0.0;
        for s in &report.per_subarray {
            for (idle_cycles, count) in s.idle_histogram.iter() {
                episode_j += count as f64 * m.isolation_episode_energy_j(idle_cycles as u64) * AVG;
            }
        }
        let full_cell_cycles = report.per_subarray.len() as f64 * report.end_cycle as f64;
        let drowsy_cycles = report.total_drowsy_cycles().min(full_cell_cycles);
        let cell_leak_j = (full_cell_cycles - drowsy_cycles
            + drowsy_cycles * DROWSY_LEAKAGE_FACTOR)
            * m.cell_leakage_cycle_energy_j()
            * AVG;
        let counter_j = if u.decay_counters {
            report.total_accesses() as f64 * m.decay_counter_energy_j()
        } else {
            0.0
        };
        CacheEnergyBreakdown {
            dynamic_j,
            pullup_leak_j,
            episode_j,
            cell_leak_j,
            counter_j,
            ecc_j: 0.0,
        }
    }

    /// ECC over `b`'s (already scaled) array terms; the codec and scrub
    /// switch at `f_dyn`.
    fn with_ecc(
        m: &SubarrayEnergyModel,
        mut b: CacheEnergyBreakdown,
        ecc: Option<EccActivity>,
        f_dyn: f64,
    ) -> CacheEnergyBreakdown {
        if let Some(activity) = ecc {
            b.ecc_j = m.ecc_check_column_fraction()
                * (b.pullup_leak_j + b.episode_j + b.cell_leak_j)
                + activity.protected_accesses as f64 * m.ecc_codec_energy_j() * f_dyn
                + activity.scrub_words as f64 * m.ecc_scrub_word_energy_j() * f_dyn;
        }
        b
    }

    fn with_mode(m: &SubarrayEnergyModel, assoc: f64, u: &LevelUse<'_>) -> CacheEnergyBreakdown {
        let mut b = account(m, assoc, u);
        if u.leakage == LeakageKind::FullVdd {
            return b;
        }
        let mode = u.leakage.mode();
        let full_cell_cycles = u.report.per_subarray.len() as f64 * u.report.end_cycle as f64;
        let mut idle_cycles = 0.0;
        let mut episodes = 0.0;
        for s in &u.report.per_subarray {
            for (idle, count) in s.idle_histogram.iter() {
                idle_cycles += idle * count as f64;
                episodes += count as f64;
            }
        }
        let idle_cycles = idle_cycles.min(full_cell_cycles);
        let active_cycles = full_cell_cycles - idle_cycles;
        b.cell_leak_j = (active_cycles * mode.active_leakage_factor
            + idle_cycles * mode.idle_leakage_factor)
            * m.cell_leakage_cycle_energy_j()
            * AVG
            + episodes * m.isolation_episode_energy_j(0) * mode.transition_energy_factor * AVG;
        b.dynamic_j *= mode.access_energy_factor;
        b
    }

    /// `u` priced the layered way.
    pub fn price(
        node: TechnologyNode,
        cache: CacheConfig,
        u: &LevelUse<'_>,
    ) -> CacheEnergyBreakdown {
        let m = SubarrayEnergyModel::new(node, cache.geometry());
        let b = with_mode(&m, cache.assoc as f64, u);
        let (f_dyn, f_leak) = u.supply;
        let scaled = CacheEnergyBreakdown {
            dynamic_j: b.dynamic_j * f_dyn,
            episode_j: b.episode_j * f_dyn,
            counter_j: b.counter_j * f_dyn,
            ecc_j: 0.0,
            pullup_leak_j: b.pullup_leak_j * f_leak,
            cell_leak_j: b.cell_leak_j * f_leak,
        };
        with_ecc(&m, scaled, u.ecc, f_dyn)
    }

    /// The static baseline, protected or not, priced the layered way.
    pub fn static_baseline(
        node: TechnologyNode,
        cache: CacheConfig,
        end_cycle: u64,
        reads: u64,
        writes: u64,
        protected: bool,
    ) -> CacheEnergyBreakdown {
        let m = SubarrayEnergyModel::new(node, cache.geometry());
        let dynamic_j = reads as f64 * cache.assoc as f64 * m.read_access_energy_j()
            + reads as f64 * m.peripheral_access_energy_j()
            + writes as f64 * (m.write_access_energy_j() + m.peripheral_access_energy_j());
        let baseline = CacheEnergyBreakdown {
            dynamic_j,
            pullup_leak_j: end_cycle as f64
                * (cache.subarrays() as f64 * m.pulled_up_cycle_energy_j() * AVG),
            episode_j: 0.0,
            cell_leak_j: cache.subarrays() as f64
                * end_cycle as f64
                * m.cell_leakage_cycle_energy_j()
                * AVG,
            counter_j: 0.0,
            ecc_j: 0.0,
        };
        let activity = EccActivity { protected_accesses: reads + writes, scrub_words: 0 };
        with_ecc(&m, baseline, protected.then_some(activity), 1.0)
    }
}

/// The six components of a breakdown as bits, for exact comparison.
fn bits(b: &CacheEnergyBreakdown) -> [u64; 6] {
    [b.dynamic_j, b.pullup_leak_j, b.episode_j, b.cell_leak_j, b.counter_j, b.ecc_j]
        .map(f64::to_bits)
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
        let report = drive(StaticPullUp::new(32), cycles, stride, hot);
        let usage = LevelUse::new(&report, report.total_accesses(), 0);
        let acct = accountant(node);
        let full = acct.price(&usage);
        for kind in [LeakageKind::Drowsy, LeakageKind::GatedVdd] {
            let slept = acct.price(&LevelUse { leakage: kind, ..usage });
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

    /// A drowsy precharge policy's retention cycles leak less than awake
    /// ones under every cell mode: the mode composes with the policy. On
    /// any trace longer than the threshold some subarray goes drowsy (at
    /// least one of the 32 is never touched), and its report, priced as
    /// is, leaks less than the same report with its drowsy cycles zeroed.
    #[test]
    fn a_drowsy_policy_keeps_its_retention_savings_under_every_mode(
        node in nodes(),
        threshold in 1u64..500,
        extra in 1u64..60_000,
        stride in 1u64..200,
        hot in 1usize..32,
    ) {
        let cycles = threshold + extra;
        let report = drive(DrowsyPolicy::new(32, threshold, 1), cycles, stride, hot);
        prop_assert!(report.total_drowsy_cycles() > 0.0);
        let mut awake = report.clone();
        for s in &mut awake.per_subarray {
            s.drowsy_cycles = 0.0;
        }
        let acct = accountant(node);
        let reads = report.total_accesses();
        for mode in LeakageKind::ALL {
            let kept = acct.price(&LevelUse { leakage: mode, ..LevelUse::new(&report, reads, 0) });
            let lost = acct.price(&LevelUse { leakage: mode, ..LevelUse::new(&awake, reads, 0) });
            prop_assert!(
                kept.cell_leak_j < lost.cell_leak_j,
                "{mode}: drowsy cycles priced as awake ({} J vs {} J)",
                kept.cell_leak_j, lost.cell_leak_j
            );
        }
    }

    /// The one pass equals the layered formula it replaced, component by
    /// component and bit for bit: gated, oracle and static reports under
    /// every mode, drowsy-policy reports under full-Vdd, with or without
    /// decay counters, way prediction and ECC, at nominal supply or
    /// scaled; and the static baseline, protected or not.
    #[test]
    fn the_one_pass_matches_the_layered_reference_bit_for_bit(
        node in nodes(),
        mode in modes(),
        policy in proptest::sample::select(vec!["gated", "oracle", "static", "drowsy"]),
        cycles in 1u64..60_000,
        stride in 1u64..100,
        hot in 1usize..32,
        threshold in 1u64..500,
        writes in 0u64..5_000,
        counters in any::<bool>(),
        way in (any::<bool>(), 0u64..1_000, 0u64..1_000),
        ecc in (any::<bool>(), 0u64..10_000),
        supply in (any::<bool>(), 0.5f64..1.0, 0.2f64..1.0),
    ) {
        let report = match policy {
            "gated" => drive(GatedPolicy::new(32, threshold, 1), cycles, stride, hot),
            "oracle" => drive(OraclePolicy::new(32), cycles, stride, hot),
            "static" => drive(StaticPullUp::new(32), cycles, stride, hot),
            _ => drive(DrowsyPolicy::new(32, threshold, 1), cycles, stride, hot),
        };
        let reads = report.total_accesses();
        let usage = LevelUse {
            report: &report,
            reads,
            writes,
            decay_counters: counters,
            way_stats: way.0.then_some(WayStats { correct: way.1.min(reads), wrong: way.2 }),
            ecc: ecc.0.then_some(EccActivity {
                protected_accesses: reads + writes,
                scrub_words: ecc.1,
            }),
            // The layered formula is wrong for a drowsy policy under any
            // other mode: that is the defect the one pass fixes.
            leakage: if policy == "drowsy" { LeakageKind::FullVdd } else { mode },
            supply: if supply.0 { (1.0, 1.0) } else { (supply.1, supply.2) },
        };
        let cache = CacheConfig::l1_data();
        let acct = accountant(node);
        prop_assert_eq!(bits(&acct.price(&usage)), bits(&layered::price(node, cache, &usage)));
        for protected in [false, true] {
            prop_assert_eq!(
                bits(&acct.static_baseline(cycles, reads, writes, protected)),
                bits(&layered::static_baseline(node, cache, cycles, reads, writes, protected))
            );
        }
    }

    /// A protected level's check columns leak and switch with its data
    /// columns at whatever supply: its `ecc_j` is the check-column share
    /// of the breakdown's own array terms, plus codec and scrub switching
    /// at the dynamic factor.
    #[test]
    fn ecc_is_priced_from_the_breakdowns_own_terms(
        node in nodes(),
        mode in modes(),
        cycles in 1u64..60_000,
        stride in 1u64..100,
        threshold in 1u64..500,
        scrub_words in 0u64..10_000,
        supply in (any::<bool>(), 0.5f64..1.0, 0.2f64..1.0),
    ) {
        let report = drive(GatedPolicy::new(32, threshold, 1), cycles, stride, 8);
        let reads = report.total_accesses();
        let activity = EccActivity { protected_accesses: reads, scrub_words };
        let (f_dyn, f_leak) = if supply.0 { (1.0, 1.0) } else { (supply.1, supply.2) };
        let b = accountant(node).price(&LevelUse {
            ecc: Some(activity),
            leakage: mode,
            supply: (f_dyn, f_leak),
            ..LevelUse::new(&report, reads, 0)
        });
        let m = SubarrayEnergyModel::new(node, CacheConfig::l1_data().geometry());
        let want = m.ecc_check_column_fraction() * (b.pullup_leak_j + b.episode_j + b.cell_leak_j)
            + reads as f64 * m.ecc_codec_energy_j() * f_dyn
            + scrub_words as f64 * m.ecc_scrub_word_energy_j() * f_dyn;
        prop_assert_eq!(b.ecc_j.to_bits(), want.to_bits());
    }
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
