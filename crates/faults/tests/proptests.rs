//! Property tests for the fault layer (ISSUE satellite): rate-0
//! transparency, seed determinism, and counter consistency.

use bitline_cache::PrechargePolicy;
use bitline_faults::{FaultConfig, FaultInjectingPolicy, FaultReport};
use gated_precharge::GatedPolicy;
use proptest::prelude::*;

const SUBARRAYS: usize = 8;

fn gated() -> Box<GatedPolicy> {
    Box::new(GatedPolicy::new(SUBARRAYS, 50, 1))
}

/// Sparse access stream: (subarray, cycle gap) pairs, gaps large enough to
/// cross the decay threshold now and then.
fn access_stream() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((0usize..SUBARRAYS, 1u64..200), 1..400)
}

fn drive(policy: &mut dyn PrechargePolicy, accesses: &[(usize, u64)]) -> (Vec<u32>, u64) {
    let mut cycle = 0;
    let mut latencies = Vec::with_capacity(accesses.len());
    for &(s, gap) in accesses {
        cycle += gap;
        latencies.push(policy.access(s, cycle));
        // Faults must be drained like the cache drains them, or `pending`
        // would coalesce across accesses.
        let _ = policy.take_fault();
    }
    (latencies, cycle)
}

proptest! {
    /// With rate 0 the decorator is bit-identical to the undecorated
    /// policy: same per-access latencies, same finalize report, no events.
    #[test]
    fn rate_zero_is_transparent(accesses in access_stream()) {
        let mut plain = gated();
        let mut wrapped =
            FaultInjectingPolicy::new(gated(), FaultConfig::disabled(), SUBARRAYS);

        let mut cycle = 0;
        for &(s, gap) in &accesses {
            cycle += gap;
            prop_assert_eq!(plain.access(s, cycle), wrapped.access(s, cycle));
            prop_assert!(wrapped.take_fault().is_none());
        }
        let end = cycle + 10;
        prop_assert_eq!(plain.finalize(end), wrapped.finalize(end));
        prop_assert_eq!(wrapped.report().injected(), 0);
        prop_assert_eq!(wrapped.report().decay_flips(), 0);
    }

    /// A fixed fault seed gives a reproducible run: identical latencies and
    /// identical fault counters.
    #[test]
    fn fixed_seed_is_deterministic(accesses in access_stream(), seed in any::<u64>()) {
        let cfg = FaultConfig::with_rate(0.2, seed);
        let mut a = FaultInjectingPolicy::new(gated(), cfg, SUBARRAYS);
        let mut b = FaultInjectingPolicy::new(gated(), cfg, SUBARRAYS);
        let (lat_a, _) = drive(&mut a, &accesses);
        let (lat_b, _) = drive(&mut b, &accesses);
        prop_assert_eq!(lat_a, lat_b);
        prop_assert_eq!(a.report(), b.report());
    }

    /// Counter invariant under any stream, rate, and seed:
    /// detected + silent == injected and replayed == detected.
    #[test]
    fn counters_are_consistent(
        accesses in access_stream(),
        seed in any::<u64>(),
        rate_milli in 0u64..=1000,
    ) {
        let cfg = FaultConfig::with_rate(rate_milli as f64 / 1000.0, seed);
        let mut p = FaultInjectingPolicy::new(gated(), cfg, SUBARRAYS);
        drive(&mut p, &accesses);
        prop_assert!(p.report().is_consistent(), "{}", p.report().summary());
    }

    /// Different fault seeds leave the leakage multipliers different (the
    /// log-normal draw actually depends on the seed).
    #[test]
    fn multipliers_depend_on_seed(seed in any::<u64>()) {
        let a = FaultInjectingPolicy::new(gated(), FaultConfig::with_rate(0.1, seed), SUBARRAYS);
        let b = FaultInjectingPolicy::new(
            gated(),
            FaultConfig::with_rate(0.1, seed.wrapping_add(1)),
            SUBARRAYS,
        );
        let differs = (0..SUBARRAYS).any(|s| {
            (a.injector().leakage_multiplier(s) - b.injector().leakage_multiplier(s)).abs()
                > 1e-12
        });
        prop_assert!(differs);
    }
}

#[test]
fn fail_safe_pins_a_noisy_subarray() {
    // Every access cold (threshold 50, gaps 100), certain upset, certain
    // detection: the second detected upset must pin subarray 0.
    let cfg = FaultConfig {
        upset_rate: 1.0,
        detection_rate: 1.0,
        decay_flip_rate: 0.0,
        fail_safe_threshold: Some(2),
        ..FaultConfig::with_rate(1.0, 7)
    };
    let mut p = FaultInjectingPolicy::new(gated(), cfg, SUBARRAYS);
    let mut cycle = 0;
    let mut extras = Vec::new();
    let mut pinned_after = None;
    for i in 0..50 {
        cycle += 100;
        extras.push(p.access(0, cycle));
        let _ = p.take_fault();
        if pinned_after.is_none() && p.report().per_subarray[0].pinned {
            pinned_after = Some(i);
        }
    }
    let report: FaultReport = p.report().clone();
    let pinned_after = pinned_after.expect("50 near-certain upsets must trip a threshold of 2");
    assert_eq!(report.degraded_subarrays(), 1);
    assert_eq!(report.per_subarray[0].detected, 2, "{}", report.summary());
    // Every pre-pin access was cold (threshold 50, gaps of 100); once
    // pinned, the subarray is statically pulled up and never delays.
    assert!(extras[..=pinned_after].iter().all(|&e| e > 0), "{extras:?}");
    assert!(extras[pinned_after + 1..].iter().all(|&e| e == 0), "{extras:?}");
    // Pinned subarray burns full leakage from the pin cycle on.
    let act = p.finalize(cycle + 50);
    assert!(act.per_subarray[0].pulled_up_cycles > 50.0);
}

// ---------------------------------------------------------------------------
// Error-protection layer (SECDED + scrub + degradation ladder).

proptest! {
    /// With ECC armed the counters stay consistent and the reliability
    /// report partitions exactly onto the fault report: every injected
    /// upset is corrected, a DUE, or SDC; only DUEs replay.
    #[test]
    fn ecc_counters_partition_the_fault_report(
        accesses in access_stream(),
        seed in any::<u64>(),
        rate_milli in 0u64..=1000,
    ) {
        let cfg = FaultConfig::with_rate(rate_milli as f64 / 1000.0, seed).with_secded();
        let mut p = FaultInjectingPolicy::new(gated(), cfg, SUBARRAYS);
        drive(&mut p, &accesses);
        let faults = p.report().clone();
        let rel = p.reliability().expect("ECC armed").clone();
        prop_assert!(faults.is_consistent(), "{}", faults.summary());
        prop_assert_eq!(rel.corrected() + rel.due() + rel.sdc(), faults.injected());
        prop_assert_eq!(rel.corrected() + rel.due(), faults.detected());
        prop_assert_eq!(rel.due(), faults.replayed());
        prop_assert_eq!(rel.sdc(), faults.silent());
    }

    /// ECC runs are seed-deterministic, scrub or no scrub.
    #[test]
    fn ecc_runs_are_deterministic(accesses in access_stream(), seed in any::<u64>()) {
        let cfg = FaultConfig::with_rate(0.3, seed).with_secded().with_scrub(2_048);
        let mut a = FaultInjectingPolicy::new(gated(), cfg, SUBARRAYS);
        let mut b = FaultInjectingPolicy::new(gated(), cfg, SUBARRAYS);
        let (lat_a, end) = drive(&mut a, &accesses);
        let (lat_b, _) = drive(&mut b, &accesses);
        prop_assert_eq!(lat_a, lat_b);
        a.finalize(end);
        b.finalize(end);
        prop_assert_eq!(a.reliability(), b.reliability());
    }
}

#[test]
fn ecc_corrects_what_the_margin_detector_would_replay() {
    // Same stream, same seed: without ECC every upset replays or slips
    // silent; with ECC the overwhelmingly-single flips are corrected in
    // the read path and only true multi-bit patterns replay.
    let accesses: Vec<(usize, u64)> = (0..400).map(|i| (i % SUBARRAYS, 100)).collect();
    let base = FaultConfig::with_rate(0.5, 42);
    let mut plain = FaultInjectingPolicy::new(gated(), base, SUBARRAYS);
    let mut protected = FaultInjectingPolicy::new(gated(), base.with_secded(), SUBARRAYS);
    drive(&mut plain, &accesses);
    drive(&mut protected, &accesses);
    let rel = protected.reliability().expect("ECC armed");
    assert!(rel.corrected() > 0, "singles must be corrected: {}", rel.summary());
    assert!(
        rel.corrected() > rel.due() + rel.sdc(),
        "single-bit upsets dominate: {}",
        rel.summary()
    );
    // Replays collapse: only DUEs pay the full replay penalty now.
    assert!(
        protected.report().replayed() < plain.report().replayed(),
        "ECC must shrink replay traffic ({} vs {})",
        protected.report().replayed(),
        plain.report().replayed(),
    );
}

#[test]
fn scrubbing_clears_latent_errors_and_slashes_sdc() {
    // A hot subarray accumulating corrected-on-read damage: without
    // scrubbing, latent errors pile up and compound follow-on upsets into
    // DUEs/SDC; a background scrubber bounds the latent population.
    let accesses: Vec<(usize, u64)> = (0..4_000).map(|_| (0usize, 100)).collect();
    let base = FaultConfig { variation_sigma: 0.0, ..FaultConfig::with_rate(0.5, 9) }.with_secded();
    // Tiny subarray so latent collisions actually happen in-test.
    let base = FaultConfig { subarray_words: 16, ..base };
    let mut unscrubbed = FaultInjectingPolicy::new(gated(), base, SUBARRAYS);
    let mut scrubbed = FaultInjectingPolicy::new(gated(), base.with_scrub(10_000), SUBARRAYS);
    let (_, end) = drive(&mut unscrubbed, &accesses);
    drive(&mut scrubbed, &accesses);
    unscrubbed.finalize(end);
    scrubbed.finalize(end);
    let bare = unscrubbed.reliability().expect("ECC armed");
    let swept = scrubbed.reliability().expect("ECC armed");
    assert_eq!(bare.latent_cleared(), 0, "no scrubber, nothing cleared");
    assert!(swept.latent_cleared() > 0, "scrubber must clear latents: {}", swept.summary());
    assert!(swept.background_scrub_words > 0, "scrub traffic must be priced");
    assert!(
        swept.due() + swept.sdc() < bare.due() + bare.sdc(),
        "scrubbing must reduce compounded errors ({} vs {})",
        swept.due() + swept.sdc(),
        bare.due() + bare.sdc(),
    );
}

#[test]
fn degradation_ladder_walks_all_three_stages() {
    use bitline_ecc::DegradationStage;
    let cfg = FaultConfig {
        upset_rate: 1.0,
        variation_sigma: 0.0,
        decay_flip_rate: 0.0,
        multi_bit_fraction: 0.5,
        fail_safe_threshold: Some(4),
        scrub_on_detect_threshold: Some(2),
        ..FaultConfig::with_rate(1.0, 11)
    }
    .with_secded();
    let mut p = FaultInjectingPolicy::new(gated(), cfg, SUBARRAYS);
    let mut stages = vec![DegradationStage::CorrectInPlace];
    let mut cycle = 0;
    for _ in 0..200 {
        cycle += 100;
        p.access(0, cycle);
        let _ = p.take_fault();
        let stage = p.reliability().expect("ECC armed").per_subarray[0].stage;
        if stage != *stages.last().expect("nonempty") {
            stages.push(stage);
        }
    }
    assert_eq!(
        stages,
        vec![
            DegradationStage::CorrectInPlace,
            DegradationStage::ScrubOnDetect,
            DegradationStage::FailSafe,
        ],
        "ladder must walk stage 0 → 1 → 2 in order"
    );
    let rel = p.reliability().expect("ECC armed");
    assert!(rel.demand_scrubs() > 0, "stage 1 must fire demand scrubs");
    assert_eq!(rel.per_subarray[0].due, 4, "pin on the fail-safe DUE threshold");
    assert!(p.report().per_subarray[0].pinned, "stage 2 pins the subarray");
    let end = cycle + 10;
    p.finalize(end);
    assert!(p.reliability().expect("ECC armed").pinned_residency_cycles > 0);
}
