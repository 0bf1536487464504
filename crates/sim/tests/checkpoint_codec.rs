//! Property tests for the checkpoint codec: synthetic `RunResult`s with
//! randomized specs, statistics, and optional attachments survive an
//! encode/decode cycle bit-exactly, and the spec key is stable across the
//! codec — the invariant the warm-load cross-check relies on.

use bitline_cache::{ActivityReport, IdleHistogram, SubarrayActivity, WayStats, IDLE_BUCKETS};
use bitline_cpu::SimStats;
use bitline_ecc::{DegradationStage, ReliabilityReport, SubarrayReliability};
use bitline_faults::{FaultReport, SubarrayFaults, SubarrayVdd, VddReport};
use bitline_sim::checkpoint::{decode_run, encode_run, spec_key};
use bitline_sim::{
    FaultSpec, HierarchySpec, LeakageKind, Level, LevelRun, LocalityStats, PolicyKind, RunResult,
    SystemSpec, VddSpec,
};
use proptest::prelude::*;

fn policies() -> impl Strategy<Value = PolicyKind> {
    (0u8..9, any::<u64>(), 0.0..1.0f64).prop_map(|(tag, n, slack)| {
        let threshold = n % 1_000 + 1;
        match tag {
            0 => PolicyKind::StaticPullUp,
            1 => PolicyKind::Oracle,
            2 => PolicyKind::OnDemand,
            3 => PolicyKind::Gated { threshold },
            4 => PolicyKind::GatedPredecode { threshold },
            5 => PolicyKind::AdaptiveGated { interval_accesses: threshold },
            6 => PolicyKind::Drowsy { threshold },
            7 => PolicyKind::Resizable { interval_accesses: threshold, slack },
            _ => PolicyKind::LocalityRecorder,
        }
    })
}

fn hierarchies() -> impl Strategy<Value = HierarchySpec> {
    (1u8..=3, policies(), 0u8..4).prop_map(|(levels, l2_policy, mode)| HierarchySpec {
        levels,
        l2_policy,
        leakage_mode: LeakageKind::ALL[mode as usize],
    })
}

fn vdds() -> impl Strategy<Value = VddSpec> {
    (any::<bool>(), 0.6..1.1f64, any::<bool>()).prop_map(|(nominal, scale, governor)| VddSpec {
        scale: if nominal { 1.0 } else { scale },
        governor,
    })
}

fn specs() -> impl Strategy<Value = SystemSpec> {
    (
        policies(),
        policies(),
        (1u64..1_000_000, any::<u64>(), any::<bool>()),
        (0.0..1.0f64, any::<u64>(), any::<bool>(), any::<bool>(), any::<u64>()),
        hierarchies(),
        vdds(),
    )
        .prop_map(
            |(d_policy, i_policy, (instructions, seed, way_prediction), f, hierarchy, vdd)| {
                SystemSpec {
                    d_policy,
                    i_policy,
                    subarray_bytes: 1 << (6 + seed % 7),
                    instructions,
                    seed,
                    way_prediction,
                    faults: FaultSpec {
                        rate: f.0,
                        seed: f.1,
                        fail_safe: f.2,
                        ecc: f.3,
                        scrub_period: (f.3 && f.4 % 2 == 1).then(|| f.4 % 100_000 + 1),
                    },
                    hierarchy,
                    vdd,
                }
            },
        )
}

fn subarray_activity() -> impl Strategy<Value = SubarrayActivity> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (0.0..1.0e9f64, 0.0..1.0e9f64),
        prop::collection::vec(any::<u64>(), IDLE_BUCKETS),
    )
        .prop_map(|((accesses, delayed_accesses, precharge_events), cyc, hist)| {
            let mut counts = [0u64; IDLE_BUCKETS];
            counts.copy_from_slice(&hist);
            SubarrayActivity {
                accesses,
                delayed_accesses,
                pulled_up_cycles: cyc.0,
                precharge_events,
                drowsy_cycles: cyc.1,
                idle_histogram: IdleHistogram::from_counts(counts),
            }
        })
}

fn reports() -> impl Strategy<Value = ActivityReport> {
    (
        prop::sample::select(vec!["gated", "oracle", "static", "drowsy"]),
        any::<u64>(),
        prop::collection::vec(subarray_activity(), 0..4),
    )
        .prop_map(|(policy, end_cycle, per_subarray)| ActivityReport {
            policy: policy.to_owned(),
            end_cycle,
            per_subarray,
        })
}

fn localities() -> impl Strategy<Value = Option<LocalityStats>> {
    (
        any::<bool>(),
        prop::collection::vec(any::<u64>(), 6),
        any::<u64>(),
        prop::collection::vec(0.0..1.0e12f64, 5),
        (1usize..256, any::<u64>()),
    )
        .prop_map(|(present, counts, total, hot, (subarrays, end_cycle))| {
            present.then(|| {
                let mut interval_counts = [0u64; 6];
                interval_counts.copy_from_slice(&counts);
                let mut hot_cycles = [0f64; 5];
                hot_cycles.copy_from_slice(&hot);
                LocalityStats {
                    interval_counts,
                    intervals_total: total,
                    hot_cycles,
                    subarrays,
                    end_cycle,
                }
            })
        })
}

fn fault_reports() -> impl Strategy<Value = Option<FaultReport>> {
    (
        any::<bool>(),
        prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()), 0..4),
    )
        .prop_map(|(present, rows)| {
            present.then(|| FaultReport {
                per_subarray: rows
                    .into_iter()
                    .map(|(injected, detected, decay_flips, pinned)| {
                        let detected = detected.min(injected);
                        SubarrayFaults {
                            injected,
                            detected,
                            silent: injected - detected,
                            replayed: detected,
                            decay_flips,
                            pinned,
                        }
                    })
                    .collect(),
            })
        })
}

fn reliability_reports() -> impl Strategy<Value = Option<ReliabilityReport>> {
    (
        any::<bool>(),
        prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..4),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(|(present, rows, totals)| {
            present.then(|| ReliabilityReport {
                per_subarray: rows
                    .into_iter()
                    .map(|(corrected, due, sdc, misc)| SubarrayReliability {
                        corrected,
                        due,
                        sdc,
                        demand_scrubs: misc >> 32,
                        latent_cleared: misc & 0xFFFF_FFFF,
                        stage: DegradationStage::from_index((misc % 3) as u8)
                            .expect("index in range"),
                    })
                    .collect(),
                background_scrub_words: totals.0,
                demand_scrub_words: totals.1,
                pinned_residency_cycles: totals.2,
                end_cycle: totals.3,
            })
        })
}

fn vdd_reports() -> impl Strategy<Value = Option<VddReport>> {
    (
        any::<bool>(),
        prop::collection::vec((0u8..4, any::<u64>(), any::<u64>(), any::<bool>()), 0..4),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        prop::collection::vec(any::<u64>(), 1..4),
    )
        .prop_map(|(present, rows, (replays, corrected, sdc), step_accesses)| {
            present.then(|| VddReport {
                per_subarray: rows
                    .into_iter()
                    .map(|(step, escalations, deescalations, pinned)| SubarrayVdd {
                        step,
                        escalations,
                        deescalations,
                        pinned,
                    })
                    .collect(),
                // Keep the resolution invariant: every upset resolved once.
                upsets: replays.wrapping_add(corrected).wrapping_add(sdc),
                replays,
                corrected,
                sdc,
                step_accesses,
            })
        })
}

fn stats() -> impl Strategy<Value = SimStats> {
    prop::collection::vec(any::<u64>(), 11).prop_map(|s| SimStats {
        cycles: s[0],
        committed: s[1],
        fetched: s[2],
        branches: s[3],
        mispredicts: s[4],
        loads: s[5],
        stores: s[6],
        replays: s[7],
        load_misspeculations: s[8],
        fetch_stall_cycles: s[9],
        hints: s[10],
    })
}

fn way_stats() -> impl Strategy<Value = Option<WayStats>> {
    (any::<bool>(), any::<u64>(), any::<u64>())
        .prop_map(|(present, correct, wrong)| present.then_some(WayStats { correct, wrong }))
}

/// One level's record; [`runs`] gives it the id its spec decides.
fn level_records() -> impl Strategy<Value = LevelRun> {
    let traffic = (any::<u64>(), any::<u64>(), any::<u64>());
    let attached = (fault_reports(), reliability_reports(), vdd_reports());
    (reports(), traffic, localities(), way_stats(), attached).prop_map(
        |(report, traffic, locality, way_stats, (faults, reliability, vdd))| LevelRun {
            level: Level::L1D,
            report,
            hits: traffic.0,
            misses: traffic.1,
            writebacks: traffic.2,
            locality,
            way_stats,
            faults,
            reliability,
            vdd,
        },
    )
}

fn runs() -> impl Strategy<Value = RunResult> {
    (
        (prop::sample::select(vec!["gcc", "mcf", "art", "health"]), specs(), stats()),
        prop::collection::vec(level_records(), 4),
    )
        .prop_map(|((benchmark, spec, stats), records)| {
            let levels = Level::of(&spec.hierarchy).expect("levels in 1..=3");
            RunResult {
                benchmark: benchmark.to_owned(),
                spec,
                stats,
                levels: levels
                    .iter()
                    .zip(records)
                    .map(|(&level, r)| LevelRun { level, ..r })
                    .collect(),
            }
        })
}

proptest! {
    /// Encode → decode is the identity on every synthetic run (Debug
    /// strings compare the full tree, f64s included, bit-exactly).
    fn encode_decode_is_identity(run in runs()) {
        let bytes = encode_run(&run);
        let decoded = decode_run(&bytes).expect("well-formed bytes decode");
        prop_assert_eq!(format!("{run:?}"), format!("{decoded:?}"));
    }

    /// The decoded run journals under the same key as the original — the
    /// invariant the warm-load cross-check in `set_checkpoint` relies on.
    fn spec_key_survives_the_codec(run in runs()) {
        let key = spec_key(&run.benchmark, &run.spec);
        let decoded = decode_run(&encode_run(&run)).expect("decodes");
        prop_assert_eq!(spec_key(&decoded.benchmark, &decoded.spec), key);
    }

    /// Truncating the payload anywhere is always detected.
    fn truncation_is_always_detected(run in runs(), frac in 0.0..1.0f64) {
        let bytes = encode_run(&run);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = (((bytes.len() - 1) as f64) * frac) as usize;
        prop_assert!(decode_run(&bytes[..cut]).is_none());
    }
}
