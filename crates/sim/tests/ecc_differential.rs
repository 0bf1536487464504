//! Differential guarantee of the ECC layer: arming SECDED (`--ecc`, with
//! or without `--scrub-period`) at a zero upset rate changes **nothing**.
//! Every `RunResult` field but the spec itself, and the run's energy at
//! every node, stay bit-identical to the unprotected run — and those are
//! exactly what every figure export is computed from.
//!
//! This pins the layering invariant the energy and fault models promise:
//! with no faults to inject the decorator is never armed, no ECC energy
//! is priced, and no cycle moves.

use bitline_cmos::TechnologyNode;
use bitline_faults::SplitMix64;
use bitline_sim::{try_run_benchmark, FaultSpec, PolicyKind, RunResult, SystemSpec};

/// Same budget as the golden suite.
const INSTRS: u64 = 2_000;

/// Seeded specs across the axes a protection layer could disturb: policy,
/// subarray size, workload and fault seeds, way prediction, fail-safe.
fn specs() -> Vec<SystemSpec> {
    let policies = [
        PolicyKind::Gated { threshold: 100 },
        PolicyKind::GatedPredecode { threshold: 100 },
        PolicyKind::Drowsy { threshold: 50 },
        PolicyKind::OnDemand,
        PolicyKind::AdaptiveGated { interval_accesses: 500 },
        PolicyKind::StaticPullUp,
    ];
    let mut rng = SplitMix64::new(0x0ECC_D1FF);
    policies
        .into_iter()
        .map(|d_policy| SystemSpec {
            d_policy,
            i_policy: d_policy.icache_default(),
            subarray_bytes: 256 << (rng.next_u64() % 3),
            instructions: INSTRS,
            seed: rng.next_u64() % 1_000,
            way_prediction: rng.next_u64() % 2 == 1,
            faults: FaultSpec {
                seed: rng.next_u64(),
                fail_safe: rng.next_u64() % 2 == 1,
                ..FaultSpec::default()
            },
            ..SystemSpec::default()
        })
        .collect()
}

#[test]
fn ecc_at_zero_upset_rate_leaves_runs_and_energy_bit_identical() {
    for spec in specs() {
        for benchmark in ["mesa", "bisort"] {
            let bare = try_run_benchmark(benchmark, &spec).expect("bare run");
            for scrub_period in [None, Some(4_096)] {
                let faults = FaultSpec { ecc: true, scrub_period, ..spec.faults };
                let armed_spec = SystemSpec { faults, ..spec };
                assert!(armed_spec.validate().is_ok(), "{armed_spec:?}");
                let armed = try_run_benchmark(benchmark, &armed_spec).expect("armed run");
                let label = format!("{benchmark} {armed_spec:?}");
                assert_eq!(
                    format!("{:?}", RunResult { spec, ..armed.clone() }),
                    format!("{bare:?}"),
                    "{label}: arming ECC at rate 0 moved the run"
                );
                for node in TechnologyNode::ALL {
                    assert_eq!(
                        format!("{:?}", armed.energy(node)),
                        format!("{:?}", bare.energy(node)),
                        "{label}: arming ECC at rate 0 moved the energy at {node}"
                    );
                }
            }
        }
    }
}
