//! The paper's load-bearing claims, asserted end-to-end through the facade
//! crate. These are the invariants a reviewer would spot-check first.

use bitline::cache::CacheConfig;
use bitline::circuit::{BitlineModel, DecoderModel, TransientSim};
use bitline::cmos::TechnologyNode;
use bitline::energy::EnergyAccountant;

/// Section 2: bitline discharge is ~76% of overall leakage in dual-ported
/// SRAM cells.
#[test]
fn bitline_share_of_dual_ported_leakage() {
    for node in TechnologyNode::ALL {
        let p = node.device_params();
        let bitline = 4.0 * p.i_bitline_leak_per_cell_a; // 2 ports = 4 bitlines
        let share = bitline / (bitline + p.i_cell_internal_leak_a);
        assert!((0.73..=0.79).contains(&share), "{node}: {share:.3}");
    }
}

/// Section 4 / Figure 2: the energy overhead of isolation, relative to the
/// static burn it avoids, falls by roughly (0.5/3.5) per generation.
#[test]
fn isolation_overhead_collapses_with_scaling() {
    let geom = CacheConfig::l1_data().geometry();
    let ratio = |node| {
        let sim = TransientSim::new(BitlineModel::new(node, geom));
        // Overhead of one settled episode vs. one microsecond of static burn.
        sim.isolation_episode_energy_j(1e5) / (sim.model().static_power_w() * 1e-6)
    };
    let mut prev = f64::INFINITY;
    for node in TechnologyNode::ALL {
        let r = ratio(node);
        assert!(r < prev, "{node}: overhead ratio must fall with scaling");
        prev = r;
    }
    assert!(
        ratio(TechnologyNode::N180) / ratio(TechnologyNode::N70) > 50.0,
        "three generations should shrink the relative overhead by >50x"
    );
}

/// Section 5 / Table 3: the worst-case pull-up exceeds the final-decode
/// margin for every subarray size and node studied.
#[test]
fn pullup_never_hides_under_final_decode() {
    for bytes in [64, 256, 1024, 4096] {
        for node in TechnologyNode::ALL {
            let geom = CacheConfig::l1_data().with_subarray_bytes(bytes).geometry();
            let m = DecoderModel::new(node, geom);
            assert!(m.on_demand_penalty_cycles() >= 1, "{bytes} B @ {node}");
        }
    }
}

/// Section 3 methodology: energy at any node decomposes exactly and the
/// static baseline's discharge share grows monotonically toward 70 nm.
#[test]
fn bitline_share_grows_towards_70nm() {
    let mut prev = 0.0;
    for node in TechnologyNode::ALL {
        let acct = EnergyAccountant::new(node, CacheConfig::l1_data());
        // Fixed activity: 0.3 reads/cycle, 0.1 writes/cycle over 100k cycles.
        let b = acct.static_baseline(100_000, 30_000, 10_000, false);
        let share = b.bitline_share();
        assert!(share > prev, "{node}: share {share:.3} must grow");
        prev = share;
    }
    assert!(prev > 0.4, "at 70 nm bitline discharge dominates: {prev:.3}");
}

/// The clock follows 8 FO4 per cycle at every node (Section 3), keeping
/// cycle-counted latencies node-independent.
#[test]
fn eight_fo4_clock_everywhere() {
    for node in TechnologyNode::ALL {
        let cycle = node.cycle_time_ns();
        let fo4 = node.fo4_delay_ns();
        assert!((cycle / fo4 - 8.0).abs() < 1e-9, "{node}");
    }
}
