//! Cross-crate integration tests: the whole stack, exercised through the
//! facade crate the way a downstream user would.

use bitline::cmos::TechnologyNode;
use bitline::sim::{run_benchmark, PolicyKind, SystemSpec};

fn spec(d: PolicyKind, i: PolicyKind, instructions: u64) -> SystemSpec {
    SystemSpec { d_policy: d, i_policy: i, instructions, ..SystemSpec::default() }
}

/// The paper's policy ordering must hold end-to-end on every benchmark
/// class: oracle <= gated < static discharge, with gated within a few
/// percent of baseline performance.
#[test]
fn policy_ordering_holds_end_to_end() {
    for name in ["health", "mesa", "mcf"] {
        let n = 12_000;
        let baseline =
            run_benchmark(name, &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp, n));
        let oracle = run_benchmark(name, &spec(PolicyKind::Oracle, PolicyKind::Oracle, n));
        let gated = run_benchmark(
            name,
            &spec(
                PolicyKind::GatedPredecode { threshold: 100 },
                PolicyKind::Gated { threshold: 100 },
                n,
            ),
        );
        let node = TechnologyNode::N70;
        let (o, ob) = oracle.energy(node);
        let (g, gb) = gated.energy(node);
        let o_rel = o.d.relative_discharge(&ob.d);
        let g_rel = g.d.relative_discharge(&gb.d);
        assert!(o_rel < g_rel, "{name}: oracle {o_rel:.3} must beat gated {g_rel:.3}");
        assert!(g_rel < 1.0, "{name}: gated must save discharge");
        assert_eq!(oracle.cycles(), baseline.cycles(), "{name}: oracle is delay-free");
        let slowdown = gated.slowdown_vs(&baseline);
        assert!(slowdown < 0.10, "{name}: gated slowdown {slowdown:.3}");
    }
}

/// Technology scaling must flip the verdict on aggressive isolation:
/// the same gated run saves much more at 70 nm than at 180 nm.
#[test]
fn scaling_flips_the_isolation_verdict() {
    let gated = run_benchmark(
        "tsp",
        &spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::StaticPullUp, 12_000),
    );
    let rel = |node| {
        let (p, b) = gated.energy(node);
        p.d.relative_discharge(&b.d)
    };
    let new = rel(TechnologyNode::N70);
    let old = rel(TechnologyNode::N180);
    assert!(new < old, "70 nm {new:.3} must save more than 180 nm {old:.3}");
}

/// On-demand precharging must cost performance on every benchmark class
/// while achieving oracle-like discharge (accurate but late — Section 5).
#[test]
fn on_demand_is_accurate_but_late() {
    let n = 12_000;
    for name in ["mesa", "bzip2"] {
        let baseline =
            run_benchmark(name, &spec(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp, n));
        let od = run_benchmark(name, &spec(PolicyKind::OnDemand, PolicyKind::StaticPullUp, n));
        assert!(od.slowdown_vs(&baseline) > 0.0, "{name} must slow down");
        let (p, b) = od.energy(TechnologyNode::N70);
        assert!(p.d.relative_discharge(&b.d) < 0.4, "{name}: on-demand discharge");
    }
}

/// The resizable baseline adapts without pull-up delays but cannot reach
/// gated precharging's savings at 70 nm (Figure 9's verdict).
#[test]
fn resizable_cannot_match_gated_at_70nm() {
    let n = 30_000;
    let name = "health"; // small hot footprint: resizing CAN shrink safely
    let gated = run_benchmark(
        name,
        &spec(PolicyKind::GatedPredecode { threshold: 100 }, PolicyKind::StaticPullUp, n),
    );
    let resizable = run_benchmark(
        name,
        &spec(
            PolicyKind::Resizable { interval_accesses: 2_000, slack: 0.01 },
            PolicyKind::StaticPullUp,
            n,
        ),
    );
    let node = TechnologyNode::N70;
    let (g, gb) = gated.energy(node);
    let (r, rb) = resizable.energy(node);
    let g_rel = g.d.relative_discharge(&gb.d);
    let r_rel = r.d.relative_discharge(&rb.d);
    assert!(g_rel < r_rel, "gated ({g_rel:.3}) must beat resizable ({r_rel:.3}) at 70 nm");
    // And the resizable cache never delays an access for pull-up.
    assert_eq!(resizable.l1d().report.total_delayed(), 0);
}

/// Predecoding hints must reduce delayed accesses on the data cache
/// (Section 6.3: accuracy booster for D-caches).
#[test]
fn predecoding_reduces_delayed_accesses() {
    let n = 20_000;
    for name in ["gcc", "mcf"] {
        let plain = run_benchmark(
            name,
            &spec(PolicyKind::Gated { threshold: 100 }, PolicyKind::StaticPullUp, n),
        );
        let predecode = run_benchmark(
            name,
            &spec(PolicyKind::GatedPredecode { threshold: 100 }, PolicyKind::StaticPullUp, n),
        );
        let d_plain = plain.l1d().report.delayed_fraction();
        let d_pre = predecode.l1d().report.delayed_fraction();
        assert!(
            d_pre < d_plain,
            "{name}: predecoding should cut delayed accesses ({d_pre:.4} vs {d_plain:.4})"
        );
    }
}

/// Full determinism across the whole stack.
#[test]
fn end_to_end_determinism() {
    let s = spec(
        PolicyKind::GatedPredecode { threshold: 50 },
        PolicyKind::Gated { threshold: 200 },
        10_000,
    );
    let a = run_benchmark("vortex", &s);
    let b = run_benchmark("vortex", &s);
    assert_eq!(a.cycles(), b.cycles());
    assert_eq!(a.stats.replays, b.stats.replays);
    assert_eq!(a.l1d().report.total_precharge_events(), b.l1d().report.total_precharge_events());
    let (ea, _) = a.energy(TechnologyNode::N100);
    let (eb, _) = b.energy(TechnologyNode::N100);
    assert!((ea.d.total_j() - eb.d.total_j()).abs() < 1e-18);
}
