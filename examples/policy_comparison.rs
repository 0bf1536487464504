//! Compare every precharge policy on a memory-bound and a compute-bound
//! benchmark: static pull-up, oracle, on-demand, gated (with and without
//! predecoding) and the resizable-cache baseline.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```

use bitline::cmos::TechnologyNode;
use bitline::sim::{run_benchmark, PolicyKind, SystemSpec};

fn main() {
    let instructions = 60_000;
    let node = TechnologyNode::N70;
    let policies: Vec<(&str, PolicyKind)> = vec![
        ("static pull-up", PolicyKind::StaticPullUp),
        ("oracle", PolicyKind::Oracle),
        ("on-demand", PolicyKind::OnDemand),
        ("gated (t=100)", PolicyKind::Gated { threshold: 100 }),
        ("gated+predec", PolicyKind::GatedPredecode { threshold: 100 }),
        ("resizable", PolicyKind::Resizable { interval_accesses: 4_000, slack: 0.005 }),
        ("adaptive", PolicyKind::AdaptiveGated { interval_accesses: 2_000 }),
        ("leakage-biased", PolicyKind::LeakageBiased),
        ("drowsy (t=100)", PolicyKind::Drowsy { threshold: 100 }),
    ];

    for benchmark in ["mcf", "mesa"] {
        println!("=== {benchmark} ({instructions} instructions, {node}) ===");
        println!(
            "{:>16} {:>10} {:>10} {:>12} {:>12} {:>12}",
            "policy", "cycles", "slowdown", "D discharge", "D total", "D delayed"
        );
        let baseline =
            run_benchmark(benchmark, &SystemSpec { instructions, ..SystemSpec::default() });
        for (label, policy) in &policies {
            let run = run_benchmark(
                benchmark,
                &SystemSpec { d_policy: *policy, instructions, ..SystemSpec::default() },
            );
            let (priced, base) = run.energy(node);
            println!(
                "{:>16} {:>10} {:>9.1}% {:>12.3} {:>12.3} {:>11.1}%",
                label,
                run.cycles(),
                100.0 * run.slowdown_vs(&baseline),
                priced.d.relative_discharge(&base.d),
                priced.d.total_j() / base.d.total_j(),
                100.0 * run.l1d().report.delayed_fraction(),
            );
        }
        println!();
    }
    println!("Lower discharge is better; the oracle bounds what any policy can do.");
    println!("On-demand shows why timeliness matters: accurate but always late.");
    println!("Drowsy attacks cell leakage instead of bitline discharge — compare the");
    println!("`D total` column: at 70nm the bitlines are the bigger prize (Section 7).");
}
