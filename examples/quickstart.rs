//! Quickstart: run one benchmark with gated precharging and print what it
//! saves.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bitline::cmos::TechnologyNode;
use bitline::sim::{run_benchmark, PolicyKind, SystemSpec};

fn main() {
    let instructions = 100_000;
    let benchmark = "gcc";

    // A conventional cache (every subarray statically pulled up)...
    let baseline_spec = SystemSpec { instructions, ..SystemSpec::default() };
    let baseline = run_benchmark(benchmark, &baseline_spec);

    // ...versus gated precharging with the paper's constant threshold of
    // 100 cycles and predecoding on the data cache.
    let gated_spec = SystemSpec {
        d_policy: PolicyKind::GatedPredecode { threshold: 100 },
        i_policy: PolicyKind::Gated { threshold: 100 },
        instructions,
        ..SystemSpec::default()
    };
    let gated = run_benchmark(benchmark, &gated_spec);

    println!("benchmark: {benchmark}, {instructions} instructions, 70nm\n");
    println!(
        "baseline : {} cycles (IPC {:.2}), D-miss {:.1}%, I-miss {:.1}%",
        baseline.cycles(),
        baseline.stats.ipc(),
        100.0 * baseline.l1d().miss_ratio(),
        100.0 * baseline.l1i().miss_ratio()
    );
    println!(
        "gated    : {} cycles (IPC {:.2}), slowdown {:+.2}%",
        gated.cycles(),
        gated.stats.ipc(),
        100.0 * gated.slowdown_vs(&baseline)
    );

    let (policy, base) = gated.energy(TechnologyNode::N70);
    println!();
    println!(
        "D-cache: bitline discharge cut by {:.0}%, overall energy by {:.0}%",
        100.0 * (1.0 - policy.d.relative_discharge(&base.d)),
        100.0 * policy.d.overall_reduction(&base.d)
    );
    println!(
        "I-cache: bitline discharge cut by {:.0}%, overall energy by {:.0}%",
        100.0 * (1.0 - policy.i.relative_discharge(&base.i)),
        100.0 * policy.i.overall_reduction(&base.i)
    );
    println!(
        "\nsubarrays precharged on average: D {:.0}%, I {:.0}% (conventional: 100%)",
        100.0 * gated.l1d().report.precharged_fraction(),
        100.0 * gated.l1i().report.precharged_fraction()
    );
}
