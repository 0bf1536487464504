//! Per-level pricing and the single-run report, pinned.
//!
//! Each flag set runs on two benchmarks at 3 000 instructions. The golden
//! records, exactly (`{:?}`), every L1's policy and static-baseline energy
//! and every outer level's energy at 180 and 70 nm under all four leakage
//! modes; then the `bitline-sim -b <bench> --node <node>` report for the
//! same flags, whose faults, ECC, Vdd, L2 and L3 lines no other golden
//! covers. Generated once, before the per-level refactor; never re-bless
//! it for a refactor. After an intentional model change:
//!
//! ```sh
//! BITLINE_BLESS=1 cargo test -p bitline-sim --test level_pricing
//! ```

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use bitline_cmos::TechnologyNode;
use bitline_sim::{spec, try_run_benchmark, LeakageKind, Level, SystemSpec};

const INSTRS: &str = "3000";

const BENCHMARKS: [&str; 2] = ["mesa", "gcc"];

const NODES: [TechnologyNode; 2] = [TechnologyNode::N180, TechnologyNode::N70];

/// `bitline-sim` flag sets, each applied over the front-end default.
const FLAG_SETS: [(&str, &str); 9] = [
    ("default", ""),
    ("static", "--policy static --icache-policy static"),
    ("waypred", "--policy gated:100 --way-prediction"),
    ("ecc", "--policy gated:100 --fault-rate 0.05 --fault-seed 7 --ecc --scrub-period 4096"),
    ("failsafe", "--policy gated:100 --fault-rate 0.2 --fail-safe"),
    ("vdd", "--vdd 0.8"),
    ("governed", "--policy gated:50 --vdd 0.8 --vdd-governor --ecc"),
    ("levels2", "--levels 2 --l2-policy gated:100 --leakage-mode drowsy"),
    (
        "levels3",
        "--levels 3 --l2-policy ondemand --leakage-mode gated-vdd --vdd 0.85 --vdd-governor \
         --fault-rate 0.01 --ecc --way-prediction",
    ),
];

/// The spec `bitline-sim` builds from `flags` at the golden's budget.
fn spec_of(flags: &str) -> SystemSpec {
    let mut values = spec::Assignments::default();
    let mut it = flags.split_whitespace().chain(["--instructions", INSTRS]);
    while let Some(flag) = it.next() {
        let value = || it.next().map(str::to_owned).ok_or_else(|| format!("{flag}: no value"));
        assert!(values.flag(flag, value).expect("value"), "{flag} is a spec flag");
    }
    values.apply(spec::front_end_default()).expect("valid flags")
}

/// Every level's priced energy for one run, one line per (node, mode).
fn render_pricing(out: &mut String, label: &str, bench: &str, flags: &str) {
    let run = try_run_benchmark(bench, &spec_of(flags))
        .unwrap_or_else(|e| panic!("{label}/{bench}: {e}"));
    writeln!(out, "{label} {bench} cycles={}", run.cycles()).unwrap();
    for node in NODES {
        // The static baseline is the same under every mode.
        let (_, base) = run.energy(node);
        for mode in LeakageKind::ALL {
            let priced = |level| run.level_energy(level, node, mode).expect("a recorded level");
            let [pd, bd, pi, bi] =
                [priced(Level::L1D), base.d, priced(Level::L1I), base.i].map(|e| e.total_j());
            write!(out, "  {node} {mode} d={pd:?}/{bd:?} i={pi:?}/{bi:?}").unwrap();
            for level in &run.levels[2..] {
                write!(out, " {}={:?}", level.level.label(), priced(level.level).total_j())
                    .unwrap();
            }
            out.push('\n');
        }
    }
}

/// The `bitline-sim` report for one run, under an empty environment.
fn render_report(out: &mut String, bench: &str, node: TechnologyNode, flags: &str) {
    let node = node.to_string();
    let mut args = vec!["-b", bench, "--node", &node, "--instructions", INSTRS];
    args.extend(flags.split_whitespace());
    let output = Command::new(env!("CARGO_BIN_EXE_bitline-sim"))
        .args(&args)
        .env_clear()
        .output()
        .expect("bitline-sim runs");
    let args = args.join(" ");
    assert!(output.status.success(), "{args}: {}", String::from_utf8_lossy(&output.stderr));
    writeln!(out, "$ bitline-sim {args}").unwrap();
    out.push_str(&String::from_utf8(output.stdout).expect("utf-8 report"));
}

#[test]
fn level_pricing_and_reports_match_the_pinned_golden() {
    let bless = std::env::var("BITLINE_BLESS").is_ok_and(|v| v == "1");
    let mut got = String::new();
    for (label, flags) in FLAG_SETS {
        for bench in BENCHMARKS {
            render_pricing(&mut got, label, bench, flags);
        }
    }
    for (_, flags) in FLAG_SETS {
        for bench in BENCHMARKS {
            for node in NODES {
                render_report(&mut got, bench, node, flags);
            }
        }
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/level_pricing.txt");
    if bless {
        std::fs::write(&path, &got).expect("bless golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert_eq!(got, want, "per-level pricing or the run report drifted from the pinned golden");
}
