//! `bitline-perf` — the benchmark of record for the bitline simulator.
//!
//! ```sh
//! bitline-perf --workload headline --seed 42 --seconds 20 --trace 0   # end to end
//! bitline-perf trace --workload long-gcc                               # per-layer ledger
//! bitline-perf compare A.jsonl B.jsonl                                 # verdict per metric
//! ```
//!
//! A run builds the release `bitline-sim` and `bitline-serve` from the
//! repository it sits in, measures one workload for `--seconds`, prints
//! every metric with its unit, and ends with one JSON result line. See
//! `perf/README.md` for the workloads and what each metric measures.

mod bench;
mod compare;
mod layers;
mod metrics;
mod proc;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use bench::{Ctx, Workload, FULL, QUICK};
use metrics::{result_line, Tally, END_TO_END, PER_LAYER};

/// The repository root: the parent of this package.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perf/ sits inside the repository")
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String], trace: bool) -> Result<Options, String> {
    let mut o =
        Options { workload: Workload::Headline, seed: 42, seconds: 20.0, trace, quick: false };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    format!("unknown workload `{name}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(o.seconds.is_finite() && o.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    Ok(o)
}

/// Builds the release binaries the end-to-end numbers come from, into
/// `$CARGO_TARGET_DIR` or else the repository's own `target/`.
fn build_binaries() -> Result<(PathBuf, PathBuf), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "bitline-sim",
            "-p",
            "bitline-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the release binaries failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let release = target.join("release");
    Ok((release.join("bitline-sim"), release.join("bitline-serve")))
}

fn run(args: &[String], trace: bool) -> ExitCode {
    let o = match parse(args, trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bitline-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::env::set_current_dir(root()) {
        eprintln!("bitline-perf: cannot enter {}: {e}", root().display());
        return ExitCode::FAILURE;
    }
    let (sim, serve) = match build_binaries() {
        Ok(bins) => bins,
        Err(e) => {
            eprintln!("bitline-perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tmp = match proc::TempDir::new() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bitline-perf: scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sizes = if o.quick { QUICK } else { FULL };
    let ctx = Ctx { sim, serve, tmp, seed: o.seed, seconds: o.seconds, sizes, quick: o.quick };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# bitline-perf {} seed={} seconds={} trace={} quick={} nproc={nproc}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        o.quick
    );
    let mut tally = Tally::default();
    let values = match (o.workload, o.trace) {
        (Workload::ServeMixed, false) => bench::serve_end_to_end(&ctx, &mut tally),
        (Workload::ServeMixed, true) => bench::serve_layers(&ctx, &mut tally),
        (w, false) => bench::cli_end_to_end(&ctx, w, &mut tally),
        (w, true) => bench::cli_layers(&ctx, w, &mut tally),
    };
    let Some(values) = values else {
        eprintln!("bitline-perf: {}: nothing could be measured", o.workload.name());
        return ExitCode::FAILURE;
    };
    let declared: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    if o.trace {
        for (name, unit) in declared {
            metrics::row(name, values[name], unit, "");
        }
    }
    metrics::row(
        "failed_ratio",
        tally.failed_ratio(),
        "ratio",
        &format!("{} of {}", tally.failed, tally.attempted),
    );
    println!("{}", result_line(declared, &values, &tally));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..], root()),
        Some("trace") => run(&args[1..], true),
        Some("setup-probe") => bench::setup_probe(&args[1..]),
        _ => run(&args, false),
    }
}
