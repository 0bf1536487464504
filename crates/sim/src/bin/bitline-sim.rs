//! `bitline-sim` — command-line front end for the full-system simulator.
//!
//! Run any benchmark under any precharge policy and print performance,
//! cache behaviour and energy at a chosen technology node:
//!
//! ```sh
//! bitline-sim --benchmark mcf --policy gated:100 --node 70nm --instructions 200000
//! bitline-sim --benchmark all --policy oracle --jobs 8
//! bitline-sim --metrics out.jsonl headline
//! bitline-sim --list
//! ```
//!
//! A positional experiment command (`bitline-sim fig9`; `--help` lists
//! them all) runs that table or figure of the paper instead of a single
//! benchmark and prints its rows, which are also its `.dat` file;
//! `--metrics PATH` additionally writes the run's observability counters,
//! histograms and spans as JSON lines, and `--metrics-summary` prints
//! them as a table.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bitline_cmos::TechnologyNode;
use bitline_sim::experiments::{self, harness, Experiment};
use bitline_sim::{
    exec_summary_line, set_checkpoint, spec, supervise, try_run_lockstep_cached, Level, LevelRun,
    RunResult, SimError, SystemSpec,
};
use bitline_workloads::suite;

struct Args {
    benchmark: String,
    node: TechnologyNode,
    /// The spec flags applied over the front-end default.
    spec: SystemSpec,
    run_budget: Option<Duration>,
    checkpoint: Option<PathBuf>,
    no_resume: bool,
    list: bool,
    metrics: Option<PathBuf>,
    metrics_summary: bool,
    validate_metrics: Option<PathBuf>,
    experiment: Option<&'static Experiment>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        benchmark: "gcc".into(),
        node: TechnologyNode::N70,
        spec: spec::front_end_default(),
        run_budget: None,
        checkpoint: None,
        no_resume: false,
        list: false,
        metrics: None,
        metrics_summary: false,
        validate_metrics: None,
        experiment: None,
    };
    let mut spec_values = spec::Assignments::default();
    // The single-run flags given, which no experiment takes.
    let mut run_flags = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        if spec_values.flag(&flag, || value(&flag))? {
            continue;
        }
        match flag.as_str() {
            "--benchmark" | "-b" => {
                args.benchmark = value(&flag)?;
                run_flags.push("--benchmark");
            }
            "--node" | "-n" => {
                args.node = value(&flag)?.parse().map_err(|e| format!("{e}"))?;
                run_flags.push("--node");
            }
            "--run-budget" => {
                args.run_budget = Some(supervise::parse_budget(&value(&flag)?)?);
            }
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value(&flag)?)),
            "--no-resume" => args.no_resume = true,
            "--jobs" | "-j" => {
                let n = bitline_exec::pool::parse_jobs_value(&value(&flag)?)
                    .map_err(|e| format!("--jobs: {e}"))?;
                bitline_exec::pool::set_jobs(n);
            }
            "--metrics" => args.metrics = Some(PathBuf::from(value(&flag)?)),
            "--metrics-summary" => args.metrics_summary = true,
            "--validate-metrics" => args.validate_metrics = Some(PathBuf::from(value(&flag)?)),
            "--list" | "-l" => args.list = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            cmd => {
                let Some(e) = experiments::find(cmd) else {
                    return Err(format!("unknown flag `{cmd}` (see --help)"));
                };
                if let Some(prev) = args.experiment {
                    return Err(format!("one experiment at a time (`{}` then `{cmd}`)", prev.name));
                }
                args.experiment = Some(e);
            }
        }
    }
    args.spec = spec_values.apply(spec::front_end_default())?;
    if let Some(e) = args.experiment {
        if let Some(field) = spec_values.fields().find(|f| !e.takes.contains(&f.key)) {
            return Err(format!(
                "`{}` does not take {}: the experiment sets that field itself",
                e.name, field.flag
            ));
        }
        if let Some(flag) = run_flags.first() {
            return Err(format!(
                "`{}` does not take {flag}: experiments choose their own benchmarks \
                 (BITLINE_SUITE) and nodes",
                e.name
            ));
        }
    }
    Ok(args)
}

fn print_help() {
    println!("bitline-sim — gated-precharging full-system simulator");
    println!();
    println!("USAGE: bitline-sim [OPTIONS]");
    println!();
    println!("  -b, --benchmark NAME    benchmark or `all` (default gcc)");
    println!("  -n, --node NODE         180nm | 130nm | 100nm | 70nm (default 70nm)");
    print!("{}", spec::help());
    println!("      --run-budget DUR    wall-clock budget per run, e.g. 500ms, 30s, 2m");
    println!("                          (default unbounded); timed-out runs are retried");
    println!("                          once at twice the budget");
    println!("      --checkpoint DIR    append finished runs to DIR/runs.journal and replay");
    println!("                          them on the next invocation (crash-safe resume)");
    println!("      --no-resume         keep journaling but ignore any existing journal");
    println!("  -j, --jobs N            worker threads for `all` and experiments (default:");
    println!("                          available parallelism)");
    println!("      --metrics PATH      write the run's observability metrics (counters,");
    println!("                          histograms, spans) to PATH as JSON lines");
    println!("      --metrics-summary   print the metrics as a table on stderr at exit");
    println!("      --validate-metrics F  validate a previously written metrics file");
    println!("                          against the bitline-obs/v1 schema and exit");
    println!("  -l, --list              list benchmarks and exit");
    println!();
    println!("EXPERIMENTS (positional; BITLINE_INSTRS instructions per run, BITLINE_SUITE");
    println!("restricts the benchmark set; stdout is the experiment's .dat file):");
    for e in &experiments::ALL {
        println!("  {:<22}  {}", e.name, e.about);
    }
    println!();
    println!("RETIRED VARIABLES (set, one stops bitline-sim before any run; pass its flag):");
    for (var, flag) in bitline_sim::RETIRED_ENV {
        println!("  {var:<22}  {flag}");
    }
}

/// A level's one-line summary of one of its optional reports.
type Summary = fn(&LevelRun) -> Option<String>;

/// Runs one benchmark and renders its report. Returning the text (rather
/// than printing directly) lets the `all` mode run benchmarks on the work
/// pool and still print reports in suite order.
fn run_one(name: &str, args: &Args) -> Result<String, SimError> {
    let spec = args.spec;
    // Both runs read the benchmark's stream in lockstep through one
    // window, so the trace held stays flat however long the runs.
    let [run, baseline]: [RunResult; 2] =
        try_run_lockstep_cached(name, &[spec, spec.static_baseline()])?
            .try_into()
            .expect("one result per spec");
    let (policy, base) = run.energy(args.node);

    let mut out = String::new();
    let _ = writeln!(out, "== {name} @ {} ==", args.node);
    let _ = writeln!(
        out,
        "  cycles {:>10}   IPC {:.2}   slowdown vs static {:+.2}%",
        run.cycles(),
        run.stats.ipc(),
        100.0 * run.slowdown_vs(&baseline)
    );
    for (level, policy, base) in [(run.l1d(), policy.d, base.d), (run.l1i(), policy.i, base.i)] {
        let _ = writeln!(
            out,
            "  {}: miss {:>5.1}%  precharged {:>5.1}%  discharge {:>5.3}x  energy saved {:>5.1}%",
            level.level.label().to_uppercase(),
            100.0 * level.miss_ratio(),
            100.0 * level.report.precharged_fraction(),
            policy.relative_discharge(&base),
            100.0 * policy.overall_reduction(&base),
        );
    }
    let _ = writeln!(
        out,
        "  replays {:>6}  mispredict rate {:>5.2}%  delayed D accesses {:>5.2}%",
        run.stats.replays,
        100.0 * run.stats.mispredict_rate(),
        100.0 * run.l1d().report.delayed_fraction(),
    );
    let summaries: [(&str, Summary); 3] = [
        ("faults", |l| l.faults.as_ref().map(|r| r.summary())),
        ("ECC", |l| l.reliability.as_ref().map(|r| r.summary())),
        ("Vdd", |l| l.vdd.as_ref().map(|r| r.summary())),
    ];
    for (name, summary) in summaries {
        for level in &run.levels {
            if let Some(text) = summary(level) {
                let _ = writeln!(out, "  {name} {}: {text}", level.level.label().to_uppercase());
            }
        }
    }
    let mode = spec.hierarchy.leakage_mode;
    for level in run.levels.iter().filter(|l| matches!(l.level, Level::L2 | Level::L3)) {
        let Some(energy) = run.level_energy(level.level, args.node, mode) else { continue };
        let _ = writeln!(
            out,
            "  {}: miss {:>5.1}%  writebacks {:>6}  energy {:.3e} J  ({} cells)",
            level.level.label().to_uppercase(),
            100.0 * level.miss_ratio(),
            level.writebacks,
            energy.total_j(),
            mode.label(),
        );
    }
    Ok(out)
}

/// Flushes observability output per the CLI flags: the JSONL file
/// (written atomically) and/or the stderr summary table. Runs after all
/// stdout rows, so figure output stays byte-identical with metrics on or
/// off.
fn flush_metrics(args: &Args) {
    if let Some(path) = &args.metrics {
        if let Err(e) = bitline_sim::metrics::write_metrics(path) {
            eprintln!("warning: {e}");
        }
    }
    if args.metrics_summary {
        eprint!("{}", bitline_obs::summary_table());
    }
}

/// Validates a previously written metrics file against the
/// `bitline-obs/v1` schema, printing the record tally on success.
fn validate_metrics(path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match bitline_obs::validate_jsonl(&text) {
        Ok(report) => {
            println!("{}: valid ({report})", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Arms run supervision from the flags, after checking the environment.
fn arm_supervision(args: &Args) -> Result<(), String> {
    bitline_sim::reject_retired_env()?;
    bitline_sim::init_supervision_from_env()?;
    supervise::set_run_budget(args.run_budget);
    if let Some(dir) = &args.checkpoint {
        set_checkpoint(dir, !args.no_resume)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.validate_metrics {
        return validate_metrics(path);
    }
    if args.list {
        for spec in suite::all() {
            println!(
                "{:>10}  {:?}  footprint {:>7} KB  code {:>4} KB",
                spec.name,
                spec.suite,
                spec.footprint_bytes / 1024,
                spec.code_bytes() / 1024
            );
        }
        return ExitCode::SUCCESS;
    }
    if let Err(e) = arm_supervision(&args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(e) = args.experiment {
        // The drivers isolate and retry per unit of work themselves; an
        // error here means the whole suite failed.
        let result = (e.run)(bitline_sim::default_instructions(), &args.spec);
        eprintln!("{}", exec_summary_line());
        flush_metrics(&args);
        return match result {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("error: bitline-sim: {}: {err}", e.name);
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = args.spec.validate() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if args.benchmark == "all" {
        // Fan the suite out over the work pool; reports come back in suite
        // order so the output is identical whatever the job count. A suite
        // with some timed-out or failed benchmarks still succeeds (with a
        // stderr warning); only an empty suite is a failure.
        let names = suite::names();
        let reports = harness::map_names("bitline-sim", &names, |name| run_one(name, &args));
        eprintln!("{}", exec_summary_line());
        flush_metrics(&args);
        match reports {
            Ok(reports) => {
                for report in reports {
                    print!("{report}");
                }
                ExitCode::SUCCESS
            }
            Err(_) => ExitCode::FAILURE,
        }
    } else {
        let result =
            harness::isolated(&args.benchmark, args.run_budget, || run_one(&args.benchmark, &args));
        eprintln!("{}", exec_summary_line());
        flush_metrics(&args);
        match result {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(skip) => {
                eprintln!("error: bitline-sim: {skip}");
                ExitCode::FAILURE
            }
        }
    }
}
