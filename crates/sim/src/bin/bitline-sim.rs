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
//! A positional experiment command (`headline`, `fig3`, `fig8`, `fig9`,
//! `fig10`, `ondemand`) runs the corresponding paper figure driver
//! instead of a single benchmark; `--metrics PATH` (or `BITLINE_METRICS`)
//! additionally writes the run's observability counters, histograms and
//! spans as JSON lines, and `--metrics-summary` prints them as a table.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bitline_cmos::TechnologyNode;
use bitline_sim::experiments::harness;
use bitline_sim::{
    exec_summary_line, set_checkpoint, spec, supervise, try_run_benchmark_cached, FaultSpec,
    HierarchySpec, PolicyKind, SimError, SystemSpec, VddSpec,
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
    experiment: Option<String>,
}

/// The positional experiment commands, in help order.
const EXPERIMENTS: &[&str] = &[
    "headline",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "ondemand",
    "reliability",
    "hierarchy",
    "voltage",
];

/// The spec fields each experiment takes from the command line. Every
/// experiment simulates its own specs, so any other spec flag would be
/// silently ignored; it is rejected instead.
fn honoured_fields(experiment: &str) -> &'static [&'static str] {
    match experiment {
        "reliability" => &["fault_rate", "fault_seed", "scrub_period"],
        _ => &[],
    }
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
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        if spec_values.flag(&flag, || value(&flag))? {
            continue;
        }
        match flag.as_str() {
            "--benchmark" | "-b" => args.benchmark = value(&flag)?,
            "--node" | "-n" => {
                args.node = value(&flag)?.parse().map_err(|e| format!("{e}"))?;
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
            cmd if EXPERIMENTS.contains(&cmd) => {
                if let Some(prev) = &args.experiment {
                    return Err(format!("one experiment at a time (`{prev}` then `{cmd}`)"));
                }
                args.experiment = Some(cmd.to_owned());
            }
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    args.spec = spec_values.apply(spec::front_end_default())?;
    if let Some(cmd) = &args.experiment {
        if let Some(field) = spec_values.fields().find(|f| !honoured_fields(cmd).contains(&f.key)) {
            return Err(format!(
                "`{cmd}` does not take {}: the experiment sets that field itself",
                field.flag
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
    println!("                          (default: BITLINE_RUN_BUDGET env, else unbounded);");
    println!("                          timed-out runs are retried once at twice the budget");
    println!("      --checkpoint DIR    append finished runs to DIR/runs.journal and replay");
    println!("                          them on the next invocation (crash-safe resume)");
    println!("      --no-resume         keep journaling but ignore any existing journal");
    println!("  -j, --jobs N            worker threads for `all` (default: BITLINE_JOBS");
    println!("                          env, else available parallelism)");
    println!("      --metrics PATH      write the run's observability metrics (counters,");
    println!("                          histograms, spans) to PATH as JSON lines;");
    println!("                          BITLINE_METRICS env does the same");
    println!("      --metrics-summary   print the metrics as a table on stderr at exit");
    println!("      --validate-metrics F  validate a previously written metrics file");
    println!("                          against the bitline-obs/v1 schema and exit");
    println!("  -l, --list              list benchmarks and exit");
    println!();
    println!("EXPERIMENTS (positional): headline | fig3 | fig8 | fig9 | fig10 | ondemand |");
    println!("  reliability | hierarchy | voltage");
    println!("  runs the paper-figure driver over the suite (BITLINE_INSTRS instructions");
    println!("  per run, BITLINE_SUITE restricts the benchmark set)");
}

/// Runs one benchmark and renders its report. Returning the text (rather
/// than printing directly) lets the `all` mode run benchmarks on the work
/// pool and still print reports in suite order.
fn run_one(name: &str, args: &Args) -> Result<String, SimError> {
    let spec = args.spec;
    // The slowdown/energy reference is the clean static-pull-up machine:
    // faults model leakage upsets in *gated* bitlines, so the baseline
    // runs fault-free, single-level, at full Vdd.
    let baseline_spec = SystemSpec {
        d_policy: PolicyKind::StaticPullUp,
        i_policy: PolicyKind::StaticPullUp,
        faults: FaultSpec { rate: 0.0, ..spec.faults },
        hierarchy: HierarchySpec::default(),
        vdd: VddSpec::nominal(),
        ..spec
    };
    let run = try_run_benchmark_cached(name, &spec)?;
    let baseline = try_run_benchmark_cached(name, &baseline_spec)?;
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
    let _ = writeln!(
        out,
        "  D: miss {:>5.1}%  precharged {:>5.1}%  discharge {:>5.3}x  energy saved {:>5.1}%",
        100.0 * run.d_miss_ratio(),
        100.0 * run.d_report.precharged_fraction(),
        policy.d.relative_discharge(&base.d),
        100.0 * policy.d.overall_reduction(&base.d),
    );
    let _ = writeln!(
        out,
        "  I: miss {:>5.1}%  precharged {:>5.1}%  discharge {:>5.3}x  energy saved {:>5.1}%",
        100.0 * run.i_miss_ratio(),
        100.0 * run.i_report.precharged_fraction(),
        policy.i.relative_discharge(&base.i),
        100.0 * policy.i.overall_reduction(&base.i),
    );
    let _ = writeln!(
        out,
        "  replays {:>6}  mispredict rate {:>5.2}%  delayed D accesses {:>5.2}%",
        run.stats.replays,
        100.0 * run.stats.mispredict_rate(),
        100.0 * run.d_report.delayed_fraction(),
    );
    if let (Some(d), Some(i)) = (&run.d_faults, &run.i_faults) {
        let _ = writeln!(out, "  faults D: {}", d.summary());
        let _ = writeln!(out, "  faults I: {}", i.summary());
    }
    if let (Some(d), Some(i)) = (&run.d_reliability, &run.i_reliability) {
        let _ = writeln!(out, "  ECC D: {}", d.summary());
        let _ = writeln!(out, "  ECC I: {}", i.summary());
    }
    if let (Some(d), Some(i)) = (&run.d_vdd, &run.i_vdd) {
        let _ = writeln!(out, "  Vdd D: {}", d.summary());
        let _ = writeln!(out, "  Vdd I: {}", i.summary());
    }
    if let Some((_, _, writebacks)) = run.l2_traffic {
        let l2 = run.l2_energy(args.node, spec.hierarchy.leakage_mode).map_or(0.0, |b| b.total_j());
        let _ = writeln!(
            out,
            "  L2: miss {:>5.1}%  writebacks {:>6}  energy {:.3e} J  ({} cells)",
            100.0 * run.l2_miss_ratio().unwrap_or(0.0),
            writebacks,
            l2,
            spec.hierarchy.leakage_mode.label(),
        );
    }
    if let Some((hits, misses, writebacks)) = run.l3_traffic {
        let l3 = run.l3_energy(args.node, spec.hierarchy.leakage_mode).map_or(0.0, |b| b.total_j());
        let _ = writeln!(
            out,
            "  L3: miss {:>5.1}%  writebacks {:>6}  energy {:.3e} J  ({} cells)",
            100.0 * misses as f64 / (hits + misses).max(1) as f64,
            writebacks,
            l3,
            spec.hierarchy.leakage_mode.label(),
        );
    }
    Ok(out)
}

/// Runs one positional experiment command and renders its rows. Each arm
/// prints the same columns its `.dat` export carries, so the text output
/// is greppable against the exported figure data.
fn run_experiment(cmd: &str, faults: &FaultSpec) -> Result<String, SimError> {
    use bitline_sim::experiments::{
        fig10, fig3, fig8, fig9, headline, hierarchy, ondemand, reliability, voltage,
    };
    let instrs = bitline_sim::default_instructions();
    let mut out = String::new();
    match cmd {
        "headline" => {
            let h = headline::run(instrs)?;
            let _ = writeln!(out, "== headline @ 70nm ({instrs} instructions/run) ==");
            let _ = writeln!(
                out,
                "  discharge reduction  D {:5.1}%  I {:5.1}%",
                100.0 * h.d_discharge_reduction,
                100.0 * h.i_discharge_reduction
            );
            let _ = writeln!(
                out,
                "  overall reduction    D {:5.1}%  I {:5.1}%",
                100.0 * h.d_overall_reduction,
                100.0 * h.i_overall_reduction
            );
            let _ = writeln!(
                out,
                "  slowdown             D {:5.2}%  I {:5.2}%",
                100.0 * h.d_slowdown,
                100.0 * h.i_slowdown
            );
            let _ = writeln!(
                out,
                "  precharged fraction  D {:5.1}%  I {:5.1}%",
                100.0 * h.d_precharged,
                100.0 * h.i_precharged
            );
            let _ = writeln!(
                out,
                "  cache share of processor energy {:4.1}%  replay overhead {:5.2}%",
                100.0 * h.cache_fraction_of_processor,
                100.0 * h.replay_overhead
            );
        }
        "fig3" => {
            let (rows, avg) = fig3::run(instrs)?;
            let _ = writeln!(out, "# benchmark  d_relative_discharge  i_relative_discharge");
            for r in rows.iter().chain(std::iter::once(&avg)) {
                let _ = writeln!(out, "{} {:.5} {:.5}", r.benchmark, r.d_relative, r.i_relative);
            }
        }
        "fig8" => {
            let (rows, summary) = fig8::run(instrs)?;
            let _ = writeln!(
                out,
                "# benchmark  d_precharged d_discharge d_thr  i_precharged i_discharge i_thr"
            );
            for r in rows.iter().chain(std::iter::once(&summary.avg)) {
                let _ = writeln!(
                    out,
                    "{} {:.5} {:.5} {} {:.5} {:.5} {}",
                    r.benchmark,
                    r.d_precharged,
                    r.d_discharge,
                    r.d_threshold,
                    r.i_precharged,
                    r.i_discharge,
                    r.i_threshold
                );
            }
            let _ = writeln!(
                out,
                "# const-100 discharge: D {:.5}  I {:.5}",
                summary.const_d_discharge, summary.const_i_discharge
            );
        }
        "fig9" => {
            let rows = fig9::run(instrs)?;
            let _ = writeln!(out, "# feature_nm  gated_d  gated_i  resizable_d  resizable_i");
            for r in rows {
                let _ = writeln!(
                    out,
                    "{} {:.5} {:.5} {:.5} {:.5}",
                    r.node.feature_nm(),
                    r.gated_d,
                    r.gated_i,
                    r.resizable_d,
                    r.resizable_i
                );
            }
        }
        "fig10" => {
            let rows = fig10::run(instrs)?;
            let _ = writeln!(out, "# subarray_bytes  d_precharged  i_precharged");
            for r in rows {
                let _ = writeln!(
                    out,
                    "{} {:.5} {:.5}",
                    r.subarray_bytes, r.d_precharged, r.i_precharged
                );
            }
        }
        "ondemand" => {
            let (rows, avg) = ondemand::run(instrs)?;
            let _ = writeln!(out, "# benchmark  d_slowdown  i_slowdown");
            for r in rows.iter().chain(std::iter::once(&avg)) {
                let _ = writeln!(out, "{} {:.5} {:.5}", r.benchmark, r.d_slowdown, r.i_slowdown);
            }
        }
        "reliability" => {
            let rows = reliability::run(instrs, faults)?;
            let _ = writeln!(
                out,
                "# feature_nm  policy  protection  corrected_per_mi  due_per_mi  \
                 sdc_per_mi  energy_overhead  fail_safe_subarrays"
            );
            for r in rows {
                let _ = writeln!(
                    out,
                    "{} {} {} {:.5} {:.5} {:.5} {:.5} {}",
                    r.node.feature_nm(),
                    r.policy,
                    r.protection.label(),
                    r.corrected_per_mi,
                    r.due_per_mi,
                    r.sdc_per_mi,
                    r.energy_overhead,
                    r.fail_safe_subarrays
                );
            }
        }
        "hierarchy" => {
            let rows = hierarchy::run(instrs)?;
            let _ = writeln!(
                out,
                "# feature_nm  levels  mode  l2_miss_ratio  l1_j  l2_j  l3_j  total_j  \
                 vs_full_vdd"
            );
            for r in rows {
                let _ = writeln!(
                    out,
                    "{} {} {} {:.5} {:.6e} {:.6e} {:.6e} {:.6e} {:.5}",
                    r.node.feature_nm(),
                    r.levels,
                    r.mode.label(),
                    r.l2_miss_ratio,
                    r.l1_energy_j,
                    r.l2_energy_j,
                    r.l3_energy_j,
                    r.total_j,
                    r.vs_full_vdd
                );
            }
        }
        "voltage" => {
            let rows = voltage::run(instrs)?;
            let _ = writeln!(
                out,
                "# feature_nm  vdd_scale  mode  p_upset  energy_per_access_j  vs_nominal  \
                 replay_overhead  sdc_per_mi  escalations  pinned"
            );
            for r in rows {
                let _ = writeln!(
                    out,
                    "{} {:.2} {} {:.5} {:.6e} {:.5} {:.5} {:.5} {} {}",
                    r.node.feature_nm(),
                    r.vdd_scale,
                    if r.governed { "governor" } else { "static" },
                    r.p_upset,
                    r.energy_per_access_j,
                    r.energy_vs_nominal,
                    r.replay_overhead,
                    r.sdc_per_mi,
                    r.escalations,
                    r.pinned_subarrays
                );
            }
        }
        other => return Err(SimError::InvalidSpec(format!("unknown experiment `{other}`"))),
    }
    Ok(out)
}

/// Flushes observability output per the CLI flags and `BITLINE_METRICS`:
/// the JSONL file (written atomically) and/or the stderr summary table.
/// Runs after all stdout rows, so figure output stays byte-identical with
/// metrics on or off.
fn flush_metrics(args: &Args) {
    if let Some(path) = &args.metrics {
        if let Err(e) = bitline_sim::metrics::write_metrics(path) {
            eprintln!("warning: {e}");
        }
    } else {
        bitline_sim::metrics::write_metrics_from_env();
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

/// Arms run supervision from the environment, then lets CLI flags win.
fn arm_supervision(args: &Args) -> Result<(), String> {
    bitline_sim::init_supervision_from_env()?;
    if args.run_budget.is_some() {
        supervise::set_run_budget(args.run_budget);
    }
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
    if let Some(cmd) = &args.experiment {
        // The drivers isolate and retry per unit of work themselves; an
        // error here means the whole suite failed.
        let result = run_experiment(cmd, &args.spec.faults);
        eprintln!("{}", exec_summary_line());
        flush_metrics(&args);
        return match result {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: bitline-sim: {cmd}: {e}");
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
        let outcome = harness::map_names(&names, |name| run_one(name, &args));
        outcome.report_skipped("bitline-sim");
        eprintln!("{}", exec_summary_line());
        flush_metrics(&args);
        match outcome.rows_or_error("bitline-sim") {
            Ok(reports) => {
                for report in reports {
                    print!("{report}");
                }
                ExitCode::SUCCESS
            }
            Err(_) => ExitCode::FAILURE,
        }
    } else {
        let result = harness::isolated(&args.benchmark, || run_one(&args.benchmark, &args));
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
