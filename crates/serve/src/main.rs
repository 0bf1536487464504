//! `bitline-serve` — daemon and client in one binary.
//!
//! Daemon mode (`--serve`) listens on a unix socket (TCP optional) and
//! serves experiment requests; without `--serve` the binary is a thin
//! client that connects to the socket, submits request lines (from
//! `--request` arguments or stdin), and prints one response line per
//! request:
//!
//! ```sh
//! bitline-serve --serve --socket /tmp/bl.sock --checkpoint ckpt --jobs 2 &
//! bitline-serve --socket /tmp/bl.sock \
//!   --request '{"id":"r1","benchmark":"gcc","spec":{"instructions":4000}}'
//! bitline-serve --socket /tmp/bl.sock --stats
//! bitline-serve --socket /tmp/bl.sock --drain
//! ```

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bitline_cmos::TechnologyNode;
use bitline_serve::{production_runner, signal, ServeConfig, Server};
use bitline_sim::supervise;

struct Args {
    serve: bool,
    socket: PathBuf,
    tcp: Option<String>,
    queue_depth: usize,
    conn_queue_depth: usize,
    request_budget: Option<Duration>,
    workers: usize,
    node: TechnologyNode,
    checkpoint: Option<PathBuf>,
    no_resume: bool,
    requests: Vec<String>,
    stats: bool,
    drain: bool,
    ping: bool,
    metrics: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            serve: false,
            socket: PathBuf::from("bitline-serve.sock"),
            tcp: None,
            queue_depth: 64,
            conn_queue_depth: 64,
            request_budget: None,
            workers: 0,
            node: TechnologyNode::N70,
            checkpoint: None,
            no_resume: false,
            requests: Vec::new(),
            stats: false,
            drain: false,
            ping: false,
            metrics: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--serve" => args.serve = true,
            "--socket" => args.socket = PathBuf::from(value(&flag)?),
            "--tcp" => args.tcp = Some(value(&flag)?),
            "--queue-depth" => {
                let n: usize = value(&flag)?.parse().map_err(|_| "bad queue depth".to_owned())?;
                if n == 0 {
                    return Err("--queue-depth 0 would shed every request; use at least 1".into());
                }
                args.queue_depth = n;
            }
            "--conn-queue-depth" => {
                let n: usize =
                    value(&flag)?.parse().map_err(|_| "bad connection queue depth".to_owned())?;
                if n == 0 {
                    return Err(
                        "--conn-queue-depth 0 would disconnect on the first response; use at least 1"
                            .into(),
                    );
                }
                args.conn_queue_depth = n;
            }
            "--request-budget" => {
                args.request_budget = Some(
                    supervise::parse_budget(&value(&flag)?)
                        .map_err(|e| format!("--request-budget: {e}"))?,
                );
            }
            "--jobs" | "-j" => {
                args.workers = bitline_exec::pool::parse_jobs_value(&value(&flag)?)
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--node" | "-n" => {
                args.node = value(&flag)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value(&flag)?)),
            "--no-resume" => args.no_resume = true,
            "--request" => args.requests.push(value(&flag)?),
            "--stats" => args.stats = true,
            "--drain" => args.drain = true,
            "--ping" => args.ping = true,
            "--metrics" => args.metrics = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn print_help() {
    println!("bitline-serve — crash-tolerant simulation daemon (and its client)");
    println!();
    println!("DAEMON:  bitline-serve --serve --socket PATH [flags]");
    println!("  --socket PATH           unix socket to listen on (default bitline-serve.sock)");
    println!("  --tcp ADDR              additionally listen on a TCP address");
    println!("  --queue-depth N         bound on queued requests before shedding (default 64)");
    println!("  --conn-queue-depth N    per-connection response queue bound; a reader that");
    println!("                          falls this far behind is disconnected (default 64)");
    println!("  --request-budget DUR    default per-request deadline (e.g. 250ms, 2s)");
    println!("  -j, --jobs N            worker threads (default: all cores)");
    println!("  -n, --node NODE         pricing node: 180nm|130nm|100nm|70nm (default 70nm)");
    println!("  --checkpoint DIR        crash-safe journal dir; restart answers warm");
    println!("  --no-resume             start the checkpoint journal afresh");
    println!("  retired variables (set, one stops the daemon before it listens; pass its flag):");
    for (var, flag) in bitline_sim::RETIRED_ENV {
        println!("    {var:<20}  {flag}");
    }
    println!();
    println!(
        "CLIENT:  bitline-serve --socket PATH [--request JSON]... [--stats|--drain|--ping|--metrics]"
    );
    println!("  reads request lines from stdin when no request-producing flag is given;");
    println!("  prints one response line per request (completion order, correlate by id);");
    println!("  --metrics prints the daemon's observability export as raw JSONL");
    println!();
    println!("PROTOCOL: one JSON object per line; see DESIGN.md \"Serving\".");
    println!("  SIGTERM drains: admission closes, in-flight runs finish, exit 0.");
    println!("  SIGKILL is safe: completed runs are journaled before the response is sent.");
}

fn run_daemon(args: &Args) -> Result<(), String> {
    bitline_sim::reject_retired_env()?;
    // Arm BITLINE_FAILPOINTS now so a malformed spec fails at startup.
    bitline_failpoint::init_from_env()?;
    if let Some(dir) = &args.checkpoint {
        let stats = bitline_sim::set_checkpoint(dir, !args.no_resume)
            .map_err(|e| format!("--checkpoint: {e}"))?;
        eprintln!(
            "bitline-serve: checkpoint armed ({} replayed, {} quarantined)",
            stats.replayed, stats.quarantined
        );
    }
    signal::install_sigterm();
    let config = ServeConfig {
        socket: args.socket.clone(),
        tcp: args.tcp.clone(),
        queue_depth: args.queue_depth,
        conn_queue_depth: args.conn_queue_depth,
        request_budget: args.request_budget,
        workers: args.workers,
        node: args.node,
        ..ServeConfig::default()
    };
    eprintln!(
        "bitline-serve: listening on {}{}",
        config.socket.display(),
        config.tcp.as_deref().map(|a| format!(" and tcp {a}")).unwrap_or_default()
    );
    let server = Server::new(config, production_runner(args.node));
    server.run().map_err(|e| format!("serve: {e}"))?;
    eprintln!("bitline-serve: drained; exiting");
    Ok(())
}

fn run_client(args: &Args) -> Result<(), String> {
    let mut lines: Vec<String> = args.requests.clone();
    if args.stats {
        lines.push(r#"{"id":"stats","op":"stats"}"#.to_owned());
    }
    if args.ping {
        lines.push(r#"{"id":"ping","op":"ping"}"#.to_owned());
    }
    if args.drain {
        lines.push(r#"{"id":"drain","op":"drain"}"#.to_owned());
    }
    if args.metrics {
        lines.push(r#"{"id":"metrics","op":"metrics"}"#.to_owned());
    }
    if lines.is_empty() {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| format!("stdin: {e}"))?;
            if !line.trim().is_empty() {
                lines.push(line);
            }
        }
    }
    if lines.is_empty() {
        return Err(
            "nothing to send (use --request, --stats, --drain, --ping, --metrics or stdin)".into(),
        );
    }
    let stream = UnixStream::connect(&args.socket)
        .map_err(|e| format!("connect {}: {e}", args.socket.display()))?;
    let mut writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
    for line in &lines {
        writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        writer.write_all(b"\n").map_err(|e| format!("send: {e}"))?;
    }
    writer.flush().map_err(|e| format!("send: {e}"))?;
    let reader = BufReader::new(stream);
    let mut received = 0usize;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("recv: {e}"))?;
        // A `metrics` response carries the whole JSONL export as one
        // escaped string; print it raw so the output pipes straight into
        // JSONL tooling.
        match metrics_payload(&line) {
            Some(jsonl) => print!("{jsonl}"),
            None => println!("{line}"),
        }
        received += 1;
        if received == lines.len() {
            return Ok(());
        }
    }
    Err(format!("connection closed after {received}/{} responses", lines.len()))
}

/// Extracts the unescaped `metrics_jsonl` payload from a `metrics`
/// response line, or `None` for every other response shape.
fn metrics_payload(line: &str) -> Option<String> {
    let value = bitline_obs::json::parse(line).ok()?;
    let obj = bitline_obs::json::as_object(&value).ok()?;
    bitline_obs::json::get_str(obj, "metrics_jsonl").ok().map(str::to_owned)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bitline-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.serve { run_daemon(&args) } else { run_client(&args) };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bitline-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
