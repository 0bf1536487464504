//! The daemon: listeners, connection readers, and the worker pool.
//!
//! One thread per listener blocks in `accept`, so a new connection is
//! served the moment it arrives; one thread per connection reads request
//! lines and runs admission; a fixed pool of worker threads drains the
//! queue. Every accepted request reaches exactly one terminal response
//! because the worker that pops a job always completes it: the run itself
//! is wrapped in `harness::isolated_supervised`, so a panicking or
//! timed-out run comes back as a value (`error` / `timeout`), never as a
//! dead worker.
//!
//! Crash tolerance is inherited rather than reimplemented: the production
//! runner goes through `bitline_sim::try_run_benchmark_cached`, which
//! appends each completed run to the crash-safe `exec::journal` *inside*
//! the cache fill — before this module ever sees the result, and
//! therefore strictly before the response line is written. SIGKILL at any
//! point loses at most work in flight, never a journaled answer; the
//! restarted daemon replays the journal into a warm cache and answers
//! repeats without recomputing.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bitline_cmos::TechnologyNode;
use bitline_exec::CancelToken;
use bitline_failpoint::Action;
use bitline_obs::{counter, gauge, histo};
use bitline_sim::experiments::harness;
use bitline_sim::{checkpoint, SimError, SystemSpec};

use crate::admission::{Admission, Offer, ServeStats, ShedNotice, Subscriber};
use crate::conn::{ConnHandle, ShutdownFn};
use crate::protocol::{self, Request, RunRow};

/// How the run itself is performed. Injectable so the daemon's robustness
/// ladder is testable with deterministic runners (panicking, sleeping,
/// token-polling); production uses [`production_runner`].
pub type Runner = Arc<dyn Fn(&str, &SystemSpec) -> Result<RunRow, SimError> + Send + Sync>;

/// The production runner: the memoized, journaled cache entry point,
/// priced at `node`. The journal append happens inside the cache fill, so
/// a result returned here is already durable.
#[must_use]
pub fn production_runner(node: TechnologyNode) -> Runner {
    Arc::new(move |benchmark, spec| {
        bitline_sim::try_run_benchmark_cached(benchmark, spec)
            .map(|run| RunRow::from_result(&run, node))
    })
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Optional TCP listen address (e.g. `127.0.0.1:4117`).
    pub tcp: Option<String>,
    /// Bound on the pending-job queue; beyond it, requests shed.
    pub queue_depth: usize,
    /// Default per-request wall-clock budget when a request carries no
    /// `deadline_ms`.
    pub request_budget: Option<Duration>,
    /// Worker threads draining the queue (0 = the exec pool's job count).
    pub workers: usize,
    /// Technology node responses are priced at.
    pub node: TechnologyNode,
    /// Bound on each connection's queued-response lines; a reader slow
    /// enough to overflow it is disconnected rather than absorbed.
    pub conn_queue_depth: usize,
    /// Prefix for connection labels (`<prefix>-<seq>`), which tag the
    /// `serve.conn.*` failpoints. Tests give each server a unique prefix
    /// so armed points hit exactly one server's connections.
    pub conn_label: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: PathBuf::from("bitline-serve.sock"),
            tcp: None,
            queue_depth: 64,
            request_budget: None,
            workers: 0,
            node: TechnologyNode::N70,
            conn_queue_depth: 64,
            conn_label: "conn".to_owned(),
        }
    }
}

/// Shared per-server context handed to connection readers and workers.
struct Ctx {
    admission: Arc<Admission>,
    stats: Arc<ServeStats>,
    drain: Arc<AtomicBool>,
    request_budget: Option<Duration>,
    conn_queue_depth: usize,
    conn_label: String,
    /// The next connection's number, counted across listeners.
    conn_seq: AtomicU64,
}

/// The daemon. Construct with [`Server::new`], then [`Server::run`] —
/// which returns only after a drain (SIGTERM or the `drain` op) has been
/// honoured: admission closed, queue emptied, in-flight runs finished.
pub struct Server {
    config: ServeConfig,
    runner: Runner,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Builds a server over `runner` (not yet listening).
    #[must_use]
    pub fn new(config: ServeConfig, runner: Runner) -> Server {
        declare_metrics();
        let workers = if config.workers == 0 { bitline_exec::pool::jobs() } else { config.workers };
        let stats = Arc::new(ServeStats::default());
        let admission = Admission::new(config.queue_depth, workers, Arc::clone(&stats));
        let request_budget = config.request_budget;
        let config = ServeConfig { workers, ..config };
        Server {
            runner,
            ctx: Arc::new(Ctx {
                admission,
                stats,
                drain: Arc::new(AtomicBool::new(false)),
                request_budget,
                conn_queue_depth: config.conn_queue_depth,
                conn_label: config.conn_label.clone(),
                conn_seq: AtomicU64::new(0),
            }),
            config,
        }
    }

    /// The per-instance serving counters (shared with the `stats` op).
    #[must_use]
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.ctx.stats)
    }

    /// A handle that, once set, makes [`Server::run`] begin draining.
    /// SIGTERM (via [`crate::signal`]) and the protocol `drain` op share
    /// this latch.
    #[must_use]
    pub fn drain_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.ctx.drain)
    }

    /// Binds the listeners, serves until drained, and returns after the
    /// last in-flight run has been answered. The socket file is removed
    /// on the way out.
    ///
    /// # Errors
    ///
    /// Any I/O error binding the unix socket or the optional TCP address.
    pub fn run(self) -> io::Result<()> {
        let ctx = Arc::clone(&self.ctx);
        let _ = std::fs::remove_file(&self.config.socket);
        let unix = UnixListener::bind(&self.config.socket)?;
        let tcp = self.config.tcp.as_deref().map(TcpListener::bind).transpose()?;
        let tcp_addr = tcp.as_ref().map(TcpListener::local_addr).transpose()?;

        let workers: Vec<_> = (0..self.config.workers)
            .map(|w| {
                let ctx = Arc::clone(&ctx);
                let runner = Arc::clone(&self.runner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&ctx, &runner))
                    .expect("spawn serve worker")
            })
            .collect();

        let socket = self.config.socket.clone();
        let mut acceptors = vec![Acceptor::spawn(
            "unix",
            move || unix.accept().map(|(stream, _)| stream),
            accept_unix,
            Box::new(move || UnixStream::connect(&socket).map(drop)),
            &ctx,
        )];
        if let (Some(tcp), Some(addr)) = (tcp, tcp_addr) {
            acceptors.push(Acceptor::spawn(
                "tcp",
                move || tcp.accept().map(|(stream, _)| stream),
                accept_tcp,
                Box::new(move || TcpStream::connect(addr).map(drop)),
                &ctx,
            ));
        }

        // The acceptors serve every connection; this thread only watches
        // for the drain latch, SIGTERM, or an acceptor that failed.
        while !ctx.drain.load(Ordering::Relaxed)
            && !crate::signal::termination_requested()
            && !acceptors.iter().any(|a| a.thread.is_finished())
        {
            std::thread::sleep(Duration::from_millis(20));
        }

        // Stop accepting first: latch the drain (SIGTERM and a failed
        // acceptor arrive here without it), which each acceptor checks as
        // soon as its `accept` returns.
        ctx.drain.store(true, Ordering::SeqCst);
        let stopped: Vec<io::Result<()>> = acceptors.into_iter().map(Acceptor::stop).collect();

        // Drain: stop admitting, shed the pending backlog with terminal
        // lines, let the workers finish in-flight runs, then leave
        // cleanly. Journal appends are fsynced per entry, so there is
        // nothing further to flush.
        deliver_shed_notices(ctx.admission.begin_drain());
        for handle in workers {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.config.socket);
        // The first accept error, if an acceptor failed.
        stopped.into_iter().collect()
    }
}

/// The thread that blocks in one listener's `accept`.
struct Acceptor {
    thread: JoinHandle<io::Result<()>>,
    /// Opens a connection to the listener, so a blocked `accept` returns.
    wake: Box<dyn Fn() -> io::Result<()>>,
}

impl Acceptor {
    /// Spawns a thread that accepts connections and hands each to `setup`
    /// until the drain latch is set. An accept error ends the thread with
    /// that error, and with it the daemon.
    fn spawn<S: Send + 'static>(
        name: &str,
        mut accept: impl FnMut() -> io::Result<S> + Send + 'static,
        setup: fn(u64, S, &Arc<Ctx>) -> io::Result<()>,
        wake: Box<dyn Fn() -> io::Result<()>>,
        ctx: &Arc<Ctx>,
    ) -> Acceptor {
        let ctx = Arc::clone(ctx);
        let thread = std::thread::Builder::new()
            .name(format!("serve-accept-{name}"))
            .spawn(move || loop {
                let stream = accept()?;
                if ctx.drain.load(Ordering::SeqCst) {
                    return Ok(());
                }
                let seq = ctx.conn_seq.fetch_add(1, Ordering::Relaxed);
                // A connection that fails setup is dropped and logged; it
                // must never take the acceptor down with it.
                if let Err(e) = setup(seq, stream, &ctx) {
                    eprintln!("bitline-serve: dropping connection {seq}: {e}");
                }
            })
            .expect("spawn serve acceptor");
        Acceptor { thread, wake }
    }

    /// Wakes the thread (the drain latch is already set) and joins it,
    /// returning the accept error that ended it, if any.
    fn stop(self) -> io::Result<()> {
        if !self.thread.is_finished() {
            if let Err(e) = (self.wake)() {
                // Nothing reaches the listener any more (say, its socket
                // file was removed), so nothing can wake the thread:
                // leave it blocked rather than wait forever.
                eprintln!("bitline-serve: cannot wake an acceptor to stop it: {e}");
                return Ok(());
            }
        }
        self.thread.join().unwrap_or_else(|_| Err(io::Error::other("acceptor thread panicked")))
    }
}

fn accept_unix(seq: u64, stream: UnixStream, ctx: &Arc<Ctx>) -> io::Result<()> {
    let writer = stream.try_clone()?;
    let closer = stream.try_clone()?;
    let shutdown: ShutdownFn = Box::new(move || drop(closer.shutdown(std::net::Shutdown::Both)));
    spawn_reader(seq, Box::new(stream), Box::new(writer), shutdown, Arc::clone(ctx));
    Ok(())
}

fn accept_tcp(seq: u64, stream: TcpStream, ctx: &Arc<Ctx>) -> io::Result<()> {
    let writer = stream.try_clone()?;
    let closer = stream.try_clone()?;
    let shutdown: ShutdownFn = Box::new(move || drop(closer.shutdown(std::net::Shutdown::Both)));
    spawn_reader(seq, Box::new(stream), Box::new(writer), shutdown, Arc::clone(ctx));
    Ok(())
}

/// Sends every drain-shed notice to its subscriber as a terminal line.
fn deliver_shed_notices(notices: Vec<ShedNotice>) {
    for ShedNotice { subscriber, retry_after_ms } in notices {
        let line = protocol::shed_line(&subscriber.id, "draining", retry_after_ms);
        let _ = subscriber.out.enqueue(line);
    }
}

/// Touches every `serve.*` metric so exports carry the whole family from
/// the first snapshot, zeros included.
pub fn declare_metrics() {
    for name in [
        "serve.accepted",
        "serve.deduped",
        "serve.shed",
        "serve.timed_out",
        "serve.drained",
        "serve.slow_disconnects",
        "serve.write_errors",
        "serve.dropped_responses",
    ] {
        counter!(name).add(0);
    }
    gauge!("serve.queue_depth").set(0);
    let _ = histo!("serve.request_wall_us");
}

fn spawn_reader(
    seq: u64,
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    shutdown: ShutdownFn,
    ctx: Arc<Ctx>,
) {
    let label = format!("{}-{seq}", ctx.conn_label);
    let out = ConnHandle::spawn(label, writer, ctx.conn_queue_depth, shutdown);
    let conn = out.clone();
    let spawned = std::thread::Builder::new().name(format!("serve-conn-{seq}")).spawn(move || {
        // Close the response queue on *every* reader exit — EOF, a read
        // error, or a panic (e.g. an injected `serve.conn.read=panic`):
        // already-queued responses still flush, then the socket drops.
        // One panicking connection never takes the daemon down.
        struct CloseOnDrop(ConnHandle);
        impl Drop for CloseOnDrop {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        let guard = CloseOnDrop(conn);
        serve_connection(reader, &guard.0, &ctx);
    });
    if let Err(e) = spawned {
        // Thread exhaustion is the connection's problem, not the accept
        // loop's: flush nothing, close the queue, drop the streams.
        eprintln!("bitline-serve: dropping connection {seq}: cannot spawn reader: {e}");
        out.close();
    }
}

fn send(out: &ConnHandle, line: String) {
    // A refused enqueue means the connection is closed, dead, or was just
    // condemned for falling behind; the response is dropped and counted,
    // never blocked on.
    let _ = out.enqueue(line);
}

/// Evaluates the `serve.conn.read` failpoint for one received line.
/// Returns `false` when the connection should be dropped.
fn read_seam(out: &ConnHandle) -> bool {
    match bitline_failpoint::eval_tagged("serve.conn.read", out.label()) {
        None | Some(Action::ShortWrite(_)) => true,
        Some(Action::Delay(d)) => {
            std::thread::sleep(d);
            true
        }
        Some(Action::Stall(limit)) => {
            let watched = out.clone();
            bitline_failpoint::stall_while(limit, move || watched.is_dead());
            !out.is_dead()
        }
        Some(Action::Err(errno)) => {
            eprintln!(
                "bitline-serve: disconnecting {}: injected read error: {}",
                out.label(),
                io::Error::from_raw_os_error(errno)
            );
            false
        }
        Some(Action::Panic) => panic!("failpoint `serve.conn.read` fired: panic"),
    }
}

fn serve_connection(reader: Box<dyn Read + Send>, out: &ConnHandle, ctx: &Ctx) {
    let reader = BufReader::new(reader);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if out.is_dead() {
            break;
        }
        if !read_seam(out) {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        match protocol::parse_request(&line) {
            Err(bad) => {
                send(
                    out,
                    protocol::error_line(
                        bad.id.as_deref().unwrap_or(""),
                        "bad-request",
                        &bad.message,
                    ),
                );
            }
            Ok(Request::Ping { id }) => send(out, protocol::pong_line(&id)),
            Ok(Request::Stats { id }) => {
                let mut rows = ctx.stats.rows();
                let cp = bitline_sim::checkpoint_stats().unwrap_or_default();
                rows.push(("replayed", cp.replayed));
                rows.push(("recomputed", cp.recomputed));
                rows.push(("appended", cp.appended));
                rows.push(("quarantined", cp.quarantined));
                send(out, protocol::stats_line(&id, &rows));
            }
            Ok(Request::Metrics { id }) => {
                // The full obs export — every counter/gauge/histogram and
                // recent spans — as validated JSONL, not just the serving
                // counter summary.
                let snapshot = bitline_obs::registry().snapshot();
                let spans = bitline_obs::recent_spans();
                let jsonl = bitline_obs::render_jsonl(&snapshot, &spans);
                send(out, protocol::metrics_line(&id, &jsonl));
            }
            Ok(Request::Drain { id }) => {
                ctx.drain.store(true, Ordering::Relaxed);
                deliver_shed_notices(ctx.admission.begin_drain());
                send(out, protocol::drain_line(&id));
            }
            Ok(Request::Run(run)) => {
                // Fail fast, before the queue: an invalid request must not
                // cost a queue slot or a worker pickup.
                if !bitline_workloads::suite::names().contains(&run.benchmark.as_str()) {
                    let e = SimError::UnknownBenchmark(run.benchmark.clone());
                    send(out, protocol::error_line(&run.id, e.kind(), &e.to_string()));
                    continue;
                }
                if let Err(e) = run.spec.validate() {
                    send(out, protocol::error_line(&run.id, e.kind(), &e.to_string()));
                    continue;
                }
                let key = checkpoint::spec_key(&run.benchmark, &run.spec);
                let id = run.id.clone();
                let offer = ctx.admission.offer(&key, *run, out.clone());
                if let Offer::Shed { reason, retry_after_ms } = offer {
                    send(out, protocol::shed_line(&id, reason, retry_after_ms));
                }
            }
        }
    }
}

fn worker_loop(ctx: &Ctx, runner: &Runner) {
    while let Some(job) = ctx.admission.next_job() {
        let budget = job.deadline_ms.map(Duration::from_millis).or(ctx.request_budget);
        let token = CancelToken::for_budget(budget);
        let started = Instant::now();
        // Panic isolation, retry-once, and timeout-doubling all come from
        // the harness; a worker thread never dies with a job in hand.
        let result =
            harness::isolated_supervised(&job.key, &token, || (runner)(&job.benchmark, &job.spec));
        histo!("serve.request_wall_us").record_duration(started.elapsed());
        match &result {
            Ok(_) => {}
            Err(skip) if matches!(skip.error, SimError::TimedOut { .. }) => {
                ctx.stats.timed_out.fetch_add(1, Ordering::Relaxed);
                counter!("serve.timed_out").incr();
            }
            Err(_) => {
                ctx.stats.errored.fetch_add(1, Ordering::Relaxed);
            }
        }
        let subscribers = ctx.admission.complete(&job.key);
        // Fan-out is a non-blocking enqueue per subscriber: a stalled or
        // condemned connection sheds its own copy without holding up the
        // worker or the other subscribers of this job.
        for Subscriber { id, out } in subscribers {
            let line = match &result {
                Ok(row) => protocol::ok_line(&id, &job.benchmark, &job.key, row),
                Err(skip) => match &skip.error {
                    SimError::TimedOut { .. } => {
                        protocol::timeout_line(&id, &skip.error.to_string())
                    }
                    e => protocol::error_line(&id, e.kind(), &e.to_string()),
                },
            };
            send(&out, line);
        }
    }
}
