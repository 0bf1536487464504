//! End-to-end daemon tests over a real unix socket, with injected
//! runners so each robustness behaviour is deterministic: dedup,
//! shedding, panic isolation, deadlines, drain, and fail-fast
//! validation.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use bitline_obs::json::{self, as_object, get_str, get_u64, try_get, Json};
use bitline_serve::{Runner, ServeConfig, Server};
use bitline_sim::SimError;

/// A daemon under test: server thread + drain handle + socket path.
struct TestServer {
    socket: PathBuf,
    drain: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl TestServer {
    fn start(tag: &str, queue_depth: usize, workers: usize, runner: Runner) -> TestServer {
        TestServer::start_cfg(tag, queue_depth, workers, runner, |_| {})
    }

    fn start_cfg(
        tag: &str,
        queue_depth: usize,
        workers: usize,
        runner: Runner,
        tweak: impl FnOnce(&mut ServeConfig),
    ) -> TestServer {
        let socket = std::env::temp_dir()
            .join(format!("bitline-serve-test-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let mut config =
            ServeConfig { socket: socket.clone(), queue_depth, workers, ..ServeConfig::default() };
        tweak(&mut config);
        let server = Server::new(config, runner);
        let drain = server.drain_flag();
        let handle = std::thread::spawn(move || server.run());
        // Wait for the listener to come up.
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        TestServer { socket, drain, handle }
    }

    fn connect(&self) -> Client {
        let stream = UnixStream::connect(&self.socket).expect("connect test daemon");
        let reader = BufReader::new(stream.try_clone().expect("clone test stream"));
        Client { stream, reader }
    }

    /// Latches drain and joins the server thread.
    fn shutdown(self) {
        self.drain.store(true, Ordering::Relaxed);
        self.handle.join().expect("join server thread").expect("server run");
        assert!(!self.socket.exists(), "socket file should be removed on drain");
    }
}

struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Client {
    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("send");
        self.stream.write_all(b"\n").expect("send newline");
        self.stream.flush().expect("flush");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "daemon closed the connection before responding");
        json::parse(line.trim_end()).expect("response line is valid JSON")
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }

    /// Whether the daemon has closed this connection (EOF or reset).
    fn closed(&mut self) -> bool {
        let mut line = String::new();
        self.reader.read_line(&mut line).map(|n| n == 0).unwrap_or(true)
    }
}

fn field<'j>(v: &'j Json, key: &str) -> &'j Json {
    try_get(as_object(v).unwrap(), key).unwrap_or_else(|| panic!("missing key `{key}` in {v:?}"))
}

fn str_field(v: &Json, key: &str) -> String {
    get_str(as_object(v).unwrap(), key).unwrap_or_else(|e| panic!("{e} in {v:?}")).to_owned()
}

/// Whether a `stats` response counts `accepted` and `deduped` requests.
fn admitted(stats: &Json, accepted: u64, deduped: u64) -> bool {
    let obj = as_object(field(stats, "stats")).unwrap();
    get_u64(obj, "accepted") == Ok(accepted) && get_u64(obj, "deduped") == Ok(deduped)
}

fn ok_row(cycles: u64) -> bitline_serve::RunRow {
    bitline_serve::RunRow {
        cycles,
        committed: cycles / 2,
        ipc: 0.5,
        replays: 0,
        d_hits: 1,
        d_misses: 0,
        i_hits: 1,
        i_misses: 0,
        d_precharged: 1.0,
        i_precharged: 1.0,
        d_discharge: 0.5,
        i_discharge: 0.5,
        d_energy_reduction: 0.25,
        i_energy_reduction: 0.25,
    }
}

#[test]
fn identical_requests_coalesce_to_one_computation() {
    // The runner blocks until released, so all three identical requests
    // are guaranteed to land while the first is queued or running.
    let calls = Arc::new(AtomicU64::new(0));
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
    let runner_calls = Arc::clone(&calls);
    let runner: Runner = Arc::new(move |_, _| {
        runner_calls.fetch_add(1, Ordering::SeqCst);
        release_rx.lock().unwrap().recv().expect("release signal");
        Ok(ok_row(100))
    });
    let server = TestServer::start("dedup", 8, 1, runner);
    let stats = {
        let mut c = server.connect();
        c.send(r#"{"id":"r1","benchmark":"gcc"}"#);
        c.send(r#"{"id":"r2","benchmark":"gcc"}"#);
        c.send(r#"{"id":"r3","benchmark":"gcc"}"#);
        // Distinct spec: a separate computation.
        c.send(r#"{"id":"r4","benchmark":"gcc","spec":{"seed":9}}"#);
        // Wait until the daemon has admitted all four (two computations,
        // two coalesced), then let both jobs run to completion. Releasing
        // as soon as the runner starts raced the connection's reader: a
        // twin read after the first job completed queued a third job that
        // no release would ever end.
        while !admitted(&c.roundtrip(r#"{"id":"s","op":"stats"}"#), 2, 2) {
            std::thread::sleep(Duration::from_millis(2));
        }
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        let mut ids = Vec::new();
        for _ in 0..4 {
            let resp = c.recv();
            assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");
            ids.push(str_field(&resp, "id"));
        }
        ids.sort();
        assert_eq!(ids, ["r1", "r2", "r3", "r4"]);
        c.roundtrip(r#"{"id":"s","op":"stats"}"#)
    };
    assert_eq!(calls.load(Ordering::SeqCst), 2, "3 identical requests → 1 computation");
    assert!(admitted(&stats, 2, 2), "{stats:?}");
    server.shutdown();
}

#[test]
fn overload_sheds_with_a_retry_hint_and_drain_sheds_pending() {
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
    let started = Arc::new(AtomicU64::new(0));
    let runner_started = Arc::clone(&started);
    let runner: Runner = Arc::new(move |_, _| {
        runner_started.fetch_add(1, Ordering::SeqCst);
        release_rx.lock().unwrap().recv().expect("release signal");
        Ok(ok_row(10))
    });
    let server = TestServer::start("shed", 1, 1, runner);
    let mut c = server.connect();
    // Fill the worker, then the 1-deep queue; the third distinct spec
    // must shed with a hint no smaller than the floor.
    c.send(r#"{"id":"busy","benchmark":"gcc","spec":{"seed":1}}"#);
    while started.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    c.send(r#"{"id":"queued","benchmark":"gcc","spec":{"seed":2}}"#);
    let shed = c.roundtrip(r#"{"id":"over","benchmark":"gcc","spec":{"seed":3}}"#);
    assert_eq!(str_field(&shed, "status"), "shed");
    assert_eq!(str_field(&shed, "reason"), "queue full");
    let hint = get_u64(as_object(&shed).unwrap(), "retry_after_ms").unwrap();
    assert!(hint >= bitline_serve::MIN_RETRY_AFTER_MS, "hint below floor: {hint}");

    // Drain: the pending job is shed with a terminal line *before* the
    // drain ack (same connection, same order as the daemon wrote them);
    // only the in-flight run is still answered.
    c.send(r#"{"id":"d","op":"drain"}"#);
    let shed = c.recv();
    assert_eq!(str_field(&shed, "id"), "queued");
    assert_eq!(str_field(&shed, "status"), "shed");
    assert_eq!(str_field(&shed, "reason"), "draining");
    let hint = get_u64(as_object(&shed).unwrap(), "retry_after_ms").unwrap();
    assert!(hint >= bitline_serve::MIN_RETRY_AFTER_MS, "drain-shed hint below floor: {hint}");
    let ack = c.recv();
    assert_eq!(field(&ack, "draining"), &Json::Bool(true));

    // Admission now refuses even though the queue has space.
    let refused = c.roundtrip(r#"{"id":"late","benchmark":"gcc","spec":{"seed":4}}"#);
    assert_eq!(str_field(&refused, "status"), "shed");
    assert_eq!(str_field(&refused, "reason"), "draining");

    // The in-flight job still completes during drain — one release only.
    release_tx.send(()).unwrap();
    let resp = c.recv();
    assert_eq!(str_field(&resp, "status"), "ok");
    assert_eq!(str_field(&resp, "id"), "busy");
    server.handle.join().expect("join server thread").expect("server run");
    assert!(!server.socket.exists(), "the drain op must remove the socket file");
}

#[test]
fn sigterm_drain_answers_in_flight_and_sheds_pending() {
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(std::sync::Mutex::new(release_rx));
    let started = Arc::new(AtomicU64::new(0));
    let runner_started = Arc::clone(&started);
    let runner: Runner = Arc::new(move |_, _| {
        runner_started.fetch_add(1, Ordering::SeqCst);
        release_rx.lock().unwrap().recv().expect("release signal");
        Ok(ok_row(10))
    });
    let server = TestServer::start("sigterm-drain", 8, 1, runner);
    let mut c = server.connect();
    c.send(r#"{"id":"busy","benchmark":"gcc","spec":{"seed":1}}"#);
    while started.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(2));
    }
    c.send(r#"{"id":"queued","benchmark":"gcc","spec":{"seed":2}}"#);

    // Latch the drain flag — exactly what the SIGTERM handler does — with
    // one job in flight and one pending. The pending job's shed line
    // arrives first (the drain sheds it while the worker is still busy);
    // only then release the in-flight run, which is still answered.
    server.drain.store(true, Ordering::Relaxed);
    let shed = c.recv();
    assert_eq!(str_field(&shed, "id"), "queued");
    assert_eq!(str_field(&shed, "status"), "shed");
    assert_eq!(str_field(&shed, "reason"), "draining");
    release_tx.send(()).unwrap();
    let resp = c.recv();
    assert_eq!(str_field(&resp, "id"), "busy");
    assert_eq!(str_field(&resp, "status"), "ok");
    // `run` returns Ok — the daemon's exit-0 path.
    server.handle.join().expect("join server thread").expect("server run");
    assert!(!server.socket.exists(), "a latched drain must remove the socket file");
}

#[test]
fn a_fresh_connection_is_served_as_soon_as_it_connects() {
    // Twenty connections in turn, each opened, pinged and dropped: an
    // accept loop that sleeps while idle makes each one wait for its
    // next poll, about 20 ms apiece.
    let runner: Runner = Arc::new(|_, _| Ok(ok_row(1)));
    let server = TestServer::start("fresh-conn", 8, 1, runner);
    let started = std::time::Instant::now();
    for i in 0..20 {
        let pong = server.connect().roundtrip(&format!(r#"{{"id":"p{i}","op":"ping"}}"#));
        assert_eq!(field(&pong, "pong"), &Json::Bool(true));
    }
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "20 fresh pings took {took:?}");
    server.shutdown();
}

#[test]
fn metrics_op_exports_validated_jsonl() {
    let runner: Runner = Arc::new(|_, _| Ok(ok_row(64)));
    let server = TestServer::start("metrics", 8, 1, runner);
    let mut c = server.connect();
    let resp = c.roundtrip(r#"{"id":"warm","benchmark":"gcc"}"#);
    assert_eq!(str_field(&resp, "status"), "ok");
    let resp = c.roundtrip(r#"{"id":"m","op":"metrics"}"#);
    assert_eq!(str_field(&resp, "status"), "ok");
    let jsonl = str_field(&resp, "metrics_jsonl");
    let report = bitline_obs::validate_jsonl(&jsonl)
        .unwrap_or_else(|e| panic!("metrics export failed validation: {e}"));
    assert!(report.counters > 0, "export carries counters: {report:?}");
    assert!(jsonl.contains("serve.accepted"), "serving counters are in the export");
    assert!(jsonl.contains("serve.slow_disconnects"), "declared-at-zero metrics included");
    server.shutdown();
}

#[test]
fn a_stalled_reader_is_shed_while_fast_clients_are_served() {
    // Stall every write on the first connection of *this* server (label
    // `stalltest-0`): its bounded response queue overflows and the daemon
    // condemns that one connection, while a fast client on the same
    // daemon still gets its row.
    bitline_failpoint::arm("serve.conn.write[stalltest-0]=stall").unwrap();
    let runner: Runner = Arc::new(|_, _| Ok(ok_row(8)));
    let server = TestServer::start_cfg("stalled-reader", 16, 1, runner, |cfg| {
        cfg.conn_label = "stalltest".to_owned();
        cfg.conn_queue_depth = 2;
    });
    let mut slow = server.connect();
    // First response: wait until the writer thread has popped it and is
    // held in the stall, so the overflow accounting below is exact.
    slow.send(r#"{"id":"s1","benchmark":"gcc","spec":{"seed":1}}"#);
    for _ in 0..2000 {
        if bitline_failpoint::fired("serve.conn.write") >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(bitline_failpoint::fired("serve.conn.write") >= 1, "the stall fired");
    // One line held in the stalled writer + two queued = the third
    // further completion overflows the depth-2 queue and condemns the
    // connection.
    for seed in 2..=4 {
        slow.send(&format!(r#"{{"id":"s{seed}","benchmark":"gcc","spec":{{"seed":{seed}}}}}"#));
    }
    let mut fast = server.connect();
    let resp = fast.roundtrip(r#"{"id":"fast","benchmark":"gcc","spec":{"seed":99}}"#);
    assert_eq!(str_field(&resp, "status"), "ok", "fast client served despite the stalled peer");
    assert!(slow.closed(), "the stalled reader is disconnected, not absorbed");
    bitline_failpoint::disarm("serve.conn.write");
    server.shutdown();
}

#[test]
fn a_panicking_run_errors_that_request_only() {
    let calls = Arc::new(AtomicU64::new(0));
    let runner_calls = Arc::clone(&calls);
    let runner: Runner = Arc::new(move |benchmark, _| {
        if benchmark == "health" {
            runner_calls.fetch_add(1, Ordering::SeqCst);
            panic!("injected fault");
        }
        Ok(ok_row(50))
    });
    let server = TestServer::start("panic", 8, 1, runner);
    let mut c = server.connect();
    let resp = c.roundtrip(r#"{"id":"boom","benchmark":"health"}"#);
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(str_field(&resp, "kind"), "run-failed");
    assert!(str_field(&resp, "error").contains("injected fault"));
    // The harness retries a panic once before giving up.
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    // The daemon keeps serving: the next request succeeds.
    let resp = c.roundtrip(r#"{"id":"after","benchmark":"gcc"}"#);
    assert_eq!(str_field(&resp, "status"), "ok");
    server.shutdown();
}

#[test]
fn a_deadline_arms_the_ambient_token_and_times_out() {
    // The runner cooperates with cancellation exactly like the real
    // simulator loop: poll the ambient token, bail with TimedOut.
    let runner: Runner = Arc::new(|benchmark, _| {
        let token = bitline_sim::supervise::ambient_token();
        for _ in 0..1000 {
            if token.cancelled() {
                return Err(SimError::TimedOut {
                    benchmark: benchmark.to_owned(),
                    budget: token.budget().unwrap_or_default(),
                    progress: 0,
                });
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(ok_row(1))
    });
    let server = TestServer::start("deadline", 8, 1, runner);
    let mut c = server.connect();
    let resp = c.roundtrip(r#"{"id":"slow","benchmark":"gcc","deadline_ms":20}"#);
    assert_eq!(str_field(&resp, "status"), "timeout", "{resp:?}");
    let stats = c.roundtrip(r#"{"id":"s","op":"stats"}"#);
    assert_eq!(get_u64(as_object(field(&stats, "stats")).unwrap(), "timed_out"), Ok(1));
    server.shutdown();
}

#[test]
fn invalid_requests_fail_fast_without_reaching_the_runner() {
    let calls = Arc::new(AtomicU64::new(0));
    let runner_calls = Arc::clone(&calls);
    let runner: Runner = Arc::new(move |_, _| {
        runner_calls.fetch_add(1, Ordering::SeqCst);
        Ok(ok_row(1))
    });
    let server = TestServer::start("validate", 8, 1, runner);
    let mut c = server.connect();

    let resp = c.roundtrip(r#"{"id":"b1","benchmark":"no-such-workload"}"#);
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(str_field(&resp, "kind"), "unknown-benchmark");

    let resp = c.roundtrip(r#"{"id":"b2","benchmark":"gcc","spec":{"subarray_bytes":48}}"#);
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(str_field(&resp, "kind"), "invalid-spec");

    let resp = c.roundtrip("this is not json");
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(str_field(&resp, "kind"), "bad-request");

    let resp = c.roundtrip(r#"{"id":"b3","benchmark":"gcc","surprise":1}"#);
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(str_field(&resp, "kind"), "bad-request");
    assert_eq!(str_field(&resp, "id"), "b3", "id is kept when readable");

    assert_eq!(calls.load(Ordering::SeqCst), 0, "invalid requests must not be queued");
    let resp = c.roundtrip(r#"{"id":"ok","benchmark":"gcc"}"#);
    assert_eq!(str_field(&resp, "status"), "ok");
    server.shutdown();
}
