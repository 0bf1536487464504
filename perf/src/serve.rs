//! The `serve-mixed` workload: a seeded request mix, the daemon's life
//! cycle, and the closed-loop client that drives it.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use bitline_faults::SplitMix64;
use bitline_obs::json;
use bitline_workloads::suite;

use crate::proc::{clean_env, Exit, Guarded};

/// D-cache policies of the warm set, one spec per benchmark each.
const WARM_POLICIES: [&str; 4] = ["static", "gated:100", "gated-predecode:100", "oracle"];

/// Client connections, one thread each: no more than the two cores the
/// benchmark is sized for.
const CONNECTIONS: usize = 2;

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub id: String,
    pub benchmark: &'static str,
    pub policy: String,
    /// Not in the warm set: the daemon must simulate it.
    pub cold: bool,
}

impl Req {
    /// The request line the daemon receives.
    pub fn line(&self, instructions: u64) -> String {
        request_line(&self.id, self.benchmark, &self.policy, instructions)
    }
}

/// A `run` request line for one benchmark under a D-cache policy.
pub fn request_line(id: &str, benchmark: &str, policy: &str, instructions: u64) -> String {
    format!(
        "{{\"id\":\"{id}\",\"benchmark\":\"{benchmark}\",\"spec\":{{\"d_policy\":\"{policy}\",\
         \"instructions\":{instructions}}}}}"
    )
}

/// The warm set: every suite benchmark under every [`WARM_POLICIES`] entry.
pub fn warm_set() -> Vec<Req> {
    let mut reqs = Vec::new();
    for benchmark in suite::names() {
        for policy in WARM_POLICIES {
            let id = format!("w{}", reqs.len());
            reqs.push(Req { id, benchmark, policy: policy.to_owned(), cold: false });
        }
    }
    reqs
}

/// Thresholds cold requests draw from.
const THRESHOLD_POOL: usize = 100;

/// The seeded mix of `n` requests: exactly one in ten (one at a seeded
/// position in each block of ten) is a cold `gated:T` spec, the rest are
/// drawn uniformly from the warm set. Cold specs cycle through a seeded
/// benchmark order and a seeded pool of thresholds so that every cold key
/// is distinct: each costs exactly one simulation, whatever the seed. When
/// `n` is a multiple of 160 every benchmark gets the same number of cold
/// specs, so the seed changes which work is done but not how much.
pub fn generate(seed: u64, n: usize) -> Vec<Req> {
    let mut rng = SplitMix64::new(seed ^ 0x5E57_E000_0000_0001);
    let mut draw = |bound: usize| (rng.next_u64() % bound as u64) as usize;
    let mut pool = Vec::with_capacity(THRESHOLD_POOL);
    while pool.len() < THRESHOLD_POOL {
        let t = 16 + draw(4080) as u64;
        if t != 100 && !pool.contains(&t) {
            pool.push(t);
        }
    }
    let mut order = suite::names();
    for i in (1..order.len()).rev() {
        order.swap(i, draw(i + 1));
    }
    let warm = warm_set();
    let mut reqs: Vec<Req> =
        (0..n).map(|i| Req { id: format!("q{i}"), ..warm[draw(warm.len())].clone() }).collect();
    for k in 0..n / 10 {
        let (b, round) = (k % order.len(), k / order.len());
        let req = &mut reqs[k * 10 + draw(10)];
        req.benchmark = order[b];
        req.policy = format!("gated:{}", pool[(round + 7 * b) % THRESHOLD_POOL]);
        req.cold = true;
    }
    reqs
}

/// A response line without its id: what must match byte for byte between
/// two answers to the same spec.
pub fn payload(line: &str) -> Option<&str> {
    line.find(",\"status\":").map(|i| &line[i..])
}

/// Whether a response line reports success.
pub fn is_ok(line: &str) -> bool {
    payload(line).is_some_and(|p| p.starts_with(",\"status\":\"ok\""))
}

/// The `row.committed` field of an `ok` run response.
pub fn committed(line: &str) -> Option<u64> {
    let value = json::parse(line).ok()?;
    let obj = json::as_object(&value).ok()?;
    let row = json::as_object(json::get(obj, "row").ok()?).ok()?;
    json::get_u64(row, "committed").ok()
}

/// A running daemon on a checkpoint directory.
pub struct Daemon {
    process: Guarded,
    socket: PathBuf,
    /// Spawn to the first `ping` reply, journal replay included.
    pub ready_after: Duration,
}

impl Daemon {
    /// Starts `bitline-serve --serve --jobs 1` on `checkpoint` and waits
    /// for it to answer a ping.
    pub fn start(bin: &Path, dir: &Path, checkpoint: &Path) -> io::Result<Daemon> {
        let socket = dir.join("d.sock");
        let _ = fs::remove_file(&socket);
        let mut cmd = Command::new(bin);
        clean_env(&mut cmd)
            .args(["--serve", "--jobs", "1", "--socket"])
            .arg(&socket)
            .arg("--checkpoint")
            .arg(checkpoint)
            .stdin(Stdio::null())
            .stdout(Stdio::from(fs::File::create(dir.join("daemon.out"))?))
            .stderr(Stdio::from(fs::File::create(dir.join("daemon.err"))?));
        let process = Guarded::spawn(&mut cmd)?;
        let deadline = process.started() + Duration::from_secs(30);
        loop {
            if let Ok(mut conn) = Conn::open(&socket) {
                let pong = conn.call(r#"{"id":"ping","op":"ping"}"#)?;
                if !pong.contains("\"pong\":true") {
                    return Err(io::Error::other(format!("bad ping reply: {pong}")));
                }
                let ready_after = process.started().elapsed();
                return Ok(Daemon { process, socket, ready_after });
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not answer a ping within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A new client connection.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.socket)
    }

    /// SIGTERM, then wait for the drain to finish.
    pub fn stop(self) -> io::Result<Exit> {
        self.process.terminate()
    }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn open(socket: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        // A daemon that stops answering fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { writer: stream.try_clone()?, reader: BufReader::new(stream) })
    }

    /// Sends one line and waits for its response line.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        Ok(reply.trim_end().to_owned())
    }
}

/// One answered (or unanswered) request.
pub struct Answer {
    pub latency: Duration,
    /// `None` when the daemon never replied.
    pub line: Option<String>,
}

/// Sends `reqs` closed-loop over [`CONNECTIONS`] connections, request `i`
/// on connection `i % CONNECTIONS`, each connection sending its next
/// request only after the previous reply. Returns the answers in request
/// order and the wall time of the whole phase.
pub fn drive(daemon: &Daemon, reqs: &[Req], instructions: u64) -> (Vec<Answer>, Duration) {
    let started = Instant::now();
    let per_conn: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mine = reqs.iter().skip(c).step_by(CONNECTIONS);
                    let mut conn = daemon.connect().ok();
                    mine.map(|req| {
                        let t = Instant::now();
                        let line = conn.as_mut().and_then(|c| c.call(&req.line(instructions)).ok());
                        if line.is_none() {
                            conn = None;
                        }
                        Answer { latency: t.elapsed(), line }
                    })
                    .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = started.elapsed();
    let mut iters: Vec<_> = per_conn.into_iter().map(Vec::into_iter).collect();
    let answers = (0..reqs.len()).filter_map(|i| iters[i % CONNECTIONS].next()).collect();
    (answers, wall)
}

/// The daemon's `stats` counters by name.
pub fn stats(daemon: &Daemon) -> io::Result<HashMap<String, u64>> {
    let line = daemon.connect()?.call(r#"{"id":"stats","op":"stats"}"#)?;
    let parsed = json::parse(&line).map_err(io::Error::other)?;
    let obj = json::as_object(&parsed).map_err(io::Error::other)?;
    let stats = json::get(obj, "stats").and_then(json::as_object).map_err(io::Error::other)?;
    Ok(stats.iter().filter_map(|(k, v)| Some((k.clone(), json::json_u64(v).ok()?))).collect())
}

/// The daemon's full observability export.
pub fn metrics_export(daemon: &Daemon) -> io::Result<Vec<bitline_obs::Record>> {
    let line = daemon.connect()?.call(r#"{"id":"metrics","op":"metrics"}"#)?;
    let parsed = json::parse(&line).map_err(io::Error::other)?;
    let obj = json::as_object(&parsed).map_err(io::Error::other)?;
    let jsonl = json::get_str(obj, "metrics_jsonl").map_err(io::Error::other)?;
    bitline_obs::parse_jsonl(jsonl).map_err(io::Error::other)
}

/// Copies the files of checkpoint directory `from` into a fresh `to`, so a
/// session's appends never leak into the next session's warm start.
pub fn copy_checkpoint(from: &Path, to: &Path) -> io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64) -> Vec<String> {
        generate(seed, 1500).iter().map(|r| r.line(25_000)).collect()
    }

    #[test]
    fn same_seed_same_lines_and_another_seed_other_lines() {
        assert_eq!(lines(42), lines(42));
        assert_ne!(lines(42), lines(43));
        assert_ne!(lines(1), lines(2));
    }

    #[test]
    fn one_in_ten_is_cold_and_every_cold_key_is_distinct() {
        let n = crate::bench::FULL.serve_requests;
        for seed in [1, 42, 9_999] {
            let reqs = generate(seed, n);
            let cold: Vec<&Req> = reqs.iter().filter(|r| r.cold).collect();
            assert_eq!(cold.len(), n / 10);
            let keys: std::collections::HashSet<_> =
                cold.iter().map(|r| (r.benchmark, &r.policy)).collect();
            assert_eq!(keys.len(), cold.len(), "cold keys repeat at seed {seed}");
            let warm: std::collections::HashSet<_> =
                warm_set().iter().map(|r| (r.benchmark, r.policy.clone())).collect();
            for r in &reqs {
                let in_warm = warm.contains(&(r.benchmark, r.policy.clone()));
                assert_eq!(in_warm, !r.cold, "{r:?}");
            }
            // Each benchmark gets the same share of the cold work.
            for b in suite::names() {
                let k = cold.iter().filter(|r| r.benchmark == b).count();
                assert_eq!(k, n / 160, "{b}");
            }
        }
    }

    #[test]
    fn request_lines_parse_as_the_daemon_parses_them() {
        for req in generate(7, 40).iter().chain(&warm_set()) {
            let parsed = bitline_serve::parse_request(&req.line(25_000));
            assert!(matches!(parsed, Ok(bitline_serve::Request::Run(_))), "{}", req.line(25_000));
        }
    }

    #[test]
    fn payloads_strip_the_id() {
        let a = r#"{"id":"q1","status":"ok","benchmark":"gcc","row":{"committed":7}}"#;
        let b = r#"{"id":"w9","status":"ok","benchmark":"gcc","row":{"committed":7}}"#;
        assert_eq!(payload(a), payload(b));
        assert!(is_ok(a));
        assert!(!is_ok(r#"{"id":"x","status":"shed","reason":"queue full"}"#));
        assert_eq!(committed(a), Some(7));
    }
}
