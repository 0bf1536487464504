//! Protocol fuzz tests at the socket boundary.
//!
//! A deterministic seeded generator throws malformed traffic at a live
//! daemon — partial frames, truncated JSON, oversized lines, interleaved
//! garbage, raw binary — and every case must end in a terminal `error`
//! line or a clean disconnect, bounded in time. Never a panic, never a
//! hang, and the daemon must keep serving well-formed clients afterward.

mod listening;

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bitline_serve::{RunRow, Runner, ServeConfig, Server};

/// Per-read bound: a fuzz case that takes longer than this to answer or
/// disconnect counts as a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Deterministic splitmix64 generator: the whole barrage replays
/// byte-identically from the seed, so a failure is reproducible.
struct Fuzz {
    state: u64,
}

impl Fuzz {
    fn new(seed: u64) -> Fuzz {
        Fuzz { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Bytes drawn from a mixed alphabet: JSON punctuation (so fragments
    /// often look *almost* structural), printable ASCII, and raw binary
    /// including NUL and invalid UTF-8 lead bytes.
    fn bytes(&mut self, len: usize) -> Vec<u8> {
        const STRUCTURAL: &[u8] = b"{}[]\",:truefalsnl0123456789.-";
        (0..len)
            .map(|_| match self.below(4) {
                0 => STRUCTURAL[self.below(STRUCTURAL.len() as u64) as usize],
                1 => (0x20 + self.below(0x5F)) as u8,
                2 => self.below(256) as u8,
                _ => [0x00, 0xC3, 0xFF, 0xFE, 0x80][self.below(5) as usize],
            })
            .collect()
    }
}

struct FuzzServer {
    socket: PathBuf,
    drain: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_server(tag: &str) -> FuzzServer {
    let socket =
        std::env::temp_dir().join(format!("bitline-fuzz-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let runner: Runner = Arc::new(|_, _| {
        Ok(RunRow {
            cycles: 64,
            committed: 32,
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
        })
    });
    let config = ServeConfig {
        socket: socket.clone(),
        queue_depth: 8,
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::new(config, runner);
    let drain = server.drain_flag();
    let handle = std::thread::spawn(move || server.run());
    FuzzServer { socket, drain, handle }
}

impl FuzzServer {
    fn connect(&self) -> UnixStream {
        let stream = listening::connect(&self.socket);
        stream.set_read_timeout(Some(READ_TIMEOUT)).expect("set read timeout");
        stream
    }

    /// A well-formed request must round-trip `ok` — the liveness probe
    /// every fuzz test ends with.
    fn assert_alive(&self, id: &str) {
        let mut stream = self.connect();
        stream
            .write_all(format!("{{\"id\":\"{id}\",\"benchmark\":\"gcc\"}}\n").as_bytes())
            .expect("send liveness probe");
        let line = read_response_line(&stream).expect("daemon must answer after the barrage");
        assert!(line.contains("\"status\":\"ok\""), "liveness probe failed: {line}");
    }

    fn shutdown(self) {
        self.drain.store(true, Ordering::Relaxed);
        self.handle.join().expect("server thread must not panic").expect("server run");
    }
}

/// Reads one response line within the timeout. `None` means the daemon
/// closed the connection (a legal terminal outcome for garbage input);
/// a timeout or non-UTF-8 response is a test failure.
fn read_response_line(stream: &UnixStream) -> Option<String> {
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line),
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            panic!("daemon neither answered nor disconnected within {READ_TIMEOUT:?}")
        }
        // Reset while we were reading: the daemon dropped the connection.
        Err(_) => None,
    }
}

/// A terminal outcome for a malformed line: an `error` status line or a
/// clean disconnect. Anything else (ok/shed for garbage, junk bytes) is
/// a protocol violation.
fn assert_terminal_error_or_disconnect(stream: &UnixStream, context: &str) {
    match read_response_line(stream) {
        None => {}
        Some(line) => {
            assert!(
                line.contains("\"status\":\"error\""),
                "{context}: expected a terminal error line, got: {line}"
            );
        }
    }
}

#[test]
fn random_garbage_lines_answer_error_or_disconnect() {
    let server = start_server("garbage");
    let mut fuzz = Fuzz::new(0xB17_11E5);
    for round in 0..48 {
        let stream = server.connect();
        let len = 1 + fuzz.below(200) as usize;
        let mut payload = fuzz.bytes(len);
        payload.retain(|&b| b != b'\n');
        payload.push(b'\n');
        if (&stream).write_all(&payload).is_ok() {
            assert_terminal_error_or_disconnect(&stream, &format!("garbage round {round}"));
        }
    }
    server.assert_alive("after-garbage");
    server.shutdown();
}

#[test]
fn truncated_json_requests_answer_error_or_disconnect() {
    let server = start_server("truncated");
    let valid = r#"{"id":"t","op":"run","benchmark":"gcc","priority":1,"spec":{"d_policy":"gated:100","levels":2,"leakage_mode":"drowsy"}}"#;
    let mut fuzz = Fuzz::new(0x7A11);
    let mut cuts: Vec<usize> = (0..24).map(|_| fuzz.below(valid.len() as u64) as usize).collect();
    cuts.push(valid.len() - 1);
    cuts.push(1);
    for cut in cuts {
        let stream = server.connect();
        let mut payload = valid.as_bytes()[..cut].to_vec();
        payload.push(b'\n');
        if (&stream).write_all(&payload).is_ok() {
            assert_terminal_error_or_disconnect(&stream, &format!("truncated at {cut}"));
        }
    }
    server.assert_alive("after-truncated");
    server.shutdown();
}

#[test]
fn oversized_lines_answer_without_hanging() {
    let server = start_server("oversized");
    let mut fuzz = Fuzz::new(0x0BE5E);
    for &len in &[64 * 1024, 512 * 1024, 2 * 1024 * 1024] {
        let stream = server.connect();
        // An enormous almost-JSON line: opens like a request, then pads.
        let mut payload = Vec::with_capacity(len + 32);
        payload.extend_from_slice(b"{\"id\":\"big\",\"benchmark\":\"");
        while payload.len() < len {
            payload.push(b'a' + fuzz.below(26) as u8);
        }
        payload.push(b'\n');
        if (&stream).write_all(&payload).is_ok() {
            assert_terminal_error_or_disconnect(&stream, &format!("oversized {len}"));
        }
    }
    server.assert_alive("after-oversized");
    server.shutdown();
}

#[test]
fn partial_frames_without_newline_disconnect_cleanly() {
    let server = start_server("partial");
    let mut fuzz = Fuzz::new(0xF4A6);
    for round in 0..16 {
        let stream = server.connect();
        // Half a request, never terminated: write, half-close, and the
        // daemon must treat EOF-mid-frame as end of conversation.
        let payload = match round % 3 {
            0 => b"{\"id\":\"p\",\"benchmark\":\"gc".to_vec(),
            1 => {
                let len = 1 + fuzz.below(64) as usize;
                fuzz.bytes(len)
            }
            _ => b"{".to_vec(),
        };
        if (&stream).write_all(&payload).is_ok() {
            stream.shutdown(Shutdown::Write).expect("half-close");
            // Drain whatever the daemon says until it closes; it must
            // close (EOF), not hang.
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut sink = String::new();
            loop {
                sink.clear();
                match reader.read_line(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        assert!(
                            sink.contains("\"status\":\"error\""),
                            "partial frame round {round}: unexpected line {sink}"
                        );
                    }
                }
            }
        }
    }
    server.assert_alive("after-partial");
    server.shutdown();
}

#[test]
fn interleaved_garbage_never_poisons_valid_requests() {
    let server = start_server("interleaved");
    let mut fuzz = Fuzz::new(0x1A7E);
    let stream = server.connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut expected_ok = 0u32;
    let mut sent_garbage = 0u32;
    for i in 0..12 {
        // One valid request (identical spec each time, so the daemon's
        // dedup coalesces them instead of overflowing the queue — this
        // test is about garbage poisoning, not admission control)...
        let line = format!("{{\"id\":\"v{i}\",\"benchmark\":\"gcc\",\"spec\":{{\"seed\":1}}}}\n");
        if (&stream).write_all(line.as_bytes()).is_err() {
            break;
        }
        expected_ok += 1;
        // ...chased by printable garbage on the same connection (kept
        // UTF-8-clean so the line reader doesn't sever the stream — the
        // binary-junk case has its own test above).
        let mut garbage: Vec<u8> = (0..1 + fuzz.below(40))
            .map(|_| (0x20 + fuzz.below(0x5F)) as u8)
            .filter(|&b| b != b'\n')
            .collect();
        garbage.push(b'\n');
        if (&stream).write_all(&garbage).is_err() {
            break;
        }
        sent_garbage += 1;
    }
    // Collect responses until the daemon closes or we have them all:
    // every valid id answers ok, everything else is a terminal error.
    let mut ok_seen = 0u32;
    let mut error_seen = 0u32;
    while ok_seen + error_seen < expected_ok + sent_garbage {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {
                if line.contains("\"status\":\"ok\"") {
                    ok_seen += 1;
                } else {
                    assert!(
                        line.contains("\"status\":\"error\""),
                        "interleaved: unexpected response {line}"
                    );
                    error_seen += 1;
                }
            }
        }
    }
    assert_eq!(ok_seen, expected_ok, "every valid request must still be answered ok");
    assert_eq!(error_seen, sent_garbage, "every garbage line must answer a terminal error");
    server.assert_alive("after-interleaved");
    server.shutdown();
}

#[test]
fn vdd_spec_keys_answer_terminal_responses_and_never_poison_neighbours() {
    let server = start_server("vdd");
    let mut fuzz = Fuzz::new(0x5CA1_E0DD);
    // Boundary and adversarial values for the two new spec keys: legal
    // scales, band edges, out-of-band, non-finite spellings (`1e999`
    // parses to +inf, `nan` is not JSON), wrong types, and random
    // numeric noise. Every line must answer exactly one terminal status
    // line — ok for a valid spec, error otherwise — never a hang.
    let cases: Vec<String> = vec![
        r#""vdd":1.0"#.into(),
        r#""vdd":0.9,"vdd_governor":true"#.into(),
        r#""vdd":0.6"#.into(),
        r#""vdd":1.1"#.into(),
        r#""vdd":0.59999"#.into(),
        r#""vdd":1.10001"#.into(),
        r#""vdd":-0.9"#.into(),
        r#""vdd":0"#.into(),
        r#""vdd":1e999"#.into(),
        r#""vdd":-1e999"#.into(),
        r#""vdd":1e-999"#.into(),
        r#""vdd":"0.9""#.into(),
        r#""vdd":null"#.into(),
        r#""vdd":[0.9]"#.into(),
        r#""vdd_governor":true"#.into(),
        r#""vdd_governor":"yes""#.into(),
        r#""vdd_governor":1"#.into(),
        r#""vdd":0.8,"vdd_governor":null"#.into(),
    ];
    let random: Vec<String> = (0..16)
        .map(|_| {
            let mantissa = fuzz.below(2_000_000) as f64 / 1_000_000.0;
            let exp = fuzz.below(7) as i32 - 3;
            format!(
                r#""vdd":{:e},"vdd_governor":{}"#,
                mantissa * 10f64.powi(exp),
                fuzz.below(2) == 0
            )
        })
        .collect();
    for (i, body) in cases.iter().chain(random.iter()).enumerate() {
        let stream = server.connect();
        let line = format!("{{\"id\":\"vdd{i}\",\"benchmark\":\"gcc\",\"spec\":{{{body}}}}}\n");
        if (&stream).write_all(line.as_bytes()).is_err() {
            continue;
        }
        match read_response_line(&stream) {
            None => {}
            Some(resp) => assert!(
                resp.contains("\"status\":\"ok\"") || resp.contains("\"status\":\"error\""),
                "vdd case {i} ({body}): expected a terminal status line, got: {resp}"
            ),
        }
    }
    server.assert_alive("after-vdd");
    server.shutdown();
}

#[test]
fn a_raw_binary_stream_is_absorbed_and_the_daemon_survives() {
    let server = start_server("binary");
    let mut fuzz = Fuzz::new(0xDEAD_BEA7);
    let stream = server.connect();
    // A kilobyte of raw binary with embedded newlines: many "lines" of
    // junk at once. Every answered line must be a terminal error; the
    // daemon may also just cut us off.
    let blob: Vec<u8> = (0..1024).map(|_| fuzz.below(256) as u8).collect();
    if (&stream).write_all(&blob).is_ok() {
        let _ = (&stream).write_all(b"\n");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut buf = Vec::new();
        // Reading to EOF must terminate (bounded by the read timeout per
        // chunk); content is checked loosely since junk lines may split
        // arbitrarily.
        match reader.read_to_end(&mut buf) {
            Ok(_) => {
                let text = String::from_utf8_lossy(&buf);
                for line in text.lines().filter(|l| !l.is_empty()) {
                    assert!(
                        line.contains("\"status\":\"error\""),
                        "binary stream: unexpected response {line}"
                    );
                }
            }
            Err(e) => assert!(
                e.kind() != ErrorKind::WouldBlock && e.kind() != ErrorKind::TimedOut,
                "daemon hung on a binary stream"
            ),
        }
    }
    server.assert_alive("after-binary");
    server.shutdown();
}
