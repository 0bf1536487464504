//! Warm restart: a journaled run survives a simulated crash and is
//! answered from the replayed cache — `replayed > 0, recomputed == 0` —
//! with a byte-identical response row.
//!
//! This lives in its own test binary because the checkpoint journal and
//! run cache are process-global; sharing a process with other tests
//! would let their cache fills leak into the replay accounting.

mod listening;

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::Ordering;

use bitline_cmos::TechnologyNode;
use bitline_obs::json::{self, as_object, get_u64, try_get};
use bitline_serve::{production_runner, ServeConfig, Server};

const REQUEST: &str = r#"{"id":"warm","benchmark":"health","spec":{"instructions":4000}}"#;

fn roundtrip(socket: &std::path::Path, lines: &[&str]) -> Vec<String> {
    let stream = listening::connect(socket);
    let mut writer = stream.try_clone().expect("clone stream");
    for line in lines {
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
    }
    writer.flush().expect("flush");
    let reader = BufReader::new(stream);
    reader.lines().take(lines.len()).map(|l| l.expect("recv")).collect()
}

fn serve_once(socket: &std::path::Path, lines: &[&str]) -> Vec<String> {
    let config = ServeConfig {
        socket: socket.to_path_buf(),
        queue_depth: 8,
        workers: 1,
        node: TechnologyNode::N70,
        ..ServeConfig::default()
    };
    let server = Server::new(config, production_runner(TechnologyNode::N70));
    let drain = server.drain_flag();
    let handle = std::thread::spawn(move || server.run());
    let responses = roundtrip(socket, lines);
    drain.store(true, Ordering::Relaxed);
    handle.join().expect("join server").expect("server run");
    responses
}

#[test]
fn a_killed_daemon_restarts_warm_from_the_journal() {
    let dir = std::env::temp_dir().join(format!("bitline-serve-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("checkpoint dir");
    let socket = dir.join("serve.sock");

    // Daemon 1: compute and journal one run.
    let first = bitline_sim::set_checkpoint(&dir, true).expect("arm checkpoint");
    assert_eq!(first.replayed, 0);
    let cold = serve_once(&socket, &[REQUEST]);
    let cp = bitline_sim::checkpoint_stats().expect("checkpoint armed");
    assert_eq!(cp.appended, 1, "the completed run must be journaled");

    // Simulated SIGKILL: the process state is gone, only the journal
    // survives. (Same process here, so drop every in-memory cache.)
    bitline_sim::clear_run_caches();

    // Daemon 2: same journal dir. The run replays into the cache...
    let resumed = bitline_sim::set_checkpoint(&dir, true).expect("re-arm checkpoint");
    assert_eq!(resumed.replayed, 1, "restart must replay the journaled run");
    assert_eq!(resumed.quarantined, 0);

    // ...and the resubmitted request is answered without recomputing,
    // byte-identical to the cold response.
    let warm = serve_once(&socket, &[REQUEST]);
    assert_eq!(warm, cold, "replayed response must be byte-identical");
    let cp = bitline_sim::checkpoint_stats().expect("checkpoint armed");
    assert_eq!(cp.recomputed, 0, "warm restart must not recompute");
    assert_eq!(cp.appended, 0, "nothing new to journal");

    // The stats op surfaces the same accounting to clients.
    let stats = serve_once(&socket, &[r#"{"id":"s","op":"stats"}"#]);
    let parsed = json::parse(&stats[0]).expect("stats line");
    let obj = as_object(&parsed).unwrap();
    let stats = as_object(try_get(obj, "stats").expect("stats object")).unwrap();
    assert_eq!(get_u64(stats, "replayed"), Ok(1));
    assert_eq!(get_u64(stats, "recomputed"), Ok(0));

    bitline_sim::clear_checkpoint();
    let _ = std::fs::remove_dir_all(&dir);
}
