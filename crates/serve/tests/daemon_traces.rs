//! The daemon owns one trace store for its life: cold requests for one
//! benchmark and seed share a stream, whatever their policies, and the
//! stream goes with the daemon.
//!
//! The stream counter and the retained bytes are process-wide, so this
//! binary holds this one test alone.

mod listening;

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::Ordering;

use bitline_cmos::TechnologyNode;
use bitline_serve::{production_runner, ServeConfig, Server};

#[test]
fn cold_requests_for_one_stream_share_the_daemons_store() {
    let dir = std::env::temp_dir().join(format!("bitline-serve-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("socket dir");
    let socket = dir.join("serve.sock");
    let config = ServeConfig {
        socket: socket.clone(),
        queue_depth: 8,
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::new(config, production_runner(TechnologyNode::N70));
    let drain = server.drain_flag();
    let handle = std::thread::spawn(move || server.run());

    let streams = || bitline_obs::counter!("exec.traces.streams").get();
    let before = streams();
    let lines = ["static", "gated:100"].map(|policy| {
        format!(
            r#"{{"id":"{policy}","benchmark":"mesa","spec":{{"d_policy":"{policy}","instructions":4000}}}}"#
        )
    });
    let stream = listening::connect(&socket);
    let mut writer = stream.try_clone().expect("clone stream");
    for line in &lines {
        writeln!(writer, "{line}").expect("send");
    }
    writer.flush().expect("flush");
    let responses: Vec<String> =
        BufReader::new(stream).lines().take(2).map(|l| l.expect("recv")).collect();
    for response in &responses {
        assert!(response.contains(r#""status":"ok""#), "{response}");
    }
    assert_eq!(streams() - before, 1, "two cold requests read one stream of the daemon's store");
    assert!(bitline_exec::retained_trace_bytes() > 0, "the daemon keeps its stream");

    drain.store(true, Ordering::Relaxed);
    handle.join().expect("join server").expect("server run");
    assert_eq!(bitline_exec::retained_trace_bytes(), 0, "the stream outlived the daemon");
    let _ = std::fs::remove_dir_all(&dir);
}
