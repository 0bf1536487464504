//! `bitline-serve --serve` refuses to start while a retired run-setting
//! variable is set (`BITLINE_JOBS`, `BITLINE_RUN_BUDGET`,
//! `BITLINE_CHECKPOINT`, `BITLINE_NO_RESUME`), naming the flag to pass
//! instead. When the variables were still read, the daemon armed a stale
//! `BITLINE_CHECKPOINT` journal without a word, and took a
//! `BITLINE_RUN_BUDGET` its workers never applied.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use bitline_exec::journal::JOURNAL_FILE;
use bitline_sim::{spec, PolicyKind, SystemSpec};

/// A fresh, empty directory for this test.
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitline-serve-retired-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn a_retired_variable_stops_the_daemon_before_it_listens() {
    let root = scratch();
    let (a, b, socket) = (root.join("a"), root.join("b"), root.join("serve.sock"));
    // Journal A holds the static mesa run.
    let static_run = SystemSpec {
        d_policy: PolicyKind::StaticPullUp,
        instructions: 2_000,
        ..spec::front_end_default()
    };
    bitline_sim::set_checkpoint(&a, true).expect("journal A opens");
    bitline_sim::try_run_benchmark_cached("mesa", &static_run).expect("the static run");
    bitline_sim::clear_checkpoint();
    let journal_a = std::fs::read(a.join(JOURNAL_FILE)).expect("journal A");

    let a_text = a.to_str().expect("utf-8 temp path");
    for (var, value, flag) in [
        ("BITLINE_CHECKPOINT", a_text, "--checkpoint"),
        ("BITLINE_JOBS", "2", "--jobs"),
        ("BITLINE_RUN_BUDGET", "1s", "--request-budget"),
        ("BITLINE_NO_RESUME", "1", "--no-resume"),
    ] {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_bitline-serve"))
            .arg("--serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--checkpoint")
            .arg(&b)
            .env_clear()
            .env(var, value)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("bitline-serve starts");
        let deadline = Instant::now() + Duration::from_secs(20);
        while daemon.try_wait().expect("poll the daemon").is_none() {
            if Instant::now() > deadline {
                daemon.kill().ok();
                daemon.wait().ok();
                std::fs::remove_dir_all(&root).ok();
                panic!("{var} set: the daemon started serving");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = daemon.wait_with_output().expect("daemon exit");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{var} set: the daemon must refuse to start");
        assert!(stderr.contains(var) && stderr.contains(flag), "{var}: {stderr}");
        assert!(!socket.exists(), "{var}: the daemon never listened");
        assert!(!b.join(JOURNAL_FILE).exists(), "{var}: no journal is armed");
        let after = std::fs::read(a.join(JOURNAL_FILE)).expect("journal A");
        assert!(after == journal_a, "{var}: journal A is untouched");
    }
    std::fs::remove_dir_all(&root).ok();
}
