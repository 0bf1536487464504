//! Connecting to a daemon that may still be starting.

use std::io::ErrorKind;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Connects to the daemon on `socket`, waiting up to ten seconds for it
/// to listen. The socket file appears at `bind`, a moment before
/// `listen`, and a connect in between is refused; so a missing file and a
/// refused connect are retried, and any other error, or the deadline,
/// panics.
pub fn connect(socket: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(socket) {
            Ok(stream) => return stream,
            Err(e)
                if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::ConnectionRefused)
                    && Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("connect to the daemon on {}: {e}", socket.display()),
        }
    }
}
