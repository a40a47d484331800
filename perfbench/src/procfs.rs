//! The daemon process: spawn it, wait for its socket, read its memory
//! and thread counts from `/proc`, and stop it.

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use apiphany_repro::net::{ListenAddr, Stream};

/// One field of `/proc/<pid>/status` (e.g. `VmHWM`, `Threads`), as the
/// number before its unit.
pub fn status_field(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// A running daemon child. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    pub addr: ListenAddr,
    socket: PathBuf,
}

impl Daemon {
    /// Starts this executable in serving mode on a fresh unix socket and
    /// waits until the socket accepts connections.
    pub fn start(socket: PathBuf) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(&socket);
        let exe = std::env::current_exe()?;
        let child = Command::new(exe)
            .arg("--serve")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let addr = ListenAddr::Unix(socket.clone());
        let mut daemon = Daemon {
            child,
            addr,
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "daemon exited at start: {status}"
                )));
            }
            // A probe connection: accepted and dropped, it costs the
            // daemon one hello frame.
            if Stream::connect(&daemon.addr).is_ok() {
                return Ok(daemon);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("daemon socket never became ready"));
            }
            // A fine poll: this wait is part of `setup_s`, which a coarse
            // sleep would round up by a noticeable share.
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the daemon to exit after a `shutdown` request; kills it
    /// if it has not exited within `grace`. Returns whether it exited by
    /// itself.
    pub fn wait_exit(mut self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return false,
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Samples the daemon's `Threads` count, at most once per interval, from
/// the client thread as frames arrive (no extra load-generator thread).
pub struct ThreadSampler {
    pid: u32,
    last: Option<Instant>,
    pub peak: u64,
}

impl ThreadSampler {
    const INTERVAL: Duration = Duration::from_millis(5);

    pub fn new(pid: u32) -> ThreadSampler {
        ThreadSampler {
            pid,
            last: None,
            peak: 0,
        }
    }

    pub fn sample(&mut self) {
        self.last = Some(Instant::now());
        if let Some(n) = status_field(self.pid, "Threads") {
            self.peak = self.peak.max(n);
        }
    }

    pub fn maybe_sample(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= Self::INTERVAL) {
            self.sample();
        }
    }
}
