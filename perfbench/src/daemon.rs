//! The `zeroconf-serve` daemon as a child process: spawn, set-up timing,
//! `/proc` accounting, and guaranteed teardown.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use zeroconf_client::Client;

use crate::gen::one_cell_line;

/// Flags the daemon runs with: one loopback TCP endpoint, everything else
/// at its defaults (workers = CPUs, `--inflight 8`, 1024 cached π-tables).
pub const DAEMON_FLAGS: [&str; 2] = ["--tcp", "127.0.0.1:0"];

/// Linux's fixed `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`.
const USER_HZ: f64 = 100.0;

/// Per-wait client deadline: far beyond any answer, well inside the
/// benchmark's own time limit.
pub const CLIENT_DEADLINE: Duration = Duration::from_secs(20);

/// The daemon binary: `$CARGO_TARGET_DIR/release/zeroconf-serve`
/// (default target directory `target`), relative to the repository root.
#[must_use]
pub fn binary() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("release").join("zeroconf-serve")
}

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    stdout: Option<BufReader<ChildStdout>>,
    addr: String,
}

impl Daemon {
    /// Spawns the daemon and times set-up: from spawning the process to
    /// the answer of its first request (a 1-cell sweep on a fresh
    /// connection), covering engine construction, pool spawn, bind and
    /// first connect.
    ///
    /// # Errors
    ///
    /// When the binary cannot start, announces no TCP endpoint, or does
    /// not answer.
    pub fn spawn(binary: &Path) -> Result<(Daemon, Duration), String> {
        let start = Instant::now();
        let child = Command::new(binary)
            .args(DAEMON_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let mut daemon = Daemon {
            child,
            stdout: None,
            addr: String::new(),
        };
        let stdout = daemon
            .child
            .stdout
            .take()
            .ok_or("daemon stdout was not captured")?;
        let mut stdout = BufReader::new(stdout);
        let mut announce = String::new();
        stdout
            .read_line(&mut announce)
            .map_err(|e| format!("reading the daemon's endpoint line: {e}"))?;
        daemon.stdout = Some(stdout);
        daemon.addr = announce
            .trim()
            .strip_prefix("listening tcp:")
            .ok_or_else(|| format!("unexpected daemon start-up line {announce:?}"))?
            .to_owned();
        let mut client = daemon.connect()?;
        client
            .send_raw(&one_cell_line("setup"))
            .map_err(|e| format!("set-up request: {e}"))?;
        let answer = client
            .wait("setup")
            .map_err(|e| format!("set-up answer: {e}"))?;
        let elapsed = start.elapsed();
        if let Some(error) = answer.error() {
            return Err(format!("set-up request failed: {error}"));
        }
        Ok((daemon, elapsed))
    }

    /// A new client connection with the benchmark's deadline.
    ///
    /// # Errors
    ///
    /// When the connection cannot be made.
    pub fn connect(&self) -> Result<Client, String> {
        let mut client =
            Client::connect_tcp(&self.addr).map_err(|e| format!("connecting to daemon: {e}"))?;
        client.set_deadline(CLIENT_DEADLINE);
        Ok(client)
    }

    /// The daemon's user + system CPU time so far, in milliseconds.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/stat` is unreadable or malformed.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name: state is field 3,
        // utime field 14, stime field 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| format!("{path}: no command field"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| format!("{path}: field {} unreadable", i + 3))
        };
        Ok((ticks(11)? + ticks(12)?) * 1000.0 / USER_HZ)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` is unreadable or lacks `VmHWM`.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns and tears down `count` throw-away daemons, returning each
/// one's set-up time in seconds and the host's CPU ticks stolen by the
/// hypervisor while it set up (0 when unknown).
///
/// # Errors
///
/// As for [`Daemon::spawn`].
pub fn setup_samples(binary: &Path, count: usize) -> Result<Vec<(f64, u64)>, String> {
    (0..count)
        .map(|_| {
            let before = crate::steal::cpu_ticks();
            let (daemon, setup) = Daemon::spawn(binary)?;
            let stolen = match (before, crate::steal::cpu_ticks()) {
                (Some((s0, _)), Some((s1, _))) => s1.saturating_sub(s0),
                _ => 0,
            };
            drop(daemon);
            Ok((setup.as_secs_f64(), stolen))
        })
        .collect()
}
