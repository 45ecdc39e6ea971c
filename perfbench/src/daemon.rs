//! The daemon under test: a subprocess running `repliflow_serve::Server`
//! on a loopback ephemeral port, exactly as the `repliflow-serve` binary
//! runs it, plus the readings taken from outside it (`stats` verb,
//! `/proc/<pid>/status`).

use repliflow_serve::server::{Server, ServerConfig};
use repliflow_serve::{signal, RemoteClient};
use serde::Value;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// `perfbench serve --cache-capacity N`: the daemon side of a daemon
/// workload. Prints `listening on ADDR` once bound, serves until a
/// `shutdown` verb or a signal, then drains.
///
/// The generator multiplexes what would be many clients over one
/// connection, so the per-connection in-flight cap is raised to the
/// daemon-wide queue depth, which still sheds.
pub fn serve_main(args: &[String]) -> ExitCode {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        honor_process_signals: true,
        ..ServerConfig::default()
    };
    config.admission.per_conn_inflight = config.admission.queue_depth;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.next().and_then(|v| v.parse().ok())) {
            ("--cache-capacity", Some(c)) => config.cache_capacity = c,
            _ => {
                eprintln!("usage: perfbench serve [--cache-capacity N]");
                return ExitCode::FAILURE;
            }
        }
    }
    signal::install_handlers();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("error: no local address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon subprocess. Dropping it shuts the daemon down and
/// waits for it.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns this executable in `serve` mode and waits for readiness.
    pub fn spawn(cache_capacity: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve", "--cache-capacity", &cache_capacity.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report readiness: {line:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The `stats` verb's snapshot.
    pub fn stats(&self) -> Result<Value, String> {
        RemoteClient::connect(self.addr)
            .map_err(|e| format!("connect: {e}"))?
            .stats()
            .map_err(|e| format!("stats: {e}"))
    }

    /// Round-trip times in µs of `n` sequential `ping`s on one connection.
    pub fn ping_us(&self, n: usize) -> Result<Vec<f64>, String> {
        let mut client = RemoteClient::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        (0..n)
            .map(|_| {
                let t = Instant::now();
                client.ping().map_err(|e| format!("ping: {e}"))?;
                Ok(t.elapsed().as_secs_f64() * 1e6)
            })
            .collect()
    }

    /// Graceful drain through the `shutdown` verb; kills the process if
    /// it has not exited within ten seconds.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        if let Ok(Some(_)) = self.child.try_wait() {
            return Ok(());
        }
        let asked = RemoteClient::connect(self.addr).and_then(|mut c| {
            c.shutdown()
                .map_err(|e| std::io::Error::other(e.to_string()))
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => repliflow_sync::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err(format!("daemon did not drain (shutdown verb: {asked:?})"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A `kB` (or plain number) field of `/proc/<pid>/status`.
pub fn proc_status(pid: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) of a process in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    proc_status(pid, "VmHWM:").map(|kb| kb / 1024.0)
}

/// A number at a `section.field` path of a `stats` snapshot (0 when
/// absent).
pub fn stat(stats: &Value, path: &str) -> f64 {
    let mut v = stats;
    for key in path.split('.') {
        match v.field(key) {
            Some(next) => v = next,
            None => return 0.0,
        }
    }
    match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => 0.0,
    }
}

/// Per-engine `(wall_ms, solves)` from a `stats` snapshot.
pub fn per_engine(stats: &Value, engine: &str) -> (f64, f64) {
    stats
        .field("service")
        .and_then(|s| s.field("per_engine"))
        .and_then(Value::as_array)
        .and_then(|rows| {
            rows.iter()
                .find(|r| r.field("engine").and_then(Value::as_str) == Some(engine))
        })
        .map_or((0.0, 0.0), |r| (stat(r, "wall_ms"), stat(r, "solves")))
}
