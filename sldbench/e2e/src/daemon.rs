//! Spawning `sld`, talking to it over TCP, and reading its resource use
//! from `/proc`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment knobs that would change what the daemon does; the
/// benchmark always runs it with their defaults.
const DAEMON_KNOBS: [&str; 5] = [
    "SL_SNAPSHOT_EVERY",
    "SL_FAULT_RATE",
    "SL_FAULT_SEED",
    "SL_INCL_ENGINE",
    "SL_THREADS",
];

/// A running `sld --tcp` process. Dropping it kills the process.
pub struct Daemon {
    child: Option<Child>,
    addr: String,
    stderr: Option<JoinHandle<String>>,
    persist_dir: Option<PathBuf>,
}

impl Daemon {
    /// Starts `sld` on an ephemeral local port (with `--persist dir` when
    /// given) and waits for its listening banner.
    ///
    /// # Errors
    ///
    /// When the process cannot start or exits before listening.
    pub fn spawn(sld: &Path, persist_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(sld);
        cmd.args(["--tcp", "127.0.0.1:0"]);
        if let Some(dir) = persist_dir {
            cmd.arg("--persist").arg(dir);
        }
        for knob in DAEMON_KNOBS {
            cmd.env_remove(knob);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sld.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            stderr: None,
            persist_dir: persist_dir.map(Path::to_path_buf),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let read = stderr
                .read_line(&mut line)
                .map_err(|e| format!("reading sld's banner: {e}"))?;
            if read == 0 {
                return Err("sld exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("sld: serving ") {
                daemon.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
                break;
            }
        }
        // Keep draining stderr so the daemon never blocks on a full pipe.
        daemon.stderr = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = stderr.read_to_string(&mut rest);
            rest
        }));
        Ok(daemon)
    }

    /// The daemon's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Opens a client connection.
    ///
    /// # Errors
    ///
    /// When the connection fails.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            out: Vec::with_capacity(1 << 12),
        })
    }

    /// Drains the daemon with `shutdown` over `conn` and waits for it to
    /// exit; returns its remaining stderr. The reply may be lost: when
    /// another connection's serving thread ends just as the stopped flag
    /// flips, its drain broadcast shuts this socket before the reply is
    /// written, so end-of-stream counts as acknowledged and the exit
    /// status decides.
    ///
    /// # Errors
    ///
    /// When the daemon refuses to drain or does not exit in time (it is
    /// killed then).
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<String, String> {
        let reply = conn.call("{\"id\":0,\"verb\":\"shutdown\"}");
        let mut child = self.child.take().expect("daemon is running");
        let deadline = Instant::now() + Duration::from_secs(30);
        let exited = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => break Err("sld did not exit after shutdown".to_string()),
                Err(e) => break Err(e.to_string()),
            }
        };
        if exited.is_err() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let stderr = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        match reply {
            Ok(reply) if !reply.contains("\"ok\":true") => {
                return Err(format!("shutdown refused: {reply}"))
            }
            Err(e) if e != CLOSED => return Err(e),
            _ => {}
        }
        let status = exited?;
        if !status.success() {
            return Err(format!("sld exited with {status}: {stderr}"));
        }
        Ok(stderr)
    }
}

impl Daemon {
    /// Kills the daemon and returns what it wrote to stderr (for error
    /// reports).
    pub fn kill_for_log(mut self) -> String {
        let mut status = String::new();
        if let Some(mut child) = self.child.take() {
            if let Ok(Some(exited)) = child.try_wait() {
                status = format!("(sld had exited: {exited}) ");
            }
            let _ = child.kill();
            let _ = child.wait();
        }
        status
            + &self
                .stderr
                .take()
                .map(|h| h.join().unwrap_or_default())
                .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(handle) = self.stderr.take() {
            let _ = handle.join();
        }
        if let Some(dir) = &self.persist_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The error [`Conn::call`] reports when the daemon closed the connection.
pub const CLOSED: &str = "connection closed";

/// One client connection: a request line out, a response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    /// Sends one request line and reads its response line.
    ///
    /// # Errors
    ///
    /// On I/O failure or a closed connection.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let read = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if read == 0 {
            return Err(CLOSED.into());
        }
        Ok(response)
    }
}

/// Host CPU counters from `/proc/stat`: (steal, total) jiffies.
#[must_use]
pub fn host_cpu() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user and nice).
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// A process's user + system CPU time in seconds (`/proc/<pid>/stat`).
#[must_use]
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    // Linux reports these in USER_HZ ticks, 100 per second.
    Some((utime + stime) / 100.0)
}

/// A process's peak resident set in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
