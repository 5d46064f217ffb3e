//! The `lim-serve` daemon as users run it: a child process spoken to
//! over TCP in the NDJSON `lim-serve-v1` protocol that `lim-client`
//! uses.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral loopback port and waits for its
    /// first answered `server.ping`. Returns the daemon and the time from
    /// spawn to that answer.
    pub fn boot(bin: &Path) -> Result<(Daemon, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .strip_prefix("lim-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr.filter(|_| read.is_ok()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon printed no address: {banner:?}"));
        };
        let mut daemon = Daemon {
            child,
            stdout,
            addr,
        };
        let mut conn = match daemon.connect() {
            Ok(c) => c,
            Err(e) => {
                daemon.kill();
                return Err(e);
            }
        };
        let pong = conn.call(r#"{"id":0,"method":"server.ping"}"#);
        let elapsed = t0.elapsed();
        match pong {
            Ok(line) if line.contains("\"pong\":true") => Ok((daemon, elapsed)),
            other => {
                daemon.kill();
                Err(format!("bad ping answer: {other:?}"))
            }
        }
    }

    /// Opens one client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::with_capacity(
            1 << 16,
            stream.try_clone().map_err(|e| format!("clone: {e}"))?,
        );
        Ok(Conn {
            stream,
            reader,
            line: String::new(),
        })
    }

    /// Peak resident set of the daemon (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Drains the daemon with `server.shutdown` and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self
            .connect()
            .and_then(|mut c| c.call(r#"{"id":0,"method":"server.shutdown"}"#));
        if sent.is_err() {
            self.kill();
            return Err(format!("shutdown failed: {sent:?}"));
        }
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A daemon still running here was abandoned on an error path.
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// One client connection: a request line out, a response line back.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Sends one request line and returns the response line (without
    /// its newline).
    pub fn call(&mut self, request: &str) -> Result<String, String> {
        let mut out = Vec::with_capacity(request.len() + 1);
        out.extend_from_slice(request.as_bytes());
        out.push(b'\n');
        self.stream
            .write_all(&out)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 || !self.line.ends_with('\n') {
            return Err("connection closed mid-answer".into());
        }
        self.line.pop();
        Ok(std::mem::take(&mut self.line))
    }
}
