//! The server under test: a `concorde serve` child process on loopback.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// How long a server may take to start listening.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a control or set-up request may take to be answered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The `MALLOC_ARENA_MAX` the server runs with: the core count.
pub fn malloc_arenas() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

pub struct Server {
    child: Child,
    pub addr: String,
    log: Arc<Mutex<VecDeque<String>>>,
    stderr_reader: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin serve` on a free loopback port with `args` and waits
    /// until it reports listening. Retries on a lost port race.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Server, String> {
        let mut last = String::new();
        for _ in 0..3 {
            match Server::spawn_once(bin, args) {
                Ok(s) => return Ok(s),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn spawn_once(bin: &Path, args: &[String]) -> Result<Server, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let mut cmd = Command::new(bin);
        // SAFETY: the closure runs in the forked child before exec and only
        // makes one async-signal-safe system call.
        unsafe {
            cmd.pre_exec(|| {
                // The server dies with the thread that started it, so a
                // benchmark killed from outside leaves no server behind.
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let mut child = cmd
            .arg("serve")
            .arg("--addr")
            .arg(&addr)
            .args(args)
            // One malloc arena per core. With glibc's default of up to eight
            // per core, the threads each precompute starts land in fresh
            // arenas and the server's peak RSS jumps by a quarter between
            // identical runs.
            .env("MALLOC_ARENA_MAX", malloc_arenas().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let log = Arc::new(Mutex::new(VecDeque::new()));
        let (ready_tx, ready_rx) = mpsc::channel();
        let reader_log = Arc::clone(&log);
        let stderr_reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if line.contains("listening on") {
                    let _ = ready_tx.send(());
                }
                let mut log = reader_log.lock().expect("log lock poisoned");
                if log.len() == 40 {
                    log.pop_front();
                }
                log.push_back(line);
            }
        });
        let mut server = Server {
            child,
            addr,
            log,
            stderr_reader: Some(stderr_reader),
        };
        match ready_rx.recv_timeout(READY_TIMEOUT) {
            Ok(()) => Ok(server),
            Err(_) => {
                server.kill();
                Err(format!("server did not start:\n{}", server.log_tail()))
            }
        }
    }

    /// The last lines the server wrote to stderr.
    pub fn log_tail(&self) -> String {
        let log = self.log.lock().expect("log lock poisoned");
        log.iter().cloned().collect::<Vec<_>>().join("\n")
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one control or request line on a fresh connection and returns
    /// the reply line.
    pub fn request(&self, line: &str) -> Result<String, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        writer
            .write_all(line.as_bytes())
            .and_then(|_| writer.write_all(b"\n"))
            .map_err(|e| format!("write: {e}"))?;
        let mut reply = String::new();
        BufReader::new(stream)
            .read_line(&mut reply)
            .map_err(|e| format!("read: {e}"))?;
        if reply.is_empty() {
            return Err(format!(
                "server closed the connection:\n{}",
                self.log_tail()
            ));
        }
        Ok(reply)
    }

    /// Sends a control command and parses the JSON reply.
    pub fn cmd(&self, line: &str) -> Result<serde_json::Value, String> {
        let reply = self.request(line)?;
        serde_json::from_str(&reply).map_err(|e| format!("bad reply to {line}: {e}"))
    }

    /// The Prometheus text exposition.
    pub fn prometheus(&self) -> Result<String, String> {
        let v = self.cmd(r#"{"cmd":"metrics","format":"prometheus"}"#)?;
        v.get("text")
            .and_then(|t| t.as_str())
            .map(str::to_string)
            .ok_or_else(|| "metrics reply without text".to_string())
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Stops the server and waits for it and its log reader to end.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr_reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}
