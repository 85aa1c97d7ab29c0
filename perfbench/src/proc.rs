//! Child processes: the `pmorph-serve` daemon and `repro` invocations,
//! plus their CPU and memory readings.
//!
//! Every child's stdout and stderr are drained for the child's whole
//! life: `pmorph-serve` prints a final line on exit and panics if that
//! pipe is closed, which would turn a clean shutdown into a failed run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Workers of the measured server, and the sweep threads of every
/// measured process (`PMORPH_THREADS`).
pub const SERVER_WORKERS: usize = 2;
pub const PROGRAM_THREADS: usize = 2;

/// A command with none of the caller's `PMORPH_*` settings.
fn scrubbed(bin: &str) -> Command {
    let mut cmd = Command::new(bin);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("PMORPH_") {
            cmd.env_remove(k);
        }
    }
    cmd.env("PMORPH_THREADS", PROGRAM_THREADS.to_string());
    cmd
}

fn drain<R: Read + Send + 'static>(pipe: R) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut out = Vec::new();
        let _ = BufReader::new(pipe).read_to_end(&mut out);
        out
    })
}

/// Wait for `child` up to `limit`; kill it past that.
fn wait_for(child: &mut Child, limit: Duration) -> Result<std::process::ExitStatus, String> {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child {} did not exit within {limit:?}", child.id()));
            }
            Err(e) => return Err(format!("waiting for child: {e}")),
        }
    }
}

/// One HTTP response.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One request on a fresh connection, as the protocol requires
/// (`Connection: close`); the body is read to EOF.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req).map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read {method} {path}: {e}"))?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "non-UTF-8 head".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let length = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim().eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| format!("{method} {path}: no content-length"))?;
    let body = raw[split + 4..].to_vec();
    if body.len() != length {
        return Err(format!("{method} {path}: body {} bytes, declared {length}", body.len()));
    }
    Ok(Response { status, body })
}

/// A running `pmorph-serve`. Dropping one that was not stopped (an error
/// path) kills and reaps it, so no run leaves a process behind.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    pipes: Option<(JoinHandle<()>, JoinHandle<Vec<u8>>)>,
}

impl Server {
    /// Spawn and wait until `GET /metrics` answers. `obs` switches the
    /// metrics layer on.
    pub fn start(bin: &str, obs: bool) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut cmd = scrubbed(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &SERVER_WORKERS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if obs {
            cmd.env("PMORPH_OBS", "1");
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn {bin}: {e}"))?;
        let out = child.stdout.take().expect("stdout is piped");
        let stderr = drain(child.stderr.take().expect("stderr is piped"));
        let (tx, rx) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            let mut lines = BufReader::new(out).lines();
            if let Some(Ok(first)) = lines.next() {
                let _ = tx.send(first);
            }
            for _ in lines {}
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            pipes: Some((stdout, stderr)),
        };
        let first = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "server printed no listening line".to_string())?;
        server.addr = first
            .strip_prefix("pmorph-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected first line `{first}`"))?;
        loop {
            match http(server.addr, "GET", "/metrics", b"") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                _ => return Err("server never answered /metrics".into()),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, check nothing was left queued or running, and
    /// require a zero exit status.
    pub fn stop(mut self) -> Result<(), String> {
        let mut problems = Vec::new();
        match http(self.addr, "POST", "/shutdown", br#"{"drain":true}"#) {
            Ok(r) if r.status == 200 => {
                let text = String::from_utf8_lossy(&r.body).into_owned();
                match pmorph_util::json::parse(&text) {
                    Ok(doc) => {
                        for state in ["queued", "running"] {
                            let n =
                                doc.get("jobs").and_then(|j| j.get(state)).and_then(|v| v.as_f64());
                            if n != Some(0.0) {
                                problems.push(format!("{state} jobs at shutdown: {n:?}"));
                            }
                        }
                    }
                    Err(e) => problems.push(format!("shutdown reply is not JSON: {e:?}")),
                }
            }
            Ok(r) => problems.push(format!("shutdown answered {}", r.status)),
            Err(e) => problems.push(format!("shutdown: {e}")),
        }
        match wait_for(&mut self.child, Duration::from_secs(60)) {
            Ok(status) if status.success() => {}
            Ok(status) => problems.push(format!("server exited with {status}")),
            Err(e) => problems.push(e),
        }
        let (stdout, stderr) = self.pipes.take().expect("pipes are joined once");
        let _ = stdout.join();
        let stderr = stderr.join().unwrap_or_default();
        if problems.is_empty() {
            Ok(())
        } else {
            let tail = String::from_utf8_lossy(&stderr);
            Err(format!("{}; stderr: {}", problems.join("; "), tail.trim()))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some((stdout, stderr)) = self.pipes.take() {
            let _ = stdout.join();
            let _ = stderr.join();
        }
    }
}

/// One finished `repro` invocation.
pub struct ReproRun {
    pub wall: Duration,
    pub stdout: Vec<u8>,
    pub error: Option<String>,
}

/// Run `repro` with `args` to completion, capturing stdout whole.
pub fn repro(bin: &str, args: &[&str], obs: bool) -> ReproRun {
    let t0 = Instant::now();
    let mut cmd = scrubbed(bin);
    cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
    if obs {
        cmd.env("PMORPH_OBS", "1");
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            return ReproRun {
                wall: t0.elapsed(),
                stdout: Vec::new(),
                error: Some(format!("spawn {bin}: {e}")),
            }
        }
    };
    let out = drain(child.stdout.take().expect("stdout is piped"));
    let err = drain(child.stderr.take().expect("stderr is piped"));
    let status = wait_for(&mut child, Duration::from_secs(120));
    let stdout = out.join().unwrap_or_default();
    let stderr = err.join().unwrap_or_default();
    let wall = t0.elapsed();
    let error = match status {
        Ok(s) if s.success() => None,
        Ok(s) => Some(format!("repro exited with {s}: {}", String::from_utf8_lossy(&stderr))),
        Err(e) => Some(e),
    };
    ReproRun { wall, stdout, error }
}

/// utime + stime of a live process, in milliseconds.
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line
    let rest = &stat[stat.rfind(')').ok_or("bad /proc stat")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().map_err(|e| e.to_string())?
        + fields[12].parse::<u64>().map_err(|e| e.to_string())?;
    Ok(ticks as f64 * 1000.0 / clock_ticks_per_sec())
}

/// Peak resident set (VmHWM) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM")?;
    Ok(kb / 1024.0)
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

fn clock_ticks_per_sec() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer name and reads no memory of ours.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// CPU milliseconds and peak RSS (MiB) over every reaped child process.
pub fn children_usage() -> (f64, f64) {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `u` is a live, writable `struct rusage` (18 longs on 64-bit
    // Linux, matching `RUsage`); getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) cannot fail");
    let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
    (ms(u.utime) + ms(u.stime), u.maxrss as f64 / 1024.0)
}
