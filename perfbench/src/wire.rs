//! Load generation over loopback TCP, and the per-reply output checks.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::workload::{Line, Rng};

/// The fields of one prediction reply the checks look at.
#[derive(Debug, Default, Clone)]
pub struct Reply {
    pub id: Option<u64>,
    pub cpi: Option<f64>,
    pub has_error: bool,
    pub cached: bool,
    pub approx: bool,
    pub has_type: bool,
}

/// Minimal reader for the server's reply lines: one object or an array of
/// flat objects with scalar values.
struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.pos < self.b.len() && self.b[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.eat(b'"')?;
        let start = self.pos;
        while self.pos < self.b.len() && self.b[self.pos] != b'"' {
            if self.b[self.pos] == b'\\' {
                self.pos += 1;
            }
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.pos.min(self.b.len())])
            .map_err(|_| "reply is not UTF-8".to_string())?;
        self.eat(b'"')?;
        Ok(s)
    }

    /// A scalar value as raw text (`None` for `null`).
    fn scalar(&mut self) -> Result<Option<&'a str>, String> {
        match self.peek() {
            Some(b'"') => self.string().map(Some),
            Some(_) => {
                let start = self.pos;
                while self.pos < self.b.len() && !b",}] \n\r\t".contains(&self.b[self.pos]) {
                    self.pos += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.pos]).expect("ASCII scalar");
                if s.is_empty() {
                    return Err(format!("expected a value at byte {start}"));
                }
                Ok((s != "null").then_some(s))
            }
            None => Err("truncated reply".into()),
        }
    }

    fn object(&mut self) -> Result<Reply, String> {
        self.eat(b'{')?;
        let mut r = Reply::default();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(r);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.scalar()?;
            match key {
                "id" => r.id = v.and_then(|s| s.parse().ok()),
                "cpi" => r.cpi = v.and_then(|s| s.parse().ok()),
                "error" => r.has_error = v.is_some(),
                "cached" => r.cached = v == Some("true"),
                "approx" => r.approx = v == Some("true"),
                "type" => r.has_type = v.is_some(),
                _ => {}
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(r);
                }
                _ => return Err(format!("bad object at byte {}", self.pos)),
            }
        }
    }
}

/// Parses a reply line into `out` (cleared first).
pub fn parse_replies(line: &str, out: &mut Vec<Reply>) -> Result<(), String> {
    out.clear();
    let mut p = Parser {
        b: line.as_bytes(),
        pos: 0,
    };
    if p.peek() == Some(b'[') {
        p.pos += 1;
        if p.peek() == Some(b']') {
            return Ok(());
        }
        loop {
            out.push(p.object()?);
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b']') => return Ok(()),
                _ => return Err(format!("bad array at byte {}", p.pos)),
            }
        }
    }
    out.push(p.object()?);
    Ok(())
}

/// The output check every prediction reply must pass: the id that was sent,
/// a finite positive CPI, an exact (`approx: false`) answer, no error, and
/// the cache outcome the workload exercises.
pub fn reply_ok(r: &Reply, id: u64, want_cached: bool) -> bool {
    r.id == Some(id)
        && r.cpi.is_some_and(|c| c.is_finite() && c > 0.0)
        && !r.has_error
        && !r.approx
        && !r.has_type
        && r.cached == want_cached
}

/// Checks a reply line against the line that was sent: returns the number
/// of predictions that failed.
pub fn check_line(reply: &str, sent: &Line, want_cached: bool, buf: &mut Vec<Reply>) -> usize {
    if parse_replies(reply, buf).is_err() || buf.len() != sent.ids.len() {
        return sent.ids.len();
    }
    buf.iter()
        .zip(&sent.ids)
        .filter(|(r, &id)| !reply_ok(r, id, want_cached))
        .count()
}

/// One line answered inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// When the reply arrived.
    pub at: Instant,
    /// Round trip (µs): from the send, or for the open loop from the
    /// scheduled send time.
    pub lat_us: f64,
    /// Predictions in the line that passed their check.
    pub ok: u64,
}

/// What one load-generating thread observed.
#[derive(Debug, Default)]
pub struct Observed {
    pub lines: Vec<Done>,
    pub attempted: u64,
    pub failed: u64,
    /// Client-side spans (traced runs): write, wait for reply, check.
    pub write_us: Vec<f64>,
    pub wait_us: Vec<f64>,
    pub check_us: Vec<f64>,
    /// Open loop: how late each send was against its due time (µs).
    pub lag_us: Vec<f64>,
    /// Open loop: requests sent but unanswered when sending stopped.
    pub backlog_end: u64,
    pub first_failure: Option<String>,
}

impl Observed {
    pub fn merge(&mut self, o: Observed) {
        self.lines.extend(o.lines);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.write_us.extend(o.write_us);
        self.wait_us.extend(o.wait_us);
        self.check_us.extend(o.check_us);
        self.lag_us.extend(o.lag_us);
        self.backlog_end += o.backlog_end;
        if self.first_failure.is_none() {
            self.first_failure = o.first_failure;
        }
    }

    fn fail(&mut self, n: usize, why: impl FnOnce() -> String) {
        self.failed += n as u64;
        if n > 0 && self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    // A server that stops answering fails the run instead of hanging it.
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let r = s.try_clone().map_err(|e| e.to_string())?;
    Ok((s, BufReader::new(r)))
}

/// The measured window of a phase: lines issued before `from` warm up and
/// are not recorded; no line is issued at or after `until`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub from: Instant,
    pub until: Instant,
}

/// Mean of the closed loop's seeded exponential think time (µs), used when
/// it has more than one connection. Without it two connections lock into
/// step for seconds at a time, in one of two phases whose latencies differ
/// by a third; a random pause before each send keeps their phase drifting,
/// so a run averages over both. A single connection has no phase to drift
/// and sends its next line as soon as the previous reply is checked.
pub const THINK_MEAN_US: f64 = 500.0;

/// Closed loop: `conns` connections, each sending its next line (after a
/// think time, when there are several) once the previous reply arrived. Latency runs from a line's send
/// to its reply. `next_line(conn, seq)` supplies the lines.
pub fn closed_loop(
    addr: &str,
    conns: usize,
    window: Window,
    want_cached: bool,
    traced: bool,
    seed: u64,
    next_line: &(dyn Fn(usize, u64) -> Line + Sync),
) -> Observed {
    let results: Vec<Observed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut obs = Observed::default();
                    let (mut w, mut r) = match connect(addr) {
                        Ok(x) => x,
                        Err(e) => {
                            obs.fail(1, || e);
                            return obs;
                        }
                    };
                    let mut reply = String::new();
                    let mut buf = Vec::new();
                    let mut seq = 0u64;
                    let mut think = Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0x7417_7417));
                    loop {
                        let line = next_line(c, seq);
                        seq += 1;
                        let t0 = Instant::now();
                        if t0 >= window.until {
                            return obs;
                        }
                        reply.clear();
                        let sent = w.write_all(line.text.as_bytes());
                        let t1 = Instant::now();
                        let got = sent.and_then(|_| r.read_line(&mut reply));
                        let t2 = Instant::now();
                        if !matches!(got, Ok(n) if n > 0) {
                            obs.attempted += line.ids.len() as u64;
                            obs.fail(line.ids.len(), || format!("connection lost: {got:?}"));
                            return obs;
                        }
                        let failed = check_line(&reply, &line, want_cached, &mut buf);
                        let t3 = Instant::now();
                        if conns > 1 {
                            let think_us = -THINK_MEAN_US * (1.0 - think.unit()).ln();
                            std::thread::sleep(Duration::from_secs_f64(think_us / 1e6));
                        }
                        if t0 < window.from {
                            continue;
                        }
                        let n = line.ids.len();
                        obs.attempted += n as u64;
                        obs.fail(failed, || format!("bad reply {}", reply.trim_end()));
                        obs.lines.push(Done {
                            at: t2,
                            lat_us: (t2 - t0).as_secs_f64() * 1e6,
                            ok: (n - failed) as u64,
                        });
                        if traced {
                            obs.write_us.push((t1 - t0).as_secs_f64() * 1e6);
                            obs.wait_us.push((t2 - t1).as_secs_f64() * 1e6);
                            obs.check_us.push((t3 - t2).as_secs_f64() * 1e6);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut all = Observed::default();
    for o in results {
        all.merge(o);
    }
    all
}

/// How long the open loop waits for outstanding replies after the last send.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Open loop on one connection: a sender writes each line at its due time
/// (`start` + offset), whatever happened to earlier replies, and a receiver
/// times each reply from its request's due time, not its send time. Lines
/// due before `from_us` warm up and are not recorded.
pub fn open_loop(
    addr: &str,
    start: Instant,
    from_us: f64,
    schedule: &[(f64, Line)],
    want_cached: bool,
    traced: bool,
) -> Observed {
    let mut obs = Observed::default();
    let (mut w, mut r) = match connect(addr) {
        Ok(x) => x,
        Err(e) => {
            obs.fail(1, || e);
            return obs;
        }
    };
    // Counters only: each publishes nothing but its own value.
    let answered = AtomicUsize::new(0);
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i].0 / 1e6);
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut rx = Observed::default();
            let mut reply = String::new();
            let mut buf = Vec::new();
            for (i, (offset, line)) in schedule.iter().enumerate() {
                reply.clear();
                let got = r.read_line(&mut reply);
                let t_recv = Instant::now();
                if !matches!(got, Ok(n) if n > 0) {
                    let rest: usize = schedule[i..].iter().map(|(_, l)| l.ids.len()).sum();
                    rx.attempted += rest as u64;
                    rx.fail(rest, || format!("connection lost: {got:?}"));
                    return rx;
                }
                answered.store(i + 1, Ordering::Relaxed);
                let failed = check_line(&reply, line, want_cached, &mut buf);
                let t_checked = Instant::now();
                if *offset < from_us {
                    continue;
                }
                let lat = t_recv.saturating_duration_since(due(i)).as_secs_f64() * 1e6;
                rx.attempted += line.ids.len() as u64;
                rx.fail(failed, || format!("bad reply {}", reply.trim_end()));
                rx.lines.push(Done {
                    at: t_recv,
                    lat_us: lat,
                    ok: (line.ids.len() - failed) as u64,
                });
                if traced {
                    rx.wait_us.push(lat);
                    rx.check_us.push((t_checked - t_recv).as_secs_f64() * 1e6);
                }
            }
            rx
        });
        let mut sent = 0;
        for (i, (offset, line)) in schedule.iter().enumerate() {
            let t_due = due(i);
            let now = Instant::now();
            if t_due > now {
                std::thread::sleep(t_due - now);
            }
            let t0 = Instant::now();
            if w.write_all(line.text.as_bytes()).is_err() {
                break;
            }
            sent = i + 1;
            if *offset >= from_us {
                obs.lag_us.push((t0 - t_due).as_secs_f64() * 1e6);
                if traced {
                    obs.write_us.push(t0.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        obs.backlog_end = (sent - answered.load(Ordering::Relaxed).min(sent)) as u64;
        let give_up = Instant::now() + DRAIN_GRACE;
        while answered.load(Ordering::Relaxed) < schedule.len() && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Unblocks a receiver still waiting on a server that stopped answering.
        let _ = w.shutdown(std::net::Shutdown::Both);
        let rx = receiver.join().expect("receiver thread panicked");
        obs.merge(rx);
    });
    obs
}
