//! `perfbench` — the repository benchmark: a load generator that drives a
//! real `concorde serve` process over loopback TCP, checks every reply, and
//! reports end-to-end metrics (`--trace 0`) or per-layer metrics from a
//! traced run (`--trace 1`).
//!
//! ```text
//! perfbench --server <concorde binary> --fixtures <cache dir>
//!           --workload dse_warm|interactive|cold_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it through `python3 perfbench/run.py`, which builds both binaries
//! first. The last line of standard output is the result object; the line
//! before it records the run's fingerprint; a metric table goes to stderr.

mod affinity;
mod fixtures;
mod replay;
mod server;
mod stats;
mod wire;
mod workload;

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use concorde_suite::core::ReproProfile;
use concorde_suite::serve::SweepScope;

use crate::fixtures::Fixtures;
use crate::server::Server;
use crate::stats::{median, tail_percentile, Hist, Latency, Spans};
use crate::wire::{closed_loop, open_loop, parse_replies, Observed, Window};
use crate::workload::{riscv_elfs, ColdSource, Line, WarmSet, Workload, INTERACTIVE_GAP_US};

/// Unrecorded lead-in of every timed phase: long enough for the host's
/// cores to leave their idle clock speed.
const WARMUP: Duration = Duration::from_secs(1);
/// Pre-generated batch lines per `dse_warm` connection (cycled).
const DSE_LINES_PER_CONN: usize = 64;
/// Lines of each workload the traced run replays in-process.
const REPLAY_LINES_DSE: usize = 16;
const REPLAY_LINES_INTERACTIVE: usize = 256;
const REPLAY_LINES_COLD: usize = 24;
/// Open-loop validity. The generator fell behind if its median send was
/// late by more than a quarter of the mean arrival gap, or its p99 send by
/// more than five gaps (a stall that reshapes the arrival process; shorter
/// host stalls stay in the latencies, which run from the due time). The
/// backlog grew if more than `BACKLOG_LIMIT` requests were outstanding when
/// the last one was sent. Both are judged per timed segment: an invalid
/// segment is discarded and measured again, at most `REMEASURES` times a
/// run; a run that runs out of them fails.
const LAG_P50_LIMIT_US: f64 = INTERACTIVE_GAP_US / 4.0;
const LAG_TAIL_LIMIT_US: f64 = INTERACTIVE_GAP_US * 5.0;
const BACKLOG_LIMIT: u64 = 8;
const REMEASURES: usize = 3;

/// Why a segment of the open-loop workload is invalid, if it is.
fn open_loop_invalid(w: Workload, obs: &Observed) -> Option<String> {
    if w != Workload::Interactive {
        return None;
    }
    let lag = Latency::of(&obs.lag_us);
    if lag.p50 > LAG_P50_LIMIT_US || lag.tail > LAG_TAIL_LIMIT_US {
        return Some(format!(
            "the generator fell behind (lag p50 {:.0} us, p{} {:.0} us; \
             limits {LAG_P50_LIMIT_US} us and {LAG_TAIL_LIMIT_US} us)",
            lag.p50, lag.tail_pct, lag.tail
        ));
    }
    if obs.backlog_end > BACKLOG_LIMIT {
        return Some(format!(
            "{} requests outstanding at the last send (limit {BACKLOG_LIMIT})",
            obs.backlog_end
        ));
    }
    None
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    fixtures: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} is not a whole number"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(2),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        server: PathBuf::from(get("--server")?),
        fixtures: PathBuf::from(get("--fixtures")?),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }
}

/// Server counters at one instant: the JSON snapshot and the Prometheus
/// exposition (for its histograms).
struct Counters {
    json: serde_json::Value,
    prom: String,
}

impl Counters {
    fn scrape(server: &Server) -> Result<Counters, String> {
        Ok(Counters {
            json: server.cmd(r#"{"cmd":"metrics"}"#)?,
            prom: server.prometheus()?,
        })
    }

    fn count(&self, key: &str) -> f64 {
        self.json.get(key).and_then(|v| v.as_u64()).unwrap_or(0) as f64
    }

    fn hist(&self, family: &str) -> Hist {
        Hist::parse(&self.prom, family)
    }
}

/// Server-side deltas over a timed phase.
#[derive(Default)]
struct ServerDelta {
    hits: f64,
    misses: f64,
    precomputes: f64,
    coalesced: f64,
    latency: Hist,
    queue_wait: Hist,
    batch: Hist,
    build: Hist,
}

impl ServerDelta {
    fn between(before: &Counters, after: &Counters) -> ServerDelta {
        let d = |k: &str| after.count(k) - before.count(k);
        let h = |f: &str| after.hist(f).minus(&before.hist(f));
        ServerDelta {
            hits: d("cache_hits"),
            misses: d("cache_misses"),
            precomputes: d("precomputes"),
            coalesced: d("coalesced"),
            latency: h("concorde_request_latency_seconds"),
            queue_wait: h("concorde_queue_wait_seconds"),
            batch: h("concorde_batch_size"),
            build: h("concorde_store_build_seconds"),
        }
    }

    /// The deltas of two phases together.
    fn plus(&self, o: &ServerDelta) -> ServerDelta {
        ServerDelta {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            precomputes: self.precomputes + o.precomputes,
            coalesced: self.coalesced + o.coalesced,
            latency: self.latency.plus(&o.latency),
            queue_wait: self.queue_wait.plus(&o.queue_wait),
            batch: self.batch.plus(&o.batch),
            build: self.build.plus(&o.build),
        }
    }

    fn hit_ratio(&self) -> f64 {
        let all = self.hits + self.misses;
        if all > 0.0 {
            self.hits / all
        } else {
            0.0
        }
    }
}

/// Request lines the timed phases draw from.
enum Traffic<'a> {
    Dse(Vec<Vec<Line>>),
    Interactive(&'a WarmSet),
    Cold(Mutex<ColdSource>),
}

/// One timed phase: client observations plus server deltas.
struct Phase {
    obs: Observed,
    from: Instant,
    seconds: f64,
    server: ServerDelta,
}

impl Phase {
    /// Passing predictions per second: the median over the phase's whole
    /// seconds, so a short stall of the host does not move it.
    fn preds_per_s(&self) -> f64 {
        let bins = (self.seconds as usize).max(1);
        let mut per_bin = vec![0.0; bins];
        for d in &self.obs.lines {
            let b = d.at.saturating_duration_since(self.from).as_secs_f64() as usize;
            if b < bins {
                per_bin[b] += d.ok as f64;
            }
        }
        median(&per_bin)
    }

    fn latency(&self, tail_pct: f64) -> Latency {
        let lat: Vec<f64> = self.obs.lines.iter().map(|d| d.lat_us).collect();
        Latency::at(&lat, tail_pct)
    }
}

/// Servers set up per run; `setup_s` is the median over them. A warm set-up
/// builds the working set (2 to 4 s on one core), so three of them keep a
/// run inside its time budget; a `cold_mix` set-up is only a process start
/// (about 10 ms), so it takes more of them for a steady median.
fn setups(w: Workload) -> usize {
    match w {
        Workload::ColdMix => 15,
        Workload::DseWarm | Workload::Interactive => 3,
    }
}

/// How many of a run's servers, the last ones set up, are timed, each for
/// an equal share of the run; latency and throughput are the median over
/// them, so no single server's start-up luck (its heap layout, where its
/// threads landed) sets the result.
/// `cold_mix` is slow enough that one server needs the whole run for its p99
/// to have ten samples beyond; a traced run still times two, one of them
/// traced.
fn timed_servers(w: Workload, traced_run: bool) -> usize {
    match w {
        Workload::ColdMix if traced_run => 2,
        Workload::ColdMix => 1,
        Workload::DseWarm | Workload::Interactive => setups(w),
    }
}

fn run_phase(
    w: Workload,
    server: &Server,
    traffic: &Traffic<'_>,
    seed: u64,
    seconds: f64,
    traced: bool,
    conns: usize,
) -> Result<Phase, String> {
    let start = Instant::now();
    let from = start + WARMUP;
    let until = from + Duration::from_secs_f64(seconds);
    let want_cached = w.warm();
    let (obs, before) = std::thread::scope(|s| {
        let load = s.spawn(|| match traffic {
            Traffic::Dse(lines) => {
                let next = |c: usize, seq: u64| lines[c][seq as usize % lines[c].len()].clone();
                closed_loop(
                    &server.addr,
                    conns,
                    Window { from, until },
                    want_cached,
                    traced,
                    seed,
                    &next,
                )
            }
            Traffic::Cold(source) => {
                let next = |_: usize, _: u64| source.lock().expect("source lock").next_line();
                closed_loop(
                    &server.addr,
                    conns,
                    Window { from, until },
                    want_cached,
                    traced,
                    seed,
                    &next,
                )
            }
            Traffic::Interactive(set) => {
                let horizon = (WARMUP.as_secs_f64() + seconds) * 1e6;
                let schedule = set.interactive_schedule(seed, horizon);
                open_loop(
                    &server.addr,
                    start,
                    WARMUP.as_secs_f64() * 1e6,
                    &schedule,
                    want_cached,
                    traced,
                )
            }
        });
        std::thread::sleep(from.saturating_duration_since(Instant::now()));
        let before = Counters::scrape(server);
        (load.join().expect("load thread panicked"), before)
    });
    let after = Counters::scrape(server)?;
    Ok(Phase {
        obs,
        from,
        seconds,
        server: ServerDelta::between(&before?, &after),
    })
}

/// The held-out check set, sent after the timed phase: every reply must
/// equal the benchmark's own prediction bit for bit; errors are against the
/// cycle-level simulator.
struct Accuracy {
    attempted: u64,
    failed: u64,
    err_mean_pct: f64,
    err_gt10_pct: f64,
    first_failure: Option<String>,
}

fn check_accuracy(server: &Server, fx: &Fixtures, sweep: SweepScope) -> Result<Accuracy, String> {
    let reqs = fx
        .check
        .iter()
        .map(|p| (p.region.clone(), p.arch.clone()))
        .collect();
    let line = Line::new(reqs, 1, true);
    let reply = server.request(line.text.trim_end())?;
    let mut replies = Vec::new();
    let mut acc = Accuracy {
        attempted: fx.check.len() as u64,
        failed: 0,
        err_mean_pct: 0.0,
        err_gt10_pct: 0.0,
        first_failure: None,
    };
    if parse_replies(&reply, &mut replies).is_err() || replies.len() != fx.check.len() {
        acc.failed = acc.attempted;
        acc.first_failure = Some(format!("bad check-set reply {}", reply.trim_end()));
        return Ok(acc);
    }
    let mut errs = Vec::new();
    for ((r, p), &id) in replies.iter().zip(&fx.check).zip(&line.ids) {
        let want = p.expected(sweep);
        let ok = r.id == Some(id)
            && !r.has_error
            && !r.approx
            && r.cpi.map(f64::to_bits) == Some(want.to_bits());
        if !ok {
            acc.failed += 1;
            acc.first_failure.get_or_insert_with(|| {
                format!("check pair {id}: served {:?}, expected {want}", r.cpi)
            });
            continue;
        }
        errs.push((want - p.label).abs() / p.label * 100.0);
    }
    if !errs.is_empty() {
        acc.err_mean_pct = errs.iter().sum::<f64>() / errs.len() as f64;
        acc.err_gt10_pct =
            errs.iter().filter(|&&e| e > 10.0).count() as f64 / errs.len() as f64 * 100.0;
    }
    Ok(acc)
}

/// The host's cumulative CPU time split as `(steal, all)` in clock ticks,
/// from `/proc/stat`. Steal is time this machine's cores were runnable but
/// the hypervisor ran someone else; it is recorded with each result so runs
/// made while the host was busy can be told apart.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Milliseconds a fixed piece of integer and memory work takes on the
/// current core: the median of five tries. Recorded at the start and end of
/// each run, it shows how fast the host let this core run, which on a
/// shared host changes by up to 2x from one minute to the next and moves
/// every timing of the run with it.
fn host_probe_ms() -> f64 {
    let mut table = vec![0u64; 1 << 17];
    let mut times = Vec::with_capacity(5);
    for round in 0..5u64 {
        let t = Instant::now();
        let mut x = round;
        for _ in 0..1_000_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 47) as usize;
            table[i] = table[i].wrapping_add(x);
        }
        std::hint::black_box(&table);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next())
                            .map(str::to_string)
                    })
            })
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serializes")
}

/// Spans the traced run reports, each as `.calls`, `.ms` and `.p50_us`.
const SPANS: [&str; 26] = [
    "serve.decode",
    "serve.encode",
    "serve.service",
    "core.store_get",
    "core.assemble",
    "core.precompute_perarch",
    "core.precompute_quantized",
    "ml.forward",
    "trace.resolve",
    "trace.generate_region",
    "riscv.parse_elf",
    "riscv.execute",
    "analytic.analyze_static",
    "analytic.rob_model",
    "analytic.queue_model",
    "analytic.issue_width_bound",
    "analytic.pipe_bounds",
    "analytic.frontend",
    "analytic.encode",
    "cache.analyze_data",
    "cache.analyze_inst",
    "branch.analyze_branches",
    "cyclesim.simulate",
    "loadgen.write",
    "loadgen.wait",
    "loadgen.check",
];

/// Cost of recording one empty span (ns).
fn span_cost_ns() -> f64 {
    let mut spans = Spans::default();
    let n = 100_000;
    let t = Instant::now();
    for i in 0..n {
        spans.time("x", || std::hint::black_box(i));
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(n)
}

struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    fingerprint: String,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let profile = ReproProfile::quick();
    let ticks_at_start = cpu_ticks();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Fixtures are built outside any timing, on every core.
    let key = fixtures::cache_key(&args.server)?;
    let fx = fixtures::load_or_build(&args.fixtures, key)?;
    // Everything measured runs on one core: this process, and the servers
    // it starts, which inherit the pin. On a shared host the hypervisor
    // gives this machine anywhere from one to two cores' worth of time from
    // minute to minute (two threads of fixed work took from 1x to 2x the
    // time of one), and with load generator and server spread over two
    // cores, `dse_warm` throughput moved between 32k and 113k predictions
    // per second across runs of the same code.
    let cores = if affinity::pin_to_one_core() {
        1
    } else {
        nproc
    };
    let probe_at_start = host_probe_ms();
    let conns = cores.min(2);
    let arenas = server::malloc_arenas();
    let connections = if w == Workload::Interactive { 1 } else { conns };
    let mut server_args = vec![
        "--model".to_string(),
        fx.model_path.display().to_string(),
        "--profile".into(),
        "quick".into(),
    ];
    server_args.extend(w.server_args());
    let sweep = if w.warm() {
        SweepScope::Quantized
    } else {
        SweepScope::PerArch
    };

    let warm_set = WarmSet::new(args.seed, profile.region_len as u64);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut problems: Vec<String> = Vec::new();

    let traffic = match w {
        Workload::DseWarm => Traffic::Dse(
            (0..conns)
                .map(|c| warm_set.dse_lines(args.seed, c, DSE_LINES_PER_CONN))
                .collect(),
        ),
        Workload::Interactive => Traffic::Interactive(&warm_set),
        Workload::ColdMix => Traffic::Cold(Mutex::new(ColdSource::new(
            args.seed,
            profile.region_len as u64,
            riscv_elfs().map_err(|e| format!("cannot list {}: {e}", workload::RISCV_DIR))?,
        ))),
    };
    // Each server: set up (spawn → listening with the model loaded → for
    // warm workloads every working-set region's store built), then, for the
    // last ones, timed for a share of the run. A traced run traces every
    // other timed server; the untraced ones are its reference, and the
    // difference is the tracing overhead. The check set runs on the last
    // server.
    let n_timed = timed_servers(w, args.trace);
    let seg_secs = args.seconds as f64 / n_timed as f64;
    let n_setups = setups(w);
    let mut setup_s = Vec::with_capacity(n_setups);
    let mut rss_mb = Vec::with_capacity(n_timed);
    let mut segs: Vec<(bool, Phase)> = Vec::with_capacity(n_timed);
    let mut stats = serde_json::Value::Null;
    let mut accuracy = None;
    let mut remeasured: Vec<String> = Vec::new();
    for i in 0..n_setups {
        let t0 = Instant::now();
        // Ready means listening with the model loaded: the server logs
        // `listening on` only after both.
        let server = Server::spawn(&args.server, &server_args)?;
        if w.warm() {
            let line = warm_set.setup_line();
            let reply = server.request(line.text.trim_end())?;
            let bad = wire::check_line(&reply, &line, false, &mut Vec::new());
            attempted += line.ids.len() as u64;
            failed += bad as u64;
            if bad > 0 {
                problems.push(format!(
                    "set-up reply failed its check: {}",
                    reply.trim_end()
                ));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        // Outside the timing: an idle server looks for new connections every
        // 25 ms, so a first request waits a random part of that, which would
        // make a `cold_mix` set-up bimodal (12 ms or 40 ms).
        server.cmd(r#"{"cmd":"ping"}"#)?;
        if i == 0 {
            stats = server.cmd(r#"{"cmd":"stats"}"#)?;
        }
        let Some(k) = (i + n_timed).checked_sub(n_setups) else {
            continue;
        };
        let traced = args.trace && k % 2 == 1;
        let seed = args.seed ^ (k as u64) << 32;
        let mut p = run_phase(w, &server, &traffic, seed, seg_secs, traced, conns)?;
        while let Some(why) = open_loop_invalid(w, &p.obs) {
            if remeasured.len() == REMEASURES {
                problems.push(format!("open loop invalid: {why}"));
                break;
            }
            eprintln!("[perfbench] segment {k} discarded and measured again: {why}");
            remeasured.push(why);
            // The discarded segment's replies were still checked.
            attempted += p.obs.attempted;
            failed += p.obs.failed;
            if let Some(f) = p.obs.first_failure.take() {
                problems.push(f);
            }
            let seed = seed ^ (remeasured.len() as u64) << 48;
            p = run_phase(w, &server, &traffic, seed, seg_secs, traced, conns)?;
        }
        segs.push((traced, p));
        rss_mb.push(server.peak_rss_mb()?);
        if i + 1 == n_setups {
            accuracy = Some(check_accuracy(&server, &fx, sweep)?);
        }
    }
    let accuracy = accuracy.expect("the last server runs the check set");
    let rss_mb = median(&rss_mb);

    let expect_hits = if w.warm() { 1.0 } else { 0.0 };
    for (_, p) in &segs {
        attempted += p.obs.attempted;
        failed += p.obs.failed;
        if let Some(f) = &p.obs.first_failure {
            problems.push(f.clone());
        }
        let ratio = p.server.hit_ratio();
        if ratio != expect_hits || p.server.hits + p.server.misses == 0.0 {
            problems.push(format!(
                "cache hit ratio over a timed segment is {ratio}, expected {expect_hits}"
            ));
        }
    }
    attempted += accuracy.attempted;
    failed += accuracy.failed;
    if let Some(f) = &accuracy.first_failure {
        problems.push(f.clone());
    }

    // Every segment's tail at one percentile: p99 when all support it.
    let n_min = segs
        .iter()
        .map(|(_, p)| p.obs.lines.len())
        .min()
        .unwrap_or(0);
    let tail_pct = tail_percentile(n_min);
    let seg_lat: Vec<Latency> = segs.iter().map(|(_, p)| p.latency(tail_pct)).collect();
    let lat_p50 = median(&seg_lat.iter().map(|l| l.p50).collect::<Vec<_>>());
    let lat_tail = median(&seg_lat.iter().map(|l| l.tail).collect::<Vec<_>>());
    let n_lines: usize = seg_lat.iter().map(|l| l.n).sum();
    let lag_us: Vec<f64> = segs
        .iter()
        .flat_map(|(_, p)| p.obs.lag_us.iter().copied())
        .collect();
    let lag = Latency::of(&lag_us);
    let backlog_end = segs
        .iter()
        .map(|(_, p)| p.obs.backlog_end)
        .max()
        .unwrap_or(0);
    if n_min == 0 {
        problems.push("a timed segment completed no line".into());
    }

    let mut report = Report::default();
    let mut replay_cores = 0;
    if !args.trace {
        report.add("setup_s", median(&setup_s), "s");
        let preds: Vec<f64> = segs.iter().map(|(_, p)| p.preds_per_s()).collect();
        report.add("preds_per_s", median(&preds), "1/s");
        report.add("lat_p50_us", lat_p50, "us");
        report.add("lat_p99_us", lat_tail, "us");
        report.add(
            "ok_ratio",
            (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
            "ratio",
        );
        report.add("server_rss_mb", rss_mb, "MB");
        report.add("cpi_err_mean_pct", accuracy.err_mean_pct, "%");
        report.add("cpi_err_gt10_pct", accuracy.err_gt10_pct, "%");
    } else {
        let lines: Vec<Line> = match &traffic {
            Traffic::Dse(lines) => lines[0].iter().take(REPLAY_LINES_DSE).cloned().collect(),
            // Twice the mean span of the lines needed: enough arrivals.
            Traffic::Interactive(set) => set
                .interactive_schedule(
                    args.seed,
                    2.0 * REPLAY_LINES_INTERACTIVE as f64 * INTERACTIVE_GAP_US,
                )
                .into_iter()
                .take(REPLAY_LINES_INTERACTIVE)
                .map(|(_, l)| l)
                .collect(),
            Traffic::Cold(_) => {
                let mut src = ColdSource::new(
                    args.seed,
                    profile.region_len as u64,
                    riscv_elfs().map_err(|e| e.to_string())?,
                );
                (0..REPLAY_LINES_COLD).map(|_| src.next_line()).collect()
            }
        };
        let out = replay::replay(w, &fx.model, &profile, &warm_set.regions, &lines)?;
        replay_cores = out.cores;
        for f in out.failures.iter().take(3) {
            problems.push(f.clone());
        }
        failed += out.failures.len() as u64;
        let mut spans = out.spans;
        for (_, p) in segs.iter().filter(|(traced, _)| *traced) {
            for us in &p.obs.write_us {
                spans.add("loadgen.write", *us);
            }
            for us in &p.obs.wait_us {
                spans.add("loadgen.wait", *us);
            }
            for us in &p.obs.check_us {
                spans.add("loadgen.check", *us);
            }
        }
        for s in SPANS {
            report.add(format!("{s}.calls"), spans.calls(s) as f64, "count");
            report.add(format!("{s}.ms"), spans.total_us(s) / 1e3, "ms");
            report.add(format!("{s}.p50_us"), spans.p50_us(s), "us");
        }
        let sd = &segs
            .iter()
            .fold(ServerDelta::default(), |acc, (_, p)| acc.plus(&p.server));
        report.add("serve.cache_hit_ratio", sd.hit_ratio(), "ratio");
        report.add("serve.batch_mean", sd.batch.mean(), "count");
        report.add(
            "serve.queue_wait_p50_us",
            sd.queue_wait.quantile(0.5) * 1e6,
            "us",
        );
        report.add(
            "serve.queue_wait_p99_us",
            sd.queue_wait.quantile(0.99) * 1e6,
            "us",
        );
        let server_p50 = sd.latency.quantile(0.5) * 1e6;
        report.add("serve.server_lat_p50_us", server_p50, "us");
        report.add("serve.build_p50_ms", sd.build.quantile(0.5) * 1e3, "ms");
        report.add("serve.precomputes", sd.precomputes, "count");
        report.add("serve.coalesced", sd.coalesced, "count");
        report.add("serve.wire_overhead_us", lat_p50 - server_p50, "us");

        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let (sw, ss) = (mean(&out.service_whole_us), mean(&out.service_stages_us));
        report.add("serve.service.whole_us", sw, "us");
        report.add("serve.service.stages_us", ss, "us");
        report.add("serve.service.residual_us", sw - ss, "us");
        let (pw, ps) = (
            mean(&out.precompute_whole_us),
            mean(&out.precompute_stages_us),
        );
        report.add("core.precompute.whole_ms", pw / 1e3, "ms");
        report.add("core.precompute.stages_ms", ps / 1e3, "ms");
        report.add("core.precompute.residual_ms", (pw - ps) / 1e3, "ms");

        let per_s = |work: f64, span: &str| {
            let us = spans.total_us(span);
            if us > 0.0 {
                work / (us / 1e6)
            } else {
                0.0
            }
        };
        let rows = out.rows as f64;
        report.add(
            "ml.forward.gflop_per_s",
            per_s(rows * out.flops_per_row, "ml.forward") / 1e9,
            "GFLOP/s",
        );
        // f32 arena reads plus f32 row writes per assembled value.
        report.add(
            "core.assemble.gb_per_s",
            per_s(rows * out.dim as f64 * 8.0, "core.assemble") / 1e9,
            "GB/s",
        );
        report.add(
            "trace.instrs_per_s",
            per_s(out.generated_instrs as f64, "trace.generate_region"),
            "1/s",
        );
        report.add(
            "riscv.instrs_per_s",
            per_s(out.executed_instrs as f64, "riscv.execute"),
            "1/s",
        );
        report.add(
            "cyclesim.instrs_per_s",
            per_s(out.simulated_instrs as f64, "cyclesim.simulate"),
            "1/s",
        );
        let per_call = |span: &str| spans.total_us(span) / spans.calls(span).max(1) as f64;
        let us_per_pred =
            (spans.total_us("core.assemble") + spans.total_us("ml.forward")) / rows.max(1.0);
        report.add("speed.us_per_pred", us_per_pred, "us");
        let sim = per_call("cyclesim.simulate");
        report.add(
            "speed.cyclesim_over_pred",
            if us_per_pred > 0.0 {
                sim / us_per_pred
            } else {
                0.0
            },
            "ratio",
        );
        report.add(
            "speed.precompute_q_over_cyclesim",
            if sim > 0.0 {
                per_call("core.precompute_quantized") / sim
            } else {
                0.0
            },
            "ratio",
        );
        // The speed claims stand next to the accuracy they were bought with.
        report.add("check.cpi_err_mean_pct", accuracy.err_mean_pct, "%");
        report.add("check.cpi_err_gt10_pct", accuracy.err_gt10_pct, "%");
        report.add("loadgen.lag_p99_us", lag.tail, "us");
        report.add("loadgen.backlog_end", backlog_end as f64, "count");
        report.add("loadgen.lines", n_lines as f64, "count");
        let p50_where = |traced: bool| {
            let v: Vec<f64> = segs
                .iter()
                .zip(&seg_lat)
                .filter(|((t, _), _)| *t == traced)
                .map(|(_, l)| l.p50)
                .collect();
            median(&v)
        };
        report.add(
            "tracing.overhead_us",
            p50_where(true) - p50_where(false),
            "us",
        );
        report.add("tracing.span_cost_ns", span_cost_ns(), "ns");
    }

    let probe_at_end = host_probe_ms();
    let ticks_at_end = cpu_ticks();
    let steal_pct = (ticks_at_end.0 - ticks_at_start.0) as f64
        / (ticks_at_end.1 - ticks_at_start.1).max(1) as f64
        * 100.0;
    let s = |k: &str| stats.get(k).map_or("null".to_string(), |v| v.to_string());
    let fingerprint = format!(
        "{{\"fingerprint\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"cores_used\":{cores},\"connections\":{connections},\"kernel\":{},\"store_encoding\":{},\
         \"model_encoding\":{},\"workers\":{},\"precompute_workers\":{},\"profile\":\"quick\",\
         \"git_commit\":{},\"fixture_key\":\"{key:016x}\",\"fixtures_built\":{},\
         \"replay_cores\":{replay_cores},\"malloc_arena_max\":{},\"host_steal_pct\":{steal_pct:.1},\"host_probe_ms\":[{probe_at_start:.2},{probe_at_end:.2}]}},\"samples\":{{\"lines\":{},\"tail_percentile\":{},\
         \"setups_ms\":{:?},\"segments_p50_tail_n\":{:?},\"segments_discarded\":{:?}}},\"working_set\":{:?},\"check_pairs\":{}}}",
        json_str(w.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        s("kernel"),
        s("store_encoding"),
        s("model_encoding"),
        s("workers"),
        s("precompute_workers"),
        json_str(&git_commit()),
        fx.built,
        arenas,
        n_lines,
        tail_pct,
        setup_s.iter().map(|s| (s * 1e4).round() / 10.0).collect::<Vec<_>>(),
        seg_lat
            .iter()
            .map(|l| [l.p50.round(), l.tail.round(), l.n as f64])
            .collect::<Vec<_>>(),
        remeasured,
        warm_set
            .regions
            .iter()
            .map(|r| format!("{}/{}@{}", r.workload, r.trace, r.start))
            .collect::<Vec<_>>(),
        fx.check.len(),
    );
    Ok(Outcome {
        report,
        attempted,
        failed,
        problems,
        fingerprint,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    for m in &outcome.report.metrics {
        eprintln!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = outcome
        .report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!("{}", outcome.fingerprint);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
