//! Seeded request generation for the three workloads.
//!
//! Everything the server receives is generated here from the run's seed:
//! the working set of regions, the microarchitectures, and the request lines.

use std::collections::HashSet;
use std::fmt::Write as _;

use concorde_suite::cache::{L1_SIZES_KB, L2_SIZES_KB, PREFETCH_DEGREES};
use concorde_suite::serve::ArchSpec;
use concorde_suite::trace::{by_id_ref, suite_cached, WorkloadClass, WorkloadSpec, SEGMENT_LEN};

/// Requests per line on `dse_warm`.
pub const DSE_BATCH: usize = 128;
/// Programs of the `dse_warm` / `interactive` working set, two per workload
/// class, each with the trace its region is drawn from. Both are fixed so
/// every seed sees the same mix of program behaviours; the seed picks where
/// in the trace each region starts. The trace is fixed because store builds
/// of different traces of one program differ in peak memory by up to a
/// quarter of the server's (O3's trace 5 against its trace 0), which made
/// `server_rss_mb` a property of the seed.
pub const WORKING_SET: [(&str, u32); 8] = [
    ("P1", 0),
    ("P13", 0),
    ("C1", 0),
    ("C2", 0),
    ("O1", 0),
    ("O3", 0),
    ("S1", 0),
    ("S5", 0),
];
/// Microarchitectures crossed with the working set.
pub const ARCH_SET: usize = 64;
/// Mean gap between `interactive` arrivals (µs): four times the server's
/// 1 ms batch deadline, so most requests arrive alone.
pub const INTERACTIVE_GAP_US: f64 = 4000.0;
/// Every `COLD_RISCV_EVERY`-th `cold_mix` request names a fresh `riscv:` id;
/// the others are generator regions.
pub const COLD_RISCV_EVERY: u64 = 5;
/// Directory of the vendored RV32IM binaries `cold_mix` draws from.
pub const RISCV_DIR: &str = "riscv-testdata";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DseWarm,
    Interactive,
    ColdMix,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "dse_warm" => Some(Workload::DseWarm),
            "interactive" => Some(Workload::Interactive),
            "cold_mix" => Some(Workload::ColdMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DseWarm => "dse_warm",
            Workload::Interactive => "interactive",
            Workload::ColdMix => "cold_mix",
        }
    }

    /// Whether every timed request must be a cache hit.
    pub fn warm(self) -> bool {
        self != Workload::ColdMix
    }

    /// Server flags beyond address and model.
    pub fn server_args(self) -> Vec<String> {
        match self {
            Workload::DseWarm | Workload::Interactive => vec!["--sweep".into(), "quantized".into()],
            // No store is ever reused, so a modest cache budget keeps the
            // server's memory flat once it fills instead of growing with
            // the number of requests served.
            Workload::ColdMix => vec![
                "--dynamic-workloads".into(),
                RISCV_DIR.into(),
                "--cache-bytes".into(),
                "32m".into(),
            ],
        }
    }
}

/// SplitMix64: a small, seedable generator (inputs only, not statistics).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// One program region as the wire names it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    pub workload: String,
    pub trace: u32,
    pub start: u64,
}

/// A segment-aligned region of `spec` leaving room for `len` instructions.
pub fn sample_region(spec: &WorkloadSpec, len: u64, rng: &mut Rng) -> Region {
    let trace = rng.below(u64::from(spec.n_traces.max(1))) as u32;
    region_of_trace(spec, trace, len, rng)
}

/// A segment-aligned region of trace `trace` of `spec` leaving room for
/// `len` instructions.
pub fn region_of_trace(spec: &WorkloadSpec, trace: u32, len: u64, rng: &mut Rng) -> Region {
    let max_seg = spec.trace_len.saturating_sub(len) / SEGMENT_LEN;
    Region {
        workload: spec.id.clone(),
        trace,
        start: rng.below(max_seg + 1) * SEGMENT_LEN,
    }
}

/// The suite's workload classes, in catalog order.
pub fn classes() -> Vec<WorkloadClass> {
    let mut out = Vec::new();
    for spec in suite_cached() {
        if !out.contains(&spec.class) {
            out.push(spec.class);
        }
    }
    out
}

/// A region of a workload drawn uniformly from `class`.
pub fn region_in_class(class: WorkloadClass, len: u64, rng: &mut Rng) -> Region {
    let members: Vec<&WorkloadSpec> = suite_cached().iter().filter(|s| s.class == class).collect();
    let spec: &&WorkloadSpec = rng.pick(&members);
    sample_region(spec, len, rng)
}

/// A microarchitecture drawn uniformly over the wire-settable parameters'
/// ranges (paper Table 1), on the ARM N1 base.
pub fn sample_arch(rng: &mut Rng) -> ArchSpec {
    ArchSpec {
        base: None,
        rob: Some(rng.range(1, 1024)),
        lq: Some(rng.range(1, 256)),
        sq: Some(rng.range(1, 256)),
        alu: Some(rng.range(1, 8)),
        fp: Some(rng.range(1, 8)),
        ls: Some(rng.range(1, 8)),
        fetch: Some(rng.range(1, 12)),
        decode: Some(rng.range(1, 12)),
        rename: Some(rng.range(1, 12)),
        commit: Some(rng.range(1, 12)),
        l1d: Some(*rng.pick(&L1_SIZES_KB)),
        l1i: Some(*rng.pick(&L1_SIZES_KB)),
        l2: Some(*rng.pick(&L2_SIZES_KB)),
        prefetch: Some(*rng.pick(&PREFETCH_DEGREES)),
    }
}

/// Appends the wire JSON of one request.
pub fn write_request(out: &mut String, id: u64, region: &Region, arch: &ArchSpec) {
    let _ = write!(
        out,
        "{{\"id\":{id},\"workload\":\"{}\",\"trace\":{},\"start\":{},\"arch\":{{",
        region.workload, region.trace, region.start
    );
    let mut first = true;
    for (k, v) in [
        ("rob", arch.rob),
        ("lq", arch.lq),
        ("sq", arch.sq),
        ("alu", arch.alu),
        ("fp", arch.fp),
        ("ls", arch.ls),
        ("fetch", arch.fetch),
        ("decode", arch.decode),
        ("rename", arch.rename),
        ("commit", arch.commit),
        ("l1d", arch.l1d),
        ("l1i", arch.l1i),
        ("l2", arch.l2),
        ("prefetch", arch.prefetch),
    ] {
        if let Some(v) = v {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{k}\":{v}");
        }
    }
    out.push_str("}}");
}

/// One request line and the ids it carries, in order.
#[derive(Debug, Clone)]
pub struct Line {
    pub text: String,
    pub ids: Vec<u64>,
    /// The requests, for the in-process replay.
    pub reqs: Vec<(Region, ArchSpec)>,
}

impl Line {
    pub fn new(reqs: Vec<(Region, ArchSpec)>, first_id: u64, batch: bool) -> Line {
        let mut text = String::new();
        if batch {
            text.push('[');
        }
        let mut ids = Vec::with_capacity(reqs.len());
        for (i, (r, a)) in reqs.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let id = first_id + i as u64;
            write_request(&mut text, id, r, a);
            ids.push(id);
        }
        if batch {
            text.push(']');
        }
        text.push('\n');
        Line { text, ids, reqs }
    }
}

/// The seeded working set of `dse_warm` and `interactive`: regions across
/// classes crossed with microarchitectures spread over the design space.
pub struct WarmSet {
    pub regions: Vec<Region>,
    pub archs: Vec<ArchSpec>,
}

impl WarmSet {
    pub fn new(seed: u64, region_len: u64) -> WarmSet {
        let mut rng = Rng::new(seed);
        let regions = WORKING_SET
            .iter()
            .map(|&(id, trace)| {
                region_of_trace(
                    by_id_ref(id).expect("suite id"),
                    trace,
                    region_len,
                    &mut rng,
                )
            })
            .collect();
        let archs = (0..ARCH_SET).map(|_| sample_arch(&mut rng)).collect();
        WarmSet { regions, archs }
    }

    /// A uniformly drawn (region, arch) pair.
    pub fn draw(&self, rng: &mut Rng) -> (Region, ArchSpec) {
        (
            rng.pick(&self.regions).clone(),
            rng.pick(&self.archs).clone(),
        )
    }

    /// The set-up line: one request per region, so each region's store is
    /// built before timing starts.
    pub fn setup_line(&self) -> Line {
        let reqs = self
            .regions
            .iter()
            .map(|r| (r.clone(), ArchSpec::default()))
            .collect();
        Line::new(reqs, 1, true)
    }

    /// `n` batch lines of [`DSE_BATCH`] requests for connection `conn`.
    pub fn dse_lines(&self, seed: u64, conn: usize, n: usize) -> Vec<Line> {
        let mut rng = Rng::new(seed ^ (0xD5E0 + conn as u64).wrapping_mul(0x9E37_79B9));
        (0..n)
            .map(|i| {
                let reqs = (0..DSE_BATCH).map(|_| self.draw(&mut rng)).collect();
                Line::new(reqs, (i * DSE_BATCH) as u64 + 1, true)
            })
            .collect()
    }

    /// The open-loop schedule: `(due offset µs, line)` for arrivals in
    /// `[0, horizon_us)`, Poisson at one request per [`INTERACTIVE_GAP_US`].
    pub fn interactive_schedule(&self, seed: u64, horizon_us: f64) -> Vec<(f64, Line)> {
        let mut rng = Rng::new(seed ^ 0x1A7E_8AC7);
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += -INTERACTIVE_GAP_US * (1.0 - rng.unit()).ln();
            if t >= horizon_us {
                return out;
            }
            let id = out.len() as u64 + 1;
            out.push((t, Line::new(vec![self.draw(&mut rng)], id, false)));
        }
    }
}

/// Endless source of `cold_mix` requests, each naming a region never
/// requested before. The mix is fixed by position: every
/// [`COLD_RISCV_EVERY`]-th request is a `riscv:` id (the binaries in turn),
/// the rest are generator regions over the whole suite (programs in a seeded
/// order, each once per round); the seed picks regions, budgets and archs.
pub struct ColdSource {
    rng: Rng,
    seen: HashSet<Region>,
    elfs: Vec<String>,
    order: Vec<usize>,
    region_len: u64,
    n: u64,
}

impl ColdSource {
    pub fn new(seed: u64, region_len: u64, elfs: Vec<String>) -> ColdSource {
        let mut rng = Rng::new(seed ^ 0xC01D_0C01D);
        let mut order: Vec<usize> = (0..suite_cached().len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        ColdSource {
            rng,
            seen: HashSet::new(),
            elfs,
            order,
            region_len,
            n: 0,
        }
    }

    /// The next fresh request.
    pub fn next_request(&mut self) -> (Region, ArchSpec) {
        let i = self.n;
        self.n += 1;
        let riscv = (i + 1).is_multiple_of(COLD_RISCV_EVERY) && !self.elfs.is_empty();
        let k = if riscv {
            i / COLD_RISCV_EVERY
        } else {
            i - i / COLD_RISCV_EVERY
        };
        loop {
            let region = if riscv {
                // A budget past the program's end runs it to completion, so
                // the new suffix only makes the id (and its interpretation)
                // new. Starts stay inside the shortest vendored program.
                let elf = &self.elfs[k as usize % self.elfs.len()];
                let budget = 1_000_000 + self.rng.below(15_000_000);
                Region {
                    workload: format!("riscv:{RISCV_DIR}/{elf}@{budget}"),
                    trace: 0,
                    start: self.rng.below(4) * SEGMENT_LEN,
                }
            } else {
                let spec = &suite_cached()[self.order[k as usize % self.order.len()]];
                sample_region(spec, self.region_len, &mut self.rng)
            };
            if self.seen.insert(region.clone()) {
                return (region, sample_arch(&mut self.rng));
            }
        }
    }

    /// The next fresh single-request line.
    pub fn next_line(&mut self) -> Line {
        let req = self.next_request();
        Line::new(vec![req], self.n, false)
    }
}

/// File names of the vendored ELF binaries, sorted.
pub fn riscv_elfs() -> std::io::Result<Vec<String>> {
    let mut out: Vec<String> = std::fs::read_dir(RISCV_DIR)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".elf"))
        .collect();
    out.sort();
    Ok(out)
}
