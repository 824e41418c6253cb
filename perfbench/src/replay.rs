//! The traced in-process replay: a seeded sample of a workload's requests
//! run through each crate's public functions, with a span around every call.
//!
//! Spans are recorded here, around the calls, not inside the program. The
//! replay runs on the one core the benchmark pins itself to (`cores` records
//! whether the host allowed the pin), so stages that the program would spread
//! over threads run one after another and their times add up to the whole
//! they are part of; what the named stages do not cover is reported as a
//! residual.

use std::collections::HashMap;
use std::sync::Arc;

use concorde_suite::analytic::{
    analyze_branches, analyze_data, analyze_inst, analyze_static, fetch_buffers_model,
    icache_fills_model, issue_width_bound, pipe_bounds, queue_model, rob_model,
    throughput_from_marks, window_counts, IssueClass, QueueKind, ROB_SWEEP,
};
use concorde_suite::core::{
    sweep_content_hash, AssemblyScratch, ConcordePredictor, FeatureKey, FeatureStore, KeyStr,
    ReproProfile, ShardedStoreCache, SweepConfig,
};
use concorde_suite::cyclesim::{simulate_warmed, MicroArch, SimOptions};
use concorde_suite::ml::MlpScratch;
use concorde_suite::riscv::{execute, parse_elf32, parse_workload_id};
use concorde_suite::serve::protocol::decode_request_line;
use concorde_suite::serve::{
    BatchScratch, PredictRequest, PredictResponse, PredictionService, ServeConfig, SweepScope,
};
use concorde_suite::trace::{resolve_workload, BranchKind, Instruction};

use crate::fixtures::materialize;
use crate::stats::Spans;
use crate::workload::{Line, Region, Workload, RISCV_DIR};

/// Quantized precomputes decomposed stage by stage (each is a few hundred
/// milliseconds on one core).
const DECOMPOSE_QUANTIZED: usize = 1;
/// (region, arch) pairs simulated for the ground-truth speed ratios.
const CYCLESIM_PAIRS: usize = 6;

/// What the replay measured besides its spans.
#[derive(Debug, Default)]
pub struct ReplayOut {
    pub spans: Spans,
    /// Feature rows assembled and evaluated.
    pub rows: u64,
    pub dim: usize,
    pub flops_per_row: f64,
    pub generated_instrs: u64,
    pub executed_instrs: u64,
    pub simulated_instrs: u64,
    /// Per line: the in-process service's time and the sum of the stages
    /// its requests went through (µs).
    pub service_whole_us: Vec<f64>,
    pub service_stages_us: Vec<f64>,
    /// Per decomposed precompute: the whole and the sum of its named stages
    /// (µs).
    pub precompute_whole_us: Vec<f64>,
    pub precompute_stages_us: Vec<f64>,
    /// Cores the replay ran on.
    pub cores: usize,
    pub failures: Vec<String>,
}

/// Runs the named stages of `FeatureStore::precompute_threaded` one by one,
/// in the order it calls them, and returns the sum of their times (µs).
/// Work between the named calls (window conversion, arena fill) is left
/// out; it is the precompute's residual.
fn decompose(
    warm: &[Instruction],
    instrs: &[Instruction],
    sweep: &SweepConfig,
    profile: &ReproProfile,
    spans: &mut Spans,
) -> f64 {
    let names = [
        "analytic.analyze_static",
        "branch.analyze_branches",
        "analytic.encode",
        "cache.analyze_data",
        "cache.analyze_inst",
        "analytic.rob_model",
        "analytic.queue_model",
        "analytic.issue_width_bound",
        "analytic.pipe_bounds",
        "analytic.frontend",
    ];
    let before: Vec<f64> = names.iter().map(|n| spans.total_us(n)).collect();
    let k = profile.window_k;
    let enc = profile.encoding;

    let info = spans.time("analytic.analyze_static", || analyze_static(instrs));
    let n = info.len();
    let binfo = spans.time("branch.analyze_branches", || analyze_branches(warm, instrs));
    std::hint::black_box(&binfo);
    let isb = window_counts(n, k, |i| info.is_isb[i]);
    spans.time("analytic.encode", || {
        std::hint::black_box(enc.encode_u32(&isb))
    });
    for kind in [
        BranchKind::DirectUncond,
        BranchKind::DirectCond,
        BranchKind::Indirect,
    ] {
        let counts = window_counts(n, k, |i| info.branch_kinds[i] == Some(kind));
        spans.time("analytic.encode", || {
            std::hint::black_box(enc.encode_u32(&counts))
        });
    }

    let mut d_cfgs = Vec::new();
    for cfg in &sweep.d_cfgs {
        if !d_cfgs
            .iter()
            .any(|c: &concorde_suite::cache::MemConfig| c.data_key() == cfg.data_key())
        {
            d_cfgs.push(*cfg);
        }
    }
    let mut i_cfgs = Vec::new();
    for cfg in &sweep.i_cfgs {
        if !i_cfgs
            .iter()
            .any(|c: &concorde_suite::cache::MemConfig| c.inst_key() == cfg.inst_key())
        {
            i_cfgs.push(*cfg);
        }
    }
    let mut rob_grid: Vec<u32> = sweep.rob.iter().copied().chain(ROB_SWEEP).collect();
    rob_grid.sort_unstable();
    rob_grid.dedup();
    let rob_last = *ROB_SWEEP.last().expect("ROB_SWEEP is non-empty");

    let datas: Vec<_> = d_cfgs
        .iter()
        .map(|c| spans.time("cache.analyze_data", || analyze_data(warm, instrs, *c)))
        .collect();
    let insts: Vec<_> = i_cfgs
        .iter()
        .map(|c| spans.time("cache.analyze_inst", || analyze_inst(warm, instrs, *c)))
        .collect();

    let encode = |spans: &mut Spans, raw: &[f64]| {
        spans.time("analytic.encode", || std::hint::black_box(enc.encode(raw)));
    };
    for data in &datas {
        // The per-window mean load latency the store keeps per memory
        // configuration.
        // A trailing partial window only counts when it is the only one.
        let windows = if n < k { usize::from(n > 0) } else { n / k };
        let raw: Vec<f64> = (0..windows)
            .map(|w| {
                let lat: Vec<u32> = (w * k..((w + 1) * k).min(n))
                    .filter(|&i| info.ops[i].is_load())
                    .map(|i| data.exec_latency[i])
                    .collect();
                if lat.is_empty() {
                    0.0
                } else {
                    lat.iter().map(|&l| f64::from(l)).sum::<f64>() / lat.len() as f64
                }
            })
            .collect();
        encode(spans, &raw);
    }
    for data in &datas {
        for &rv in &rob_grid {
            let r = spans.time("analytic.rob_model", || rob_model(&info, data, rv));
            encode(spans, &throughput_from_marks(&r.commit_cycles, k));
            if ROB_SWEEP.contains(&rv) {
                spans.time("analytic.encode", || {
                    std::hint::black_box(enc.encode_u32(&r.issue_latency));
                    std::hint::black_box(enc.encode_u32(&r.commit_latency));
                });
            }
            if rv == rob_last {
                spans.time("analytic.encode", || {
                    std::hint::black_box(enc.encode_u32(&r.exec_latency))
                });
            }
        }
        for (sizes, kind) in [(&sweep.lq, QueueKind::Load), (&sweep.sq, QueueKind::Store)] {
            for &q in sizes {
                let marks =
                    spans.time("analytic.queue_model", || queue_model(&info, data, q, kind));
                encode(spans, &throughput_from_marks(&marks, k));
            }
        }
    }
    for (grid, class) in [
        (&sweep.alu, IssueClass::Alu),
        (&sweep.fp, IssueClass::Fp),
        (&sweep.ls, IssueClass::LoadStore),
    ] {
        for &w in grid {
            let raw = spans.time("analytic.issue_width_bound", || {
                issue_width_bound(&info, class, w, k)
            });
            encode(spans, &raw);
        }
    }
    for &(lsp, lp) in &sweep.pipes {
        let b = spans.time("analytic.pipe_bounds", || pipe_bounds(&info, lsp, lp, k));
        encode(spans, &b.lower);
        encode(spans, &b.upper);
    }
    for inst in &insts {
        for &f in &sweep.fills {
            let marks = spans.time("analytic.frontend", || icache_fills_model(&info, inst, f));
            encode(spans, &throughput_from_marks(&marks, k));
        }
    }
    for inst in &insts {
        for &b in &sweep.buffers {
            let marks = spans.time("analytic.frontend", || fetch_buffers_model(&info, inst, b));
            encode(spans, &throughput_from_marks(&marks, k));
        }
    }
    names
        .iter()
        .zip(before)
        .map(|(n, b)| spans.total_us(n) - b)
        .sum()
}

/// Identity of a request's region in the replay's own store cache.
fn region_key(region: &Region, profile: &ReproProfile, sweep_hash: u64) -> FeatureKey {
    FeatureKey {
        workload: KeyStr::new(&region.workload),
        trace: region.trace,
        start: region.start,
        region_len: profile.region_len as u32,
        sweep_hash,
    }
}

/// Resolves a workload with spans: for a `riscv:` id the interpreter's two
/// stages are timed on the same bytes and `trace.resolve` keeps only its
/// self time. Returns the whole resolve time (µs).
fn traced_resolve(id: &str, out: &mut ReplayOut) -> Result<f64, String> {
    let mut child_us = 0.0;
    if id.starts_with("riscv:") {
        let (path, budget) = parse_workload_id(id)?;
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        let image = parse_elf32(&bytes).map_err(|e| e.to_string())?;
        let parse_us = t.elapsed().as_secs_f64() * 1e6;
        let t = std::time::Instant::now();
        let exec = execute(&image, budget);
        let exec_us = t.elapsed().as_secs_f64() * 1e6;
        out.spans.add("riscv.parse_elf", parse_us);
        out.spans.add("riscv.execute", exec_us);
        out.executed_instrs += exec.trace.len() as u64;
        child_us = parse_us + exec_us;
    }
    let t = std::time::Instant::now();
    resolve_workload(id)?;
    let whole = t.elapsed().as_secs_f64() * 1e6;
    out.spans.add("trace.resolve", whole - child_us);
    Ok(whole)
}

/// Materializes a region with a span, returning `(instructions, split)`.
fn traced_generate(
    region: &Region,
    profile: &ReproProfile,
    out: &mut ReplayOut,
) -> Result<(Vec<Instruction>, usize), String> {
    let t = std::time::Instant::now();
    let (instrs, split) = materialize(region, profile)?;
    out.spans
        .add("trace.generate_region", t.elapsed().as_secs_f64() * 1e6);
    out.generated_instrs += instrs.len() as u64;
    Ok((instrs, split))
}

/// A `riscv:` id naming the same program with another budget, so the
/// replay's own resolution is not served from the registry entry the
/// in-process service already made.
fn shadow_id(region: &Region) -> Region {
    match region.workload.rsplit_once('@') {
        Some((path, budget)) if region.workload.starts_with("riscv:") => {
            let b: u64 = budget.parse().unwrap_or(1_000_000);
            Region {
                workload: format!("{path}@{}", b + 1),
                ..region.clone()
            }
        }
        _ => region.clone(),
    }
}

/// Replays `lines` of `workload` in-process. `regions` is the warm working
/// set (stores built up front); cold lines build their stores per request.
pub fn replay(
    workload: Workload,
    model: &ConcordePredictor,
    profile: &ReproProfile,
    regions: &[Region],
    lines: &[Line],
) -> Result<ReplayOut, String> {
    let mut out = ReplayOut {
        cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
        dim: model.layout.dim(),
        flops_per_row: model
            .mlp
            .layers
            .iter()
            .map(|l| 2.0 * (l.in_dim * l.out_dim) as f64)
            .sum(),
        ..ReplayOut::default()
    };
    let variant = model.variant();
    let cfg = ServeConfig {
        sweep: if workload.warm() {
            SweepScope::Quantized
        } else {
            SweepScope::PerArch
        },
        dynamic_root: (!workload.warm()).then(|| RISCV_DIR.into()),
        ..ServeConfig::default()
    };
    let service = PredictionService::start(model.clone(), profile.clone(), cfg.clone());
    let client = service.client();
    let cache = ShardedStoreCache::new(cfg.effective_cache_shards(), cfg.cache_bytes);
    let quantized = SweepConfig::quantized();
    let quantized_hash = sweep_content_hash(&quantized);

    if workload.warm() {
        for (i, region) in regions.iter().enumerate() {
            traced_resolve(&region.workload, &mut out)?;
            let (instrs, split) = traced_generate(region, profile, &mut out)?;
            let (warm, reg) = instrs.split_at(split);
            let t = std::time::Instant::now();
            let store = FeatureStore::precompute_threaded(warm, reg, &quantized, profile, 1);
            let whole = t.elapsed().as_secs_f64() * 1e6;
            out.spans.add("core.precompute_quantized", whole);
            if i < DECOMPOSE_QUANTIZED {
                out.precompute_whole_us.push(whole);
                let stages = decompose(warm, reg, &quantized, profile, &mut out.spans);
                out.precompute_stages_us.push(stages);
            }
            let key = region_key(region, profile, quantized_hash);
            cache.insert(key.clone(), Arc::new(store.clone()));
            service.preload(key, store);
        }
    }

    let mut reqs: Vec<PredictRequest> = Vec::new();
    let mut resps: Vec<PredictResponse> = Vec::new();
    let mut batch = BatchScratch::default();
    let mut asm = AssemblyScratch::default();
    let mut mlp = MlpScratch::default();
    let mut encoded = String::new();
    for line in lines {
        let text = line.text.trim_end();
        let shape = out
            .spans
            .time("serve.decode", || decode_request_line(text, &mut reqs));
        if shape.is_err() || reqs.len() != line.reqs.len() {
            out.failures.push(format!("decode declined {text}"));
            continue;
        }
        let t = std::time::Instant::now();
        let served = client.predict_batch_into(&mut reqs, &mut batch, &mut resps);
        let service_us = t.elapsed().as_secs_f64() * 1e6;
        out.spans.add("serve.service", service_us);
        if served.is_err() || resps.len() != line.reqs.len() {
            out.failures
                .push(format!("in-process service failed on {text}"));
            continue;
        }
        out.spans.time("serve.encode", || {
            encoded.clear();
            for r in &resps {
                r.encode_json_into(&mut encoded);
            }
        });

        // The same requests through the stages the service runs them with.
        let mut stages_us = 0.0;
        let mut groups: Vec<(FeatureKey, Vec<usize>)> = Vec::new();
        let mut index: HashMap<FeatureKey, usize> = HashMap::new();
        for (j, (region, arch)) in line.reqs.iter().enumerate() {
            let resolved = arch.resolve()?;
            let key = if workload.warm() {
                region_key(region, profile, quantized_hash)
            } else {
                let sweep = SweepConfig::for_arch(&resolved);
                let shadow = shadow_id(region);
                stages_us += traced_resolve(&shadow.workload, &mut out)?;
                let t = std::time::Instant::now();
                let (instrs, split) = traced_generate(&shadow, profile, &mut out)?;
                stages_us += t.elapsed().as_secs_f64() * 1e6;
                let (warm, reg) = instrs.split_at(split);
                let t = std::time::Instant::now();
                let store = FeatureStore::precompute_threaded(warm, reg, &sweep, profile, 1);
                let whole = t.elapsed().as_secs_f64() * 1e6;
                out.spans.add("core.precompute_perarch", whole);
                stages_us += whole;
                out.precompute_whole_us.push(whole);
                let stages = decompose(warm, reg, &sweep, profile, &mut out.spans);
                out.precompute_stages_us.push(stages);
                let key = region_key(region, profile, sweep_content_hash(&sweep));
                cache.insert(key.clone(), Arc::new(store));
                key
            };
            match index.get(&key) {
                Some(&g) => groups[g].1.push(j),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![j]));
                }
            }
        }
        for (key, members) in &groups {
            let t = std::time::Instant::now();
            let store = cache.get(key);
            let get_us = t.elapsed().as_secs_f64() * 1e6;
            out.spans.add("core.store_get", get_us);
            let Some(store) = store else {
                out.failures
                    .push(format!("replay store missing for {key:?}"));
                continue;
            };
            let mut uniq: Vec<MicroArch> = Vec::new();
            let mut map = Vec::with_capacity(members.len());
            for &j in members {
                let a = line.reqs[j].1.resolve()?;
                let at = uniq.iter().position(|u| *u == a).unwrap_or_else(|| {
                    uniq.push(a);
                    uniq.len() - 1
                });
                map.push(at);
            }
            let mut xs = vec![0.0f32; uniq.len() * out.dim];
            let t = std::time::Instant::now();
            store.features_into_many(&uniq, variant, &mut xs, &mut asm);
            let asm_us = t.elapsed().as_secs_f64() * 1e6;
            out.spans.add("core.assemble", asm_us);
            let t = std::time::Instant::now();
            let cpis = model.predict_features_batch(&mut xs, &mut mlp);
            let fwd_us = t.elapsed().as_secs_f64() * 1e6;
            out.spans.add("ml.forward", fwd_us);
            out.rows += uniq.len() as u64;
            stages_us += get_us + asm_us + fwd_us;
            for (&j, &u) in members.iter().zip(&map) {
                let r = &resps[j];
                let ok = r.id == line.ids[j]
                    && r.error.is_none()
                    && !r.approx
                    && r.cached == workload.warm()
                    && r.cpi.map(f64::to_bits) == Some(cpis[u].to_bits());
                if !ok {
                    out.failures.push(format!(
                        "in-process reply {:?} differs from the staged prediction {}",
                        r, cpis[u]
                    ));
                }
            }
        }
        out.service_whole_us.push(service_us);
        out.service_stages_us.push(stages_us);
    }
    drop(client);
    drop(service);

    // Ground truth on the first distinct pairs of the sample.
    let opts = SimOptions {
        record_commit_cycles: false,
        seed: 7,
    };
    let mut seen: Vec<(Region, MicroArch)> = Vec::new();
    for (region, arch) in lines.iter().flat_map(|l| l.reqs.iter()) {
        if seen.len() == CYCLESIM_PAIRS {
            break;
        }
        let arch = arch.resolve()?;
        if seen.iter().any(|(r, a)| r == region && *a == arch) {
            continue;
        }
        seen.push((region.clone(), arch));
        let (instrs, split) = materialize(&shadow_id(region), profile)?;
        let (warm, reg) = instrs.split_at(split);
        let sim = out.spans.time("cyclesim.simulate", || {
            simulate_warmed(warm, reg, &arch, opts)
        });
        std::hint::black_box(sim.cycles);
        out.simulated_instrs += reg.len() as u64;
    }
    Ok(out)
}
