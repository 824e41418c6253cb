//! Seeded fixtures built outside any timing: the served model and the
//! held-out accuracy check set.
//!
//! The benchmark trains the model itself (quick profile, fixed sample count
//! and seed) and labels a check set of (region, arch) pairs with the
//! cycle-level simulator. Check regions never overlap a training region and
//! come from a seed disjoint from the training seed, so accuracy is measured
//! on held-out data. Fixtures are cached under a key that hashes the server
//! and benchmark binaries, so a change to features or training never reuses
//! a stale fixture.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use concorde_suite::core::{
    generate_dataset, train_model, ConcordePredictor, DatasetConfig, FeatureStore, ReproProfile,
    SweepConfig, TrainOptions,
};
use concorde_suite::cyclesim::{simulate_warmed, SimOptions};
use concorde_suite::serve::{ArchSpec, SweepScope};
use concorde_suite::trace::{resolve_workload, suite_cached, RegionRef};

use crate::workload::{classes, region_in_class, sample_arch, Region, Rng};

/// Training samples for the served model.
pub const TRAIN_SAMPLES: usize = 300;
/// Seed of the training dataset.
pub const TRAIN_SEED: u64 = 1;
/// Seed of the check set (disjoint from [`TRAIN_SEED`]).
pub const CHECK_SEED: u64 = 0x0C4E_C5E7;
/// Regions in the check set (spread across workload classes).
pub const CHECK_REGIONS: usize = 4;
/// Microarchitectures per check region.
pub const CHECK_ARCHS: usize = 32;
/// Seed the reference simulator uses for its stochastic components.
const SIM_SEED: u64 = 7;
/// Bumped whenever the fixture recipe changes.
const RECIPE: &str = "perfbench-fixtures-v1";

/// One held-out (region, arch) pair with its ground truth and the CPI the
/// server must answer.
#[derive(Debug, Clone)]
pub struct CheckPair {
    pub region: Region,
    pub arch: ArchSpec,
    /// Cycle-level simulator CPI.
    pub label: f64,
    /// `ConcordePredictor::predict` from the served model file, on a store
    /// the benchmark built itself: over the quantized sweep, and over the
    /// pair's own per-arch sweep.
    pub expected_quantized: f64,
    pub expected_perarch: f64,
}

impl CheckPair {
    /// The CPI a server built with `sweep` must answer, bit for bit.
    pub fn expected(&self, sweep: SweepScope) -> f64 {
        match sweep {
            SweepScope::Quantized => self.expected_quantized,
            SweepScope::PerArch => self.expected_perarch,
        }
    }
}

pub struct Fixtures {
    pub model_path: PathBuf,
    pub model: ConcordePredictor,
    pub check: Vec<CheckPair>,
    /// Whether this run built the fixtures (false: reused from the cache).
    pub built: bool,
}

/// FNV-1a over the given byte strings.
pub fn fnv(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for &b in *p {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Key of the fixture cache: the server binary, this binary, and the recipe.
pub fn cache_key(server_bin: &Path) -> Result<u64, String> {
    let server = std::fs::read(server_bin).map_err(|e| format!("read server binary: {e}"))?;
    let me = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("read benchmark binary: {e}"))?;
    Ok(fnv(&[&server, &me, RECIPE.as_bytes()]))
}

/// Loads the fixtures for `key` from `root`, building them first if absent.
pub fn load_or_build(root: &Path, key: u64) -> Result<Fixtures, String> {
    let dir = root.join(format!("{key:016x}"));
    let mut built = false;
    if !dir.join("check.tsv").is_file() {
        build(&dir)?;
        built = true;
    }
    let model_path = dir.join("model.json");
    let model = ConcordePredictor::load(&model_path).map_err(|e| format!("load model: {e}"))?;
    let text = std::fs::read_to_string(dir.join("check.tsv")).map_err(|e| e.to_string())?;
    let check = text
        .lines()
        .map(parse_pair)
        .collect::<Option<Vec<_>>>()
        .ok_or("corrupt check set")?;
    Ok(Fixtures {
        model_path,
        model,
        check,
        built,
    })
}

/// Instructions of one region: `(warm-up, region)`, split the way the
/// server and the dataset generator split them.
pub fn materialize(
    region: &Region,
    profile: &ReproProfile,
) -> Result<(Vec<concorde_suite::trace::Instruction>, usize), String> {
    let resolved = resolve_workload(&region.workload)?;
    let warm_start = region.start.saturating_sub(profile.warmup_len as u64);
    let warm_len = (region.start - warm_start) as usize;
    let t = resolved.materialize(region.trace, warm_start, warm_len + profile.region_len);
    let split = warm_len.min(t.instrs.len());
    Ok((t.instrs, split))
}

fn build(dir: &Path) -> Result<(), String> {
    eprintln!("[perfbench] building fixtures in {}", dir.display());
    let profile = ReproProfile::quick();
    let tmp = dir.with_extension("tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| e.to_string())?;

    let data = generate_dataset(&DatasetConfig::random(
        profile.clone(),
        TRAIN_SAMPLES,
        TRAIN_SEED,
    ));
    let trained = train_model(&data, &profile, &TrainOptions::default());
    trained
        .save(&tmp.join("model.json"))
        .map_err(|e| format!("save model: {e}"))?;
    // Predict with the model as the server reads it: from the file.
    let model = ConcordePredictor::load(&tmp.join("model.json")).map_err(|e| e.to_string())?;

    let suite = suite_cached();
    let training: Vec<RegionRef> = data.iter().map(|s| s.region).collect();
    let len = profile.region_len as u64;
    let mut rng = Rng::new(CHECK_SEED);
    let classes = classes();
    let mut regions: Vec<Region> = Vec::new();
    while regions.len() < CHECK_REGIONS {
        let r = region_in_class(classes[regions.len() % classes.len()], len, &mut rng);
        let idx = suite
            .iter()
            .position(|s| s.id == r.workload)
            .expect("suite id") as u16;
        let cand = RegionRef {
            workload: idx,
            trace_idx: r.trace,
            start: r.start,
            len: len as u32,
        };
        if training.iter().all(|t| t.overlap(&cand) == 0) && !regions.contains(&r) {
            regions.push(r);
        }
    }

    let mut pairs = Vec::new();
    for region in &regions {
        let (instrs, split) = materialize(region, &profile)?;
        let (warm, reg) = instrs.split_at(split);
        let store =
            FeatureStore::precompute_threaded(warm, reg, &SweepConfig::quantized(), &profile, 0);
        let archs: Vec<ArchSpec> = (0..CHECK_ARCHS).map(|_| sample_arch(&mut rng)).collect();
        let labels: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = archs
                .chunks(CHECK_ARCHS.div_ceil(2))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|a| {
                                let arch = a.resolve().expect("sampled arch is valid");
                                let opts = SimOptions {
                                    record_commit_cycles: false,
                                    seed: SIM_SEED,
                                };
                                simulate_warmed(warm, reg, &arch, opts).cpi()
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("simulation thread panicked"))
                .collect()
        });
        for (arch, label) in archs.into_iter().zip(labels) {
            let resolved = arch.resolve().expect("valid arch");
            let perarch = FeatureStore::precompute_threaded(
                warm,
                reg,
                &SweepConfig::for_arch(&resolved),
                &profile,
                0,
            );
            pairs.push(CheckPair {
                region: region.clone(),
                arch,
                label,
                expected_quantized: model.predict(&store, &resolved),
                expected_perarch: model.predict(&perarch, &resolved),
            });
        }
    }
    let mut f = std::fs::File::create(tmp.join("check.tsv")).map_err(|e| e.to_string())?;
    for p in &pairs {
        writeln!(f, "{}", format_pair(p)).map_err(|e| e.to_string())?;
    }
    f.sync_all().map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::rename(&tmp, dir).map_err(|e| format!("publish fixtures: {e}"))
}

fn arch_fields(a: &ArchSpec) -> [Option<u32>; 14] {
    [
        a.rob, a.lq, a.sq, a.alu, a.fp, a.ls, a.fetch, a.decode, a.rename, a.commit, a.l1d, a.l1i,
        a.l2, a.prefetch,
    ]
}

fn format_pair(p: &CheckPair) -> String {
    let arch: Vec<String> = arch_fields(&p.arch)
        .iter()
        .map(|v| v.expect("check archs set every field").to_string())
        .collect();
    format!(
        "{}\t{}\t{}\t{}\t{:016x}\t{:016x}\t{:016x}",
        p.region.workload,
        p.region.trace,
        p.region.start,
        arch.join(","),
        p.label.to_bits(),
        p.expected_quantized.to_bits(),
        p.expected_perarch.to_bits()
    )
}

fn parse_pair(line: &str) -> Option<CheckPair> {
    let f: Vec<&str> = line.split('\t').collect();
    let [workload, trace, start, arch, label, quantized, perarch] = f[..] else {
        return None;
    };
    let v: Vec<u32> = arch
        .split(',')
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    let [rob, lq, sq, alu, fp, ls, fetch, decode, rename, commit, l1d, l1i, l2, prefetch] = v[..]
    else {
        return None;
    };
    Some(CheckPair {
        region: Region {
            workload: workload.to_string(),
            trace: trace.parse().ok()?,
            start: start.parse().ok()?,
        },
        arch: ArchSpec {
            base: None,
            rob: Some(rob),
            lq: Some(lq),
            sq: Some(sq),
            alu: Some(alu),
            fp: Some(fp),
            ls: Some(ls),
            fetch: Some(fetch),
            decode: Some(decode),
            rename: Some(rename),
            commit: Some(commit),
            l1d: Some(l1d),
            l1i: Some(l1i),
            l2: Some(l2),
            prefetch: Some(prefetch),
        },
        label: bits(label)?,
        expected_quantized: bits(quantized)?,
        expected_perarch: bits(perarch)?,
    })
}

fn bits(hex: &str) -> Option<f64> {
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}
