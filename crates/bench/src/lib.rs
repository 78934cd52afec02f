//! # m3-bench
//!
//! One harness for every table and figure of the paper (driven by the
//! `repro` binary), and one for the speed gates (driven by the `gate`
//! binary).
//!
//! A run has one [`Scale`]: [`Scale::full`] writes `results/` and keeps its
//! models in `assets/`; [`Scale::small`] is a toy point that runs every
//! figure in seconds and writes only under `target/repro-small/`. The harness owns the pieces every
//! figure shares: one model source (`Repro::models`), one seeded sweep
//! builder (`dctcp_sweep`), one table printer (`Repro::table`) and one
//! writer of `<name>.json` / `<name>.txt` (`Repro::write`).
//!
//! The gates ([`gates::GATES`]) share one k-path fat-tree fixture
//! (`fixture`), one bit-identity check (`same_bits`), one timing rule
//! (`pairs`: alternating pairs, gated on the median per-pair ratio) and
//! one writer of `BENCH_<name>.json` that stamps the host (`Record`).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod figures;
pub mod gates;

use m3_core::prelude::*;
use m3_netsim::prelude::*;
use m3_nn::prelude::*;
use m3_workload::prelude::{sample_test_point, TestPoint, TrainingPoint};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Map, Serialize, Value};
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The CPU model `/proc/cpuinfo` names, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The ISA extensions the matmul kernels care about, as this CPU reports
/// them (all `false` off x86).
fn isa_flags() -> [(&'static str, bool); 3] {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    let flags = [
        ("avx2", std::is_x86_feature_detected!("avx2")),
        ("fma", std::is_x86_feature_detected!("fma")),
        ("avx512f", std::is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    let flags = [("avx2", false), ("fma", false), ("avx512f", false)];
    flags
}

/// A figure's failure: what went wrong, for the run's summary.
pub type Res<T> = Result<T, String>;

/// The scale of one reproduction run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Flows per full-network scenario (paper: 10 M).
    pub flows: usize,
    /// Sampled paths per estimate (paper: 500).
    pub paths: usize,
    /// Scenarios per sweep (paper: 192).
    pub scenarios: usize,
    /// Sampled paths of the per-path accuracy figures (Figs. 2(c,e), 15).
    pub acc_paths: usize,
    /// Held-out scenarios of Fig. 17.
    pub config_scenarios: usize,
    /// Held-out scenarios of Fig. 16.
    pub ablation_scenarios: usize,
    /// Training scenarios (paper: 120 000).
    pub train_scenarios: usize,
    /// Training epochs (paper: 400).
    pub epochs: usize,
    /// Largest foreground flow count of a training scenario.
    pub train_fg: usize,
    /// Training seed.
    pub seed: u64,
    /// Where figures write `<name>.json`, `<name>.txt` and the sweep cache.
    pub out_dir: &'static str,
    /// Where the m3 and no-context checkpoints are kept and loaded from.
    /// `None`: every run trains them afresh and saves them in `out_dir`.
    pub model_dir: Option<&'static str>,
}

impl Scale {
    /// The default scale: records in `results/`, models in `assets/`.
    pub const fn full() -> Scale {
        Scale {
            flows: 100_000,
            paths: 100,
            scenarios: 24,
            acc_paths: 30,
            config_scenarios: 60,
            ablation_scenarios: 45,
            train_scenarios: 600,
            epochs: 40,
            train_fg: 400,
            seed: 1,
            out_dir: "results",
            model_dir: Some("assets"),
        }
    }

    /// Every figure in seconds, on a model trained in about a second.
    pub const fn small() -> Scale {
        Scale {
            flows: 2_000,
            paths: 20,
            scenarios: 3,
            acc_paths: 5,
            config_scenarios: 3,
            ablation_scenarios: 3,
            train_scenarios: 30,
            epochs: 3,
            train_fg: 80,
            seed: 1,
            out_dir: "target/repro-small",
            model_dir: None,
        }
    }

    fn model_path(&self, name: &str) -> PathBuf {
        Path::new(self.model_dir.unwrap_or(self.out_dir)).join(name)
    }
}

/// Time a closure.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// The trained m3 model and its "m3 w/o context" twin (Fig. 16).
pub struct Models {
    m3: M3Estimator,
    noctx: M3Net,
}

/// What the current figure has printed, and its broken shape claims.
#[derive(Default)]
struct FigureOut {
    text: String,
    broken_claims: Vec<String>,
}

/// One reproduction run: its scale, its models (built on first use), and
/// the current figure's output.
pub struct Repro {
    pub scale: Scale,
    models: OnceCell<Models>,
    out: RefCell<FigureOut>,
}

impl Repro {
    pub fn new(scale: Scale) -> Repro {
        let (models, out) = (OnceCell::new(), RefCell::default());
        Repro { scale, models, out }
    }

    /// The run's models: loaded from the scale's `model_dir` when it has one
    /// and both checkpoints load, else trained with the scale's recipe.
    fn models(&self) -> Res<&Models> {
        if let Some(m) = self.models.get() {
            return Ok(m);
        }
        let load = |name| m3_nn::checkpoint::load_file(self.scale.model_path(name));
        let loaded = (self.scale.model_dir).map(|_| (load(M3_CKPT), load(NOCTX_CKPT)));
        let models = match loaded {
            Some((Ok(m3), Ok(noctx))) => Models {
                m3: M3Estimator::new(m3),
                noctx,
            },
            _ => self.train()?,
        };
        Ok(self.models.get_or_init(|| models))
    }

    /// Train both models with the scale's recipe on synthetic Table 2
    /// parking-lot scenarios (§5.1), save their checkpoints, and write the
    /// `train` record.
    ///
    /// Foreground counts are log-uniform in `[8, train_fg]`, so the model
    /// sees both dense and sparse paths: full-network decomposition at
    /// reproduction scale yields paths with few foreground flows.
    pub fn train(&self) -> Res<Models> {
        let s = &self.scale;
        let cfg = TrainConfig {
            n_scenarios: s.train_scenarios,
            epochs: s.epochs,
            seed: s.seed,
            ..TrainConfig::default()
        };
        eprintln!(
            "[repro] training: {} scenarios x {} epochs",
            s.train_scenarios, s.epochs
        );
        let mut rng = SmallRng::seed_from_u64(stage_seed(s.seed, "fgcounts"));
        let (lo, hi) = ((8f64).ln(), (s.train_fg as f64).ln());
        let example = |p: &TrainingPoint| {
            let fg = (lo + rng.gen::<f64>() * (hi - lo)).exp() as usize;
            let bg = fg * rng.gen_range(2..=6);
            make_example(p, fg.max(4), bg, true)
        };
        let points = training_points(s.train_scenarios, s.seed);
        let (dataset, gen_time) = timed(|| points.iter().map(example).collect::<Vec<_>>());
        let (trained, train_time) = timed(|| try_train(&cfg, &dataset));
        let (net, report) = trained.map_err(|e| e.to_string())?;
        // The ablation twin: identical data and hyper-parameters, with the
        // background context zeroed during training.
        let mut noctx_data = dataset;
        noctx_data
            .iter_mut()
            .for_each(|x| x.input.use_context = false);
        let (noctx, _) = try_train(&cfg, &noctx_data).map_err(|e| e.to_string())?;
        let dir = s.model_dir.unwrap_or(s.out_dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        for (net, name) in [(&net, M3_CKPT), (&noctx, NOCTX_CKPT)] {
            m3_nn::checkpoint::save_file(net, s.seed, s.model_path(name))
                .map_err(|e| format!("save {name}: {e}"))?;
        }
        let last = |v: &[f64]| v.last().copied().unwrap_or(f64::NAN);
        let text: String = (report.train_loss.iter().zip(&report.val_loss))
            .enumerate()
            .map(|(e, (t, v))| format!("epoch {e:3}  train_l1 {t:.4}  val_l1 {v:.4}\n"))
            .collect();
        print!("{text}");
        #[derive(Serialize)]
        struct TrainRun {
            n_scenarios: usize,
            epochs: usize,
            params: usize,
            dataset_secs: f64,
            train_secs: f64,
            final_train_loss: f64,
            final_val_loss: f64,
            checkpoint: String,
        }
        let run = TrainRun {
            n_scenarios: s.train_scenarios,
            epochs: s.epochs,
            params: net.num_params(),
            dataset_secs: gen_time.as_secs_f64(),
            train_secs: train_time.as_secs_f64(),
            final_train_loss: last(&report.train_loss),
            final_val_loss: last(&report.val_loss),
            checkpoint: s.model_path(M3_CKPT).display().to_string(),
        };
        self.write("train", &text, &run.to_value())?;
        Ok(Models {
            m3: M3Estimator::new(net),
            noctx,
        })
    }

    /// Print a line and keep it for the figure's `.txt`.
    fn say(&self, line: impl AsRef<str>) {
        println!("{}", line.as_ref());
        let text = &mut self.out.borrow_mut().text;
        text.push_str(line.as_ref());
        text.push('\n');
    }

    /// Print a table of paper-style rows: the first row is the header, cells
    /// are separated by tabs, and each column is right-aligned.
    fn table(&self, title: &str, rows: &[String]) {
        let lines: Vec<Vec<&str>> = rows.iter().map(|row| row.split('\t').collect()).collect();
        let mut widths = vec![0; lines.iter().map(Vec::len).max().unwrap_or(0)];
        for line in &lines {
            for (w, cell) in widths.iter_mut().zip(line) {
                *w = (*w).max(cell.len());
            }
        }
        self.say(format!("\n== {title} =="));
        for line in lines {
            let cells: Vec<String> = (line.iter().zip(&widths))
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            self.say(cells.join("  "));
        }
    }

    /// Check one of the paper's shape claims: print it, and fail the
    /// figure (after its outputs are written) when it does not hold.
    fn claim(&self, holds: bool, what: String) {
        let verdict = if holds { "holds" } else { "BROKEN" };
        self.say(format!("shape: {what}: {verdict}"));
        if !holds {
            self.out.borrow_mut().broken_claims.push(what);
        }
    }

    /// Write `<out_dir>/<name>.json` and `<out_dir>/<name>.txt`.
    fn write(&self, name: &str, text: &str, value: &Value) -> Res<()> {
        let dir = Path::new(self.scale.out_dir);
        let json = serde_json::to_string_pretty(value).map_err(|e| format!("{name}: {e}"))?;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for (ext, body) in [("json", json.as_str()), ("txt", text)] {
            let path = dir.join(format!("{name}.{ext}"));
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        eprintln!("[repro] wrote {}/{name}.json", dir.display());
        Ok(())
    }

    /// Run one figure: its outputs are written even when one of its shape
    /// claims is broken, and the figure then fails.
    pub fn run(&self, name: &str, figure: figures::Figure) -> Res<()> {
        self.out.take();
        let value = figure(self);
        let out = self.out.take();
        self.write(name, &out.text, &value?)?;
        if out.broken_claims.is_empty() {
            return Ok(());
        }
        Err(format!(
            "broken shape claim: {}",
            out.broken_claims.join("; ")
        ))
    }
}

const M3_CKPT: &str = "m3-model.ckpt";
const NOCTX_CKPT: &str = "m3-model-noctx.ckpt";

/// Size-bucket labels of the output distributions.
const BUCKETS: [&str; NUM_OUTPUT_BUCKETS] = ["(0,1KB]", "(1KB,10KB]", "(10KB,50KB]", "(50KB,inf)"];

/// A Table 3 workload: traffic matrix, size distribution, core
/// oversubscription, burstiness sigma, max link load.
type Workload<'a> = (&'a str, &'a str, usize, f64, f64);

/// Table 1's three production mixes.
const MIXES: [(&str, Workload); 3] = [
    ("Mix 1", ("A", "CacheFollower", 4, 1.0, 0.4246)),
    ("Mix 2", ("B", "WebServer", 1, 1.0, 0.2846)),
    ("Mix 3", ("C", "WebServer", 2, 1.0, 0.7383)),
];

/// A materialized full-network scenario.
struct FullScenario {
    ft: FatTree,
    flows: Vec<FlowSpec>,
    config: SimConfig,
    label: String,
}

impl FullScenario {
    /// `n` flows of a Table 3 workload on the fat tree `spec`.
    fn on(spec: FatTreeSpec, w: Workload, config: SimConfig, n: usize, seed: u64) -> Res<Self> {
        use m3_workload::prelude::*;
        let (matrix, workload, oversub, sigma, max_load) = w;
        let ft = FatTree::build(spec);
        let sizes = SizeDistribution::by_name(workload)
            .ok_or_else(|| format!("unknown size distribution {workload:?}"))?;
        let matrix_name = matrix.to_string();
        let sc = Scenario {
            n_flows: n,
            matrix_name,
            sizes,
            sigma,
            max_load,
            seed,
        };
        let flows = generate(&ft, &Routing::new(&ft.topo), &sc).flows;
        let label = format!("{matrix}/{workload}/{oversub}:1/s{sigma}/l{max_load:.2}");
        Ok(FullScenario {
            ft,
            flows,
            config,
            label,
        })
    }

    /// Packet-level simulation of every flow: the ground truth.
    fn packet_sim(&self) -> SimOutput {
        run_simulation(&self.ft.topo, self.config, self.flows.clone())
    }
}

/// `n` flows of a Table 3 workload on the 32-rack fat tree.
fn full_scenario(w: Workload, config: SimConfig, n: usize, seed: u64) -> Res<FullScenario> {
    FullScenario::on(FatTreeSpec::small(w.2), w, config, n, seed)
}

/// Mix `i` of [`MIXES`] at `n` flows under the §5.2 DCTCP config.
fn mix_scenario(i: usize, n: usize) -> Res<FullScenario> {
    full_scenario(MIXES[i].1, SimConfig::default(), n, 100 + i as u64)
}

/// A random Table 3 test point at `n` flows.
fn test_scenario(p: &TestPoint, n: usize) -> Res<FullScenario> {
    let (m, w) = (&*p.matrix_name, &*p.workload_name);
    full_scenario((m, w, p.oversub, p.sigma, p.max_load), p.config, n, p.seed)
}

/// Packet-level slowdown of every flow, by flow id.
fn slowdown_by_id(records: &[FctRecord]) -> HashMap<u32, f64> {
    records.iter().map(|r| (r.id, r.slowdown())).collect()
}

/// The per-path accuracy sample: draw `4k` paths, keep those with at least
/// two foreground flows (a per-path p99 needs them), take `k`.
fn populated_sample(index: &PathIndex, k: usize, seed: u64) -> Vec<usize> {
    (index.sample_paths(k * 4, seed).into_iter())
        .filter(|&g| index.foreground_of(g).len() >= 2)
        .take(k)
        .collect()
}

/// Network-wide p99 over exact per-flow slowdown samples.
fn samples_p99(samples: &[(u64, f64)]) -> f64 {
    NetworkEstimate::aggregate(&[PathDistribution::from_samples(samples)]).p99()
}

/// Parsimon's network-wide estimate: it sees every flow, so its bucket
/// counts are exact.
fn parsimon_network(topo: &Topology, flows: &[FlowSpec], cfg: &SimConfig) -> NetworkEstimate {
    let samples = m3_parsimon::slowdown_samples(&m3_parsimon::parsimon_estimate(topo, flows, cfg));
    NetworkEstimate::aggregate(&[PathDistribution::from_samples(&samples)])
}

/// One scenario's results in the m3-vs-Parsimon sweep (Figs. 10-11).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct SweepRecord {
    pub label: String,
    pub matrix: String,
    pub workload: String,
    pub oversub: usize,
    pub sigma: f64,
    pub max_load: f64,
    pub gt_p99: f64,
    pub gt_secs: f64,
    pub m3_p99: f64,
    pub m3_secs: f64,
    pub parsimon_p99: f64,
    pub parsimon_secs: f64,
    /// Per-stage breakdown of the m3 estimate (absent in old caches).
    #[serde(default)]
    pub m3_stage_timings: StageTimings,
}

impl SweepRecord {
    pub fn m3_err(&self) -> f64 {
        relative_error(self.m3_p99, self.gt_p99)
    }
    pub fn parsimon_err(&self) -> f64 {
        relative_error(self.parsimon_p99, self.gt_p99)
    }
}

/// What a cached sweep was computed from: its scale, its seed and the
/// [`M3Net::fingerprint`] of the model behind its m3 column.
pub fn sweep_key(scale: &Scale, seed: u64, model: &M3Net) -> String {
    let (n, flows, paths) = (scale.scenarios, scale.flows, scale.paths);
    let fp = model.fingerprint();
    format!("{n} scenarios, {flows} flows, {paths} paths, seed {seed}, model {fp:#018x}")
}

#[derive(serde::Serialize, serde::Deserialize)]
struct SweepCache {
    key: String,
    records: Vec<SweepRecord>,
}

/// The cached sweep at `path`, if it was computed for `key`.
pub fn load_sweep(path: &Path, key: &str) -> Option<Vec<SweepRecord>> {
    let cache: SweepCache = serde_json::from_slice(&std::fs::read(path).ok()?).ok()?;
    (cache.key == key).then_some(cache.records)
}

/// Cache a sweep at `path` under `key`.
pub fn save_sweep(path: &Path, key: &str, records: &[SweepRecord]) -> Res<()> {
    let (key, records) = (key.to_string(), records.to_vec());
    let s = serde_json::to_string(&SweepCache { key, records }).map_err(|e| e.to_string())?;
    std::fs::write(path, s).map_err(|e| format!("{}: {e}", path.display()))
}

/// The §5.2 DCTCP sensitivity sweep: the scale's number of random Table 3
/// scenarios, each estimated by ground truth, m3 and Parsimon. Cached in
/// `<out_dir>/sweep_cache.json` under the scale and the model.
fn dctcp_sweep(r: &Repro) -> Res<Vec<SweepRecord>> {
    let s = r.scale;
    let estimator = &r.models()?.m3;
    let seed = 42;
    let key = sweep_key(&s, seed, &estimator.net);
    let cache_path = Path::new(s.out_dir).join("sweep_cache.json");
    if let Some(records) = load_sweep(&cache_path, &key) {
        eprintln!("[repro] reusing cached sweep ({} scenarios)", records.len());
        return Ok(records);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut records = Vec::with_capacity(s.scenarios);
    // Repeated path scenarios across the sweep skip flowSim and the NN.
    let mut scenario_cache = ScenarioCache::new(8192);
    for i in 0..s.scenarios {
        let p = sample_test_point(&mut rng, Some(CcProtocol::Dctcp));
        let sc = test_scenario(&p, s.flows)?;
        let (topo, flows, cfg, k) = (&sc.ft.topo, &sc.flows, &sc.config, s.paths);
        let (gt_out, gt_time) = timed(|| sc.packet_sim());
        let gt = ground_truth_estimate(&gt_out.records);
        let cache = &mut scenario_cache;
        let (m3_est, m3_time) =
            timed(|| estimator.estimate_with_cache(topo, flows, cfg, k, seed ^ i as u64, cache));
        let (pars, pars_time) = timed(|| parsimon_network(topo, flows, cfg));
        let rec = SweepRecord {
            label: sc.label,
            matrix: p.matrix_name,
            workload: p.workload_name,
            oversub: p.oversub,
            sigma: p.sigma,
            max_load: p.max_load,
            gt_p99: gt.p99(),
            gt_secs: gt_time.as_secs_f64(),
            m3_p99: m3_est.p99(),
            m3_secs: m3_time.as_secs_f64(),
            parsimon_p99: pars.p99(),
            parsimon_secs: pars_time.as_secs_f64(),
            m3_stage_timings: m3_est.timings.clone(),
        };
        let (m3, pars) = (rec.m3_err() * 100.0, rec.parsimon_err() * 100.0);
        eprintln!(
            "[sweep {i}] {}: m3 {m3:+.1}%, Parsimon {pars:+.1}%",
            rec.label
        );
        records.push(rec);
    }
    std::fs::create_dir_all(s.out_dir).map_err(|e| format!("{}: {e}", s.out_dir))?;
    save_sweep(&cache_path, &key, &records)?;
    Ok(records)
}

/// The entries of `table` a `<binary> <target>` runs: `all`, or one by name.
pub(crate) fn plan<T: Copy>(
    table: &[(&'static str, T)],
    target: &str,
) -> Res<Vec<(&'static str, T)>> {
    if target == "all" {
        return Ok(table.to_vec());
    }
    (table.iter().find(|(name, _)| *name == target))
        .map(|entry| vec![*entry])
        .ok_or_else(|| format!("unknown target {target:?}"))
}

// ---------------------------------------------------------------------------
// Gate harness: one fixture, one bit-identity check, one timing rule, one
// writer.
// ---------------------------------------------------------------------------

/// Sampled paths per estimate of every gate.
pub(crate) const K_PATHS: usize = 100;
/// Sampling seed of every gate estimate.
pub(crate) const SEED: u64 = 13;
/// Timed pairs behind every comparison: an odd count, so the median is one
/// pair's ratio.
pub(crate) const PAIRS: usize = 41;

/// The gates' scenario: flows of traffic matrix B with WebServer sizes at
/// load 0.5 on a fat tree, and an untrained model of the repro architecture
/// (weights change speed, not cost).
pub(crate) struct Fixture {
    pub(crate) est: std::sync::Arc<M3Estimator>,
    pub(crate) topo: Topology,
    pub(crate) flows: Vec<FlowSpec>,
    pub(crate) cfg: SimConfig,
}

/// `n_flows` flows on the fat tree `spec`.
pub(crate) fn fixture(spec: FatTreeSpec, n_flows: usize) -> Fixture {
    let (topo, flows) = fixture_flows(spec, n_flows, 0.5);
    let net = M3Net::new(ModelConfig::repro_default(SPEC_DIM), 7);
    Fixture {
        est: std::sync::Arc::new(M3Estimator::new(net)),
        topo,
        flows,
        cfg: SimConfig::default(),
    }
}

/// The fixture's fabric and flows at any load.
pub(crate) fn fixture_flows(
    spec: FatTreeSpec,
    n_flows: usize,
    max_load: f64,
) -> (Topology, Vec<FlowSpec>) {
    use m3_workload::prelude::{generate, Scenario, SizeDistribution};
    let ft = FatTree::build(spec);
    let scenario = Scenario {
        n_flows,
        matrix_name: "B".into(),
        sizes: SizeDistribution::web_server(),
        sigma: 1.0,
        max_load,
        seed: 23,
    };
    let flows = generate(&ft, &Routing::new(&ft.topo), &scenario).flows;
    (ft.topo, flows)
}

impl Fixture {
    /// One uncached [`K_PATHS`]-path estimate of the fixture.
    pub(crate) fn estimate(&self, opts: &EstimateOptions) -> Res<NetworkEstimate> {
        (self.est)
            .try_estimate(&self.topo, &self.flows, &self.cfg, K_PATHS, SEED, opts)
            .map_err(|e| format!("estimate: {e}"))
    }
}

/// A value [`same_bits`] compares by the bits of its numbers.
pub(crate) trait Bits {
    fn push_bits(&self, out: &mut Vec<u64>);
}

impl Bits for f32 {
    fn push_bits(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.to_bits()));
    }
}

impl Bits for f64 {
    fn push_bits(&self, out: &mut Vec<u64>) {
        out.push(self.to_bits());
    }
}

impl Bits for usize {
    fn push_bits(&self, out: &mut Vec<u64>) {
        out.push(*self as u64);
    }
}

impl<T: Bits> Bits for [T] {
    fn push_bits(&self, out: &mut Vec<u64>) {
        out.push(self.len() as u64);
        self.iter().for_each(|x| x.push_bits(out));
    }
}

impl<T: Bits> Bits for Vec<T> {
    fn push_bits(&self, out: &mut Vec<u64>) {
        self.as_slice().push_bits(out);
    }
}

/// An estimate's value: its bucket counts and samples, not its timings.
impl Bits for NetworkEstimate {
    fn push_bits(&self, out: &mut Vec<u64>) {
        self.bucket_counts.push_bits(out);
        self.bucket_samples.push_bits(out);
    }
}

/// Whether `a` and `b` are equal bit for bit. A gate that times a fast
/// path against a slow one is meaningless if the two compute different
/// things.
pub(crate) fn same_bits<T: Bits + ?Sized>(a: &T, b: &T) -> bool {
    let bits = |x: &T| {
        let mut out = Vec::new();
        x.push_bits(&mut out);
        out
    };
    bits(a) == bits(b)
}

/// `Ok` when `holds`, else the failure `what`.
pub(crate) fn ensure(holds: bool, what: impl Into<String>) -> Res<()> {
    if holds {
        Ok(())
    } else {
        Err(what.into())
    }
}

/// Lower quartile, median and upper quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Quartiles {
    pub(crate) q1: f64,
    pub(crate) median: f64,
    pub(crate) q3: f64,
}

impl Quartiles {
    pub(crate) fn of(mut v: Vec<f64>) -> Quartiles {
        v.sort_by(f64::total_cmp);
        let at = |p| m3_netsim::stats::percentile(&v, p);
        Quartiles {
            q1: at(25.0),
            median: at(50.0),
            q3: at(75.0),
        }
    }
}

/// The wall times (ns) of two arms over the timed pairs, pair by pair.
pub(crate) struct Paired {
    pub(crate) a: Vec<f64>,
    pub(crate) b: Vec<f64>,
}

impl Paired {
    /// The quartiles of `f(a, b)` over the pairs; a gate reads the median.
    pub(crate) fn ratio(&self, f: impl Fn(f64, f64) -> f64) -> Quartiles {
        Quartiles::of(self.a.iter().zip(&self.b).map(|(&a, &b)| f(a, b)).collect())
    }
}

/// The fastest of `ns`.
pub(crate) fn min(ns: &[f64]) -> f64 {
    ns.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median of `ns`.
pub(crate) fn median(ns: &[f64]) -> f64 {
    Quartiles::of(ns.to_vec()).median
}

/// The one timing rule: one warm-up call of each arm, then [`PAIRS`]
/// timed pairs in alternating order. An arm's error fails the timing.
pub(crate) fn pairs<A, B>(
    mut a: impl FnMut() -> Res<A>,
    mut b: impl FnMut() -> Res<B>,
) -> Res<Paired> {
    black_box((a()?, b()?));
    alternate(PAIRS, a, b)
}

/// `n` timed pairs. The arm that runs first flips every pair, so neither
/// arm always inherits the other's cache state or frequency ramp.
fn alternate<A, B>(
    n: usize,
    mut a: impl FnMut() -> Res<A>,
    mut b: impl FnMut() -> Res<B>,
) -> Res<Paired> {
    let mut p = Paired {
        a: Vec::with_capacity(n),
        b: Vec::with_capacity(n),
    };
    for i in 0..n {
        if i % 2 == 0 {
            p.a.push(time_ns(&mut a)?);
            p.b.push(time_ns(&mut b)?);
        } else {
            p.b.push(time_ns(&mut b)?);
            p.a.push(time_ns(&mut a)?);
        }
    }
    Ok(p)
}

fn time_ns<T>(f: &mut impl FnMut() -> Res<T>) -> Res<f64> {
    let t = Instant::now();
    black_box(f()?);
    Ok(t.elapsed().as_nanos() as f64)
}

/// `x` rounded to `digits` decimals.
pub(crate) fn round(x: f64, digits: i32) -> f64 {
    let scale = 10f64.powi(digits);
    (x * scale).round() / scale
}

/// One `BENCH_<bench>.json` record at the workspace root. Every record
/// names its host under `machine`: the CPU model, the core count, the
/// matmul kernel path the forward pass dispatches to (`avx512`, `avx2` or
/// `portable`) and whether the CPU has `avx2`, `fma` and `avx512f`, since
/// timings do not carry across hosts.
pub(crate) struct Record {
    bench: &'static str,
    fields: Map,
}

impl Record {
    pub(crate) fn new(bench: &'static str) -> Record {
        let mut machine = Map::new();
        machine.insert("cpu", cpu_model().to_value());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        machine.insert("nproc", nproc.to_value());
        machine.insert("kernel_path", Kernel::detect(true).path().to_value());
        for (flag, present) in isa_flags() {
            machine.insert(flag, present.to_value());
        }
        let mut fields = Map::new();
        fields.insert("bench", bench.to_value());
        fields.insert("machine", Value::Object(machine));
        Record { bench, fields }
    }

    pub(crate) fn put(&mut self, key: &str, value: impl Serialize) -> &mut Record {
        self.fields.insert(key, value.to_value());
        self
    }

    /// `key`: `x` rounded to `digits` decimals.
    pub(crate) fn round(&mut self, key: &str, x: f64, digits: i32) -> &mut Record {
        self.put(key, round(x, digits))
    }

    /// `key`: `ns` in milliseconds.
    pub(crate) fn ms(&mut self, key: &str, ns: f64) -> &mut Record {
        self.round(key, ns / 1e6, 3)
    }

    /// `key`: the median of `q`; `<key>_q1`, `<key>_q3`: its quartiles.
    pub(crate) fn spread(&mut self, key: &str, q: Quartiles, digits: i32) -> &mut Record {
        self.round(key, q.median, digits)
            .round(&format!("{key}_q1"), q.q1, digits)
            .round(&format!("{key}_q3"), q.q3, digits)
    }

    /// Write the record and return it. A failed write fails the gate, so a
    /// stale file never outlives a run.
    pub(crate) fn write(&self) -> Res<Value> {
        self.write_in(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
    }

    /// [`write`](Self::write) into directory `root`.
    pub(crate) fn write_in(&self, root: &Path) -> Res<Value> {
        let value = Value::Object(self.fields.clone());
        let json = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
        let path = root.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("[gate] wrote BENCH_{}.json", self.bench);
        Ok(value)
    }
}
