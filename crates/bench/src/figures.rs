//! The paper's tables and figures, one function each over the [`Repro`]
//! harness. A figure prints its paper-style rows through the harness,
//! checks the shape claims EXPERIMENTS.md lists as CI-checked, and returns
//! its JSON record.

use crate::*;
use m3_netsim::stats::{percentile, percentile_unsorted, ErrorSummary};
use m3_workload::prelude::*;
use serde::Map;
use std::collections::BTreeMap;

/// A table or figure of the paper: prints its rows, returns its record.
pub type Figure = fn(&Repro) -> Res<Value>;

/// One number of a figure's record, e.g. a method's error.
type Of<T> = fn(&T) -> f64;

/// Every figure, in the order `repro all` runs them.
pub const FIGURES: [(&str, Figure); 16] = [
    ("fig18_workload", fig18_workload),
    ("fig3_heatmaps", fig3_heatmaps),
    ("fig2_paths", fig2_paths),
    ("fig5_sampling", fig5_sampling),
    ("fig6_path_cdfs", fig6_path_cdfs),
    ("fig16_ablation", fig16_ablation),
    ("fig17_config_space", fig17_config_space),
    ("table1", table1),
    ("fig2_accuracy", fig2_accuracy),
    ("fig10_sensitivity", fig10_sensitivity),
    ("fig11_breakdown", fig11_breakdown),
    ("fig15_error_breakdown", fig15_error_breakdown),
    ("fig13_window_sweep", fig13_window_sweep),
    ("fig14_eta_sweep", fig14_eta_sweep),
    ("table5_fig12", table5_fig12),
    ("ablation_global_flowsim", ablation_global_flowsim),
];

/// The figures a `repro <target>` runs: `all`, or one by name.
pub fn plan(target: &str) -> Res<Vec<(&'static str, Figure)>> {
    if target == "all" {
        return Ok(FIGURES.to_vec());
    }
    (FIGURES.iter().find(|(name, _)| *name == target))
        .map(|f| vec![*f])
        .ok_or_else(|| format!("unknown figure {target:?}"))
}

fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

fn signed_pct(v: f64) -> String {
    format!("{:+.1}%", v * 100.0)
}

/// Mean of `f` over `items` (0 when there are none).
fn mean<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).sum::<f64>() / items.len().max(1) as f64
}

/// A table's rows, starting with its tab-separated header.
fn rows(head: &str) -> Vec<String> {
    vec![head.to_string()]
}

/// Table rows under `head`, one per group with errors: the group's label,
/// then `cells` of its error summary.
fn summary_rows(
    head: &str,
    groups: impl IntoIterator<Item = (String, Vec<f64>)>,
    cells: impl Fn(&ErrorSummary) -> String,
) -> Vec<String> {
    let body = (groups.into_iter())
        .filter(|(_, errs)| !errs.is_empty())
        .map(|(label, errs)| format!("{label}\t{}", cells(&ErrorSummary::from_signed(&errs))));
    rows(head).into_iter().chain(body).collect()
}

/// The sweep's two estimators and their p99 errors (Figs. 10-11).
const SWEEP_ERRS: [(&str, Of<SweepRecord>); 2] = [
    ("m3", SweepRecord::m3_err),
    ("Parsimon", SweepRecord::parsimon_err),
];

/// Table 1: p99 slowdown and wall time of full packet simulation ("ns-3"),
/// Parsimon and per-path packet simulation ("ns-3-path") on the three
/// production mixes. Shape: ns-3-path tracks ns-3 while Parsimon deviates
/// more, and Parsimon is much faster than both packet-level methods.
fn table1(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct Row {
        mix: String,
        ns3_p99: f64,
        ns3_secs: f64,
        parsimon_p99: f64,
        parsimon_secs: f64,
        ns3path_p99: f64,
        ns3path_secs: f64,
    }
    let (n, k) = (r.scale.flows, r.scale.paths);
    let mut table = rows("Scenario\tns-3 p99\ttime\tParsimon p99\ttime\tns-3-path p99\ttime");
    let mut out = Vec::new();
    for (i, (name, _)) in MIXES.iter().enumerate() {
        let sc = mix_scenario(i, n)?;
        let (topo, flows, cfg) = (&sc.ft.topo, &sc.flows, &sc.config);
        let (gt_out, t_ns3) = timed(|| sc.packet_sim());
        let (pars, t_pars) = timed(|| parsimon_network(topo, flows, cfg));
        let (np, t_np) = timed(|| ns3_path_estimate(topo, flows, cfg, k, 7));
        let (gt, pars, np) = (
            ground_truth_estimate(&gt_out.records).p99(),
            pars.p99(),
            np.p99(),
        );
        let [t_ns3, t_pars, t_np] = [t_ns3, t_pars, t_np].map(|t| t.as_secs_f64());
        let baselines = format!("{pars:.3}\t{t_pars:.2}s\t{np:.3}\t{t_np:.2}s");
        table.push(format!("{name}\t{gt:.3}\t{t_ns3:.2}s\t{baselines}"));
        out.push(Row {
            mix: name.to_string(),
            ns3_p99: gt,
            ns3_secs: t_ns3,
            parsimon_p99: pars,
            parsimon_secs: t_pars,
            ns3path_p99: np,
            ns3path_secs: t_np,
        });
    }
    r.table(&format!("Table 1 ({n} flows, {k} sampled paths)"), &table);
    let avg_err = |est: fn(&Row) -> f64| mean(&out, |r| relative_error(est(r), r.ns3_p99).abs());
    let [np, pars] = [avg_err(|r| r.ns3path_p99), avg_err(|r| r.parsimon_p99)].map(pct);
    let line = format!("\nns-3-path avg |p99 error|: {np}   Parsimon avg |p99 error|: {pars}");
    r.say(line);
    Ok(out.to_value())
}

/// Fig. 2(b) and 2(d): structure of weight-sampled paths (hop counts and
/// foreground/background flow counts) on the three production mixes.
fn fig2_paths(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct MixStats {
        mix: String,
        hops_hist: Vec<(usize, usize)>,
        fg_percentiles: Vec<(u8, f64)>,
        bg_percentiles: Vec<(u8, f64)>,
        populated_paths: usize,
    }
    let (n, k) = (r.scale.flows, r.scale.paths.max(200));
    let mut all = Vec::new();
    for (i, (name, _)) in MIXES.iter().enumerate() {
        let sc = mix_scenario(i, n)?;
        let index = PathIndex::build(&sc.ft.topo, &sc.flows);
        let mut hops = BTreeMap::new();
        let (mut fg_counts, mut bg_counts) = (Vec::new(), Vec::new());
        for g in index.sample_paths(k, 11) {
            let len = index.rep_flow(g, &sc.flows).path.len();
            *hops.entry(len).or_insert(0) += 1;
            fg_counts.push(index.foreground_of(g).len() as f64);
            bg_counts.push(index.background_of(g).len() as f64);
        }
        let pcts = |mut v: Vec<f64>| -> Vec<(u8, f64)> {
            v.sort_by(|a, b| a.total_cmp(b));
            let at = |p: u8| (p, percentile(&v, p as f64));
            [10u8, 25, 50, 75, 90, 99].map(at).to_vec()
        };
        let s = MixStats {
            mix: name.to_string(),
            hops_hist: hops.into_iter().collect(),
            fg_percentiles: pcts(fg_counts),
            bg_percentiles: pcts(bg_counts),
            populated_paths: index.num_paths(),
        };
        r.say(format!(
            "\n== Fig 2(b,d): {name} ({n} flows, {k} sampled paths) ==\npopulated paths: {}\n\
             hop-count histogram (links per path): {:?}\nfg flows/path percentiles: {:?}\n\
             bg flows/path percentiles: {:?}",
            s.populated_paths, s.hops_hist, s.fg_percentiles, s.bg_percentiles
        ));
        all.push(s);
    }
    Ok(all.to_value())
}

/// Fig. 2(c) and 2(e): per sampled path, the p99 slowdown of its
/// foreground flows in the full simulation against the isolated per-path
/// packet simulation (ns-3-path), and the error by path length.
fn fig2_accuracy(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct PathError {
        mix: String,
        hops: usize,
        n_fg: usize,
        full_p99: f64,
        path_p99: f64,
        rel_err: f64,
    }
    let cfg = SimConfig::default();
    let mut all: Vec<PathError> = Vec::new();
    for (i, (name, _)) in MIXES.iter().enumerate() {
        let sc = mix_scenario(i, r.scale.flows)?;
        let truth = slowdown_by_id(&sc.packet_sim().records);
        let index = PathIndex::build(&sc.ft.topo, &sc.flows);
        for g in populated_sample(&index, r.scale.acc_paths, 13) {
            let data = PathScenarioData::from_group(&sc.ft.topo, &sc.flows, &index, g, &cfg);
            let mut full: Vec<f64> = (index.foreground_of(g).iter())
                .filter_map(|&fi| truth.get(&sc.flows[fi as usize].id).copied())
                .collect();
            if full.len() < 3 {
                continue;
            }
            let full_p99 = percentile_unsorted(&mut full, 99.0);
            let mut path: Vec<f64> = data.run_ns3_path(cfg).iter().map(|s| s.1).collect();
            let path_p99 = percentile_unsorted(&mut path, 99.0);
            all.push(PathError {
                mix: name.to_string(),
                hops: data.num_hops(),
                n_fg: data.fg.len(),
                full_p99,
                path_p99,
                rel_err: relative_error(path_p99, full_p99),
            });
        }
    }
    let errs = |pick: &dyn Fn(&PathError) -> bool| -> Vec<f64> {
        all.iter().filter(|e| pick(e)).map(|e| e.rel_err).collect()
    };
    let mixes = MIXES.map(|(name, _)| (name.to_string(), errs(&|e| e.mix == name)));
    let head = "Mix\tpaths\tmean|err|\tmedian|err|\tmax|err|";
    let table = summary_rows(head, mixes, |s| {
        let [mean, median, max] = [s.mean_abs, s.median_abs, s.max_abs].map(pct);
        format!("{}\t{mean}\t{median}\t{max}", s.n)
    });
    let title = "Fig 2(c): ns-3-path vs full simulation, per-path p99 slowdown error";
    r.table(title, &table);
    let by_hops = [2usize, 4, 6].map(|h| (format!("{h} links"), errs(&|e| e.hops == h)));
    let table = summary_rows("Path length\tpaths\tp25\tmedian\tp75", by_hops, |s| {
        let [p25, p50, p75] = [s.p25, s.p50, s.p75].map(signed_pct);
        format!("{}\t{p25}\t{p50}\t{p75}", s.n)
    });
    r.table("Fig 2(e): error by path length (violin quartiles)", &table);
    Ok(all.to_value())
}

/// Fig. 3: flowSim slowdown heatmaps on a single link, varying one workload
/// dimension per row (burstiness, max load, size distribution): flowSim
/// feature maps are sensitive to workload character (§2.2). Prints each
/// 10-bucket map at every 10th percentile; the record holds the full maps.
fn fig3_heatmaps(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct Panel {
        label: String,
        /// 10 x 100 feature map.
        map: Vec<f32>,
    }
    let panel = |label: String, sizes: SizeDistribution, sigma: f64, load: f64| {
        // A single 10G link; flows capped by 10G NICs on both sides.
        let spec = PathScenarioSpec {
            n_hops: 1,
            n_foreground: 20_000,
            n_background: 0,
            sizes,
            sigma,
            max_load: load,
            seed: 33,
            ..PathScenarioSpec::default()
        };
        let (ft, flows) = PathScenario::generate(&spec).to_fluid(1000);
        let recs = m3_flowsim::prelude::simulate_fluid(&ft, &flows);
        let samples: Vec<(u64, f64)> = recs.iter().map(|x| (x.size, x.slowdown())).collect();
        let map = FeatureMap::feature(&samples).data;
        let title = label.replacen('=', " = ", 1);
        let line = format!("\n-- {title} (rows: size buckets small->large; cols: p10..p100) --");
        r.say(line);
        for b in 0..SIZE_BUCKETS.len() {
            let row = (0..10).map(|c| match map[b * 100 + (c * 10 + 9)] {
                0.0 => "   -  ".into(),
                v => format!("{v:6.2}"),
            });
            r.say(format!("b{b}: {}", row.collect::<Vec<String>>().join(" ")));
        }
        Panel { label, map }
    };
    let cf = SizeDistribution::cache_follower;
    let mut panels = Vec::new();
    for sigma in [1.0, 1.5, 2.0] {
        panels.push(panel(format!("sigma={sigma}"), cf(), sigma, 0.5));
    }
    for load in [0.2, 0.5, 0.8] {
        panels.push(panel(format!("load={load}"), cf(), 1.5, load));
    }
    for name in ["Hadoop", "CacheFollower", "WebServer"] {
        let sizes = SizeDistribution::by_name(name).ok_or("unknown size distribution")?;
        panels.push(panel(name.to_string(), sizes, 1.5, 0.5));
    }
    // Tail of a map: mean over non-empty size buckets of its p99 column.
    let tail: Vec<f64> = (panels.iter())
        .map(|p| {
            let p99 = (0..10).map(|b| p.map[b * 100 + 98] as f64);
            mean(&p99.filter(|&v| v > 0.0).collect::<Vec<_>>(), |&v| v)
        })
        .collect();
    for (dim, t) in [
        ("sigma 1 -> 1.5 -> 2", &tail[0..3]),
        ("load 20% -> 50% -> 80%", &tail[3..6]),
    ] {
        let trend = format!("{:.2} -> {:.2} -> {:.2}", t[0], t[1], t[2]);
        r.claim(
            t[0] < t[1] && t[1] < t[2],
            format!("tail slowdown rises with {dim} ({trend})"),
        );
    }
    Ok(panels.to_value())
}

/// Fig. 5: (left) the number of populated paths across workloads; (right)
/// how the p99 sampling error shrinks with the number of sampled paths.
/// Pure sampling error: the sampled paths carry their ground-truth per-flow
/// slowdowns, so the only approximation is which paths are included (§3.2).
fn fig5_sampling(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct Out {
        populated_paths: Vec<usize>,
        /// (k, error percentiles p50/p90/p99 over scenarios x repeats)
        error_vs_k: Vec<(usize, f64, f64, f64)>,
    }
    let n_scen = r.scale.scenarios.min(16);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut populated = Vec::new();
    let mut errors_by_k = [10usize, 50, 100, 200, 500].map(|k| (k, Vec::new()));
    for i in 0..n_scen {
        let p = sample_test_point(&mut rng, Some(CcProtocol::Dctcp));
        let sc = test_scenario(&p, r.scale.flows / 2)?;
        let gt_out = sc.packet_sim();
        let full_p99 = ground_truth_estimate(&gt_out.records).p99();
        let index = PathIndex::build(&sc.ft.topo, &sc.flows);
        populated.push(index.num_paths());
        let mut sldn = vec![f64::NAN; sc.flows.len()];
        for rec in &gt_out.records {
            sldn[rec.id as usize] = rec.slowdown();
        }
        let path = |g: usize| {
            let fg = index.foreground_of(g).iter().map(|&fi| fi as usize);
            let samples: Vec<(u64, f64)> = fg.map(|fi| (sc.flows[fi].size, sldn[fi])).collect();
            PathDistribution::from_samples(&samples)
        };
        for rep in 0..3u64 {
            for (k, errs) in errors_by_k.iter_mut() {
                let sampled = index.sample_paths(*k, 77 + rep * 1000 + i as u64);
                let dists: Vec<PathDistribution> = sampled.into_iter().map(path).collect();
                let p99 = NetworkEstimate::aggregate(&dists).p99();
                errs.push(relative_error(p99, full_p99).abs());
            }
        }
    }
    let (mut table, mut error_vs_k) = (rows("k\tmedian\tp90\tp99"), Vec::new());
    for (k, mut errs) in errors_by_k {
        errs.sort_by(|a, b| a.total_cmp(b));
        let [p50, p90, p99] = [50.0, 90.0, 99.0].map(|p| percentile(&errs, p));
        table.push(format!("{k}\t{}\t{}\t{}", pct(p50), pct(p90), pct(p99)));
        error_vs_k.push((k, p50, p90, p99));
    }
    r.table("Fig 5(right): |p99 error| vs #sampled paths", &table);
    populated.sort_unstable();
    let at = |i: usize| populated.get(i).copied().unwrap_or(0);
    let n = populated.len();
    let (min, median, max) = (at(0), at(n / 2), at(n.saturating_sub(1)));
    r.say(format!(
        "\nFig 5(left): populated paths across {n_scen} workloads: \
         min {min} / median {median} / max {max}"
    ));
    let out = Out {
        populated_paths: populated,
        error_vs_k,
    };
    Ok(out.to_value())
}

/// Fig. 6: per-size-bucket slowdown distributions on a 4-hop parking-lot
/// path: packet-level ground truth vs flowSim vs m3. Shape: flowSim matches
/// flows of 10 kB and more but underestimates the small-flow tail, and m3's
/// corrected percentiles recover part of it.
fn fig6_path_cdfs(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct BucketCdf {
        bucket: String,
        truth: Vec<f64>,
        flowsim: Vec<f64>,
        m3: Vec<f64>,
    }
    let net = &r.models()?.m3.net;
    let spec = PathScenarioSpec {
        n_hops: 4,
        n_foreground: 2_000,
        n_background: 6_000,
        sizes: SizeDistribution::cache_follower(),
        sigma: 1.5,
        max_load: 0.6,
        seed: 404,
        ..PathScenarioSpec::default()
    };
    let ps = PathScenario::generate(&spec);
    let config = SimConfig::default();
    let fg_ids: std::collections::HashSet<u32> = ps.foreground_ids().into_iter().collect();
    let truth_fg: Vec<(u64, f64)> = (ps.ground_truth(config).records.iter())
        .filter(|x| fg_ids.contains(&x.id))
        .map(|x| (x.size, x.slowdown()))
        .collect();
    let (input, flowsim_fg) = scenario_features(&ps, &config, true);
    let truth = PathDistribution::from_samples(&truth_fg);
    let flowsim = PathDistribution::from_samples(&flowsim_fg);
    let m3 = PathDistribution::from_model_output(&model_output(net, &input), truth.counts);
    let (mut table, mut cdfs) = (rows("Bucket\tpct\tns-3 (truth)\tflowSim\tm3"), Vec::new());
    for (b, name) in BUCKETS.iter().enumerate() {
        let (t, f, m) = (&truth.buckets[b], &flowsim.buckets[b], &m3.buckets[b]);
        if t.is_empty() {
            continue;
        }
        let at = |v: &[f64], p: usize| v.get(p - 1).map_or("-".into(), |x| format!("{x:.2}"));
        for p in [50usize, 90, 99] {
            let cells = [t, f, m].map(|v| at(v, p));
            table.push(format!("{name}\tp{p}\t{}", cells.join("\t")));
        }
        let (bucket, truth, flowsim, m3) = (name.to_string(), t.clone(), f.clone(), m.clone());
        cdfs.push(BucketCdf {
            bucket,
            truth,
            flowsim,
            m3,
        });
    }
    let title = "Fig 6: slowdown percentiles on a 4-hop path (truth vs flowSim vs m3)";
    r.table(title, &table);
    if let Some(b0) = cdfs.first() {
        let t = b0.truth[98];
        let f = b0.flowsim.get(98).copied().unwrap_or(f64::NAN);
        let m = b0.m3.get(98).copied().unwrap_or(f64::NAN);
        let (f_err, m_err) = ((f - t) / t, (m - t) / t);
        let (fe, me) = (f_err * 100.0, m_err * 100.0);
        let line = format!("\nsmall-flow p99: truth {t:.2}, flowSim {f:.2} (err {fe:+.0}%), m3 {m:.2} (err {me:+.0}%)");
        r.say(line);
        r.claim(f < t, "flowSim underestimates the small-flow p99".into());
        let what = "m3 recovers part of flowSim's small-flow p99 error";
        r.claim(m_err.abs() < f_err.abs(), what.into());
    }
    Ok(cdfs.to_value())
}

/// Fig. 10: the §5.2 sensitivity analysis, m3 vs Parsimon over a random
/// DCTCP sweep on the 32-rack fat tree: (a) p99 error distribution,
/// (b) median error per max-load bucket, (c) runtimes, (d) runtime by
/// size distribution.
fn fig10_sensitivity(r: &Repro) -> Res<Value> {
    let records = dctcp_sweep(r)?;
    let mut table = rows("Method\tmean|err|\tmedian|err|\tp90|err|\tmax|err|");
    for (name, err) in SWEEP_ERRS {
        let errs: Vec<f64> = records.iter().map(err).collect();
        let s = ErrorSummary::from_signed(&errs);
        let mut magnitudes: Vec<f64> = errs.iter().map(|e| e.abs()).collect();
        let p90 = percentile_unsorted(&mut magnitudes, 90.0);
        let cells = [s.mean_abs, s.median_abs, p90, s.max_abs].map(pct);
        table.push(format!("{name}\t{}", cells.join("\t")));
    }
    r.table("Fig 10(a): p99 slowdown estimation error", &table);
    let mut table = rows("Load\tn\tm3\tParsimon");
    for (lo, hi) in [(0.2, 0.4), (0.4, 0.5), (0.5, 0.6), (0.6, 0.85)] {
        let in_load = |x: &&SweepRecord| (lo..hi).contains(&x.max_load);
        let sel: Vec<&SweepRecord> = records.iter().filter(in_load).collect();
        let median = |(_, err): (&str, Of<SweepRecord>)| {
            let mut v: Vec<f64> = sel.iter().map(|x| err(x).abs()).collect();
            pct(percentile_unsorted(&mut v, 50.0))
        };
        if !sel.is_empty() {
            let [m3, pars] = SWEEP_ERRS.map(median);
            let load = format!("{:.0}-{:.0}%", lo * 100.0, hi * 100.0);
            table.push(format!("{load}\t{}\t{m3}\t{pars}", sel.len()));
        }
    }
    r.table("Fig 10(b): median |p99 error| by max link load", &table);
    // Runtime percentiles. The mean sums the times in sorted order: another
    // order can change its last bit.
    let mut table = rows("Method\tmedian\tp90\tmean");
    let mut runtime = |name: &str, secs: Of<SweepRecord>| {
        let mut v: Vec<f64> = records.iter().map(secs).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        let (p50, p90, mean) = (percentile(&v, 50.0), percentile(&v, 90.0), mean(&v, |&x| x));
        table.push(format!("{name}\t{p50:.2}\t{p90:.2}\t{mean:.2}"));
        mean
    };
    let gm = runtime("packet sim (ns-3)", |x| x.gt_secs);
    let pm = runtime("Parsimon", |x| x.parsimon_secs);
    let mm = runtime("m3", |x| x.m3_secs);
    r.table("Fig 10(c): runtime (seconds)", &table);
    let (vs_gt, vs_pars) = (gm / mm, pm / mm);
    let line =
        format!("\nmean speedup: m3 vs packet sim {vs_gt:.1}x, m3 vs Parsimon {vs_pars:.1}x");
    r.say(line);
    let mut table = rows("Workload\tn\tm3\tParsimon\tpacket sim");
    for w in ["WebServer", "CacheFollower", "Hadoop"] {
        let sel: Vec<&SweepRecord> = records.iter().filter(|x| x.workload == w).collect();
        let secs = |f: Of<SweepRecord>| format!("{:.2}s", mean(&sel, |x| f(x)));
        if !sel.is_empty() {
            let (m3, pars) = (secs(|x| x.m3_secs), secs(|x| x.parsimon_secs));
            let gt = secs(|x| x.gt_secs);
            table.push(format!("{w}\t{}\t{m3}\t{pars}\t{gt}", sel.len()));
        }
    }
    r.table("Fig 10(d): mean runtime by workload", &table);
    Ok(records.to_value())
}

/// Fig. 11: p99 error quartiles of m3 and Parsimon per workload dimension
/// (traffic matrix, size distribution, oversubscription, burstiness), over
/// the same sweep as Fig. 10.
fn fig11_breakdown(r: &Repro) -> Res<Value> {
    let records = dctcp_sweep(r)?;
    let group = |dim: &str, x: &SweepRecord| match dim {
        "matrix" => x.matrix.clone(),
        "workload" => x.workload.clone(),
        "oversub" => format!("{}:1", x.oversub),
        _ => format!("{:.1}", x.sigma),
    };
    let dims = [
        ("matrix", "A B C"),
        ("workload", "CacheFollower WebServer Hadoop"),
        ("oversub", "1:1 2:1 4:1"),
        ("sigma", "1.0 2.0"),
    ];
    let mut groups = Vec::new();
    for (dim, labels) in dims {
        for label in labels.split(' ') {
            for (method, err) in SWEEP_ERRS {
                let errs = records.iter().filter(|x| group(dim, x) == label).map(err);
                groups.push((format!("{dim}={label}\t{method}"), errs.collect()));
            }
        }
    }
    let head = "Group\tMethod\tn\tp25\tmedian\tp75\tmax|err|";
    let table = summary_rows(head, groups, |s| {
        let [p25, p50, p75] = [s.p25, s.p50, s.p75].map(signed_pct);
        format!("{}\t{p25}\t{p50}\t{p75}\t{}", s.n, pct(s.max_abs))
    });
    r.table("Fig 11: p99 error quartiles by workload dimension", &table);
    Ok(records.to_value())
}

/// An HPCC config of the §5.4 counterfactual searches: PFC on, 400 kB
/// buffers.
fn hpcc(init_window_kb: u64, eta: f64) -> SimConfig {
    SimConfig {
        cc: CcProtocol::Hpcc,
        init_window: init_window_kb * KB,
        buffer_size: 400 * KB,
        pfc_enabled: true,
        params: CcParams {
            hpcc_eta: eta,
            ..CcParams::default()
        },
        ..SimConfig::default()
    }
}

/// One point of an HPCC counterfactual sweep.
#[derive(Serialize)]
struct HpccPoint {
    truth_bucket_p99: Vec<f64>,
    m3_bucket_p99: Vec<f64>,
    truth_secs: f64,
    m3_secs: f64,
}

/// Sweep one HPCC knob on the Figs. 13-14 scenario (matrix C, WebServer
/// sizes, 50% max load): `key` names the knob in the record, `header` in
/// the tables and `what` in their titles. Returns the record and points.
fn hpcc_sweep(
    r: &Repro,
    fig: &str,
    [key, header, what]: [&str; 3],
    knobs: Vec<(String, Value, SimConfig)>,
) -> Res<(Value, Vec<HpccPoint>)> {
    let estimator = &r.models()?.m3;
    let (n, k) = (r.scale.flows / 2, r.scale.paths);
    // Each point changes the config spec, part of the scenario fingerprint,
    // so points never hit each other's entries; the cache pays off when a
    // point is re-estimated under the same config.
    let mut cache = ScenarioCache::new(8192);
    let mut points = Vec::new();
    for (_, _, config) in &knobs {
        let sc = full_scenario(("C", "WebServer", 2, 1.0, 0.5), *config, n, 77)?;
        let (topo, flows, cfg) = (&sc.ft.topo, &sc.flows, &sc.config);
        let (gt_out, t_gt) = timed(|| sc.packet_sim());
        let gt = ground_truth_estimate(&gt_out.records);
        let (m3, t_m3) =
            timed(|| estimator.estimate_with_cache(topo, flows, cfg, k, 4, &mut cache));
        let t = &m3.timings;
        eprintln!(
            "[{fig}] {} paths, {} unique, {} flowSim runs, {} cache hits",
            t.sampled_paths, t.unique_scenarios, t.flowsim_runs, t.cache_hits
        );
        points.push(HpccPoint {
            truth_bucket_p99: (0..NUM_OUTPUT_BUCKETS).map(|b| gt.bucket_p99(b)).collect(),
            m3_bucket_p99: (0..NUM_OUTPUT_BUCKETS).map(|b| m3.bucket_p99(b)).collect(),
            truth_secs: t_gt.as_secs_f64(),
            m3_secs: t_m3.as_secs_f64(),
        });
    }
    for (b, name) in BUCKETS.iter().enumerate() {
        let mut table = rows(&format!("{header}\tpacket sim\tm3"));
        for ((label, ..), p) in knobs.iter().zip(&points) {
            let (t, m) = (p.truth_bucket_p99[b], p.m3_bucket_p99[b]);
            table.push(format!("{label}\t{t:.2}\t{m:.2}"));
        }
        r.table(&format!("{fig}, bucket {name}: p99 vs HPCC {what}"), &table);
    }
    let gt_total: f64 = points.iter().map(|p| p.truth_secs).sum();
    let m3_total: f64 = points.iter().map(|p| p.m3_secs).sum();
    let speedup = gt_total / m3_total;
    let line = format!(
        "\nsweep time: packet sim {gt_total:.1}s vs m3 {m3_total:.1}s ({speedup:.0}x speedup)"
    );
    r.say(line);
    let record = (knobs.into_iter().zip(&points))
        .map(|((_, knob, _), p)| {
            let mut m = Map::new();
            m.insert(key, knob);
            if let Value::Object(fields) = p.to_value() {
                fields.iter().for_each(|(k, v)| m.insert(k, v.clone()));
            }
            Value::Object(m)
        })
        .collect();
    Ok((Value::Array(record), points))
}

/// Fig. 13: counterfactual search over HPCC's initial window (§5.4), eta
/// 0.9. Shape: larger initial windows hurt small flows, and m3 predicts the
/// same direction.
fn fig13_window_sweep(r: &Repro) -> Res<Value> {
    let knobs = [5u64, 10, 15, 20, 30].map(|w| (format!("{w}KB"), w.to_value(), hpcc(w, 0.90)));
    let names = ["window_kb", "Window", "init window"];
    let (record, points) = hpcc_sweep(r, "Fig 13", names, knobs.to_vec())?;
    if let (Some(first), Some(last)) = (points.first(), points.last()) {
        let sim = (
            "packet sim",
            first.truth_bucket_p99[0],
            last.truth_bucket_p99[0],
        );
        for (who, a, b) in [sim, ("m3", first.m3_bucket_p99[0], last.m3_bucket_p99[0])] {
            let what = format!("{who} small-flow p99 rises from 5 kB to 30 kB ({a:.2} -> {b:.2})");
            r.claim(a < b, what);
        }
    }
    Ok(record)
}

/// Fig. 14: counterfactual search over HPCC's eta (target utilization),
/// initial window 20 kB (§5.4); same scenario as Fig. 13.
fn fig14_eta_sweep(r: &Repro) -> Res<Value> {
    let etas = [0.70, 0.75, 0.80, 0.85, 0.90, 0.95];
    let knobs = etas.map(|eta: f64| (format!("{eta:.2}"), eta.to_value(), hpcc(20, eta)));
    Ok(hpcc_sweep(r, "Fig 14", ["eta"; 3], knobs.to_vec())?.0)
}

/// Fig. 15: error breakdown of paths' foreground flows on the small fat
/// tree. Per sampled path, the full simulation's p99 against ns-3-path
/// (the decomposition assumption alone), m3 (plus flowSim and the ML
/// correction) and Parsimon (link independence). Shape: ns-3-path error
/// stays below m3's.
fn fig15_error_breakdown(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct PathBreakdown {
        hops: usize,
        n_fg: usize,
        truth_p99: f64,
        ns3path_err: f64,
        m3_err: f64,
        parsimon_err: f64,
    }
    let estimator = &r.models()?.m3;
    let cfg = SimConfig::default();
    let sc = full_scenario(("B", "WebServer", 2, 1.0, 0.5), cfg, r.scale.flows, 91)?;
    let truth = slowdown_by_id(&sc.packet_sim().records);
    let pars = m3_parsimon::parsimon_estimate(&sc.ft.topo, &sc.flows, &cfg);
    let pars: HashMap<u32, f64> = pars.iter().map(|x| (x.id, x.slowdown())).collect();
    let p99 = |mut v: Vec<f64>| percentile_unsorted(&mut v, 99.0);
    let index = PathIndex::build(&sc.ft.topo, &sc.flows);
    let mut paths = Vec::new();
    for g in populated_sample(&index, r.scale.acc_paths, 23) {
        let data = PathScenarioData::from_group(&sc.ft.topo, &sc.flows, &index, g, &cfg);
        let fg = index.foreground_of(g);
        let ids = fg.iter().map(|&fi| sc.flows[fi as usize].id);
        let of =
            |m: &HashMap<u32, f64>| p99(ids.clone().filter_map(|i| m.get(&i).copied()).collect());
        let truth_p99 = of(&truth);
        let np = p99(data.run_ns3_path(cfg).iter().map(|s| s.1).collect());
        let m3 = NetworkEstimate::aggregate(&[estimator.predict_path(&data, &cfg)]).p99();
        paths.push(PathBreakdown {
            hops: data.num_hops(),
            n_fg: data.fg.len(),
            truth_p99,
            ns3path_err: relative_error(np, truth_p99),
            m3_err: relative_error(m3, truth_p99),
            parsimon_err: relative_error(of(&pars), truth_p99),
        });
    }
    let mut table = rows("Path length\tpaths\tns-3-path\tm3\tParsimon");
    for (label, h) in [("2 links", 2), ("4 links", 4), ("6 links", 6), ("all", 0)] {
        let sel: Vec<&PathBreakdown> = paths.iter().filter(|p| h == 0 || p.hops == h).collect();
        if sel.is_empty() && h != 0 {
            continue;
        }
        let errs: [fn(&PathBreakdown) -> f64; 3] =
            [|p| p.ns3path_err, |p| p.m3_err, |p| p.parsimon_err];
        let cells = errs.map(|err| pct(mean(&sel, |p| err(p).abs())));
        table.push(format!("{label}\t{}\t{}", sel.len(), cells.join("\t")));
    }
    let title = "Fig 15: mean |p99 error| of paths' foreground flows";
    r.table(title, &table);
    Ok(paths.to_value())
}

/// A held-out Table 2 path example, its truth and the truth's p99.
fn held_out(point: &TrainingPoint) -> (TrainExample, PathDistribution, f64) {
    let ex = make_example(point, 120, 360, true);
    let truth = PathDistribution::from_samples(&ex.truth_fg);
    let truth_p99 = NetworkEstimate::aggregate(std::slice::from_ref(&truth)).p99();
    (ex, truth, truth_p99)
}

/// A model's decoded output (4 buckets x 100 percentiles) for one sample.
fn model_output(net: &M3Net, input: &SampleInput) -> Vec<f32> {
    m3_core::features::decode_log(&net.predict(input))
}

/// p99 of a model's corrected distribution of one held-out path.
fn model_p99(net: &M3Net, input: &SampleInput, truth: &PathDistribution) -> f64 {
    let dist = PathDistribution::from_model_output(&model_output(net, input), truth.counts);
    NetworkEstimate::aggregate(&[dist]).p99()
}

/// Fig. 16: component ablation on held-out Table 2 parking-lot scenarios:
/// flowSim alone vs "m3 w/o context" (trained with the background context
/// zeroed) vs m3. Shape: flowSim underestimates p99, the ML correction
/// removes most of the bias, and context should cut error further.
fn fig16_ablation(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct AblationPoint {
        hops: usize,
        flowsim_err: f64,
        noctx_err: f64,
        m3_err: f64,
    }
    let models = r.models()?;
    let mut points = Vec::new();
    for i in 0..r.scale.ablation_scenarios {
        let hops = [2usize, 4, 6][i % 3];
        // Fresh seeds, far from the training stream.
        let (ex, truth, truth_p99) = held_out(&training_point_with_hops(hops, 900_000 + i as u64));
        let mut noctx_input = ex.input.clone();
        noctx_input.use_context = false;
        let err = |p99: f64| relative_error(p99, truth_p99);
        points.push(AblationPoint {
            hops,
            flowsim_err: err(samples_p99(&ex.flowsim_fg)),
            noctx_err: err(model_p99(&models.noctx, &noctx_input, &truth)),
            m3_err: err(model_p99(&models.m3.net, &ex.input, &truth)),
        });
    }
    let methods: [(&str, Of<AblationPoint>); 3] = [
        ("flowSim", |p| p.flowsim_err),
        ("m3 w/o context", |p| p.noctx_err),
        ("m3", |p| p.m3_err),
    ];
    let mut groups = Vec::new();
    for (label, h) in [("2 hops", 2), ("4 hops", 4), ("6 hops", 6), ("all", 0)] {
        let sel: Vec<&AblationPoint> = points.iter().filter(|p| h == 0 || p.hops == h).collect();
        for (method, err) in methods {
            let errs = sel.iter().map(|p| err(p)).collect();
            groups.push((format!("{label}\t{method}"), errs));
        }
    }
    let table = summary_rows("Paths\tMethod\tmean|err|\tmedian\tmax|err|", groups, |s| {
        let [mean, max] = [s.mean_abs, s.max_abs].map(pct);
        format!("{mean}\t{}\t{max}", signed_pct(s.p50))
    });
    let title = "Fig 16: path-level p99 error (held-out Table 2 scenarios)";
    r.table(title, &table);
    Ok(points.to_value())
}

/// Fig. 17 (Appendix B): m3's p99 error across the Table 4 configuration
/// space (buffer size, initial window, CC protocol, PFC) on held-out
/// parking-lot scenarios.
fn fig17_config_space(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct ConfigPoint {
        cc: String,
        pfc: bool,
        buffer_kb: u64,
        window_kb: u64,
        err: f64,
    }
    let net = &r.models()?.m3.net;
    let mut rng = SmallRng::seed_from_u64(31337);
    let mut points = Vec::new();
    for i in 0..r.scale.config_scenarios {
        let mut point = training_point_with_hops([2usize, 4, 6][i % 3], 700_000 + i as u64);
        point.config = m3_workload::spaces::sample_config(&mut rng);
        let (ex, truth, truth_p99) = held_out(&point);
        let c = point.config;
        points.push(ConfigPoint {
            cc: c.cc.name().to_string(),
            pfc: c.pfc_enabled,
            buffer_kb: c.buffer_size / KB,
            window_kb: c.init_window / KB,
            err: relative_error(model_p99(net, &ex.input, &truth), truth_p99),
        });
    }
    let errs = |pick: &dyn Fn(&ConfigPoint) -> bool| -> Vec<f64> {
        points.iter().filter(|p| pick(p)).map(|p| p.err).collect()
    };
    let buffer = |kb: std::ops::Range<u64>| errs(&|p| kb.contains(&p.buffer_kb));
    let window = |kb: std::ops::Range<u64>| errs(&|p| kb.contains(&p.window_kb));
    let mut slices = vec![
        ("buffer 200-350KB".into(), buffer(200..350)),
        ("buffer 350-500KB".into(), buffer(350..500)),
        ("window 5-17KB".into(), window(5..17)),
        ("window 17-30KB".into(), window(17..31)),
    ];
    for cc in CcProtocol::ALL {
        slices.push((format!("cc {}", cc.name()), errs(&|p| p.cc == cc.name())));
    }
    slices.push(("pfc off".into(), errs(&|p| !p.pfc)));
    slices.push(("pfc on".into(), errs(&|p| p.pfc)));
    let table = summary_rows("Slice\tn\tmean|err|\tmedian\tmax|err|", slices, |s| {
        let (mean, p50, max) = (pct(s.mean_abs), signed_pct(s.p50), pct(s.max_abs));
        format!("{}\t{mean}\t{p50}\t{max}", s.n)
    });
    let title = "Fig 17: m3 p99 error across the Table 4 configuration space";
    r.table(title, &table);
    Ok(points.to_value())
}

/// Fig. 18: the evaluation workload data: traffic-matrix skew (A, B, C)
/// and size CDFs (CacheFollower, WebServer, Hadoop) of the synthetic
/// stand-ins for Meta's production data (DESIGN.md substitutions).
fn fig18_workload(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct Out {
        matrix_skew: Vec<(String, f64, f64)>,
        size_cdfs: Vec<(String, Vec<(u64, f64)>)>,
        mean_sizes: Vec<(String, f64)>,
    }
    let (mut matrix_skew, mut table) = (Vec::new(), rows("Matrix\ttop 1% pairs\ttop 5% pairs"));
    for name in ["A", "B", "C"] {
        let m = TrafficMatrix::by_name(name, 32).ok_or("unknown traffic matrix")?;
        let (top1, top5) = (m.top_percent_share(1.0), m.top_percent_share(5.0));
        table.push(format!("{name}\t{}\t{}", pct(top1), pct(top5)));
        matrix_skew.push((name.to_string(), top1, top5));
    }
    let title = "Fig 18(a): traffic matrix skew (share of demand in top rack pairs)";
    r.table(title, &table);
    let probe = [
        100u64, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000,
    ];
    let mut table = rows("Workload\t100\t300\t1K\t3K\t10K\t30K\t100K\t300K\t1M\t3M");
    let (mut size_cdfs, mut mean_sizes) = (Vec::new(), Vec::new());
    for name in ["WebServer", "CacheFollower", "Hadoop"] {
        let d = SizeDistribution::by_name(name).ok_or("unknown size distribution")?;
        // Empirical CDF: invert the quantile table by bisection.
        let cdf = probe.map(|x| {
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            for _ in 0..40 {
                let mid = (lo + hi) / 2.0;
                if let SizeDistribution::Empirical(t) = &d {
                    let below = t.inverse(mid) <= x;
                    (lo, hi) = if below { (mid, hi) } else { (lo, mid) };
                }
            }
            (x, lo)
        });
        let row = format!("{name}\t{}", cdf.map(|(_, p)| format!("{p:.2}")).join("\t"));
        table.push(row);
        mean_sizes.push((name.to_string(), d.mean()));
        size_cdfs.push((name.to_string(), cdf.to_vec()));
    }
    r.table("Fig 18(b): P(size <= x)", &table);
    let mut table = rows("Workload\tmean");
    table.extend(mean_sizes.iter().map(|(n, m)| format!("{n}\t{m:.0} B")));
    r.table("Mean flow sizes", &table);
    let out = Out {
        matrix_skew,
        size_cdfs,
        mean_sizes,
    };
    Ok(out.to_value())
}

/// Table 5 + Fig. 12: the §5.3 scalability experiment on the 384-rack /
/// 6144-host fat tree (matrix B, WebServer, sigma 2, 50% max load, DCTCP)
/// with initial windows of 10 kB (below the ~15 kB BDP) and 18 kB. Shape:
/// with the small window Parsimon overestimates large-flow slowdown while
/// m3 stays close, and m3 is the fastest method.
fn table5_fig12(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct WindowResult {
        init_window_kb: u64,
        ns3_p99: f64,
        ns3_secs: f64,
        parsimon_p99: f64,
        parsimon_err: f64,
        parsimon_secs: f64,
        m3_p99: f64,
        m3_err: f64,
        m3_secs: f64,
        /// Per-bucket p99: [truth, parsimon, m3] x 4 buckets (Fig. 12).
        bucket_p99: Vec<(String, f64, f64, f64)>,
    }
    let estimator = &r.models()?.m3;
    let (n, k) = (r.scale.flows, r.scale.paths);
    let w = ("B", "WebServer", 2, 2.0, 0.5);
    let sc = FullScenario::on(FatTreeSpec::large(), w, SimConfig::default(), n, 55)?;
    let (topo, flows) = (&sc.ft.topo, &sc.flows);
    let mut results = Vec::new();
    for window_kb in [10u64, 18] {
        let config = SimConfig {
            init_window: window_kb * KB,
            ..SimConfig::default()
        };
        let (gt_out, t_gt) = timed(|| run_simulation(topo, config, flows.clone()));
        let gt = ground_truth_estimate(&gt_out.records);
        let (pars, t_pars) = timed(|| parsimon_network(topo, flows, &config));
        let (m3, t_m3) = timed(|| estimator.estimate(topo, flows, &config, k, 9));
        let bucket = |b: usize| {
            let name = BUCKETS[b].to_string();
            (name, gt.bucket_p99(b), pars.bucket_p99(b), m3.bucket_p99(b))
        };
        results.push(WindowResult {
            init_window_kb: window_kb,
            ns3_p99: gt.p99(),
            ns3_secs: t_gt.as_secs_f64(),
            parsimon_p99: pars.p99(),
            parsimon_err: relative_error(pars.p99(), gt.p99()),
            parsimon_secs: t_pars.as_secs_f64(),
            m3_p99: m3.p99(),
            m3_err: relative_error(m3.p99(), gt.p99()),
            m3_secs: t_m3.as_secs_f64(),
            bucket_p99: (0..NUM_OUTPUT_BUCKETS).map(bucket).collect(),
        });
    }
    let mut table = rows("Init window\tMethod\tp99 sldn\terr\ttime\tspeedup");
    for x in &results {
        let (w, t) = (x.init_window_kb, x.ns3_secs);
        let row = format!("{w}KB\tpacket sim\t{:.2}\t-\t{t:.1}s\t1x", x.ns3_p99);
        table.push(row);
        for (method, p99, err, secs) in [
            ("Parsimon", x.parsimon_p99, x.parsimon_err, x.parsimon_secs),
            ("m3", x.m3_p99, x.m3_err, x.m3_secs),
        ] {
            let (err, speedup) = (signed_pct(err), t / secs);
            let row = format!("\t{method}\t{p99:.2}\t{err}\t{secs:.1}s\t{speedup:.0}x");
            table.push(row);
        }
    }
    let title = format!("Table 5: large-scale (6144 hosts, {n} flows)");
    r.table(&title, &table);
    for x in &results {
        let mut table = rows("Bucket\ttruth\tParsimon\tm3");
        for (name, t, p, m) in &x.bucket_p99 {
            table.push(format!("{name}\t{t:.2}\t{p:.2}\t{m:.2}"));
        }
        let title = format!("Fig 12: per-bucket p99 (window {}KB)", x.init_window_kb);
        r.table(&title, &table);
    }
    Ok(results.to_value())
}

/// Extension (beyond the paper): how much of flowSim's error comes from
/// path decomposition and how much from the fluid approximation itself?
/// Per-path flowSim vs global network-wide flowSim vs m3 vs ground truth.
fn ablation_global_flowsim(r: &Repro) -> Res<Value> {
    #[derive(Serialize)]
    struct Row {
        scenario: String,
        gt_p99: f64,
        path_flowsim_p99: f64,
        global_flowsim_p99: f64,
        m3_p99: f64,
    }
    let estimator = &r.models()?.m3;
    let (n, k) = (r.scale.flows / 2, r.scale.paths);
    let cfg = SimConfig::default();
    let mut table = rows("Scenario\ttruth\tpath flowSim\tglobal flowSim\tm3");
    let mut out = Vec::new();
    let mixes = [
        ("A", "CacheFollower", 0.4),
        ("B", "WebServer", 0.5),
        ("C", "WebServer", 0.6),
    ];
    for (i, (matrix, sizes, load)) in mixes.into_iter().enumerate() {
        let sc = full_scenario((matrix, sizes, 2, 1.0, load), cfg, n, 300 + i as u64)?;
        let (topo, flows) = (&sc.ft.topo, &sc.flows);
        let gt = ground_truth_estimate(&sc.packet_sim().records).p99();
        let pf = flowsim_estimate(topo, flows, &cfg, k, 3).p99();
        let gf = global_flowsim_estimate(topo, flows, &cfg).p99();
        let m3 = estimator.estimate(topo, flows, &cfg, k, 3).p99();
        let vs = |v: f64| format!("{v:.2} ({:+.0}%)", relative_error(v, gt) * 100.0);
        let row = format!("{}\t{gt:.2}\t{}\t{}\t{}", sc.label, vs(pf), vs(gf), vs(m3));
        table.push(row);
        out.push(Row {
            scenario: sc.label,
            gt_p99: gt,
            path_flowsim_p99: pf,
            global_flowsim_p99: gf,
            m3_p99: m3,
        });
    }
    let title = "Extension: fluid-approximation error vs decomposition error (p99)";
    r.table(title, &table);
    r.say("\nGlobal and per-path flowSim err should be similar (the fluid");
    r.say("approximation dominates); m3's learned correction closes the gap.");
    Ok(out.to_value())
}
