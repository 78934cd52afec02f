//! Fig. 2(b) and 2(d): structure of weight-sampled paths — hop-count
//! distribution and foreground/background flow counts — on the three
//! production mixes.

use m3_bench::*;
use m3_core::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct MixStats {
    mix: String,
    hops_hist: Vec<(usize, usize)>,
    fg_percentiles: Vec<(u8, f64)>,
    bg_percentiles: Vec<(u8, f64)>,
    populated_paths: usize,
}

fn main() {
    let n = n_flows();
    let k = n_paths().max(200);
    let mixes = [
        ("Mix 1", "A", "CacheFollower", 4usize, 0.4246),
        ("Mix 2", "B", "WebServer", 1, 0.2846),
        ("Mix 3", "C", "WebServer", 2, 0.7383),
    ];
    let cfg = m3_netsim::prelude::SimConfig::default();
    let mut all = Vec::new();
    for (i, (name, matrix, workload, oversub, load)) in mixes.iter().enumerate() {
        let sc = build_full_scenario(
            *oversub,
            matrix,
            workload,
            1.0,
            *load,
            cfg,
            n,
            100 + i as u64,
        );
        let index = PathIndex::build(&sc.ft.topo, &sc.flows);
        let sampled = index.sample_paths(k, 11);
        let mut hops = std::collections::BTreeMap::new();
        let mut fg_counts = Vec::new();
        let mut bg_counts = Vec::new();
        for &g in &sampled {
            let rep = index.rep_flow(g, &sc.flows);
            *hops.entry(rep.path.len()).or_insert(0usize) += 1;
            fg_counts.push(index.foreground_of(g).len() as f64);
            bg_counts.push(index.background_of(g).len() as f64);
        }
        fg_counts.sort_by(|a, b| a.total_cmp(b));
        bg_counts.sort_by(|a, b| a.total_cmp(b));
        let pct = |v: &[f64]| -> Vec<(u8, f64)> {
            [10u8, 25, 50, 75, 90, 99]
                .iter()
                .map(|&p| (p, m3_netsim::stats::percentile(v, p as f64)))
                .collect()
        };
        let stats = MixStats {
            mix: name.to_string(),
            hops_hist: hops.iter().map(|(&h, &c)| (h, c)).collect(),
            fg_percentiles: pct(&fg_counts),
            bg_percentiles: pct(&bg_counts),
            populated_paths: index.num_paths(),
        };
        println!(
            "\n== Fig 2(b,d): {name} ({} flows, {} sampled paths) ==",
            n, k
        );
        println!("populated paths: {}", stats.populated_paths);
        println!(
            "hop-count histogram (links per path): {:?}",
            stats.hops_hist
        );
        println!("fg flows/path percentiles: {:?}", stats.fg_percentiles);
        println!("bg flows/path percentiles: {:?}", stats.bg_percentiles);
        all.push(stats);
    }
    write_result("fig2_paths", &all);
}
