//! Automated network tuning on top of m3's counterfactual speed: prepare
//! the workload's flowSim features once, then let golden-section search
//! pick the DCTCP marking threshold that minimizes small-flow tail latency.
//! Each candidate costs one batch of model inferences, not a packet
//! simulation.
//!
//! Run with: `cargo run --release --example tuning`

use m3::core::prelude::*;
use m3::netsim::prelude::*;
use m3::workload::prelude::*;

fn load_model() -> m3::nn::prelude::M3Net {
    if let Ok(net) = m3::nn::checkpoint::load_file("assets/m3-model.ckpt") {
        return net;
    }
    println!("no checkpoint found; training a small model first...");
    let cfg = TrainConfig {
        n_scenarios: 60,
        epochs: 20,
        ..TrainConfig::default()
    };
    let dataset = build_dataset(&cfg);
    train(&cfg, &dataset).0
}

fn main() {
    let estimator = M3Estimator::new(load_model());
    let ft = FatTree::build(FatTreeSpec::small(2));
    let routing = Routing::new(&ft.topo);
    let w = generate(
        &ft,
        &routing,
        &Scenario {
            n_flows: 20_000,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.5,
            max_load: 0.6,
            seed: 21,
        },
    );
    let base = SimConfig::default();

    let t = std::time::Instant::now();
    let prepared = PreparedWorkload::prepare(&ft.topo, &w.flows, &base, 80, 3)
        .expect("the generated workload has populated paths");
    println!(
        "prepared 80 paths once in {:?} (flowSim features are config-independent)",
        t.elapsed()
    );

    // Objective: p99 slowdown of the smallest flow class (0, 1KB].
    let t = std::time::Instant::now();
    let result = golden_section_search(
        &estimator,
        &prepared,
        &base,
        Knob::DctcpK,
        Knob::DctcpK.table4_range(),
        8,
        bucket_p99_objective(0),
    );
    println!(
        "golden-section search over DCTCP K evaluated {} configs in {:?}:",
        result.points.len(),
        t.elapsed()
    );
    let mut pts = result.points.clone();
    pts.sort_by(|a, b| a.value.partial_cmp(&b.value).unwrap());
    for p in &pts {
        println!(
            "  K = {:>7.0} B: small-flow p99 {:>6.2}   (overall p99 {:.2})",
            p.value, p.objective, p.overall_p99
        );
    }
    println!(
        "\nrecommended K = {:.0} B (predicted small-flow p99 {:.2})",
        result.best.value, result.best.objective
    );

    // Validate the recommendation against one packet-level simulation.
    let tuned = Knob::DctcpK.apply(&base, result.best.value);
    let t = std::time::Instant::now();
    let gt_base = ground_truth_estimate(&run_simulation(&ft.topo, base, w.flows.clone()).records);
    let gt_tuned = ground_truth_estimate(&run_simulation(&ft.topo, tuned, w.flows.clone()).records);
    println!(
        "\npacket-level check ({:?}): small-flow p99 default K {:.2} -> tuned K {:.2}",
        t.elapsed(),
        gt_base.bucket_p99(0),
        gt_tuned.bucket_p99(0)
    );
}
