//! The reproduction harness's contracts: the full scale is pinned, `repro
//! all` runs every figure once, and the sweep cache is keyed on the model.

use m3_bench::figures::{plan, FIGURES};
use m3_bench::{load_sweep, save_sweep, sweep_key, Scale, SweepRecord};
use m3_core::prelude::SPEC_DIM;
use m3_nn::prelude::{M3Net, ModelConfig};

#[test]
fn full_scale_is_the_former_default_scale() {
    let s = Scale::full();
    assert_eq!(s.flows, 100_000);
    assert_eq!(s.paths, 100);
    assert_eq!(s.scenarios, 24);
    assert_eq!(s.acc_paths, 30);
    assert_eq!(s.config_scenarios, 60);
    assert_eq!(s.ablation_scenarios, 45);
    assert_eq!(s.train_scenarios, 600);
    assert_eq!(s.epochs, 40);
    assert_eq!(s.train_fg, 400);
    assert_eq!(s.seed, 1);
    assert_eq!(s.out_dir, "results");
    assert_eq!(s.model_dir, Some("assets"));
}

#[test]
fn small_scale_writes_only_under_target() {
    let s = Scale::small();
    assert!(s.out_dir.starts_with("target/") && s.model_dir.is_none());
}

#[test]
fn all_runs_every_figure_exactly_once() {
    let all: Vec<&str> = plan("all").unwrap().iter().map(|(name, _)| *name).collect();
    assert_eq!(all.len(), 16);
    for (name, _) in FIGURES {
        assert_eq!(all.iter().filter(|n| **n == name).count(), 1, "{name}");
        assert_eq!(plan(name).unwrap().len(), 1);
    }
    assert!(plan("train").is_err() && plan("fig99").is_err());
}

#[test]
fn sweep_cache_is_keyed_on_the_model() {
    let dir = std::env::temp_dir().join(format!("m3-sweep-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep_cache.json");
    let net = |seed| M3Net::new(ModelConfig::repro_default(SPEC_DIM), seed);
    let (first, second) = (net(1), net(2));
    let key = |net: &M3Net| sweep_key(&Scale::small(), 42, net);
    assert_ne!(key(&first), key(&second));
    let record = SweepRecord {
        m3_p99: 2.5,
        ..SweepRecord::default()
    };
    save_sweep(&path, &key(&first), &[record]).unwrap();
    assert!(
        load_sweep(&path, &key(&second)).is_none(),
        "a second model hit"
    );
    let hit = load_sweep(&path, &key(&first)).expect("the first model missed");
    assert_eq!(hit.len(), 1);
    assert_eq!(hit[0].m3_p99, 2.5);
    std::fs::remove_dir_all(&dir).unwrap();
}
