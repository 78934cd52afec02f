//! Golden digests of both Parsimon estimators on one fixed small workload.
//!
//! The pinned values were taken before the two estimators shared their
//! channel grouping and record builder; a refactor of either must keep
//! every record bit-identical. Regenerate only for an intended change of
//! the estimates: run `cargo test -p m3-parsimon --test golden -- --nocapture`
//! and copy the printed digests.

use m3_netsim::prelude::*;
use m3_parsimon::{parsimon_estimate, parsimon_estimate_clustered, ParsimonRecord};
use m3_workload::prelude::*;

const EXACT_DIGEST: u64 = 0x2170_ff15_cbfe_46fd;
const CLUSTERED_DIGEST: u64 = 0x5b42_dbe8_c1ac_b89b;
/// `(total_channels, simulated_channels)` of the clustered run.
const CLUSTER_STATS: (usize, usize) = (668, 9);

/// FNV-1a over every field of every record, in order.
fn digest(records: &[ParsimonRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for v in [r.id as u64, r.size, r.ideal_fct, r.est_fct] {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn workload() -> (FatTree, Vec<FlowSpec>, SimConfig) {
    let ft = FatTree::build(FatTreeSpec::small(2));
    let routing = Routing::new(&ft.topo);
    let sc = Scenario {
        n_flows: 1_500,
        matrix_name: "B".into(),
        sizes: SizeDistribution::web_server(),
        sigma: 1.0,
        max_load: 0.5,
        seed: 44,
    };
    let flows = generate(&ft, &routing, &sc).flows;
    (ft, flows, SimConfig::default())
}

#[test]
fn both_estimators_match_their_pinned_digests() {
    let (ft, flows, cfg) = workload();
    let exact = parsimon_estimate(&ft.topo, &flows, &cfg);
    let (clustered, stats) = parsimon_estimate_clustered(&ft.topo, &flows, &cfg);
    let got = (
        digest(&exact),
        digest(&clustered),
        (stats.total_channels, stats.simulated_channels),
    );
    println!(
        "exact {:#018x}, clustered {:#018x}, stats {:?}",
        got.0, got.1, got.2
    );
    assert!(
        stats.simulated_channels < stats.total_channels,
        "the fixture must exercise cluster members, not only representatives"
    );
    assert_eq!(got, (EXACT_DIGEST, CLUSTERED_DIGEST, CLUSTER_STATS));
}
