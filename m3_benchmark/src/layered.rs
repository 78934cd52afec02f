//! The layered run: one estimate composed by the benchmark from the layers'
//! public functions, mirroring `M3Estimator::estimate_inner` step for step
//! (including the `par_iter` over unique scenarios), with a span around
//! every call. Its estimate must be bit-identical to `try_estimate`'s for
//! the same op: that is what shows the spans time the same work.

use crate::adapter::{self, Fabric, LayerScratch, M3Estimator, ScenarioCache};
use crate::report::{median, percentile, Outcome};
use crate::spans::{OpBreakdown, Recorder, Span};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Work counts of one layered estimate; they repeat exactly for a seed.
#[derive(Default, Clone, Copy)]
pub struct Counts {
    pub sampled: u64,
    pub unique: u64,
    pub flowsim_events: u64,
    pub flowsim_flows: u64,
    pub nn_samples: u64,
    pub nn_tokens: u64,
    pub nn_mflop: f64,
}

#[allow(clippy::too_many_arguments)]
pub fn estimate(
    rec: &Recorder,
    op: u32,
    est: &M3Estimator,
    scratch: &LayerScratch,
    f: &Fabric,
    k: usize,
    path_seed: u64,
    mut cache: Option<&mut ScenarioCache>,
) -> Result<(adapter::NetworkEstimate, Counts), String> {
    rec.span("op", None, op, |root| {
        let span = Some(root);
        rec.span("validate.inputs", span, op, |_| adapter::validate(f))?;
        let index = rec.span("decompose.index", span, op, |_| adapter::index_build(f));
        let sampled = rec.span("decompose.sample", span, op, |_| {
            adapter::sample_paths(&index, k, path_seed)
        });
        let datas: Vec<adapter::PathData> = rec.span("decompose.materialize", span, op, |_| {
            sampled
                .par_iter()
                .map(|&g| adapter::materialize_path(f, &index, g))
                .collect()
        });
        let u = rec.span("decompose.dedupe", span, op, |_| {
            adapter::dedupe(est, f, &datas)
        });

        let mut resolved: Vec<Option<adapter::Distribution>> = vec![None; u.uniq.len()];
        let model = cache.as_deref_mut().map(|c| {
            rec.span("cache.probe", span, op, |_| {
                let model = adapter::model_fingerprint(est);
                for (slot, &i) in u.uniq.iter().enumerate() {
                    resolved[slot] = adapter::cache_probe(c, u.keys[i], model);
                }
                model
            })
        });
        let todo: Vec<usize> = (0..u.uniq.len())
            .filter(|&s| resolved[s].is_none())
            .collect();

        let sims: Vec<adapter::FlowsimRun> = rec
            .span("flowsim.stage", span, op, |stage| {
                todo.par_iter()
                    .map(|&s| {
                        rec.span("flowsim.run", Some(stage), op, |_| {
                            adapter::flowsim(scratch, &datas[u.uniq[s]])
                        })
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .collect::<Result<_, _>>()?;

        let slots: Vec<usize> = (0..todo.len()).collect();
        let inputs: Vec<adapter::ModelInput> = rec.span("features.stage", span, op, |_| {
            slots
                .par_iter()
                .map(|&j| {
                    let i = u.uniq[todo[j]];
                    adapter::featurize(est, &datas[i], &sims[j], &u.specs[i])
                })
                .collect()
        });

        let outputs = rec.span("nn.forward", span, op, |_| {
            adapter::forward(est, scratch, &inputs)
        });

        rec.span("aggregate.decode", span, op, |_| {
            for (j, out) in outputs.iter().enumerate() {
                let s = todo[j];
                resolved[s] = Some(adapter::to_distribution(out, &datas[u.uniq[s]]));
            }
        });
        if let (Some(c), Some(model)) = (cache, model) {
            rec.span("cache.insert", span, op, |_| {
                for &s in &todo {
                    if let Some(d) = resolved[s].clone() {
                        adapter::cache_insert(c, u.keys[u.uniq[s]], model, d);
                    }
                }
            });
        }
        let estimate = rec.span("aggregate.pool", span, op, |_| {
            let dists: Vec<adapter::Distribution> = u
                .slot_of
                .iter()
                .filter_map(|&s| resolved[s].clone())
                .collect();
            adapter::aggregate(&dists)
        });

        let counts = Counts {
            sampled: sampled.len() as u64,
            unique: u.uniq.len() as u64,
            flowsim_events: sims.iter().map(|s| s.events).sum(),
            flowsim_flows: sims.iter().map(|s| s.flows).sum(),
            nn_samples: inputs.len() as u64,
            nn_tokens: inputs.iter().map(|i| adapter::tokens(est, i)).sum(),
            nn_mflop: adapter::forward_mflop(est, &inputs),
        };
        Ok((estimate, counts))
    })
}

/// p50 over ops of the self time charged to span names starting with `prefix`.
pub fn p50_of(ops: &BTreeMap<u32, OpBreakdown>, prefix: &str) -> f64 {
    let per_op: Vec<f64> = ops
        .values()
        .map(|b| {
            b.names
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .map(|(_, ms)| ms)
                .sum()
        })
        .collect();
    median(&per_op)
}

/// The rows every traced workload reports from its spans: the traced op's
/// wall time, what the layers leave unattributed, the tracing overhead, and
/// the check that the self times account for the op. `layers` names the
/// layers the workload exercises; their shares are printed.
pub fn account(
    out: &mut Outcome,
    ops: &BTreeMap<u32, OpBreakdown>,
    untraced_p50_ms: f64,
    layers: &[&str],
) {
    let walls: Vec<f64> = ops.values().map(|b| b.wall_ms).collect();
    let traced_p50 = median(&walls);
    let layer_p50 = |layer: &str| {
        median(
            &ops.values()
                .map(|b| b.layers.get(layer).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let attributed: f64 = layers.iter().map(|l| layer_p50(l)).sum();
    out.set("traced.op_ms", traced_p50);
    out.set("unattributed_ms", untraced_p50_ms - attributed);
    out.set("trace_overhead_ms", traced_p50 - untraced_p50_ms);

    // Every ns of a traced op is charged to exactly one layer or to the gaps
    // between spans; a mismatch means the span bookkeeping is wrong.
    let worst = ops
        .values()
        .map(|b| (b.layers.values().sum::<f64>() - b.wall_ms).abs() / b.wall_ms.max(1e-9))
        .fold(0.0, f64::max);
    out.check(
        "spans_account_for_op",
        worst <= 0.02,
        format!(
            "worst |layers + gaps - wall| / wall = {worst:.2e} over {} ops",
            ops.len()
        ),
    );
    let shares: Vec<String> = layers
        .iter()
        .chain(&["gaps"])
        .map(|l| format!("{l} {:.1}%", 100.0 * layer_p50(l) / traced_p50.max(1e-9)))
        .collect();
    out.notes.push(format!(
        "layer shares of traced op p50 ({traced_p50:.3} ms): {}",
        shares.join(", ")
    ));
}

/// The journal rows of a traced run that appended `ops` ops' records to a
/// journal now `bytes` long.
pub fn journal_rows(out: &mut Outcome, spans: &[Span], bytes: u64, ops: usize) {
    let appends: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "journal.append")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    out.set("journal.append_ms", percentile(&appends, 50.0));
    out.set("journal.append_p90_ms", percentile(&appends, 90.0));
    out.set("journal.bytes_per_op", bytes as f64 / ops.max(1) as f64);
}
