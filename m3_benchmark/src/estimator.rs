//! The four estimator workloads: one calling thread asks for one estimate
//! at a time (the pipeline itself fans out to `nproc` threads through the
//! `rayon` stand-in). They differ only in input size, k and cache use.

use crate::adapter::{self, Fabric, LayerScratch, M3Estimator, ScenarioCache};
use crate::harness::{self, RunCtx, DIGEST_OPS};
use crate::layered::{self, Counts};
use crate::report::{median, Outcome};
use crate::spans::{breakdown, Recorder};

pub struct Params {
    pub name: &'static str,
    pub n_flows: usize,
    pub max_load: f64,
    pub k: usize,
    /// `Some(n)`: estimates go through a pre-filled scenario cache and the
    /// path-sample seed cycles over `n` values. `None`: no cache, and the
    /// path-sample seed advances with every op.
    pub warm_seeds: Option<u64>,
}

/// Flow sets generated per run, all of the stated size; op `i` estimates set
/// `i % FABRICS`. One generated flow set makes an op 5-6 % dearer or cheaper
/// than another of the same size, so a run over a single set would mostly
/// measure which set `--seed` happened to draw.
const FABRICS: usize = 4;
/// Untimed ops at the end of set-up, one per flow set: fill allocator pools,
/// fluid workspaces and tensor arenas.
const WARM_UP_OPS: usize = FABRICS;
const WARM_CACHE_CAPACITY: usize = 8192;

struct Fixture {
    est: M3Estimator,
    fabrics: Vec<Fabric>,
    cache: Option<ScenarioCache>,
}

impl Params {
    /// The flow set and the path-sample seed of op `op`.
    fn input(&self, op: usize) -> (usize, u64) {
        let round = (op / FABRICS) as u64;
        (op % FABRICS, self.warm_seeds.map_or(round, |n| round % n))
    }

    fn op(&self, fx: &mut Fixture, op: usize) -> Result<adapter::NetworkEstimate, String> {
        let (fabric, seed) = self.input(op);
        let fabric = &fx.fabrics[fabric];
        match fx.cache.as_mut() {
            Some(c) => adapter::estimate_cached(&fx.est, fabric, self.k, seed, c),
            None => adapter::estimate_cold(&fx.est, fabric, self.k, seed),
        }
    }

    fn build(&self, seed: u64) -> Result<Fixture, String> {
        let first = seed.wrapping_mul(FABRICS as u64);
        let mut fx = Fixture {
            est: adapter::build_estimator(),
            fabrics: (0..FABRICS as u64)
                .map(|j| adapter::small_fabric(self.n_flows, self.max_load, first.wrapping_add(j)))
                .collect(),
            cache: self
                .warm_seeds
                .map(|_| ScenarioCache::new(WARM_CACHE_CAPACITY)),
        };
        // With a cache, the first pass over every (flow set, seed) pair fills it.
        let fill = self.warm_seeds.unwrap_or(0) as usize * FABRICS;
        for i in 0..fill + WARM_UP_OPS {
            self.op(&mut fx, i)?;
        }
        Ok(fx)
    }

    pub fn run(&self, ctx: &RunCtx) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        let (mut fx, setup_s) = harness::setup_median(|| self.build(ctx.seed))?;
        let filled = fx.cache.as_ref().map(adapter::cache_counts);

        // Untraced loop. A traced run gives it half the time.
        let seconds = if ctx.traced {
            ctx.seconds / 2.0
        } else {
            ctx.seconds
        };
        let mut digests: Vec<u64> = Vec::new();
        let mut failures: Vec<String> = Vec::new();
        let lat_ms = harness::closed_loop(
            seconds,
            |i| self.op(&mut fx, i),
            |_, r| match r {
                Ok(e) => digests.push(adapter::digest(&e)),
                Err(e) => {
                    digests.push(0);
                    failures.push(e);
                }
            },
        );
        out.attempted = lat_ms.len() as u64;
        out.failed = failures.len() as u64;
        if let Some(e) = failures.first() {
            out.notes.push(format!("first failed op: {e}"));
        }
        harness::end_to_end(
            &mut out,
            &lat_ms,
            &harness::busy_clock(&lat_ms),
            FABRICS,
            setup_s,
        );
        out.notes.push(harness::run_digest(&digests));

        if let (Some(c), Some((h0, m0, _))) = (fx.cache.as_ref(), filled) {
            let (h, m, ev) = adapter::cache_counts(c);
            let rate = (h - h0) as f64 / ((h - h0) + (m - m0)).max(1) as f64;
            out.set("cache.hit_rate", rate);
            out.set("cache.evictions", ev as f64);
            out.check(
                "warm_hit_rate",
                rate >= 0.99,
                format!("hit rate {rate:.4} >= 0.99"),
            );
        }
        self.check_against_cold(&mut out, &fx, &digests);
        if ctx.traced {
            self.traced(ctx, &mut out, &mut fx, &digests, median(&lat_ms))?;
        }
        Ok(out)
    }

    /// Every op's estimate must be bit-identical to an uncached
    /// `try_estimate` of the same input. Checked on op 0 for a cold workload
    /// (the timed loop repeats exactly) and on every (flow set, seed) pair
    /// of the cycle for a warm one: those are `cold_k100`'s first ops, so
    /// `warm_sweep` = `cold_k100` per seed.
    fn check_against_cold(&self, out: &mut Outcome, fx: &Fixture, digests: &[u64]) {
        let inputs = self.warm_seeds.map_or(1, |n| n as usize * FABRICS);
        let mut bad = Vec::new();
        for first in 0..inputs.min(digests.len()) {
            let (fabric, seed) = self.input(first);
            let cold = adapter::estimate_cold(&fx.est, &fx.fabrics[fabric], self.k, seed)
                .map(|e| adapter::digest(&e));
            let same = digests
                .iter()
                .enumerate()
                .filter(|(i, _)| self.input(*i) == (fabric, seed))
                .all(|(_, d)| Ok(*d) == cold);
            if !same {
                bad.push((fabric, seed));
            }
        }
        let name = if self.warm_seeds.is_some() {
            "warm_equals_cold"
        } else {
            "timed_run_repeats"
        };
        out.check(
            name,
            bad.is_empty(),
            format!(
                "{inputs} (flow set, path-sample seed) input(s) compared, mismatching: {bad:?}"
            ),
        );
    }

    /// The layered loop over the same ops, its digest check, and the
    /// per-layer rows.
    fn traced(
        &self,
        ctx: &RunCtx,
        out: &mut Outcome,
        fx: &mut Fixture,
        untraced: &[u64],
        untraced_p50_ms: f64,
    ) -> Result<(), String> {
        let rec = Recorder::new();
        let scratch = LayerScratch::default();
        let run = |fx: &mut Fixture, rec: &Recorder, i: usize| {
            let (fabric, seed) = self.input(i);
            layered::estimate(
                rec,
                i as u32,
                &fx.est,
                &scratch,
                &fx.fabrics[fabric],
                self.k,
                seed,
                fx.cache.as_mut(),
            )
        };
        // Warm the benchmark's own fluid workspaces and arenas, unrecorded.
        let unrecorded = Recorder::new();
        for i in 0..WARM_UP_OPS {
            run(fx, &unrecorded, i)?;
        }

        let mut counts: Vec<Counts> = Vec::new();
        let mut mismatched = Vec::new();
        let mut error = None;
        harness::closed_loop(
            ctx.seconds / 2.0,
            |i| run(fx, &rec, i),
            |i, r| match r {
                Ok((e, c)) => {
                    counts.push(c);
                    // Ops past the untraced loop's end have nothing to be compared with.
                    if untraced.get(i).is_some_and(|d| *d != adapter::digest(&e)) {
                        mismatched.push(i);
                    }
                }
                Err(e) => error = Some(e),
            },
        );
        if let Some(e) = error {
            return Err(format!("layered op failed: {e}"));
        }
        out.check(
            "layered_equals_try_estimate",
            mismatched.is_empty(),
            format!(
                "{} layered ops compared, mismatching ops: {mismatched:?}",
                counts.len()
            ),
        );

        let spans = rec.into_spans();
        let ops = breakdown(&spans);
        let p50 = |prefix: &str| layered::p50_of(&ops, prefix);
        layered::account(
            out,
            &ops,
            untraced_p50_ms,
            &[
                "validate",
                "decompose",
                "cache",
                "flowsim",
                "features",
                "nn",
                "aggregate",
            ],
        );
        out.set("validate.ms", p50("validate."));
        out.set("decompose.index_ms", p50("decompose.index"));
        out.set("decompose.sample_ms", p50("decompose.sample"));
        out.set(
            "decompose.materialize_ms",
            p50("decompose.materialize") + p50("decompose.dedupe"),
        );
        out.set(
            "decompose.ns_per_flow",
            p50("decompose.") * 1e6 / self.n_flows as f64,
        );
        out.set("flowsim.run_ms", p50("flowsim."));
        out.set("features.ms", p50("features."));
        out.set("nn.forward_ms", p50("nn."));
        out.set("aggregate.ms", p50("aggregate."));
        out.set("cache.probe_ms", p50("cache."));

        // Counts per op over the first ops, which every run completes, so
        // they repeat exactly for a seed.
        let head = &counts[..counts.len().min(DIGEST_OPS)];
        let per_op = |f: fn(&Counts) -> f64| head.iter().map(f).sum::<f64>() / head.len() as f64;
        out.set(
            "dedupe_ratio",
            per_op(|c| c.unique as f64 / c.sampled as f64),
        );
        out.set("flowsim.events", per_op(|c| c.flowsim_events as f64));
        out.set("flowsim.flows", per_op(|c| c.flowsim_flows as f64));
        out.set("nn.samples", per_op(|c| c.nn_samples as f64));
        out.set("nn.tokens", per_op(|c| c.nn_tokens as f64));
        out.set("nn.mflop", per_op(|c| c.nn_mflop));
        // Thread time of the flowSim runs themselves (not wall time of the
        // stage) per event, over the whole layered loop.
        let run_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "flowsim.run")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let events: u64 = counts.iter().map(|c| c.flowsim_events).sum();
        out.set("flowsim.ns_per_event", run_ns as f64 / events.max(1) as f64);
        let samples = out.get("nn.samples").unwrap_or(0.0);
        if samples > 0.0 {
            out.set("nn.us_per_sample", p50("nn.") * 1e3 / samples);
        }
        harness::write_trace(out, self.name, &spans);
        Ok(())
    }
}
