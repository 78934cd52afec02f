//! Shadow-evaluated model hot swap with automatic rollback.
//!
//! The [`SwapCoordinator`] is the only path by which a new model reaches a
//! serving [`Service`] or [`Cluster`](crate::cluster::Cluster). A
//! candidate runs this gauntlet:
//!
//! ```text
//! resolve ─► integrity load ─► shadow A/B ─► journal intent ─► install ─► breaker
//!               │ corrupt          │ regressed      │ stall (fault)          │ spike
//!               ▼                  ▼                ▼                        ▼
//!          RejectedIntegrity  RejectedShadow    Stalled              automatic rollback
//! ```
//!
//! * **Integrity** — the registry load verifies the manifest checksum over
//!   the container bytes, the container's embedded body checksum, and the
//!   model fingerprint; a corrupt object is quarantined to a `.corrupt`
//!   sidecar and the candidate is rejected without ever being deserialized
//!   into the serving path.
//! * **Shadow A/B** — a window of recently journaled requests is replayed
//!   through the *current* and *candidate* models off the hot path
//!   (no shared cache, no metrics; each request is prepared once and
//!   every model and flowSim resolve from it), and both FCT-slowdown
//!   distributions are scored against flowSim, the paper's no-ML
//!   baseline: the score measures how far each model's correction drifts
//!   from the fluid solution on live traffic. A candidate whose mean
//!   quantile error exceeds the baseline's by more than the configured
//!   ratio + slack is rejected.
//! * **Intent / install** — the swap is journaled write-ahead
//!   (`SwapIntent`, then `ModelSwap` inside the install), so a kill at any
//!   point resumes onto the correct active version: a dangling intent is
//!   never activated.
//! * **Breaker** — after promotion the coordinator arms a health breaker:
//!   once a window of jobs has settled on the new model, a bad-outcome
//!   rate (degraded + failed) spiking above the pre-swap baseline rolls
//!   back to the previous registry version, journaled like any other swap.
//!
//! Every decision point can be forced deterministically via
//! [`FaultPlan`]: `RegressedCandidate` poisons the candidate's shadow
//! score, `SwapStall` wedges the swap between intent and install, and
//! `TornPublish`/`CheckpointCorrupt` are exercised upstream at the
//! registry/checkpoint layer.

use crate::request::EstimateRequest;
use crate::service::Service;
use m3_core::prelude::{
    EstimateOptions, FaultPlan, InjectedFault, M3Estimator, NetworkEstimate, Percentile,
};
use m3_nn::prelude::{M3Net, ModelRef, ModelRegistry};
use std::io;
use std::sync::Arc;

/// Percentiles of the FCT-slowdown distribution the shadow score
/// compares.
const SHADOW_QUANTILES: [Percentile; 3] = [Percentile::P50, Percentile::P90, Percentile::P99];

/// Swap-gate tuning.
#[derive(Debug, Clone)]
pub struct SwapConfig {
    /// How many recent journaled requests to replay through both models.
    pub shadow_window: usize,
    /// Accuracy gate: the candidate's mean quantile error may be at most
    /// `baseline_err * max_err_ratio + abs_err_slack`.
    pub max_err_ratio: f64,
    /// Absolute slack added to the gate (absorbs noise when the baseline
    /// error is near zero).
    pub abs_err_slack: f64,
    /// Post-promotion breaker: settled jobs to observe on the new model
    /// before comparing bad-outcome rates.
    pub rollback_window: u64,
    /// Roll back when the post-swap bad-outcome fraction exceeds the
    /// pre-swap fraction by more than this.
    pub max_bad_frac_increase: f64,
    /// Deterministic fault injection for lifecycle tests, evaluated at
    /// slot 0.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            shadow_window: 16,
            max_err_ratio: 1.5,
            abs_err_slack: 0.05,
            rollback_window: 8,
            max_bad_frac_increase: 0.25,
            fault_plan: None,
        }
    }
}

/// Outcome of the shadow A/B evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowReport {
    /// Scenarios actually replayed (window entries that materialized and
    /// estimated cleanly on both models).
    pub scenarios: usize,
    /// Mean |estimate − truth| over the shadow quantiles (p50/p90/p99), current model.
    pub baseline_err: f64,
    /// Same score for the candidate.
    pub candidate_err: f64,
}

impl ShadowReport {
    /// True when the candidate fails the accuracy gate.
    pub fn regressed(&self, cfg: &SwapConfig) -> bool {
        self.candidate_err > self.baseline_err * cfg.max_err_ratio + cfg.abs_err_slack
    }
}

/// Terminal state of one swap attempt.
#[derive(Debug)]
pub enum SwapOutcome {
    /// All gates passed; the candidate is the active model.
    Promoted {
        version: u64,
        fingerprint: u64,
        shadow: ShadowReport,
    },
    /// The registry load tripped an integrity check (corrupt object —
    /// quarantined to a `.corrupt` sidecar). The candidate never reached
    /// the serving path.
    RejectedIntegrity { version: u64, error: String },
    /// Shadow evaluation found the candidate less accurate than the
    /// active model beyond the configured bound.
    RejectedShadow { version: u64, shadow: ShadowReport },
    /// Injected `SwapStall`: the intent is journaled but the install never
    /// committed — the swap dangles, and a kill-and-resume here must land
    /// on the pre-swap model.
    Stalled { version: u64, fingerprint: u64 },
}

/// A completed automatic rollback.
#[derive(Debug, Clone, PartialEq)]
pub struct Rollback {
    pub from_version: u64,
    pub to_version: u64,
    /// Bad-outcome fraction before the promotion (the baseline).
    pub pre_bad_frac: f64,
    /// Bad-outcome fraction observed over the post-promotion window.
    pub post_bad_frac: f64,
}

/// What the breaker armed at the last promotion must know to undo it.
#[derive(Debug, Clone)]
struct ArmedBreaker {
    promoted_version: u64,
    /// Registry version to roll back to. The pre-swap model must be
    /// registry-resident for rollback to be possible; `None` (a
    /// construction-time model) disarms the breaker.
    previous_version: Option<u64>,
    settled_at_swap: u64,
    bad_at_swap: u64,
    pre_bad_frac: f64,
}

/// Anything a model can be hot-swapped into: a single [`Service`] or a
/// fan-out [`Cluster`](crate::cluster::Cluster). All methods are the
/// target's own journaled primitives; the coordinator supplies ordering
/// and policy.
pub trait SwapTarget {
    /// The estimator serving new admissions (the shadow baseline).
    fn baseline_estimator(&self) -> Arc<M3Estimator>;
    /// `(fingerprint, registry version)` of the active model.
    fn active_model(&self) -> (u64, Option<u64>);
    /// Up to `n` recently accepted requests, oldest first.
    fn recent_requests(&self, n: usize) -> Vec<EstimateRequest>;
    /// Write-ahead swap intent.
    fn journal_swap_intent(&self, version: u64, fingerprint: u64) -> io::Result<()>;
    /// Commit: journal `ModelSwap` and swap the serving estimator.
    fn install(&self, net: M3Net, version: Option<u64>) -> io::Result<u64>;
    /// `(settled, bad)` job counts — bad = degraded + failed — for the
    /// rollback breaker.
    fn health_counts(&self) -> (u64, u64);
}

impl SwapTarget for Service {
    fn baseline_estimator(&self) -> Arc<M3Estimator> {
        self.active_estimator()
    }
    fn active_model(&self) -> (u64, Option<u64>) {
        Service::active_model(self)
    }
    fn recent_requests(&self, n: usize) -> Vec<EstimateRequest> {
        Service::recent_requests(self, n)
    }
    fn journal_swap_intent(&self, version: u64, fingerprint: u64) -> io::Result<()> {
        Service::journal_swap_intent(self, version, fingerprint)
    }
    fn install(&self, net: M3Net, version: Option<u64>) -> io::Result<u64> {
        self.install_model(net, version)
    }
    fn health_counts(&self) -> (u64, u64) {
        let s = self.stats();
        (s.settled(), s.degraded + s.failed)
    }
}

/// Orchestrates candidate evaluation, promotion, and the post-promotion
/// rollback breaker against one [`SwapTarget`].
pub struct SwapCoordinator {
    registry: ModelRegistry,
    config: SwapConfig,
    armed: Option<ArmedBreaker>,
}

impl SwapCoordinator {
    pub fn new(registry: ModelRegistry, config: SwapConfig) -> Self {
        SwapCoordinator {
            registry,
            config,
            armed: None,
        }
    }

    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    fn fault(&self, kind: InjectedFault) -> bool {
        self.config
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.hits(kind, 0))
    }

    /// Run the full gate sequence for `candidate` against `target`.
    /// Returns `Err` only for environmental failures (journal I/O,
    /// unresolvable ref); every *policy* result is a [`SwapOutcome`].
    pub fn try_swap<T: SwapTarget>(
        &mut self,
        target: &T,
        candidate: ModelRef,
    ) -> io::Result<SwapOutcome> {
        let entry = self.registry.resolve(candidate)?;
        // Integrity gate: a corrupt object is quarantined by the registry
        // load and rejected here — it never reaches an estimator.
        let (entry, net) = match self.registry.load(ModelRef::Version(entry.version)) {
            Ok(loaded) => loaded,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return Ok(SwapOutcome::RejectedIntegrity {
                    version: entry.version,
                    error: e.to_string(),
                });
            }
            Err(e) => return Err(e),
        };

        // Shadow A/B, off the hot path (no shared cache, no metrics).
        let window = target.recent_requests(self.config.shadow_window);
        let baseline = target.baseline_estimator();
        let mut candidate_est = M3Estimator::new(net.clone());
        candidate_est.use_context = baseline.use_context;
        let (scenarios, [baseline_err, candidate_err]) =
            replay([&baseline, &candidate_est], &window);
        let mut shadow = ShadowReport {
            scenarios,
            baseline_err,
            candidate_err,
        };
        if self.fault(InjectedFault::RegressedCandidate) {
            // Deterministically force the rejection path without needing a
            // genuinely bad model: an infinitely wrong candidate.
            shadow.candidate_err = f64::INFINITY;
        }
        if shadow.regressed(&self.config) {
            return Ok(SwapOutcome::RejectedShadow {
                version: entry.version,
                shadow,
            });
        }

        // Gates passed: write-ahead intent, then install (which journals
        // the committed ModelSwap before swapping the estimator).
        target.journal_swap_intent(entry.version, entry.fingerprint)?;
        if self.fault(InjectedFault::SwapStall) {
            return Ok(SwapOutcome::Stalled {
                version: entry.version,
                fingerprint: entry.fingerprint,
            });
        }
        let (_, previous_version) = target.active_model();
        let (settled, bad) = target.health_counts();
        let fingerprint = target.install(net, Some(entry.version))?;
        self.armed = Some(ArmedBreaker {
            promoted_version: entry.version,
            previous_version,
            settled_at_swap: settled,
            bad_at_swap: bad,
            pre_bad_frac: frac(bad, settled),
        });
        Ok(SwapOutcome::Promoted {
            version: entry.version,
            fingerprint,
            shadow,
        })
    }

    /// Post-promotion breaker poll. Once `rollback_window` further jobs
    /// have settled, compares the post-swap bad-outcome rate against the
    /// pre-swap baseline: a spike beyond `max_bad_frac_increase` reloads
    /// and reinstalls the previous registry version (journaled intent +
    /// commit, like any swap) and returns the rollback record; a healthy
    /// window disarms the breaker. `None` means "nothing to do yet".
    pub fn poll_rollback<T: SwapTarget>(&mut self, target: &T) -> io::Result<Option<Rollback>> {
        let Some(armed) = self.armed.clone() else {
            return Ok(None);
        };
        let Some(previous_version) = armed.previous_version else {
            // No registry-resident predecessor: nothing to roll back to.
            self.armed = None;
            return Ok(None);
        };
        let (settled, bad) = target.health_counts();
        let window = settled.saturating_sub(armed.settled_at_swap);
        if window < self.config.rollback_window {
            return Ok(None);
        }
        let post_bad_frac = frac(bad.saturating_sub(armed.bad_at_swap), window);
        if post_bad_frac <= armed.pre_bad_frac + self.config.max_bad_frac_increase {
            self.armed = None;
            return Ok(None);
        }
        // Degradation spike: restore the previous version. The reload is
        // integrity-verified like any registry load; a corrupt predecessor
        // surfaces as an error rather than a silent half-rollback.
        let (entry, net) = self.registry.load(ModelRef::Version(previous_version))?;
        target.journal_swap_intent(entry.version, entry.fingerprint)?;
        target.install(net, Some(entry.version))?;
        self.armed = None;
        Ok(Some(Rollback {
            from_version: armed.promoted_version,
            to_version: previous_version,
            pre_bad_frac: armed.pre_bad_frac,
            post_bad_frac,
        }))
    }

    /// True while the post-promotion breaker is armed (a promotion
    /// happened and its observation window has not yet closed).
    pub fn breaker_armed(&self) -> bool {
        self.armed.is_some()
    }
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Mean absolute error of `est` vs `truth` over the shadow quantiles.
/// Non-finite estimate quantiles score as infinitely wrong.
fn quantile_err(est: &NetworkEstimate, truth: &NetworkEstimate) -> f64 {
    let mut total = 0.0;
    for p in SHADOW_QUANTILES {
        let e = est.overall_quantile(p);
        let t = truth.overall_quantile(p);
        if !e.is_finite() || !t.is_finite() {
            return f64::INFINITY;
        }
        total += (e - t).abs();
    }
    total / SHADOW_QUANTILES.len() as f64
}

/// Replay `window` through a single model, scoring it against flowSim —
/// the accuracy-drift watchdog's spot check (same scoring as the
/// shadow A/B gate, without a candidate). Runs entirely off the hot path:
/// no shared cache, no metrics, fault plans on the replayed requests are
/// ignored. Returns `(scenarios_scored, mean_quantile_err)`; the error is
/// `0.0` when nothing replayed cleanly.
pub fn model_drift(est: &M3Estimator, window: &[EstimateRequest]) -> (usize, f64) {
    let (scenarios, [err]) = replay([est], window);
    (scenarios, err)
}

/// Replay `window` through `models` (which share the first one's
/// `use_context`), scoring each against flowSim. Each request is prepared
/// once; every model resolves from that one value, uncached and with
/// default options, and flowSim runs once, only for a request every model
/// answered. A request that fails to materialize, prepare or
/// estimate on any model is skipped. Returns the requests scored and each
/// model's mean quantile error (`0.0` when none scored).
fn replay<const N: usize>(
    models: [&M3Estimator; N],
    window: &[EstimateRequest],
) -> (usize, [f64; N]) {
    let options = EstimateOptions::default();
    let (mut scenarios, mut err) = (0usize, [0.0; N]);
    for req in window {
        let Ok((topo, flows, config)) = req.scenario.materialize(req.seed) else {
            continue;
        };
        let Ok(prepared) = models[0].prepare(topo, flows, config, req.paths, req.seed, &options)
        else {
            continue;
        };
        let estimates: Result<Vec<_>, _> = (models.iter())
            .map(|m| m.try_estimate_prepared(&prepared, None, &options))
            .collect();
        let Ok(estimates) = estimates else {
            continue;
        };
        let truth_est = prepared.flowsim_estimate();
        for (e, est) in err.iter_mut().zip(&estimates) {
            *e += quantile_err(est, &truth_est);
        }
        scenarios += 1;
    }
    if scenarios > 0 {
        for e in &mut err {
            *e /= scenarios as f64;
        }
    }
    (scenarios, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ConfigSpec, ScenarioSpec, TopoSpec, WorkloadSpec};
    use m3_core::prelude::{flowsim_estimate, SPEC_DIM};
    use m3_nn::prelude::ModelConfig;

    fn request(seed: u64, paths: usize) -> EstimateRequest {
        let workload = WorkloadSpec {
            n_flows: 600,
            matrix: "B".into(),
            sizes: "CacheFollower".into(),
            sigma: 1.0,
            max_load: 0.95,
        };
        let scenario = ScenarioSpec {
            topology: TopoSpec::FatTreeSmall { oversub: 2 },
            workload,
            config: ConfigSpec::default(),
        };
        EstimateRequest::new(scenario, paths, seed)
    }

    /// [`tiny_config`]'s model, trained for a fraction of a second on a
    /// small dataset generated from `seed`.
    fn trained_net(seed: u64) -> M3Net {
        use m3_core::prelude::{build_dataset, train, TrainConfig};
        let cfg = TrainConfig {
            n_scenarios: 12,
            fg_flows: 60,
            bg_flows: 180,
            epochs: 10,
            batch_size: 4,
            seed,
            model: tiny_config(),
            ..TrainConfig::default()
        };
        train(&cfg, &build_dataset(&cfg)).0
    }

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            embed: 16,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            mlp_hidden: 32,
            ..ModelConfig::repro_default(SPEC_DIM)
        }
    }

    /// Against flowSim truth, an untrained candidate fails the default
    /// shadow gate next to a trained baseline, and its drift exceeds the
    /// watchdog's ceiling: both score p50, p90 and p99, where an untrained
    /// model's tail is far from the fluid solution's.
    #[test]
    fn an_untrained_candidate_fails_the_shadow_gate_and_the_drift_ceiling() {
        let baseline = M3Estimator::new(trained_net(1));
        let candidate = M3Estimator::new(M3Net::new(tiny_config(), 5));
        let window = [request(3, 40), request(8, 25)];
        let (scenarios, [baseline_err, candidate_err]) = replay([&baseline, &candidate], &window);
        let shadow = ShadowReport {
            scenarios,
            baseline_err,
            candidate_err,
        };
        assert_eq!(shadow.scenarios, 2);
        assert!(shadow.regressed(&SwapConfig::default()), "{shadow:?}");
        let (_, drift) = model_drift(&candidate, &window);
        let ceiling = crate::monitor::DEFAULT_DRIFT_CEILING;
        assert!(
            drift > ceiling,
            "drift {drift} within the ceiling {ceiling}"
        );
    }

    /// The drift score of a fixed two-request window equals, bit for bit,
    /// the per-call formula: each request's truth from the free
    /// `flowsim_estimate` and its estimate from `try_estimate`, each
    /// decomposing and sampling on its own.
    #[test]
    fn model_drift_equals_the_per_call_formula() {
        let est = M3Estimator::new(M3Net::new(tiny_config(), 5));
        let window = [request(3, 40), request(8, 25)];
        let mut total = 0.0;
        for req in &window {
            let (topo, flows, config) = req.scenario.materialize(req.seed).unwrap();
            let (k, seed) = (req.paths, req.seed);
            let truth = flowsim_estimate(&topo, &flows, &config, k, seed);
            let options = EstimateOptions::default();
            let e = est.try_estimate(&topo, &flows, &config, k, seed, &options);
            total += quantile_err(&e.unwrap(), &truth);
        }
        let expect = total / window.len() as f64;
        assert!(expect.is_finite() && expect > 0.0, "{expect}");
        let (scenarios, mean_err) = model_drift(&est, &window);
        assert_eq!((scenarios, mean_err.to_bits()), (2, expect.to_bits()));
    }
}
