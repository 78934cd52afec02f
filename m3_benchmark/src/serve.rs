//! `serve_mix`: two closed-loop clients each submit one `EstimateRequest`
//! at a time to a journaled `Service` (2 workers, 256-entry cache, no
//! simulated I/O) and poll for its outcome. The only number through
//! admit -> journal fsync -> queue -> cache -> estimate -> settle.

use crate::adapter::{self, DirectJournal, EstimateRequest, Service, SharedScenarioCache};
use crate::harness::{self, RunCtx, TempFile};
use crate::layered;
use crate::report::{median, Outcome};
use crate::spans::{breakdown, Recorder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_mix";
const N_FLOWS: usize = 4_000;
const MAX_LOAD: f64 = 0.5;
/// One client per service worker; never more threads than `nproc` = 2.
const CLIENTS: usize = adapter::SERVICE_WORKERS;
/// 75 % of requests repeat the hot seed (its scenarios are cache hits and
/// the median stays inside the hit mode); the rest use a seed never seen
/// before, so the worker pays `materialize` and a cold estimate, and the
/// working set overflows the 256-entry cache. One hot seed, not two: a
/// request holds ~99 scenarios, so two hot seeds and one fresh request do not
/// fit in 256 entries, hot entries get evicted, and the half-hit requests
/// smear the hit mode across the median (its spread over seeds was 19 %).
const HOT_SHARE: f64 = 0.75;
const HOT_SEEDS: u64 = 1;
/// A client sleeps this long between polls of `outcome`: a spinning client
/// would take a core from the two workers.
const POLL: Duration = Duration::from_micros(100);
/// Requests per client, untimed, at the end of set-up: one fresh, then hot
/// ones, the same for every seed so that set-up costs the same.
const WARM_UP_OPS: usize = 4;
/// Fresh-seed requests checked against a direct estimate after the run
/// (the hot seed always is).
const FRESH_CHECKED: usize = 4;

/// Request `j` of client `c`: its seed, which is both the workload
/// generation seed and the path-sample seed of the request.
struct Mix {
    rng: SmallRng,
    base: u64,
    client: u64,
    fresh: u64,
}

impl Mix {
    fn new(seed: u64, client: usize) -> Mix {
        Mix {
            rng: SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) ^ client as u64),
            base: base(seed),
            client: client as u64,
            fresh: 0,
        }
    }

    fn hot_seed(&mut self) -> u64 {
        self.base + self.rng.gen_range(0..HOT_SEEDS)
    }

    fn fresh_seed(&mut self) -> u64 {
        self.fresh += 1;
        self.base + HOT_SEEDS + self.fresh * CLIENTS as u64 + self.client
    }

    fn next_seed(&mut self) -> u64 {
        if self.rng.gen_bool(HOT_SHARE) {
            self.hot_seed()
        } else {
            self.fresh_seed()
        }
    }
}

/// Request seeds of a run are `base + n`, n < 1e6; n < `HOT_SEEDS` is hot.
fn base(seed: u64) -> u64 {
    (seed % (1 << 40)) * 1_000_000
}

fn is_hot(seed: u64) -> bool {
    seed % 1_000_000 < HOT_SEEDS
}

/// One served request as its client saw it.
struct Served {
    seed: u64,
    /// When the client saw the outcome, in s since its phase began.
    done_at_s: f64,
    latency_ms: f64,
    submit_ms: f64,
    digest: Result<u64, String>,
}

fn request(seed: u64) -> EstimateRequest {
    adapter::request(
        &adapter::scenario_spec(false, N_FLOWS, MAX_LOAD),
        adapter::K100,
        seed,
    )
}

fn serve_one(service: &Service, seed: u64, phase_start: Instant) -> Served {
    let t = Instant::now();
    let submitted = adapter::submit(service, request(seed));
    let submit_ms = t.elapsed().as_secs_f64() * 1e3;
    let result = submitted.and_then(|id| loop {
        match adapter::poll(service, id) {
            Some(r) => break r,
            None => std::thread::sleep(POLL),
        }
    });
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    Served {
        seed,
        done_at_s: phase_start.elapsed().as_secs_f64(),
        latency_ms,
        submit_ms,
        digest: result.map(|e| adapter::digest(&e)),
    }
}

/// Run every client's loop for `seconds` (at least `min_ops` requests each),
/// request `j` of a client using seed `pick(mix, j)`; returns what each
/// client saw and the wall time of the whole phase.
fn clients(
    service: &Service,
    mixes: &mut [Mix],
    seconds: f64,
    min_ops: usize,
    pick: fn(&mut Mix, usize) -> u64,
) -> (Vec<Vec<Served>>, f64) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = mixes
            .iter_mut()
            .map(|mix| {
                s.spawn(move || {
                    let mut seen = Vec::new();
                    while seen.len() < min_ops || start.elapsed() < budget {
                        seen.push(serve_one(service, pick(mix, seen.len()), start));
                    }
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (per_client, start.elapsed().as_secs_f64())
}

struct Fixture {
    service: Service,
    mixes: Vec<Mix>,
    _journal: TempFile,
}

fn build(seed: u64) -> Result<Fixture, String> {
    let journal = TempFile::new(NAME);
    let service = adapter::start_service(&journal.0)?;
    // Fill the cache with the hot scenarios, then warm up both workers.
    for hot in 0..HOT_SEEDS {
        serve_one(&service, base(seed) + hot, Instant::now()).digest?;
    }
    let mut mixes: Vec<Mix> = (0..CLIENTS).map(|c| Mix::new(seed, c)).collect();
    let (warm, _) = clients(&service, &mut mixes, 0.0, WARM_UP_OPS, |mix, j| {
        if j == 0 {
            mix.fresh_seed()
        } else {
            mix.hot_seed()
        }
    });
    for s in warm.into_iter().flatten() {
        s.digest?;
    }
    Ok(Fixture {
        service,
        mixes,
        _journal: journal,
    })
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut fx, setup_s) = harness::setup_median(|| build(ctx.seed))?;

    let seconds = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (per_client, wall_s) = clients(
        &fx.service,
        &mut fx.mixes,
        seconds,
        harness::MIN_OPS,
        |mix, _| mix.next_seed(),
    );
    // Interleave the clients' sequences: the order the layered run replays.
    let longest = per_client.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = per_client.into_iter().map(Vec::into_iter).collect();
    let served: Vec<Served> = (0..longest)
        .flat_map(|_| {
            iters
                .iter_mut()
                .filter_map(Iterator::next)
                .collect::<Vec<_>>()
        })
        .collect();

    let lat_ms: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    out.attempted = served.len() as u64;
    let failures: Vec<&String> = served
        .iter()
        .filter_map(|s| s.digest.as_ref().err())
        .collect();
    if let Some(e) = failures.first() {
        out.notes.push(format!("first failed op: {e}"));
    }

    // Served estimates must equal a direct `try_estimate` of the
    // materialized spec: every request of a seed agrees with every other,
    // and the hot seed plus the first fresh ones agree with a direct run.
    let mut by_seed: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in &served {
        if let Ok(d) = s.digest {
            by_seed.entry(s.seed).or_default().push(d);
        }
    }
    let est = adapter::build_estimator();
    let spec = adapter::scenario_spec(false, N_FLOWS, MAX_LOAD);
    let mut fresh_left = FRESH_CHECKED;
    let mut wrong = 0u64;
    let mut compared = 0;
    for (&seed, digests) in &by_seed {
        let direct = if is_hot(seed) || fresh_left > 0 {
            if !is_hot(seed) {
                fresh_left -= 1;
            }
            compared += 1;
            let f = adapter::materialize(&spec, seed)?;
            Some(adapter::digest(&adapter::estimate_cold(
                &est,
                &f,
                adapter::K100,
                seed,
            )?))
        } else {
            None
        };
        let want = direct.unwrap_or(digests[0]);
        wrong += digests.iter().filter(|d| **d != want).count() as u64;
    }
    out.check(
        "served_equals_direct",
        wrong == 0,
        format!(
            "{} seeds served, {compared} compared with a direct estimate, {wrong} requests differ",
            by_seed.len()
        ),
    );
    out.failed = failures.len() as u64 + wrong;
    let mut done_at_s: Vec<f64> = served.iter().map(|s| s.done_at_s).collect();
    done_at_s.sort_by(f64::total_cmp);
    harness::end_to_end(&mut out, &lat_ms, &done_at_s, 1, setup_s);
    let digests: Vec<u64> = served
        .iter()
        .map(|s| *s.digest.as_ref().unwrap_or(&0))
        .collect();
    out.notes.push(harness::run_digest(&digests));

    let submit_ms: Vec<f64> = served.iter().map(|s| s.submit_ms).collect();
    out.set("serve.submit_ms", median(&submit_ms));
    // Share of worker-seconds during which a request was admitted and not
    // yet seen settled by its client: an upper bound on worker busy time.
    let outstanding_s: f64 = served
        .iter()
        .map(|s| s.latency_ms - s.submit_ms)
        .sum::<f64>()
        / 1e3;
    out.set(
        "serve.worker_busy_frac",
        outstanding_s / (adapter::SERVICE_WORKERS as f64 * wall_s),
    );
    let (hit_rate, evictions) = adapter::service_cache_stats(&fx.service);
    out.set("cache.hit_rate", hit_rate);
    out.set("cache.evictions", evictions as f64);
    let hot = served.iter().filter(|s| is_hot(s.seed)).count();
    out.notes.push(format!(
        "{} requests, {hot} on a hot seed, {CLIENTS} clients, {} workers",
        served.len(),
        adapter::SERVICE_WORKERS
    ));

    if ctx.traced {
        traced(ctx, &mut out, &served, median(&lat_ms))?;
    }
    Ok(out)
}

/// The layered loop: the same request sequence done directly, one request at
/// a time, as a worker does it: journal the acceptance, materialize the
/// spec, estimate through a shared cache, journal the terminal record.
fn traced(
    ctx: &RunCtx,
    out: &mut Outcome,
    served: &[Served],
    untraced_p50_ms: f64,
) -> Result<(), String> {
    let est = adapter::build_estimator();
    let spec = adapter::scenario_spec(false, N_FLOWS, MAX_LOAD);
    let cache = SharedScenarioCache::new(adapter::service_cache_capacity());
    let file = TempFile::new("serve_layered");
    let mut journal = DirectJournal::create(&file.0)?;
    for hot in 0..HOT_SEEDS {
        let seed = base(ctx.seed) + hot;
        let f = adapter::materialize(&spec, seed)?;
        adapter::estimate_shared(&est, &f, adapter::K100, seed, &cache)?;
    }

    let rec = Recorder::new();
    let mut mismatched = Vec::new();
    let budget = ctx.seconds / 2.0;
    let start = Instant::now();
    let mut done = 0;
    for (i, s) in served.iter().enumerate() {
        if i >= harness::MIN_OPS && start.elapsed().as_secs_f64() >= budget {
            break;
        }
        let op = i as u32;
        let estimate = rec
            .span("op", None, op, |root| {
                let span = Some(root);
                rec.span("journal.append", span, op, |_| {
                    journal.append_accepted(i as u64, &request(s.seed))
                })?;
                let f = rec.span("serve.materialize", span, op, |_| {
                    adapter::materialize(&spec, s.seed)
                })?;
                let e = rec.span("serve.direct_estimate", span, op, |_| {
                    adapter::estimate_shared(&est, &f, adapter::K100, s.seed, &cache)
                })?;
                rec.span("journal.append", span, op, |_| {
                    journal.append_terminal(i as u64, &e)
                })?;
                Ok::<_, String>(e)
            })
            .map_err(|e| format!("layered op failed: {e}"))?;
        if s.digest
            .as_ref()
            .is_ok_and(|d| *d != adapter::digest(&estimate))
        {
            mismatched.push(i);
        }
        done += 1;
    }
    out.check(
        "layered_equals_timed_run",
        mismatched.is_empty(),
        format!("{done} layered ops compared, mismatching ops: {mismatched:?}"),
    );

    let spans = rec.into_spans();
    let ops = breakdown(&spans);
    layered::account(out, &ops, untraced_p50_ms, &["journal", "serve"]);
    let materialize = layered::p50_of(&ops, "serve.materialize");
    let direct = layered::p50_of(&ops, "serve.direct_estimate");
    out.set("serve.materialize_ms", materialize);
    out.set("serve.direct_estimate_ms", direct);
    // What is left of a request's latency once the caller's submit and the
    // worker's own work are taken out: queue + poll + settle.
    let submit = out.get("serve.submit_ms").unwrap_or(0.0);
    out.set(
        "serve.wait_ms",
        untraced_p50_ms - submit - materialize - direct,
    );
    layered::journal_rows(out, &spans, file.len(), done);
    harness::write_trace(out, NAME, &spans);
    Ok(())
}
