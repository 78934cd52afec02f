//! `session_deltas`: one caller streams what-if deltas at an open session of
//! a journaled `Service` and waits for each re-estimate. The same core layers
//! as the estimator workloads, used as writes: dirty-set computation,
//! retained-result merge, and a journal fsync per delta.

use crate::adapter::{self, DirectJournal, DirectSession, Fabric, ScenarioDelta, Service};
use crate::harness::{self, RunCtx, TempFile};
use crate::layered;
use crate::report::{median, Outcome};
use crate::spans::{breakdown, Recorder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub const NAME: &str = "session_deltas";
const N_FLOWS: usize = 4_000;
const MAX_LOAD: f64 = 0.5;
/// Deltas applied, untimed, at the end of set-up.
const WARM_UP_OPS: usize = 20;
/// `session.dirty_frac` is the mean over this many first ops of the loop.
const DIRTY_FRAC_OPS: usize = 256;
/// A link is in the pool when re-provisioning it dirties between 1 and this
/// many of the k sampled paths: every capacity delta re-simulates something,
/// none re-simulates much.
const MAX_DIRTY_PER_LINK: usize = 5;

/// The seeded delta stream: 70 % `LinkCapacity` on a pooled link with a
/// fresh bandwidth (so the dirty paths never hit the scenario cache), 28 %
/// `TrafficShift` of one source host's flows by 11/10 and back, 2 %
/// `CcKnob` (a fresh initial window: dirties every path).
struct DeltaStream {
    rng: SmallRng,
    /// (link, its generated bandwidth)
    links: Vec<(u32, u64)>,
    /// (source host, whether its flows are currently scaled up)
    srcs: Vec<(u32, bool)>,
    window: u64,
}

impl DeltaStream {
    fn new(seed: u64, fabric: &Fabric) -> Result<DeltaStream, String> {
        let index = adapter::index_build(fabric);
        let sampled = adapter::sample_paths(&index, adapter::K100, seed);
        let mut is_sampled = vec![false; sampled.iter().max().map_or(0, |m| m + 1)];
        for &g in &sampled {
            is_sampled[g] = true;
        }
        let reps: Vec<usize> = sampled
            .iter()
            .map(|&g| adapter::group_rep(&index, g))
            .collect();

        let mut candidates: Vec<u32> = reps
            .iter()
            .flat_map(|&r| adapter::flow_links(fabric, r))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let links: Vec<(u32, u64)> = candidates
            .into_iter()
            .filter_map(|link| {
                let bw = adapter::link_bandwidth(fabric, link);
                let dirty =
                    adapter::dirty_groups(&index, fabric, &adapter::link_capacity(link, bw));
                let hit = dirty
                    .iter()
                    .filter(|&&g| is_sampled.get(g).copied().unwrap_or(false))
                    .count();
                (1..=MAX_DIRTY_PER_LINK)
                    .contains(&hit)
                    .then_some((link, bw))
            })
            .collect();
        let mut srcs: Vec<u32> = reps.iter().map(|&r| adapter::flow_src(fabric, r)).collect();
        srcs.sort_unstable();
        srcs.dedup();
        if links.is_empty() || srcs.is_empty() {
            return Err("no link or source host qualifies for the delta pools".into());
        }
        Ok(DeltaStream {
            rng: SmallRng::seed_from_u64(seed ^ 0x64656c7461),
            links,
            srcs: srcs.into_iter().map(|s| (s, false)).collect(),
            window: 0,
        })
    }

    fn next(&mut self) -> ScenarioDelta {
        let r: f64 = self.rng.gen();
        if r < 0.70 {
            let (link, bw) = self.links[self.rng.gen_range(0..self.links.len())];
            adapter::link_capacity(link, bw / 2 + self.rng.gen_range(0..bw))
        } else if r < 0.98 {
            let i = self.rng.gen_range(0..self.srcs.len());
            let (src, up) = &mut self.srcs[i];
            *up = !*up;
            if *up {
                adapter::traffic_shift(*src, 11, 10)
            } else {
                adapter::traffic_shift(*src, 10, 11)
            }
        } else {
            self.window += 1;
            adapter::init_window(10_000 + 100 * self.window)
        }
    }
}

struct Fixture {
    fabric: Fabric,
    stream: DeltaStream,
    /// Every delta applied so far, warm-up included.
    applied: Vec<ScenarioDelta>,
    service: Service,
    session: u64,
    _journal: TempFile,
}

fn build(seed: u64) -> Result<Fixture, String> {
    let spec = adapter::scenario_spec(true, N_FLOWS, MAX_LOAD);
    let fabric = adapter::materialize(&spec, seed)?;
    let mut stream = DeltaStream::new(seed, &fabric)?;
    let journal = TempFile::new(NAME);
    let service = adapter::start_service(&journal.0)?;
    let session = adapter::open_session(&service, &spec, adapter::K100, seed)?;
    let mut applied = Vec::new();
    for _ in 0..WARM_UP_OPS {
        let d = stream.next();
        adapter::apply_delta(&service, session, &d)?;
        applied.push(d);
    }
    Ok(Fixture {
        fabric,
        stream,
        applied,
        service,
        session,
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
    let mut digests: Vec<u64> = Vec::new();
    let mut dirty_frac: Vec<f64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut deltas: Vec<ScenarioDelta> = Vec::new();
    let (service, session, stream) = (&fx.service, fx.session, &mut fx.stream);
    let lat_ms = harness::closed_loop(
        seconds,
        |_| {
            // Drawing the delta is the caller's work, not the system's, but
            // it is a handful of ns next to a journal fsync.
            let d = stream.next();
            let r = adapter::apply_delta(service, session, &d);
            (d, r)
        },
        |_, (d, r)| {
            deltas.push(d);
            match r {
                Ok(u) => {
                    digests.push(adapter::digest(&u.estimate));
                    dirty_frac.push(u.dirty_frac);
                }
                Err(e) => {
                    digests.push(0);
                    failures.push(e);
                }
            }
        },
    );
    out.attempted = lat_ms.len() as u64;
    out.failed = failures.len() as u64;
    if let Some(e) = failures.first() {
        out.notes.push(format!("first failed op: {e}"));
    }
    harness::end_to_end(&mut out, &lat_ms, &harness::busy_clock(&lat_ms), 1, setup_s);
    out.notes.push(harness::run_digest(&digests));
    // Over the first ops only, which every run completes, so that it repeats
    // exactly for a seed.
    let head = &dirty_frac[..dirty_frac.len().min(DIRTY_FRAC_OPS)];
    out.set("session.dirty_frac", crate::report::mean(head));

    // The session's final estimate must equal a from-scratch estimate of
    // the final scenario, bit for bit.
    let warm_up = fx.applied.len();
    fx.applied.extend(deltas.iter().copied());
    let est = adapter::build_estimator();
    let folded = adapter::fold_deltas(&fx.fabric, &fx.applied);
    let t = Instant::now();
    let scratch = folded
        .and_then(|f| adapter::estimate_cold(&est, &f, adapter::K100, ctx.seed))
        .map(|e| adapter::digest(&e));
    out.set(
        "session.full_reestimate_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );
    let last = adapter::session_estimate(&fx.service, fx.session).map(|e| adapter::digest(&e));
    out.check(
        "session_final_equals_from_scratch",
        scratch.is_ok() && last == scratch.clone().ok(),
        format!(
            "after {} deltas: session {last:x?}, from scratch {scratch:x?}",
            fx.applied.len()
        ),
    );

    if ctx.traced {
        let (warm, timed) = fx.applied.split_at(warm_up);
        traced(
            ctx,
            &mut out,
            &fx.fabric,
            warm,
            timed,
            &digests,
            median(&lat_ms),
        )?;
    }
    Ok(out)
}

/// The layered loop: the same delta stream applied to a session held
/// directly, behind a journal driven directly, with a span around each.
fn traced(
    ctx: &RunCtx,
    out: &mut Outcome,
    fabric: &Fabric,
    warm_up: &[ScenarioDelta],
    deltas: &[ScenarioDelta],
    served: &[u64],
    untraced_p50_ms: f64,
) -> Result<(), String> {
    let est = adapter::build_estimator();
    let file = TempFile::new("session_layered");
    let mut journal = DirectJournal::create(&file.0)?;
    let mut session = DirectSession::open(
        &est,
        fabric,
        adapter::K100,
        ctx.seed,
        adapter::service_cache_capacity(),
    )?;
    for d in warm_up {
        session.apply(&est, d)?;
    }
    let index = adapter::index_build(fabric);

    let rec = Recorder::new();
    let mut mismatched = Vec::new();
    let mut error = None;
    let mut dirty_groups_ms = Vec::new();
    let budget = ctx.seconds / 2.0;
    let start = Instant::now();
    let mut done = 0;
    // Replays the deltas the timed loop applied, so it cannot outrun it.
    for (i, d) in deltas.iter().enumerate() {
        if i >= harness::MIN_OPS && start.elapsed().as_secs_f64() >= budget {
            break;
        }
        let r = rec.span("op", None, i as u32, |root| {
            rec.span("journal.append", Some(root), i as u32, |_| {
                journal.append_delta(0, i as u64, d)
            })?;
            rec.span("session.apply", Some(root), i as u32, |_| {
                session.apply(&est, d)
            })
        });
        match r {
            Ok(u) if adapter::digest(&u.estimate) != served[i] => mismatched.push(i),
            Ok(_) => {}
            Err(e) => error = Some(e),
        }
        // The dirty-set computation alone, which `apply` also does inside.
        let t = Instant::now();
        std::hint::black_box(adapter::dirty_groups(&index, fabric, d));
        dirty_groups_ms.push(t.elapsed().as_secs_f64() * 1e3);
        done += 1;
    }
    if let Some(e) = error {
        return Err(format!("layered op failed: {e}"));
    }
    out.check(
        "layered_equals_timed_run",
        mismatched.is_empty(),
        format!("{done} layered ops compared, mismatching ops: {mismatched:?}"),
    );

    let spans = rec.into_spans();
    let ops = breakdown(&spans);
    layered::account(out, &ops, untraced_p50_ms, &["journal", "session"]);
    out.set("session.apply_ms", layered::p50_of(&ops, "session."));
    out.set("session.dirty_groups_ms", median(&dirty_groups_ms));
    layered::journal_rows(out, &spans, file.len(), done);
    harness::write_trace(out, NAME, &spans);
    Ok(())
}
