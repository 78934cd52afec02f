//! What every workload shares: run parameters, repeated set-up, the closed
//! loop of one caller, the end-to-end metrics, and where files go.

use crate::report::{median, percentile, Outcome};
use crate::spans::{chrome_json, Span};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parameters of one run of one workload.
pub struct RunCtx {
    /// Every input (flows, delta stream, request mix) derives from this.
    pub seed: u64,
    /// How long the run measures. A traced run splits it between the
    /// untraced loop and the layered loop.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer metrics.
    pub traced: bool,
}

/// Set-up runs this many times per run and `setup_s` is the median, so one
/// slow page-in or fsync does not decide it. Later repetitions replace the
/// earlier fixture.
pub const SETUP_REPS: usize = 5;

/// Ops every loop runs at least, however short `seconds` is.
pub const MIN_OPS: usize = 3;

/// The first ops of a run, which always complete, define the digest and the
/// counts that must repeat exactly for a seed.
pub const DIGEST_OPS: usize = 16;

pub fn setup_median<F>(mut build: impl FnMut() -> Result<F, String>) -> Result<(F, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        drop(fixture.take());
        let t = Instant::now();
        fixture = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((fixture.expect("SETUP_REPS > 0"), median(&times)))
}

/// One caller, no think time: run `op(i)` for i = 0, 1, .. until `seconds`
/// have passed (and at least [`MIN_OPS`] times), calling `after(i, result)`
/// outside the timed interval. Returns each op's latency in ms.
pub fn closed_loop<T>(
    seconds: f64,
    mut op: impl FnMut(usize) -> T,
    mut after: impl FnMut(usize, T),
) -> Vec<f64> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut lat_ms = Vec::new();
    while lat_ms.len() < MIN_OPS || start.elapsed() < budget {
        let i = lat_ms.len();
        let t = Instant::now();
        let r = op(i);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        after(i, r);
    }
    lat_ms
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Throughput is the median over this many consecutive slices of a run, so
/// a burst of noise from the machine moves one slice, not the result.
const THROUGHPUT_SLICES: usize = 10;

/// The end-to-end rows.
///
/// `done_at_s[i]` is the clock when op `i` completed, ops in completion
/// order: for one caller the clock is the sum of the latencies so far (the
/// harness's own work between ops does not count), for several callers it is
/// the wall clock. `ops_per_s` is ops completed over clock elapsed, taken per
/// slice of consecutive ops; the median slice is reported.
///
/// Op `i` ran on generated input `i % inputs`. A latency percentile is taken
/// per input and the median over the inputs is reported: pooled over several
/// inputs, p90 would sit inside the ops of whichever input happened to be
/// dearest and measure the draw, not the system.
pub fn end_to_end(
    out: &mut Outcome,
    lat_ms: &[f64],
    done_at_s: &[f64],
    inputs: usize,
    setup_s: f64,
) {
    // Whole cycles over the inputs per slice, so slices hold the same mix.
    let slice = (lat_ms.len() / THROUGHPUT_SLICES / inputs).max(1) * inputs;
    let mut from = 0.0;
    let per_slice: Vec<f64> = done_at_s
        .chunks_exact(slice.min(done_at_s.len()))
        .map(|c| {
            let to = c[c.len() - 1];
            let rate = c.len() as f64 / (to - from);
            from = to;
            rate
        })
        .collect();
    let over_inputs = |p: f64| {
        let per_input: Vec<f64> = (0..inputs)
            .map(|j| {
                let ops: Vec<f64> = lat_ms.iter().skip(j).step_by(inputs).copied().collect();
                percentile(&ops, p)
            })
            .collect();
        median(&per_input)
    };
    out.set("ops_per_s", median(&per_slice));
    out.set("latency_p50_ms", over_inputs(50.0));
    out.set("latency_p90_ms", over_inputs(90.0));
    out.set("setup_s", setup_s);
    // Informational: memory does not repeat within a tenth from seed to
    // seed, and p99 has ten samples beyond it only from 1000 ops up.
    out.set("peak_rss_mb", peak_rss_mib());
    out.set("latency_p99_ms", percentile(lat_ms, 99.0));
    out.set("latency_samples", lat_ms.len() as f64);
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
}

/// The clock of a single caller: the sum of the latencies so far, in s.
pub fn busy_clock(lat_ms: &[f64]) -> Vec<f64> {
    lat_ms
        .iter()
        .scan(0.0, |t, ms| {
            *t += ms / 1e3;
            Some(*t)
        })
        .collect()
}

/// Files the benchmark writes (traces, journals) go beside its executable,
/// inside the build directory, which `.gitignore` names.
pub fn out_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("m3_benchmark_out")))
        .unwrap_or_else(|| PathBuf::from("m3_benchmark_out"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

/// A journal file of this process, removed when dropped.
pub struct TempFile(pub PathBuf);

impl TempFile {
    pub fn new(tag: &str) -> TempFile {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        TempFile(out_dir().join(format!("{tag}-{}-{n}.journal", std::process::id())))
    }

    pub fn len(&self) -> u64 {
        std::fs::metadata(&self.0).map_or(0, |m| m.len())
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

pub fn write_trace(out: &mut Outcome, workload: &str, spans: &[Span]) {
    let path = out_dir().join(format!("{workload}.trace.json"));
    match std::fs::write(&path, chrome_json(spans)) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.check("trace_written", false, format!("{}: {e}", path.display())),
    }
}

/// Chain the first [`DIGEST_OPS`] per-op digests into the run's digest.
pub fn run_digest(per_op: &[u64]) -> String {
    let n = per_op.len().min(DIGEST_OPS);
    let h = per_op[..n]
        .iter()
        .fold(crate::adapter::FNV_OFFSET, |h, &d| {
            crate::adapter::fnv_word(h, d)
        });
    format!("digest {h:016x} over the first {n} ops")
}
