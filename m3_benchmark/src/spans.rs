//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is `{name, start, end, parent, op}`; a span's name is
//! `<layer>.<call>` and the part before the dot is the layer it is charged
//! to. Spans are kept in a vector and written out, in Chrome trace-event
//! format, when the workload ends. Nothing here uses the program's own
//! tracing (`m3_telemetry::trace`, `NetworkEstimate::timings`): this ledger
//! is what in-program tracing will later be checked against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The op (estimate, delta or request) this span belongs to.
    pub op: u32,
    /// The recording thread's lane in the exported trace.
    pub tid: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A small number per thread, in order of first use by any recorder. The
/// `rayon` stand-in spawns fresh threads for every `par_iter`, so the numbers
/// grow over a run; they only keep parallel spans on separate trace lanes.
fn lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static LANE: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id to parent children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        op: u32,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let tid = lane();
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            let start_ns = self.now_ns();
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
                tid,
            });
            (spans.len() - 1) as u32
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id as usize].end_ns = end_ns;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned")
    }
}

/// The layer a span is charged to.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut edge) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            covered += e - s;
            edge = e;
        }
    }
    covered
}

/// Self time of every span, in ns of the op's wall clock.
///
/// A span's self time is its duration minus the part of that interval its
/// children cover (their union, so children running in parallel on two
/// threads count once). Where children overlap, each is scaled by
/// `union / sum of durations`, so that the self times of a tree add up to
/// the root's duration: a layer under a 2-way `par_iter` is charged the wall
/// time its slower half took, not its CPU time.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) => children[p as usize].push(i),
            None => roots.push(i),
        }
    }
    let mut out = vec![0.0; spans.len()];
    let mut stack: Vec<(usize, f64)> = roots.into_iter().map(|r| (r, 1.0)).collect();
    while let Some((i, scale)) = stack.pop() {
        let s = &spans[i];
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        let covered = union_len(&mut iv, s.start_ns, s.end_ns);
        out[i] = (s.dur() - covered) as f64 * scale;
        let sum: u64 = children[i].iter().map(|&c| spans[c].dur()).sum();
        if sum > 0 {
            let child_scale = scale * covered as f64 / sum as f64;
            stack.extend(children[i].iter().map(|&c| (c, child_scale)));
        }
    }
    out
}

/// Per op: the root span's wall time and each layer's self time, in ms.
/// The root's own self time is charged to the layer `"gaps"`.
pub struct OpBreakdown {
    pub wall_ms: f64,
    pub layers: BTreeMap<&'static str, f64>,
    /// Self time per span name (finer than per layer).
    pub names: BTreeMap<&'static str, f64>,
}

pub fn breakdown(spans: &[Span]) -> BTreeMap<u32, OpBreakdown> {
    let selfs = self_times(spans);
    let mut ops: BTreeMap<u32, OpBreakdown> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&selfs) {
        let b = ops.entry(s.op).or_insert_with(|| OpBreakdown {
            wall_ms: 0.0,
            layers: BTreeMap::new(),
            names: BTreeMap::new(),
        });
        let ms = t / 1e6;
        if s.parent.is_none() {
            b.wall_ms += s.dur() as f64 / 1e6;
            *b.layers.entry("gaps").or_default() += ms;
        } else {
            // `layer_of` borrows from a `&'static str`, so the slice is static too.
            let layer: &'static str = &s.name[..layer_of(s.name).len()];
            *b.layers.entry(layer).or_default() += ms;
            *b.names.entry(s.name).or_default() += ms;
        }
    }
    ops
}

/// Chrome trace-event JSON (load at https://ui.perfetto.dev): one complete
/// event per span, `pid` = op, `tid` = thread, ids in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            sp.name,
            layer_of(sp.name),
            sp.start_ns as f64 / 1e3,
            sp.dur() as f64 / 1e3,
            sp.op,
            sp.tid,
            i,
            parent
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<u32>, tid: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            tid,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover_and_sums_to_the_root() {
        // root 0..100; a sequential child 10..30; a stage 40..90 whose two
        // children run in parallel, 40..80 and 45..90 (union 50, sum 85).
        let spans = vec![
            sp("op", 0, 100, None, 0),
            sp("a.x", 10, 30, Some(0), 0),
            sp("b.stage", 40, 90, Some(0), 0),
            sp("b.run", 40, 80, Some(2), 1),
            sp("b.run", 45, 90, Some(2), 2),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 30.0);
        assert_eq!(t[1], 20.0);
        assert_eq!(t[2], 0.0);
        assert!((t[3] + t[4] - 50.0).abs() < 1e-9);
        assert!((t.iter().sum::<f64>() - 100.0).abs() < 1e-9);

        let ops = breakdown(&spans);
        let b = &ops[&0];
        assert!((b.wall_ms - 100.0 / 1e6).abs() < 1e-12);
        assert!((b.layers["b"] - 50.0 / 1e6).abs() < 1e-12);
        assert!((b.layers.values().sum::<f64>() - b.wall_ms).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let rec = Recorder::new();
        rec.span("op", None, 3, |root| {
            rec.span("a.x", Some(root), 3, |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_json(&spans);
        assert!(json.contains("\"name\":\"a.x\"") && json.contains("\"pid\":3"));
    }
}
