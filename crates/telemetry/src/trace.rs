//! Causal tracing: span trees and typed events in a flight recorder.
//!
//! This is the "what happened, in what order, caused by what" companion to
//! the aggregate [`MetricsRegistry`](crate::registry::MetricsRegistry).
//! A [`TraceRecorder`] owns a set of sharded ring buffers (the *flight
//! recorder*): threads append [`TraceEvent`]s to their shard and, when a
//! ring fills, the oldest events are overwritten — recording never blocks
//! on memory and never grows unbounded. Like the metrics registry, the
//! recorder is a noop-able handle: a disabled recorder costs one branch
//! per call site, which the `gate` binary's `overhead` gate bounds
//! (`BENCH_tracing_overhead.json`).
//!
//! ## Causality and determinism
//!
//! Spans form a tree via explicit parent/child IDs. A span ID is a hash of
//! `(parent id, trace id, name, child index)` — **not** a global counter —
//! so the IDs produced by a deterministic workload are identical across
//! runs and across thread interleavings. Sequential code uses
//! [`TraceSpan::child`] (auto-indexed); fan-out regions (e.g. a rayon
//! `par_iter` over flowSim slots) use [`TraceSpan::child_indexed`] with the
//! slot index so every run derives the same IDs regardless of scheduling.
//!
//! Every event carries two clocks:
//!
//! * `vts` — *virtual* time in nanoseconds (simulator time). Deterministic
//!   for a fixed seed; used by counter-track probes.
//! * `wall_us` — wall-clock microseconds since the recorder's epoch. A
//!   *wall field* in the sense of
//!   [`MetricsSnapshot::deterministic_view`](crate::snapshot::MetricsSnapshot::deterministic_view):
//!   excluded from determinism guarantees and zeroed (and flagged) by the
//!   deterministic export.
//!
//! [`FlightRecording::to_chrome_json`] exports Chrome trace-event JSON
//! consumable by Perfetto / `chrome://tracing`;
//! [`FlightRecording::to_chrome_deterministic_json`] is the golden-file
//! variant with wall fields zeroed and flagged in `otherData`.
//!
//! **Ring overflow breaks byte-equality**: once the recorder overwrites
//! events, which events survive depends on thread scheduling. Golden tests
//! must size the recorder with ample headroom ([`TraceRecorder::dropped`]
//! reports overwrites; the exports record the count in `otherData`).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Number of ring-buffer shards (power of two). Threads hash to a shard,
/// so contention is bounded without per-thread registration.
const SHARDS: usize = 8;

/// Smallest per-shard capacity; keeps tiny recorders usable.
const MIN_SHARD_CAP: usize = 64;

/// Default total event capacity for CLI-created recorders (~10 MB).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 17;

/// Default virtual-time sampling stride for simulator probes (100 µs of
/// simulated time between counter samples).
pub const DEFAULT_PROBE_STRIDE_NS: u64 = 100_000;

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A span opened. `name` is the span's display name.
    Begin { name: &'static str },
    /// The span closed (always `seq == u32::MAX`).
    End,
    /// A point event inside a span (cache hit, degradation, fault, ...).
    Instant { name: &'static str, detail: String },
    /// A counter-track sample at virtual time `vts` (queue depth,
    /// utilization, ECN marks, ...). `track` names the counter track.
    Counter { track: Arc<str>, value: f64 },
}

impl TraceEventKind {
    /// Stable discriminant for canonical ordering.
    fn order(&self) -> u8 {
        match self {
            TraceEventKind::Begin { .. } => 0,
            TraceEventKind::Instant { .. } => 1,
            TraceEventKind::Counter { .. } => 2,
            TraceEventKind::End => 3,
        }
    }
}

/// One record in the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Trace (request) this event belongs to.
    pub trace: u64,
    /// Owning span ID (deterministic hash, never 0 for real spans).
    pub span: u64,
    /// Parent span ID (0 for roots).
    pub parent: u64,
    /// Emission order within the span: 0 for `Begin`, `u32::MAX` for
    /// `End`, monotonically increasing in between.
    pub seq: u32,
    /// Display lane (Chrome `tid`): 0 is the pipeline lane, flowSim slots
    /// get `1 + slot`.
    pub lane: u32,
    /// Virtual time in nanoseconds (0 when not applicable). Deterministic.
    pub vts: u64,
    /// Wall-clock microseconds since the recorder epoch. **Wall field** —
    /// zeroed by the deterministic export.
    pub wall_us: u64,
    /// Payload.
    pub kind: TraceEventKind,
}

/// Fixed-capacity overwrite-oldest event buffer.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    /// Next overwrite position once `buf.len() == cap`.
    head: usize,
    cap: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::new(),
            head: 0,
            cap: cap.max(1),
        }
    }

    /// Append, overwriting the oldest event when full. Returns `true`
    /// when an old event was overwritten (i.e. dropped).
    fn push(&mut self, ev: TraceEvent) -> bool {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            true
        }
    }

    /// Events oldest-first.
    fn drain_ordered(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, front) = self.buf.split_at(self.head.min(self.buf.len()));
        front.iter().chain(tail.iter())
    }
}

#[derive(Debug)]
struct RecorderInner {
    epoch: Instant,
    shards: Vec<Mutex<Ring>>,
    dropped: AtomicU64,
}

/// Recover from a poisoned ring lock: event data is plain-old-data, so a
/// panicking recorder thread cannot leave it in a broken state.
fn lock_ring(m: &Mutex<Ring>) -> MutexGuard<'_, Ring> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

thread_local! {
    /// Per-thread shard selector, hashed once from the thread ID.
    static SHARD_SEED: usize = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish() as usize
    };
}

/// Handle to a flight recorder. Clone-able and cheap; the disabled
/// (`noop`) form skips all work behind a single branch, mirroring
/// [`MetricsRegistry::noop`](crate::registry::MetricsRegistry::noop).
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    inner: Option<Arc<RecorderInner>>,
}

impl TraceRecorder {
    /// An enabled recorder holding roughly `capacity` events total across
    /// its shards (each shard holds `max(capacity / 8, 64)`).
    pub fn new(capacity: usize) -> Self {
        let per_shard = (capacity / SHARDS).max(MIN_SHARD_CAP);
        TraceRecorder {
            inner: Some(Arc::new(RecorderInner {
                epoch: Instant::now(),
                shards: (0..SHARDS)
                    .map(|_| Mutex::new(Ring::new(per_shard)))
                    .collect(),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// A disabled recorder: every operation is a no-op.
    pub fn noop() -> Self {
        TraceRecorder { inner: None }
    }

    /// Whether events are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Wall-clock microseconds since this recorder's epoch (0 when
    /// disabled). A wall field — never part of determinism guarantees.
    pub fn wall_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Events overwritten because a ring filled.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.dropped.load(Ordering::Relaxed),
            None => 0,
        }
    }

    fn record(&self, ev: TraceEvent) {
        if let Some(inner) = &self.inner {
            let shard = SHARD_SEED.with(|s| *s) & (SHARDS - 1);
            let overwrote = lock_ring(&inner.shards[shard]).push(ev);
            if overwrote {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Copy out everything currently recorded, in canonical deterministic
    /// order: `(trace, lane, span, seq, kind)`. Does not clear the rings.
    pub fn snapshot(&self) -> FlightRecording {
        let Some(inner) = &self.inner else {
            return FlightRecording {
                events: Vec::new(),
                dropped: 0,
            };
        };
        let mut events = Vec::new();
        for shard in &inner.shards {
            let ring = lock_ring(shard);
            events.extend(ring.drain_ordered().cloned());
        }
        events.sort_by(|a, b| {
            (a.trace, a.lane, a.span, a.seq, a.kind.order()).cmp(&(
                b.trace,
                b.lane,
                b.span,
                b.seq,
                b.kind.order(),
            ))
        });
        FlightRecording {
            events,
            dropped: inner.dropped.load(Ordering::Relaxed),
        }
    }
}

/// Deterministic span-ID derivation: FNV-1a over the causal coordinates.
/// No global counter, so IDs are identical across runs and schedulings.
fn span_id(parent: u64, trace: u64, name: &str, index: u32) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&parent.to_le_bytes());
    eat(&trace.to_le_bytes());
    eat(name.as_bytes());
    eat(&index.to_le_bytes());
    h.max(1) // 0 is reserved for "no parent"
}

/// Per-request tracing context threaded end-to-end through the pipeline.
/// `Default` is the noop context, so `EstimateOptions`-style structs can
/// add a `trace` field without disturbing existing call sites.
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    /// Destination flight recorder (possibly noop).
    pub recorder: TraceRecorder,
    /// Trace (request) ID. The serving layer stamps this from the job ID
    /// and journals it for post-crash correlation; 0 means "untraced".
    pub trace_id: u64,
    /// Virtual-time stride (ns) for simulator counter probes; 0 means
    /// [`DEFAULT_PROBE_STRIDE_NS`].
    pub probe_stride_ns: u64,
}

impl TraceCtx {
    /// A context that records into `recorder` under `trace_id`.
    pub fn new(recorder: TraceRecorder, trace_id: u64) -> Self {
        TraceCtx {
            recorder,
            trace_id,
            probe_stride_ns: 0,
        }
    }

    /// The disabled context.
    pub fn noop() -> Self {
        TraceCtx::default()
    }

    /// Whether spans opened from this context record anything.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Effective probe stride in virtual nanoseconds.
    pub fn stride_ns(&self) -> u64 {
        if self.probe_stride_ns == 0 {
            DEFAULT_PROBE_STRIDE_NS
        } else {
            self.probe_stride_ns
        }
    }

    /// Open a root span (parent 0, lane 0, child index 0).
    pub fn root(&self, name: &'static str) -> TraceSpan {
        TraceSpan::open(self.recorder.clone(), self.trace_id, 0, name, 0, 0)
    }
}

/// An open span. Emits `Begin` on creation and `End` when dropped (or
/// [`finish`](TraceSpan::finish)ed). `Sync`, so rayon workers can emit
/// child spans and events through a shared reference.
#[derive(Debug)]
pub struct TraceSpan {
    recorder: TraceRecorder,
    trace: u64,
    id: u64,
    parent: u64,
    lane: u32,
    next_seq: AtomicU32,
    next_child: AtomicU32,
    ended: AtomicBool,
}

impl TraceSpan {
    fn open(
        recorder: TraceRecorder,
        trace: u64,
        parent: u64,
        name: &'static str,
        index: u32,
        lane: u32,
    ) -> TraceSpan {
        if !recorder.is_enabled() {
            return TraceSpan {
                recorder,
                trace,
                id: 0,
                parent,
                lane,
                next_seq: AtomicU32::new(1),
                next_child: AtomicU32::new(0),
                ended: AtomicBool::new(true),
            };
        }
        let id = span_id(parent, trace, name, index);
        let wall_us = recorder.wall_us();
        recorder.record(TraceEvent {
            trace,
            span: id,
            parent,
            seq: 0,
            lane,
            vts: 0,
            wall_us,
            kind: TraceEventKind::Begin { name },
        });
        TraceSpan {
            recorder,
            trace,
            id,
            parent,
            lane,
            next_seq: AtomicU32::new(1),
            next_child: AtomicU32::new(0),
            ended: AtomicBool::new(false),
        }
    }

    /// This span's deterministic ID (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether events emitted through this span are recorded.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Open a child span with an automatically assigned child index.
    /// Deterministic only when calls happen in a deterministic order — use
    /// [`child_indexed`](TraceSpan::child_indexed) inside parallel regions.
    pub fn child(&self, name: &'static str) -> TraceSpan {
        let idx = self.next_child.fetch_add(1, Ordering::Relaxed);
        self.child_indexed(name, idx)
    }

    /// Open a child span with an explicit index (e.g. the rayon slot
    /// number), keeping span IDs deterministic under parallel scheduling.
    pub fn child_indexed(&self, name: &'static str, index: u32) -> TraceSpan {
        TraceSpan::open(
            self.recorder.clone(),
            self.trace,
            self.id,
            name,
            index,
            self.lane,
        )
    }

    /// [`child_indexed`](TraceSpan::child_indexed) on an explicit display
    /// lane (Chrome `tid`), so parallel slots render side by side.
    pub fn child_on_lane(&self, name: &'static str, index: u32, lane: u32) -> TraceSpan {
        TraceSpan::open(
            self.recorder.clone(),
            self.trace,
            self.id,
            name,
            index,
            lane,
        )
    }

    /// Record a point event (cache hit, degradation, fault, ...).
    pub fn instant(&self, name: &'static str, detail: impl Into<String>) {
        if !self.recorder.is_enabled() {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let wall_us = self.recorder.wall_us();
        self.recorder.record(TraceEvent {
            trace: self.trace,
            span: self.id,
            parent: self.parent,
            seq,
            lane: self.lane,
            vts: 0,
            wall_us,
            kind: TraceEventKind::Instant {
                name,
                detail: detail.into(),
            },
        });
    }

    /// Record a counter-track sample at virtual time `vts_ns`. The track
    /// name is an `Arc<str>` so hot probes precompute it once.
    pub fn counter(&self, track: &Arc<str>, vts_ns: u64, value: f64) {
        if !self.recorder.is_enabled() {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.recorder.record(TraceEvent {
            trace: self.trace,
            span: self.id,
            parent: self.parent,
            seq,
            lane: self.lane,
            vts: vts_ns,
            wall_us: 0,
            kind: TraceEventKind::Counter {
                track: track.clone(),
                value,
            },
        });
    }

    /// Close the span now (otherwise `Drop` does it).
    pub fn finish(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if self.ended.swap(true, Ordering::Relaxed) {
            return;
        }
        let wall_us = self.recorder.wall_us();
        self.recorder.record(TraceEvent {
            trace: self.trace,
            span: self.id,
            parent: self.parent,
            seq: u32::MAX,
            lane: self.lane,
            vts: 0,
            wall_us,
            kind: TraceEventKind::End,
        });
    }
}

/// A point-in-time copy of the flight recorder, in canonical order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecording {
    /// Events sorted by `(trace, lane, span, seq, kind)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrites at snapshot time.
    pub dropped: u64,
}

/// Matched span endpoints collected during export.
struct SpanAgg {
    name: &'static str,
    begin_wall: Option<u64>,
    end_wall: Option<u64>,
}

/// Minimal JSON string escaper (quotes, backslashes, control chars).
fn esc(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl FlightRecording {
    /// An empty recording.
    pub fn empty() -> Self {
        FlightRecording {
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Export as Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`). Span and instant timestamps are wall-clock
    /// microseconds since the recorder epoch; counter-track samples are
    /// placed at `owning span begin + virtual time`, so simulator probes
    /// overlay the span that ran them.
    pub fn to_chrome_json(&self) -> String {
        self.export(false)
    }

    /// Deterministic export for golden files: identical structure and
    /// ordering to [`to_chrome_json`](FlightRecording::to_chrome_json),
    /// but every wall-clock field (`ts`/`dur` of span and instant events)
    /// is zeroed, and `otherData` flags the view — the trace-level
    /// analogue of
    /// [`MetricsSnapshot::deterministic_view`](crate::snapshot::MetricsSnapshot::deterministic_view).
    /// Counter events keep their virtual-time timestamps, which are
    /// deterministic for a fixed seed.
    pub fn to_chrome_deterministic_json(&self) -> String {
        self.export(true)
    }

    fn export(&self, deterministic: bool) -> String {
        // Pass 1: match Begin/End pairs per (trace, span).
        let mut spans: HashMap<(u64, u64), SpanAgg> = HashMap::new();
        for ev in &self.events {
            match &ev.kind {
                TraceEventKind::Begin { name } => {
                    let agg = spans.entry((ev.trace, ev.span)).or_insert(SpanAgg {
                        name,
                        begin_wall: None,
                        end_wall: None,
                    });
                    agg.name = name;
                    agg.begin_wall = Some(ev.wall_us);
                }
                TraceEventKind::End => {
                    let agg = spans.entry((ev.trace, ev.span)).or_insert(SpanAgg {
                        name: "?",
                        begin_wall: None,
                        end_wall: None,
                    });
                    agg.end_wall = Some(ev.wall_us);
                }
                _ => {}
            }
        }

        // Pass 2: emit, preserving canonical event order.
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
            out.push_str("\n ");
        };
        for ev in &self.events {
            match &ev.kind {
                TraceEventKind::Begin { name } => {
                    let agg = &spans[&(ev.trace, ev.span)];
                    let (ts, dur, complete) = match (agg.begin_wall, agg.end_wall) {
                        (Some(b), Some(e)) => (b, e.saturating_sub(b), true),
                        (Some(b), None) => (b, 0, false),
                        _ => (0, 0, false),
                    };
                    let (ts, dur) = if deterministic { (0, 0) } else { (ts, dur) };
                    sep(&mut out);
                    out.push_str("{\"name\":\"");
                    esc(name, &mut out);
                    let _ = write!(
                        out,
                        "\",\"cat\":\"m3\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":{},\"tid\":{},\"args\":{{\"span\":\"{:#x}\",\"parent\":\"{:#x}\"",
                        ev.trace, ev.lane, ev.span, ev.parent
                    );
                    if !complete {
                        out.push_str(",\"incomplete\":\"true\"");
                    }
                    out.push_str("}}");
                }
                TraceEventKind::End => {}
                TraceEventKind::Instant { name, detail } => {
                    let ts = if deterministic { 0 } else { ev.wall_us };
                    sep(&mut out);
                    out.push_str("{\"name\":\"");
                    esc(name, &mut out);
                    let _ = write!(
                        out,
                        "\",\"cat\":\"m3\",\"ph\":\"i\",\"ts\":{ts},\"s\":\"t\",\"pid\":{},\"tid\":{},\"args\":{{\"span\":\"{:#x}\",\"detail\":\"",
                        ev.trace, ev.lane, ev.span
                    );
                    esc(detail, &mut out);
                    out.push_str("\"}}");
                }
                TraceEventKind::Counter { track, value } => {
                    // Virtual ns -> µs on the owning span's wall offset
                    // (offset 0 in the deterministic view).
                    let base = if deterministic {
                        0
                    } else {
                        spans
                            .get(&(ev.trace, ev.span))
                            .and_then(|a| a.begin_wall)
                            .unwrap_or(0)
                    };
                    let ts = base as f64 + ev.vts as f64 / 1000.0;
                    sep(&mut out);
                    out.push_str("{\"name\":\"");
                    esc(track, &mut out);
                    let _ = write!(
                        out,
                        "\",\"cat\":\"m3\",\"ph\":\"C\",\"ts\":{ts:?},\"pid\":{},\"tid\":{},\"args\":{{\"value\":{:?}}}}}",
                        ev.trace, ev.lane, value
                    );
                }
            }
        }
        // Process-name metadata per trace, in sorted order.
        let mut traces: Vec<u64> = spans.keys().map(|&(t, _)| t).collect();
        traces.sort_unstable();
        traces.dedup();
        for t in traces {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{t},\"args\":{{\"name\":\"m3 trace {t:#x}\"}}}}"
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"format\":\"m3-trace\",\"version\":\"1\"");
        let _ = write!(out, ",\"dropped\":\"{}\"", self.dropped);
        if deterministic {
            out.push_str(",\"deterministic\":\"true\",\"wall_fields_zeroed\":\"ts,dur\"");
        }
        out.push_str("}}\n");
        out
    }
}

/// One row of the slowest-spans table in a [`TraceSummary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Wall duration in microseconds.
    pub dur_us: u64,
    /// Owning trace ID.
    pub trace: u64,
}

/// Aggregate view of an exported trace file, for `m3 trace`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// All `traceEvents` entries, including metadata.
    pub total_events: usize,
    /// Complete (`ph == "X"`) span events.
    pub span_count: usize,
    /// Instant (`ph == "i"`) events.
    pub instant_count: usize,
    /// Counter (`ph == "C"`) samples.
    pub counter_count: usize,
    /// Distinct trace IDs (`pid`s) present.
    pub traces: Vec<u64>,
    /// Counter tracks and their sample counts, name-sorted.
    pub counter_tracks: Vec<(String, usize)>,
    /// Spans sorted by descending duration (capped at 20).
    pub slowest: Vec<SpanStat>,
    /// `otherData.dropped`, when present.
    pub dropped: u64,
    /// Whether the file is a deterministic (wall-zeroed) export.
    pub deterministic: bool,
}

/// Parse a Chrome trace-event JSON file (as produced by
/// [`FlightRecording::to_chrome_json`] — but tolerant of any conforming
/// producer) into a [`TraceSummary`].
pub fn summarize_chrome_json(json: &str) -> Result<TraceSummary, String> {
    use serde_json::Value;
    fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        v.as_object().and_then(|m| m.get(key))
    }
    fn field_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
        field(v, key).and_then(|f| f.as_str())
    }
    fn field_u64(v: &Value, key: &str) -> Option<u64> {
        match field(v, key) {
            Some(Value::Number(n)) => n.to_int::<u64>().ok(),
            _ => None,
        }
    }
    let v: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    let Some(Value::Array(events)) = field(&v, "traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };
    let mut summary = TraceSummary {
        total_events: events.len(),
        ..TraceSummary::default()
    };
    let mut tracks: HashMap<String, usize> = HashMap::new();
    for ev in events {
        let ph = field_str(ev, "ph").unwrap_or("");
        let name = field_str(ev, "name").unwrap_or("?");
        if let Some(pid) = field_u64(ev, "pid") {
            if ph != "M" && !summary.traces.contains(&pid) {
                summary.traces.push(pid);
            }
        }
        match ph {
            "X" => {
                summary.span_count += 1;
                summary.slowest.push(SpanStat {
                    name: name.to_string(),
                    dur_us: field_u64(ev, "dur").unwrap_or(0),
                    trace: field_u64(ev, "pid").unwrap_or(0),
                });
            }
            "i" => summary.instant_count += 1,
            "C" => {
                summary.counter_count += 1;
                *tracks.entry(name.to_string()).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    summary.traces.sort_unstable();
    summary
        .slowest
        .sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then_with(|| a.name.cmp(&b.name)));
    summary.slowest.truncate(20);
    summary.counter_tracks = tracks.into_iter().collect();
    summary.counter_tracks.sort();
    if let Some(other) = field(&v, "otherData") {
        summary.dropped = field_str(other, "dropped")
            .and_then(|d| d.parse().ok())
            .unwrap_or(0);
        summary.deterministic = field_str(other, "deterministic") == Some("true");
    }
    Ok(summary)
}

/// Render a [`TraceSummary`] as an aligned plain-text report.
pub fn render_trace_summary(s: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace summary");
    let _ = writeln!(
        out,
        "  events: {} total ({} spans, {} instants, {} counter samples)",
        s.total_events, s.span_count, s.instant_count, s.counter_count
    );
    let _ = writeln!(out, "  traces: {:?}", s.traces);
    if s.dropped > 0 {
        let _ = writeln!(out, "  DROPPED: {} events lost to ring overflow", s.dropped);
    }
    if s.deterministic {
        let _ = writeln!(out, "  deterministic view: wall ts/dur zeroed");
    }
    if !s.counter_tracks.is_empty() {
        let _ = writeln!(out, "\ncounter tracks");
        let w = s
            .counter_tracks
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(4);
        for (name, n) in &s.counter_tracks {
            let _ = writeln!(out, "  {name:<w$}  {n} samples");
        }
    }
    if !s.slowest.is_empty() {
        let _ = writeln!(out, "\nslowest spans (wall µs)");
        let w = s.slowest.iter().map(|r| r.name.len()).max().unwrap_or(4);
        for r in &s.slowest {
            let _ = writeln!(
                out,
                "  {:<w$}  {:>10}  trace {:#x}",
                r.name, r.dur_us, r.trace
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_everything_is_inert() {
        let ctx = TraceCtx::noop();
        assert!(!ctx.is_enabled());
        let root = ctx.root("estimate");
        assert_eq!(root.id(), 0);
        root.instant("cache_hit", "k=42");
        let track: Arc<str> = Arc::from("qbytes");
        root.counter(&track, 1000, 5.0);
        let child = root.child("decompose");
        child.finish();
        root.finish();
        let rec = TraceRecorder::noop().snapshot();
        assert!(rec.events.is_empty());
        assert_eq!(TraceRecorder::noop().wall_us(), 0);
    }

    #[test]
    fn span_tree_records_begin_end_parentage() {
        let rec = TraceRecorder::new(1024);
        let ctx = TraceCtx::new(rec.clone(), 7);
        let root = ctx.root("estimate");
        let root_id = root.id();
        let child = root.child("decompose");
        let child_id = child.id();
        assert_ne!(root_id, 0);
        assert_ne!(child_id, root_id);
        child.instant("note", "hello");
        child.finish();
        root.finish();
        let snap = rec.snapshot();
        // Begin+End for both spans, one instant.
        assert_eq!(snap.events.len(), 5);
        let child_begin = snap
            .events
            .iter()
            .find(|e| e.span == child_id && matches!(e.kind, TraceEventKind::Begin { .. }))
            .unwrap();
        assert_eq!(child_begin.parent, root_id);
        assert_eq!(child_begin.trace, 7);
        let instant = snap
            .events
            .iter()
            .find(|e| matches!(e.kind, TraceEventKind::Instant { .. }))
            .unwrap();
        assert_eq!(instant.span, child_id);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn span_ids_are_run_independent() {
        let mk = || {
            let rec = TraceRecorder::new(256);
            let ctx = TraceCtx::new(rec.clone(), 3);
            let root = ctx.root("estimate");
            let a = root.child_indexed("slot", 0).id();
            let b = root.child_indexed("slot", 1).id();
            (root.id(), a, b)
        };
        assert_eq!(mk(), mk(), "hash-derived IDs must not depend on run state");
        let (_, a, b) = mk();
        assert_ne!(a, b, "sibling indexes must disambiguate IDs");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            let dropped = ring.push(TraceEvent {
                trace: 1,
                span: i,
                parent: 0,
                seq: 0,
                lane: 0,
                vts: 0,
                wall_us: 0,
                kind: TraceEventKind::End,
            });
            assert_eq!(dropped, i >= 3);
        }
        let spans: Vec<u64> = ring.drain_ordered().map(|e| e.span).collect();
        assert_eq!(spans, vec![2, 3, 4], "oldest events overwritten first");
    }

    #[test]
    fn recorder_reports_dropped_on_overflow() {
        let rec = TraceRecorder::new(1); // clamps to 64/shard
        let ctx = TraceCtx::new(rec.clone(), 1);
        let root = ctx.root("r");
        let track: Arc<str> = Arc::from("t");
        for i in 0..1000 {
            root.counter(&track, i, i as f64);
        }
        root.finish();
        assert!(rec.dropped() > 0, "1001+ events into a 64-slot ring");
        assert!(rec.snapshot().dropped > 0);
    }

    #[test]
    fn snapshot_order_is_canonical() {
        let rec = TraceRecorder::new(1024);
        let ctx = TraceCtx::new(rec.clone(), 9);
        let root = ctx.root("estimate");
        let track: Arc<str> = Arc::from("q");
        root.counter(&track, 100, 1.0);
        root.counter(&track, 200, 2.0);
        root.instant("late", "x");
        root.finish();
        let snap = rec.snapshot();
        let seqs: Vec<u32> = snap.events.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "events ordered by seq within the span");
    }

    #[test]
    fn chrome_export_emits_x_i_c_events() {
        let rec = TraceRecorder::new(1024);
        let ctx = TraceCtx::new(rec.clone(), 5);
        let root = ctx.root("estimate");
        root.instant("cache_hit", "key=\"weird\"\n");
        let track: Arc<str> = Arc::from("netsim.qbytes.l0.fwd");
        root.counter(&track, 100_000, 123.0);
        root.finish();
        let json = rec.snapshot().to_chrome_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("netsim.qbytes.l0.fwd"));
        assert!(json.contains("\\\"weird\\\""), "details are escaped");
        assert!(json.contains("\"process_name\""));
        // The export must be valid JSON by our own parser.
        let summary = summarize_chrome_json(&json).unwrap();
        assert_eq!(summary.span_count, 1);
        assert_eq!(summary.instant_count, 1);
        assert_eq!(summary.counter_count, 1);
        assert_eq!(summary.traces, vec![5]);
        assert_eq!(summary.counter_tracks.len(), 1);
    }

    #[test]
    fn deterministic_export_zeroes_and_flags_wall_fields() {
        let rec = TraceRecorder::new(1024);
        let ctx = TraceCtx::new(rec.clone(), 2);
        let root = ctx.root("estimate");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let track: Arc<str> = Arc::from("q");
        root.counter(&track, 250_000, 1.5);
        root.finish();
        let det = rec.snapshot().to_chrome_deterministic_json();
        assert!(det.contains("\"deterministic\":\"true\""));
        assert!(det.contains("\"wall_fields_zeroed\":\"ts,dur\""));
        assert!(det.contains("\"ts\":0,\"dur\":0"));
        // Counter keeps its virtual timestamp (250_000 ns = 250 µs).
        assert!(det.contains("\"ts\":250.0"), "virtual ts survives: {det}");
        let summary = summarize_chrome_json(&det).unwrap();
        assert!(summary.deterministic);
    }

    #[test]
    fn two_identical_runs_export_identical_deterministic_json() {
        let run = || {
            let rec = TraceRecorder::new(4096);
            let ctx = TraceCtx::new(rec.clone(), 11);
            let root = ctx.root("estimate");
            for s in 0..4u32 {
                let slot = root.child_on_lane("slot", s, 1 + s);
                let track: Arc<str> = Arc::from("util");
                for k in 0..3u64 {
                    slot.counter(&track, k * 50_000, 0.25 * (s as f64 + k as f64));
                }
                slot.finish();
            }
            root.finish();
            rec.snapshot().to_chrome_deterministic_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_emission_is_deterministic_with_explicit_indexes() {
        let run = || {
            let rec = TraceRecorder::new(1 << 14);
            let ctx = TraceCtx::new(rec.clone(), 13);
            let root = ctx.root("estimate");
            std::thread::scope(|scope| {
                for s in 0..8u32 {
                    let root = &root;
                    scope.spawn(move || {
                        let slot = root.child_on_lane("slot", s, 1 + s);
                        let track: Arc<str> = Arc::from("work");
                        for k in 0..16u64 {
                            slot.counter(&track, k * 1000, k as f64);
                        }
                        slot.finish();
                    });
                }
            });
            root.finish();
            rec.snapshot().to_chrome_deterministic_json()
        };
        assert_eq!(run(), run(), "canonical order erases thread interleaving");
    }

    #[test]
    fn summary_renders_slowest_spans() {
        let rec = TraceRecorder::new(1024);
        let ctx = TraceCtx::new(rec.clone(), 1);
        let root = ctx.root("estimate");
        let child = root.child("decompose");
        std::thread::sleep(std::time::Duration::from_millis(1));
        child.finish();
        root.finish();
        let summary = summarize_chrome_json(&rec.snapshot().to_chrome_json()).unwrap();
        assert_eq!(summary.span_count, 2);
        let text = render_trace_summary(&summary);
        assert!(text.contains("slowest spans"));
        assert!(text.contains("estimate"));
        assert!(text.contains("decompose"));
    }

    #[test]
    fn incomplete_span_flagged_not_dropped() {
        let rec = TraceRecorder::new(1024);
        let ctx = TraceCtx::new(rec.clone(), 1);
        let root = ctx.root("estimate");
        let json = rec.snapshot().to_chrome_json(); // before End
        assert!(json.contains("\"incomplete\":\"true\""));
        root.finish();
        let json = rec.snapshot().to_chrome_json();
        assert!(!json.contains("incomplete"));
    }
}
