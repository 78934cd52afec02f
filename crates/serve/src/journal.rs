//! Write-ahead job journal: the service's crash-recovery log.
//!
//! Every accepted request is appended (and fsync'd) *before* the submit
//! call returns, and every terminal outcome is appended when the job
//! settles. A service that is killed and restarted replays the journal:
//! jobs with an `Accepted` record but no terminal record are re-enqueued
//! and — because requests are pure data and the pipeline is deterministic —
//! complete with bit-identical results to an uninterrupted run.
//!
//! The same determinism keeps a completed job's record small: it journals
//! the decision ([`JournalRecord::Decision`]: attempts, model fingerprint,
//! [`NetworkEstimate::digest`]), not the estimate, and resume recomputes
//! the estimate from the `Accepted` request when a client asks for it.
//! Degraded, failed and shed outcomes keep their full
//! [`JournalRecord::Terminal`] record. Version 1 journals, written before
//! decision records existed, hold a full terminal for every outcome and
//! still replay; opening one upgrades its header to version 2.
//!
//! The on-disk format reuses the checkpoint-hardening idiom from
//! `m3-nn`: a magic/version header, then length-prefixed records each
//! carrying an FNV-1a checksum (`[len u32 LE][checksum64 u64 LE][json]`).
//! Recovery validates the header, verifies every record checksum, and
//! truncates a torn tail (a record cut short by the crash) rather than
//! refusing to start.
//!
//! Encoding a record and appending it are separate steps (`Frame::encode`,
//! `Journal::append_frame`), so the service, which serializes appends
//! under its state lock, encodes before taking it. An append that fails
//! (disk full, file size limit, I/O error) cuts the file back to its last
//! complete frame before it returns the error, so a later append never
//! lands behind a partial frame.

use crate::request::{EstimateRequest, OpenSessionRequest};
use m3_core::prelude::{
    EstimateOptions, M3Error, M3Estimator, NetworkEstimate, ScenarioDelta, SharedScenarioCache,
};
use m3_nn::prelude::{encode_record, scan_records_lenient};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic: "m3 serve journal".
const MAGIC: &[u8; 8] = b"M3SRVJRN";
/// Version 2 added [`JournalRecord::Decision`].
const VERSION: u32 = 2;
/// The oldest version the reader replays.
const MIN_VERSION: u32 = 1;
const HEADER_LEN: usize = MAGIC.len() + 4;

/// Terminal state of a job. Every accepted job reaches exactly one of
/// these. The journal persists it whole, except a `Completed` outcome,
/// which it persists as a [`JournalRecord::Decision`].
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "state", rename_all = "snake_case")]
pub enum JobOutcome {
    /// Full pipeline succeeded (possibly after retries).
    Completed {
        estimate: NetworkEstimate,
        attempts: u32,
    },
    /// Served by the flowSim-only path because the circuit breaker was
    /// open, or completed with degraded samples under the policy.
    Degraded {
        estimate: NetworkEstimate,
        attempts: u32,
        /// True when the breaker (not the per-sample policy) forced the
        /// degraded path.
        via_breaker: bool,
    },
    /// Retries exhausted or a persistent fault failed fast.
    Failed { error: M3Error, attempts: u32 },
    /// Never attempted: rejected by admission control after acceptance
    /// (deadline already expired at pickup).
    Shed { reason: String },
}

impl JobOutcome {
    /// The estimate carried by a successful (completed or degraded)
    /// outcome.
    pub fn estimate(&self) -> Option<&NetworkEstimate> {
        match self {
            JobOutcome::Completed { estimate, .. } | JobOutcome::Degraded { estimate, .. } => {
                Some(estimate)
            }
            JobOutcome::Failed { .. } | JobOutcome::Shed { .. } => None,
        }
    }
}

/// One journal record.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "rec", rename_all = "snake_case")]
pub enum JournalRecord {
    Accepted {
        id: u64,
        request: Box<EstimateRequest>,
        /// Trace id stamped on the request for causal-tracing correlation:
        /// a trace exported by the service carries the same id, so a
        /// post-crash investigation can match journal entries to trace
        /// spans. Absent (`None`) in journals written before tracing
        /// existed; `#[serde(default)]` keeps those readable.
        #[serde(default)]
        trace: Option<u64>,
    },
    /// Job `id` settled with `outcome`. Since version 2 a `Completed`
    /// outcome is journaled as a [`JournalRecord::Decision`] instead.
    Terminal { id: u64, outcome: Box<JobOutcome> },
    /// Job `id` completed after `attempts` attempts on the model with
    /// `fingerprint`, and its estimate has
    /// [`digest`](NetworkEstimate::digest) `digest`. The estimate itself
    /// is recomputed from the job's `Accepted` request on demand.
    Decision {
        id: u64,
        attempts: u32,
        fingerprint: u64,
        digest: u64,
    },
    /// A model swap passed its gates and is about to install. Written
    /// *before* the install so a crash between intent and commit is
    /// recoverable: an intent with no following [`JournalRecord::ModelSwap`]
    /// is a dangling swap and the pre-swap model stays active on resume.
    SwapIntent { version: u64, fingerprint: u64 },
    /// A model version was installed as the active model (promotion or
    /// rollback — a rollback is just a swap back to the prior version).
    /// Kill-and-resume replays to the last one of these.
    ModelSwap { version: u64, fingerprint: u64 },
    /// An incremental session was opened. Written (and fsync'd) before the
    /// expensive initial estimate runs, so a crash mid-open replays the
    /// open deterministically.
    SessionOpen {
        id: u64,
        request: Box<OpenSessionRequest>,
    },
    /// One delta accepted into session `id`. `seq` is the per-session
    /// apply order (0-based); replay re-applies deltas in `seq` order.
    /// Write-ahead: the record is journaled before the delta is applied,
    /// so the journal is always a superset of the in-memory state — and
    /// because a failed apply leaves the session unchanged
    /// deterministically, replaying a journaled-but-failed delta fails
    /// identically and converges to the same state.
    SessionDelta {
        id: u64,
        seq: u64,
        delta: ScenarioDelta,
    },
    /// Session `id` was closed; resume does not re-open it.
    SessionClose { id: u64 },
}

impl JournalRecord {
    /// The record that journals job `id` settling with `outcome` on the
    /// model with `fingerprint`: a decision for a completed job, the full
    /// outcome otherwise.
    pub fn settled(id: u64, outcome: &JobOutcome, fingerprint: u64) -> JournalRecord {
        match outcome {
            JobOutcome::Completed { estimate, attempts } => JournalRecord::Decision {
                id,
                attempts: *attempts,
                fingerprint,
                digest: estimate.digest(),
            },
            _ => JournalRecord::Terminal {
                id,
                outcome: Box::new(outcome.clone()),
            },
        }
    }
}

/// A completed job as a [`JournalRecord::Decision`] records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    pub attempts: u32,
    pub fingerprint: u64,
    pub digest: u64,
}

impl Decision {
    /// The outcome this decision stands for, recomputed from the job's
    /// `request` on `estimator`, the model with the recorded fingerprint
    /// (`None` when no such model is at hand). The run repeats the
    /// successful attempt — same policy, path slice and attempt-stamped
    /// fault plan, no deadline — and goes through `cache` when given, as
    /// the pipeline's bits do not depend on the cache. An estimate whose
    /// digest differs from the recorded one, like a missing model or a
    /// failed run, yields `Failed` with [`M3Error::NotReproduced`], never a
    /// different estimate. The recomputed estimate's `timings` describe the
    /// recompute run.
    pub(crate) fn recompute(
        &self,
        request: &EstimateRequest,
        estimator: Option<&M3Estimator>,
        cache: Option<&SharedScenarioCache>,
    ) -> JobOutcome {
        let failed = |reason: String| JobOutcome::Failed {
            error: M3Error::NotReproduced {
                fingerprint: self.fingerprint,
                digest: self.digest,
                reason,
            },
            attempts: self.attempts,
        };
        let Some(estimator) = estimator else {
            return failed("the model is not available".into());
        };
        let options = EstimateOptions {
            policy: request.policy.unwrap_or_default(),
            fault_plan: request
                .fault_plan
                .as_ref()
                .map(|p| p.at_attempt(self.attempts.saturating_sub(1))),
            path_slice: request.path_slice,
            ..EstimateOptions::default()
        };
        let (paths, seed) = (request.paths, request.seed);
        let run =
            request
                .scenario
                .materialize(seed)
                .and_then(|(topo, flows, config)| match cache {
                    Some(cache) => estimator.try_estimate_with_shared_cache(
                        &topo, &flows, &config, paths, seed, cache, &options,
                    ),
                    None => estimator.try_estimate(&topo, &flows, &config, paths, seed, &options),
                });
        match run {
            Ok(estimate) => {
                let (digest, clean) = (estimate.digest(), estimate.degradation.is_clean());
                if digest == self.digest && clean {
                    JobOutcome::Completed {
                        estimate,
                        attempts: self.attempts,
                    }
                } else {
                    let degraded = if clean { "" } else { ", degraded" };
                    failed(format!("recomputed digest {digest:#018x}{degraded}"))
                }
            }
            Err(e) => failed(format!("the recompute failed: {e}")),
        }
    }
}

/// Typed account of mid-file journal corruption found during recovery.
/// Corrupt records are quarantined to a `.corrupt` sidecar and replay
/// continues past them; this summary is surfaced on
/// [`ServiceStats`](crate::service::ServiceStats) so operators see the
/// damage instead of a silently shortened replay.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalCorruption {
    /// Checksum-mismatched records skipped (and quarantined) mid-file.
    pub records_quarantined: usize,
    /// Total frame bytes (headers included) moved to the sidecar.
    pub bytes_quarantined: usize,
    /// Byte offset of the first corrupt frame within the journal file.
    pub first_offset: usize,
    /// Path of the sidecar file the corrupt frames were written to, when
    /// the write succeeded (quarantine is best-effort: recovery proceeds
    /// even if the sidecar cannot be written). Stored as a display string
    /// so the summary serializes into stats snapshots.
    pub sidecar: Option<String>,
}

/// One incremental session as reconstructed from the journal: the open
/// request plus every accepted delta in apply order. Resume re-opens the
/// session and replays the deltas through the deterministic pipeline,
/// arriving at bit-identical per-path state.
#[derive(Debug, Clone)]
pub struct SessionReplay {
    pub request: OpenSessionRequest,
    /// `(seq, delta)` pairs in journal order; `seq` is monotone per session.
    pub deltas: Vec<(u64, ScenarioDelta)>,
    /// True when a [`JournalRecord::SessionClose`] was seen — resume skips
    /// closed sessions.
    pub closed: bool,
}

/// The journal as reconstructed at startup.
#[derive(Debug, Default)]
pub struct Replay {
    /// Accepted requests by job id.
    pub accepted: BTreeMap<u64, EstimateRequest>,
    /// Trace id recorded with each acceptance (absent for pre-tracing
    /// journals), for correlating journal entries with exported traces.
    pub trace_ids: BTreeMap<u64, u64>,
    /// Full terminal outcomes by job id: every outcome of a version 1
    /// journal, and the non-`Completed` ones since.
    pub terminal: BTreeMap<u64, JobOutcome>,
    /// Completed jobs by id, as their decision records hold them.
    pub decisions: BTreeMap<u64, Decision>,
    /// Terminal and decision records whose job has no `Accepted` record
    /// (it was quarantined). They are left out of `terminal` and
    /// `decisions`: there is no request to serve or recompute them from.
    pub orphan_terminals: usize,
    /// True if a torn tail was truncated during recovery.
    pub truncated_tail: bool,
    /// Mid-file corruption quarantined during recovery (`None` on a clean
    /// replay). Unlike a torn tail, the corrupt bytes stay in the journal
    /// file — every reopen re-reports them — but the sidecar plus this
    /// summary make the damage visible and auditable.
    pub corruption: Option<JournalCorruption>,
    /// `(registry version, fingerprint)` of the last committed
    /// [`JournalRecord::ModelSwap`], i.e. the model that must be active
    /// after resume. `None` when the journal predates swaps or the service
    /// never swapped (resume keeps its construction-time model).
    pub active_model: Option<(u64, u64)>,
    /// A [`JournalRecord::SwapIntent`] with no committed swap after it:
    /// the process died between journaling the intent and installing the
    /// model. Resume must *not* activate this version — the intent is
    /// surfaced for observability and the pre-swap model stays active.
    pub dangling_swap: Option<(u64, u64)>,
    /// Incremental sessions by session id (ids share the job id space).
    /// Deltas for an id with no preceding open are dropped — they cannot
    /// be applied to anything and indicate a quarantined open record.
    pub sessions: BTreeMap<u64, SessionReplay>,
    /// The highest job or session id any replayed record names.
    last_id: Option<u64>,
}

impl Replay {
    /// Fold one record into the replay state.
    fn apply(&mut self, rec: JournalRecord) {
        let id = match rec {
            JournalRecord::Accepted { id, request, trace } => {
                self.accepted.insert(id, *request);
                if let Some(t) = trace {
                    self.trace_ids.insert(id, t);
                }
                id
            }
            JournalRecord::Terminal { id, outcome } => {
                self.terminal.insert(id, *outcome);
                id
            }
            JournalRecord::Decision {
                id,
                attempts,
                fingerprint,
                digest,
            } => {
                let decision = Decision {
                    attempts,
                    fingerprint,
                    digest,
                };
                self.decisions.insert(id, decision);
                id
            }
            JournalRecord::SwapIntent {
                version,
                fingerprint,
            } => {
                self.dangling_swap = Some((version, fingerprint));
                return;
            }
            JournalRecord::ModelSwap {
                version,
                fingerprint,
            } => {
                self.active_model = Some((version, fingerprint));
                self.dangling_swap = None;
                return;
            }
            JournalRecord::SessionOpen { id, request } => {
                let open = SessionReplay {
                    request: *request,
                    deltas: Vec::new(),
                    closed: false,
                };
                self.sessions.insert(id, open);
                id
            }
            JournalRecord::SessionDelta { id, seq, delta } => {
                if let Some(s) = self.sessions.get_mut(&id) {
                    s.deltas.push((seq, delta));
                }
                id
            }
            JournalRecord::SessionClose { id } => {
                if let Some(s) = self.sessions.get_mut(&id) {
                    s.closed = true;
                }
                id
            }
        };
        self.last_id = self.last_id.max(Some(id));
    }

    /// Jobs that were accepted but never settled — the re-enqueue set.
    pub fn pending(&self) -> Vec<(u64, EstimateRequest)> {
        self.accepted
            .iter()
            .filter(|(id, _)| !self.terminal.contains_key(id) && !self.decisions.contains_key(id))
            .map(|(id, req)| (*id, req.clone()))
            .collect()
    }

    /// Accepted jobs with a terminal or decision record.
    pub fn settled(&self) -> usize {
        self.terminal.len() + self.decisions.len()
    }

    /// First id not yet used (ids are allocated monotonically from one
    /// counter shared by jobs and sessions). Past every id a surviving
    /// record names, including records whose `Accepted` or `SessionOpen`
    /// was quarantined: reusing such an id would pair a new job with the
    /// old one's records.
    pub fn next_id(&self) -> u64 {
        self.last_id.map_or(0, |id| id + 1)
    }

    /// Sessions that were opened and never closed — the re-adopt set.
    pub fn live_sessions(&self) -> Vec<(u64, SessionReplay)> {
        self.sessions
            .iter()
            .filter(|(_, s)| !s.closed)
            .map(|(id, s)| (*id, s.clone()))
            .collect()
    }
}

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write quarantined frames to the `.corrupt` sidecar as JSON lines
/// (`{"offset":N,"reason":"...","frame_hex":"..."}`), preserving the raw
/// bytes for postmortem analysis. The sidecar is rewritten on every open
/// that finds corruption — the journal file itself is not modified
/// mid-file, so reopening re-derives the same set.
fn write_quarantine(path: &Path, frames: &[m3_nn::integrity::CorruptFrame]) -> io::Result<()> {
    // Owned fields: the vendored serde derive does not support borrowed
    // (lifetime-parameterized) structs.
    #[derive(Serialize)]
    struct QuarantineLine {
        offset: usize,
        reason: String,
        frame_hex: String,
    }
    let mut out = String::new();
    for f in frames {
        let mut hex = String::with_capacity(f.bytes.len() * 2);
        for b in &f.bytes {
            use std::fmt::Write as _;
            let _ = write!(hex, "{b:02x}");
        }
        let line = QuarantineLine {
            offset: f.offset,
            reason: f.reason.clone(),
            frame_hex: hex,
        };
        out.push_str(&serde_json::to_string(&line).map_err(|e| bad_data(e.to_string()))?);
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// The version in `buf`'s header, if it is a journal this reader replays.
fn check_header(path: &Path, buf: &[u8]) -> io::Result<u32> {
    if buf.len() < HEADER_LEN || &buf[..MAGIC.len()] != MAGIC {
        return Err(bad_data(format!("{}: not an m3 journal", path.display())));
    }
    let mut ver = [0u8; 4];
    ver.copy_from_slice(&buf[MAGIC.len()..HEADER_LEN]);
    let version = u32::from_le_bytes(ver);
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(bad_data(format!(
            "{}: journal version {version} (supported: {MIN_VERSION}-{VERSION})",
            path.display()
        )));
    }
    Ok(version)
}

fn decode(path: &Path, payload: &[u8]) -> io::Result<JournalRecord> {
    serde_json::from_slice(payload)
        .map_err(|e| bad_data(format!("{}: bad journal record: {e}", path.display())))
}

/// Every intact record of the journal at `path`, in file order, without
/// opening it for appending or changing it: corrupt frames are skipped and
/// a torn tail is ignored.
pub fn read_records(path: impl AsRef<Path>) -> io::Result<Vec<JournalRecord>> {
    let path = path.as_ref();
    let buf = std::fs::read(path)?;
    check_header(path, &buf)?;
    let scan = scan_records_lenient(&buf, HEADER_LEN);
    scan.records.iter().map(|p| decode(path, p)).collect()
}

/// Crash points for tests and soaks: counting every write and every fsync
/// of the appends to the journals it is attached to (0-based, in order),
/// the `n`-th fails and so does every later one, as when the process dies
/// at that point. A failing write first writes half its frame, and nothing
/// is cut back after it, so the frame stays torn.
#[derive(Debug, Clone)]
pub struct JournalFaults(Arc<FaultCounts>);

#[derive(Debug)]
struct FaultCounts {
    fail_at: u64,
    ops: AtomicU64,
    appended: AtomicU64,
}

/// What an injected write or fsync does.
#[derive(PartialEq)]
enum Injected {
    Pass,
    /// The crash point: a write leaves half its frame.
    Crash,
    /// Past the crash point: nothing reaches the file.
    Dead,
}

impl JournalFaults {
    /// Fail the `n`-th write or fsync and every later one.
    pub fn fail_at(n: u64) -> JournalFaults {
        JournalFaults(Arc::new(FaultCounts {
            fail_at: n,
            ops: AtomicU64::new(0),
            appended: AtomicU64::new(0),
        }))
    }

    /// Writes and fsyncs attempted so far.
    pub fn ops(&self) -> u64 {
        self.0.ops.load(Ordering::SeqCst)
    }

    /// Appends that returned `Ok` (so were fsync'd).
    pub fn appended(&self) -> u64 {
        self.0.appended.load(Ordering::SeqCst)
    }

    /// Whether the crash point has been reached.
    pub fn tripped(&self) -> bool {
        self.ops() > self.0.fail_at
    }

    fn next(&self) -> Injected {
        let op = self.0.ops.fetch_add(1, Ordering::SeqCst);
        match op.cmp(&self.0.fail_at) {
            std::cmp::Ordering::Less => Injected::Pass,
            std::cmp::Ordering::Equal => Injected::Crash,
            std::cmp::Ordering::Greater => Injected::Dead,
        }
    }
}

fn injected() -> io::Error {
    io::Error::other("injected journal crash point")
}

/// One journal record encoded as its on-disk frame
/// (`[len u32 LE][checksum64 u64 LE][json]`), ready to append.
pub(crate) struct Frame(Vec<u8>);

impl Frame {
    /// Encode `record`. Pure: needs no journal and takes no lock.
    pub(crate) fn encode(record: &JournalRecord) -> io::Result<Frame> {
        let payload = serde_json::to_vec(record)
            .map_err(|e| bad_data(format!("journal record encode: {e}")))?;
        Ok(Frame(encode_record(&payload)))
    }
}

/// Append-only, checksummed, fsync'd job journal.
pub struct Journal {
    file: File,
    path: PathBuf,
    /// File length at the end of the last complete frame: where the next
    /// append starts, and what a failed append cuts the file back to.
    len: u64,
    faults: Option<JournalFaults>,
}

impl Journal {
    /// Create a fresh journal at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        file.sync_data()?;
        Ok(Journal {
            file,
            path,
            len: HEADER_LEN as u64,
            faults: None,
        })
    }

    /// Open an existing journal, replaying its records. A torn final
    /// record (from a crash mid-append) is truncated away. A
    /// checksum-mismatched record *mid-file* (bit rot, hostile edit) no
    /// longer aborts the rest of the replay: the bad frame is quarantined
    /// to a `<path>.corrupt` sidecar, scanning resumes at the next frame
    /// boundary, and the damage is summarized in [`Replay::corruption`].
    /// Returns the journal positioned for appending plus the replay state.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Replay)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let version = check_header(&path, &buf)?;

        let scan = scan_records_lenient(&buf, HEADER_LEN);
        let corruption = if scan.corrupt.is_empty() {
            None
        } else {
            let sidecar_path = {
                let mut s = path.as_os_str().to_os_string();
                s.push(".corrupt");
                PathBuf::from(s)
            };
            let sidecar = write_quarantine(&sidecar_path, &scan.corrupt)
                .ok()
                .map(|()| sidecar_path.display().to_string());
            Some(JournalCorruption {
                records_quarantined: scan.corrupt.len(),
                bytes_quarantined: scan.corrupt.iter().map(|f| f.bytes.len()).sum(),
                first_offset: scan.corrupt.first().map(|f| f.offset).unwrap_or(0),
                sidecar,
            })
        };
        let mut replay = Replay {
            truncated_tail: scan.torn.is_some(),
            corruption,
            ..Replay::default()
        };
        for payload in &scan.records {
            replay.apply(decode(&path, payload)?);
        }
        let accepted = &replay.accepted;
        let settled = replay.settled();
        replay.terminal.retain(|id, _| accepted.contains_key(id));
        replay.decisions.retain(|id, _| accepted.contains_key(id));
        replay.orphan_terminals = settled - replay.settled();
        if version < VERSION {
            // Decision records may follow; say so before the first one.
            file.seek(SeekFrom::Start(MAGIC.len() as u64))?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.sync_data()?;
        }
        if replay.truncated_tail {
            // Drop the torn bytes so the next append starts on a clean
            // frame boundary.
            file.set_len(scan.valid_len as u64)?;
            file.sync_data()?;
        }
        let len = file.seek(SeekFrom::End(0))?;
        let journal = Journal {
            file,
            path,
            len,
            faults: None,
        };
        Ok((journal, replay))
    }

    /// Append one record and fsync before returning — a record the caller
    /// has seen acknowledged survives a crash.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        self.append_frame(&Frame::encode(record)?)
    }

    /// Append one encoded frame and fsync before returning. On an error
    /// the file is cut back to its last complete frame first: a partial
    /// frame left mid-file would make recovery read its length field
    /// across the frames appended after it and drop them.
    pub(crate) fn append_frame(&mut self, frame: &Frame) -> io::Result<()> {
        let written = self.write(&frame.0).and_then(|()| self.sync());
        match written {
            Ok(()) => {
                self.len += frame.0.len() as u64;
                if let Some(faults) = &self.faults {
                    faults.0.appended.fetch_add(1, Ordering::SeqCst);
                }
                Ok(())
            }
            Err(e) => {
                if !self.faults.as_ref().is_some_and(JournalFaults::tripped) {
                    // Best effort: if the cut fails too, the seek still
                    // puts the next frame over the partial one, leaving at
                    // most a torn tail, which recovery truncates.
                    let _ = self.file.set_len(self.len);
                    let _ = self.file.seek(SeekFrom::Start(self.len));
                }
                Err(e)
            }
        }
    }

    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self
            .faults
            .as_ref()
            .map_or(Injected::Pass, JournalFaults::next)
        {
            Injected::Pass => self.file.write_all(bytes),
            Injected::Crash => {
                self.file.write_all(&bytes[..bytes.len() / 2])?;
                Err(injected())
            }
            Injected::Dead => Err(injected()),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self
            .faults
            .as_ref()
            .map_or(Injected::Pass, JournalFaults::next)
        {
            Injected::Pass => self.file.sync_data(),
            Injected::Crash | Injected::Dead => Err(injected()),
        }
    }

    /// Inject `faults` into this journal's appends.
    pub(crate) fn with_faults(mut self, faults: Option<JournalFaults>) -> Journal {
        self.faults = faults;
        self
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ConfigSpec, ScenarioSpec, TopoSpec, WorkloadSpec};

    fn req(seed: u64) -> EstimateRequest {
        EstimateRequest::new(
            ScenarioSpec {
                topology: TopoSpec::FatTreeSmall { oversub: 2 },
                workload: WorkloadSpec {
                    n_flows: 100,
                    matrix: "B".into(),
                    sizes: "WebServer".into(),
                    sigma: 1.0,
                    max_load: 0.3,
                },
                config: ConfigSpec::default(),
            },
            4,
            seed,
        )
    }

    fn tmpfile(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("m3-serve-journal-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_accepted_and_terminal() {
        let path = tmpfile("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        j.append(&JournalRecord::Accepted {
            id: 0,
            request: Box::new(req(1)),
            trace: Some(1),
        })
        .unwrap();
        j.append(&JournalRecord::Accepted {
            id: 1,
            request: Box::new(req(2)),
            trace: Some(2),
        })
        .unwrap();
        j.append(&JournalRecord::Terminal {
            id: 0,
            outcome: Box::new(JobOutcome::Shed {
                reason: "test".into(),
            }),
        })
        .unwrap();
        drop(j);

        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.accepted.len(), 2);
        assert_eq!(replay.terminal.len(), 1);
        assert_eq!(replay.pending().len(), 1);
        assert_eq!(replay.pending()[0].0, 1);
        assert_eq!(replay.next_id(), 2);
        assert_eq!(replay.trace_ids.get(&0), Some(&1));
        assert_eq!(replay.trace_ids.get(&1), Some(&2));
        assert!(!replay.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_append_resumes() {
        let path = tmpfile("torn");
        let mut j = Journal::create(&path).unwrap();
        j.append(&JournalRecord::Accepted {
            id: 0,
            request: Box::new(req(1)),
            trace: None,
        })
        .unwrap();
        drop(j);
        // Simulate a crash mid-append: write half a record.
        let full_len = std::fs::metadata(&path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x55; 7]).unwrap();
        }
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.accepted.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len);
        // Appends after recovery land on a clean boundary.
        j.append(&JournalRecord::Terminal {
            id: 0,
            outcome: Box::new(JobOutcome::Shed {
                reason: "after recovery".into(),
            }),
        })
        .unwrap();
        drop(j);
        let (_j, replay) = Journal::open(&path).unwrap();
        assert!(replay.pending().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn accepted_record_without_trace_field_still_parses() {
        // Journals written before tracing existed have no `trace` key.
        let json = serde_json::to_vec(&JournalRecord::Accepted {
            id: 7,
            request: Box::new(req(1)),
            trace: Some(8),
        })
        .unwrap();
        let text = String::from_utf8(json)
            .unwrap()
            .replace(",\"trace\":8", "")
            .replace("\"trace\":8,", "");
        assert!(!text.contains("trace"), "field not stripped: {text}");
        let rec: JournalRecord = serde_json::from_slice(text.as_bytes()).unwrap();
        match rec {
            JournalRecord::Accepted { id, trace, .. } => {
                assert_eq!(id, 7);
                assert_eq!(trace, None);
            }
            other => panic!("unexpected record: {other:?}"),
        }
    }

    #[test]
    fn bit_flipped_record_is_quarantined_and_replay_continues() {
        let path = tmpfile("bitflip");
        let mut j = Journal::create(&path).unwrap();
        j.append(&JournalRecord::Accepted {
            id: 0,
            request: Box::new(req(1)),
            trace: None,
        })
        .unwrap();
        let second_at = std::fs::metadata(&path).unwrap().len() as usize;
        j.append(&JournalRecord::Accepted {
            id: 1,
            request: Box::new(req(2)),
            trace: None,
        })
        .unwrap();
        let third_at = std::fs::metadata(&path).unwrap().len() as usize;
        j.append(&JournalRecord::Terminal {
            id: 0,
            outcome: Box::new(JobOutcome::Shed {
                reason: "after the damage".into(),
            }),
        })
        .unwrap();
        let full_len = std::fs::metadata(&path).unwrap().len();
        drop(j);

        // Flip one bit inside the second record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[second_at + 12 + 5] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (_j, replay) = Journal::open(&path).unwrap();
        // The record *after* the corrupt one was still replayed.
        assert_eq!(replay.accepted.len(), 1, "corrupt acceptance dropped");
        assert!(replay.accepted.contains_key(&0));
        assert_eq!(replay.terminal.len(), 1);
        assert!(replay.pending().is_empty());
        assert!(!replay.truncated_tail, "mid-file damage is not a torn tail");
        let c = replay.corruption.expect("corruption surfaced");
        assert_eq!(c.records_quarantined, 1);
        assert_eq!(c.first_offset, second_at);
        assert_eq!(c.bytes_quarantined, third_at - second_at);
        // The journal file is not truncated; the sidecar holds the frame.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len);
        let sidecar = c.sidecar.expect("sidecar written");
        let side = std::fs::read_to_string(&sidecar).unwrap();
        assert!(side.contains("checksum mismatch"), "{side}");
        assert_eq!(side.lines().count(), 1);

        // Reopening re-reports the same corruption (documented behavior).
        let (_j, replay2) = Journal::open(&path).unwrap();
        assert_eq!(
            replay2
                .corruption
                .map(|c| (c.records_quarantined, c.first_offset)),
            Some((1, second_at))
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn swap_records_replay_to_last_commit_and_surface_dangling_intent() {
        let path = tmpfile("swaps");
        let mut j = Journal::create(&path).unwrap();
        j.append(&JournalRecord::SwapIntent {
            version: 2,
            fingerprint: 0xA2,
        })
        .unwrap();
        j.append(&JournalRecord::ModelSwap {
            version: 2,
            fingerprint: 0xA2,
        })
        .unwrap();
        j.append(&JournalRecord::SwapIntent {
            version: 3,
            fingerprint: 0xA3,
        })
        .unwrap();
        drop(j);
        // Crash between intent 3 and its commit: resume must stay on v2
        // and surface the dangling intent.
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.active_model, Some((2, 0xA2)));
        assert_eq!(replay.dangling_swap, Some((3, 0xA3)));
        // A later committed swap clears the dangling marker.
        j.append(&JournalRecord::ModelSwap {
            version: 3,
            fingerprint: 0xA3,
        })
        .unwrap();
        drop(j);
        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.active_model, Some((3, 0xA3)));
        assert_eq!(replay.dangling_swap, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn session_records_replay_in_order_and_closes_stick() {
        let path = tmpfile("sessions");
        let mut j = Journal::create(&path).unwrap();
        let open = OpenSessionRequest::new(req(1).scenario, 4, 9);
        j.append(&JournalRecord::SessionOpen {
            id: 3,
            request: Box::new(open.clone()),
        })
        .unwrap();
        j.append(&JournalRecord::SessionDelta {
            id: 3,
            seq: 0,
            delta: ScenarioDelta::LinkCapacity {
                link: 0,
                bandwidth: 5_000_000_000,
            },
        })
        .unwrap();
        j.append(&JournalRecord::SessionDelta {
            id: 3,
            seq: 1,
            delta: ScenarioDelta::LinkDown { link: 1 },
        })
        .unwrap();
        j.append(&JournalRecord::SessionOpen {
            id: 5,
            request: Box::new(open.clone()),
        })
        .unwrap();
        j.append(&JournalRecord::SessionClose { id: 5 }).unwrap();
        // A delta for an id never opened (quarantined open) is dropped.
        j.append(&JournalRecord::SessionDelta {
            id: 99,
            seq: 0,
            delta: ScenarioDelta::LinkUp { link: 1 },
        })
        .unwrap();
        drop(j);

        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.sessions.len(), 2);
        let s3 = &replay.sessions[&3];
        assert_eq!(s3.request, open);
        assert!(!s3.closed);
        assert_eq!(
            s3.deltas,
            vec![
                (
                    0,
                    ScenarioDelta::LinkCapacity {
                        link: 0,
                        bandwidth: 5_000_000_000,
                    }
                ),
                (1, ScenarioDelta::LinkDown { link: 1 }),
            ]
        );
        assert!(replay.sessions[&5].closed);
        let live = replay.live_sessions();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].0, 3);
        // Session ids count toward the shared id allocator, the id of the
        // dropped delta included: its open may have been quarantined.
        assert_eq!(replay.next_id(), 100);
        std::fs::remove_file(&path).ok();
    }

    /// Where the child half of the rollback test writes its journal.
    const ROLLBACK_JOURNAL_VAR: &str = "M3_SERVE_ROLLBACK_JOURNAL";

    /// Child half of `a_failed_append_is_cut_back_and_later_records_replay`,
    /// run under a file size limit: a small record fits, a large one fails
    /// part-way through its frame, and the next small record must fit again.
    #[test]
    #[ignore = "run by a_failed_append_is_cut_back_and_later_records_replay under `ulimit -f`"]
    fn append_under_a_file_size_limit() {
        let Some(path) = std::env::var_os(ROLLBACK_JOURNAL_VAR) else {
            return;
        };
        let accepted = |id| JournalRecord::Accepted {
            id,
            request: Box::new(req(id)),
            trace: None,
        };
        let mut j = Journal::create(&path).unwrap();
        j.append(&accepted(0)).unwrap();
        let large = JournalRecord::Terminal {
            id: 0,
            outcome: Box::new(JobOutcome::Shed {
                reason: "x".repeat(64 << 10),
            }),
        };
        let err = j
            .append(&large)
            .expect_err("a 64 KiB frame must exceed the limit");
        println!("large append failed: {err}");
        j.append(&accepted(1)).unwrap();
        println!("second small append ok");
    }

    /// A failed append must not leave its partial frame mid-file: recovery
    /// would read that frame's length field across the records appended
    /// after it and quarantine or truncate them, losing acknowledged work.
    /// The failure is real: a child process appends under `ulimit -f` with
    /// SIGXFSZ ignored, so `write` returns EFBIG part-way through a frame.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_append_is_cut_back_and_later_records_replay() {
        let path = tmpfile("rollback");
        let exe = std::env::current_exe().unwrap();
        let out = std::process::Command::new("sh")
            .arg("-c")
            .arg(
                "trap '' XFSZ; ulimit -f 16; exec \"$0\" --ignored --exact --nocapture \
                 journal::tests::append_under_a_file_size_limit",
            )
            .arg(&exe)
            .env(ROLLBACK_JOURNAL_VAR, &path)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("second small append ok"),
            "child failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.accepted.keys().copied().collect::<Vec<_>>(), [0, 1]);
        assert!(replay.terminal.is_empty(), "the failed record replayed");
        assert!(!replay.truncated_tail, "a partial frame was left behind");
        assert!(replay.corruption.is_none(), "{:?}", replay.corruption);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let path = tmpfile("magic");
        std::fs::write(&path, b"NOTAJRNL\x01\x00\x00\x00").unwrap();
        assert!(Journal::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    fn accepted(id: u64) -> JournalRecord {
        JournalRecord::Accepted {
            id,
            request: Box::new(req(id)),
            trace: None,
        }
    }

    fn estimate(seed: u64) -> NetworkEstimate {
        let mut est = NetworkEstimate::default();
        est.bucket_counts[0] = seed as usize;
        est.bucket_samples = vec![vec![1.0, 1.5 + seed as f64], vec![], vec![2.0], vec![]];
        est
    }

    #[test]
    fn a_completed_outcome_journals_a_decision_and_the_rest_in_full() {
        let path = tmpfile("decision");
        let completed = JobOutcome::Completed {
            estimate: estimate(3),
            attempts: 2,
        };
        let shed = JobOutcome::Shed {
            reason: "late".into(),
        };
        let decision = JournalRecord::settled(0, &completed, 0xF00D);
        assert!(Frame::encode(&decision).unwrap().0.len() < 200);
        let mut j = Journal::create(&path).unwrap();
        for record in [
            accepted(0),
            decision,
            accepted(1),
            JournalRecord::settled(1, &shed, 0xF00D),
            accepted(2),
        ] {
            j.append(&record).unwrap();
        }
        drop(j);

        let (_j, replay) = Journal::open(&path).unwrap();
        let want = Decision {
            attempts: 2,
            fingerprint: 0xF00D,
            digest: estimate(3).digest(),
        };
        assert_eq!(replay.decisions.get(&0), Some(&want));
        assert!(matches!(
            replay.terminal.get(&1),
            Some(JobOutcome::Shed { .. })
        ));
        assert_eq!(replay.settled(), 2);
        assert_eq!(replay.pending().len(), 1);
        assert_eq!(replay.pending()[0].0, 2);
        assert_eq!(replay.orphan_terminals, 0);
        std::fs::remove_file(&path).ok();
    }

    /// Byte offset of the frame holding the `n`-th record of `path`.
    fn frame_offset(path: &Path, n: usize) -> usize {
        let bytes = std::fs::read(path).unwrap();
        let mut at = HEADER_LEN;
        for _ in 0..n {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            at += 12 + len as usize;
        }
        at
    }

    #[test]
    fn orphan_terminals_are_counted_not_replayed_and_their_ids_not_reused() {
        let path = tmpfile("orphans");
        let mut j = Journal::create(&path).unwrap();
        let completed = JobOutcome::Completed {
            estimate: estimate(1),
            attempts: 1,
        };
        for record in [
            accepted(0),
            accepted(1),
            JournalRecord::settled(1, &completed, 7),
            accepted(2),
            JournalRecord::Terminal {
                id: 2,
                outcome: Box::new(JobOutcome::Shed { reason: "x".into() }),
            },
        ] {
            j.append(&record).unwrap();
        }
        drop(j);
        // Quarantine the acceptances of jobs 1 and 2, the highest ids.
        let mut bytes = std::fs::read(&path).unwrap();
        for n in [1, 3] {
            bytes[frame_offset(&path, n) + 12 + 5] ^= 0x01;
        }
        std::fs::write(&path, &bytes).unwrap();

        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.corruption.as_ref().unwrap().records_quarantined, 2);
        assert_eq!(replay.accepted.keys().copied().collect::<Vec<_>>(), [0]);
        assert!(replay.decisions.is_empty() && replay.terminal.is_empty());
        assert_eq!(replay.orphan_terminals, 2);
        assert_eq!(replay.next_id(), 3, "an orphan's id must not be reused");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(tmpfile("orphans.corrupt")).ok();
    }

    #[test]
    fn version_1_replays_and_is_upgraded_and_unknown_versions_are_refused() {
        let path = tmpfile("versions");
        let mut j = Journal::create(&path).unwrap();
        j.append(&accepted(0)).unwrap();
        drop(j);
        let set_version = |v: u32| {
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[MAGIC.len()..HEADER_LEN].copy_from_slice(&v.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
        };
        let version =
            || u32::from_le_bytes(std::fs::read(&path).unwrap()[8..12].try_into().unwrap());
        set_version(1);
        let (_j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.accepted.len(), 1);
        assert_eq!(version(), VERSION, "a v1 header was not upgraded");
        for v in [0, VERSION + 1] {
            set_version(v);
            let err = Journal::open(&path).err().unwrap();
            assert!(err.to_string().contains("journal version"), "{err}");
            assert!(read_records(&path).is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    /// Append `records` with a crash point at write-or-fsync `n`, then
    /// replay what the file holds.
    fn crash_at(n: u64, records: &[JournalRecord]) -> (JournalFaults, Replay) {
        let path = tmpfile(&format!("crash-{n}"));
        let faults = JournalFaults::fail_at(n);
        let mut j = Journal::create(&path)
            .unwrap()
            .with_faults(Some(faults.clone()));
        for (i, record) in records.iter().enumerate() {
            let ok = j.append(record).is_ok();
            assert_eq!(ok, (2 * i as u64 + 1) < n, "append {i} at crash point {n}");
        }
        drop(j);
        let (_j, replay) = Journal::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (faults, replay)
    }

    #[test]
    fn a_crash_point_fails_that_write_or_fsync_and_every_later_one() {
        let records = [accepted(0), accepted(1), accepted(2)];
        // The write of append 1 crashes: half its frame stays as a torn
        // tail; append 2 writes nothing.
        let (faults, replay) = crash_at(2, &records);
        assert!(faults.tripped());
        assert_eq!((faults.ops(), faults.appended()), (4, 1));
        assert!(replay.truncated_tail);
        assert_eq!(replay.accepted.keys().copied().collect::<Vec<_>>(), [0]);
        // The fsync of append 1 crashes: its frame was written whole, so it
        // replays though the append failed.
        let (faults, replay) = crash_at(3, &records);
        assert_eq!((faults.ops(), faults.appended()), (5, 1));
        assert!(!replay.truncated_tail);
        assert_eq!(replay.accepted.keys().copied().collect::<Vec<_>>(), [0, 1]);
        // Past the last operation nothing fails.
        let (faults, replay) = crash_at(6, &records);
        assert!(!faults.tripped());
        assert_eq!(faults.appended(), 3);
        assert_eq!(replay.accepted.len(), 3);
    }
}
