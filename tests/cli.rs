//! End-to-end suite of the `m3` binary: `serve`, `cluster`, `session`,
//! the `example-*` templates and `estimate`'s spec check, each run as a
//! child process on tiny fat-tree specs with an untrained checkpoint.
//!
//! Every case compares the exit code, stdout and stderr with a golden file
//! under `tests/golden/cli/`, after masking what varies between runs: wall
//! times (the trailing duration of an estimate line, `elapsed_ms`,
//! `supervisor_stale_ms`, a monitor report's windowed p99 request latency)
//! and the case's temporary directory. On a mismatch the masked output is
//! written to `m3-cli-actual-<golden>.txt` in the system temp directory
//! and the panic names it; copy it over the golden file if the change is
//! intended.

use m3::core::prelude::*;
use m3::nn::prelude::{M3Net, ModelConfig};
use m3::serve::prelude::{ConfigSpec, EstimateRequest, ScenarioSpec, TopoSpec, WorkloadSpec};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const PATHS: usize = 4;

/// A per-case temporary directory holding an untrained checkpoint; removed
/// on drop.
struct Case {
    name: &'static str,
    dir: PathBuf,
}

impl Case {
    fn new(name: &'static str) -> Case {
        let dir = std::env::temp_dir().join(format!("m3-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create case dir");
        let cfg = ModelConfig {
            embed: 16,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            mlp_hidden: 32,
            ..ModelConfig::repro_default(SPEC_DIM)
        };
        m3::nn::checkpoint::save_file(&M3Net::new(cfg, 3), 3, dir.join("model.ckpt"))
            .expect("save checkpoint");
        Case { name, dir }
    }

    fn path(&self, file: &str) -> String {
        self.dir.join(file).display().to_string()
    }

    /// Write `text` to `file` in the case directory and return its path.
    fn write(&self, file: &str, text: &str) -> String {
        let path = self.path(file);
        std::fs::write(&path, text).expect("write spec");
        path
    }

    /// Run `m3 <args>` with `stdin`, returning the masked transcript.
    fn run(&self, args: &[&str], stdin: &str) -> String {
        let mut child = Command::new(env!("CARGO_BIN_EXE_m3"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn m3");
        child
            .stdin
            .take()
            .expect("stdin")
            .write_all(stdin.as_bytes())
            .expect("write stdin");
        let out = child.wait_with_output().expect("wait for m3");
        self.transcript(
            out.status.code(),
            &String::from_utf8_lossy(&out.stdout),
            &String::from_utf8_lossy(&out.stderr),
        )
    }

    fn transcript(&self, code: Option<i32>, stdout: &str, stderr: &str) -> String {
        let dir = self.dir.display().to_string();
        let text = format!("exit {code:?}\n--- stdout\n{stdout}--- stderr\n{stderr}");
        mask(&text.replace(&dir, "<dir>"))
    }

    /// Compare `actual` with `tests/golden/cli/<golden>.txt`.
    fn check(&self, golden: &str, actual: &str) {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/cli")
            .join(format!("{golden}.txt"));
        let expected = std::fs::read_to_string(&path).unwrap_or_default();
        if expected != actual {
            let out = std::env::temp_dir().join(format!("m3-cli-actual-{golden}.txt"));
            std::fs::write(&out, actual).expect("write actual transcript");
            panic!(
                "{}: output differs from {}; actual written to {}:\n{actual}",
                self.name,
                path.display(),
                out.display()
            );
        }
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Mask the run-to-run varying parts of a transcript: the wall time that
/// ends an estimate line, the numeric values of the timing fields in JSON
/// and the burn and value of a monitor report's p99-latency line.
fn mask(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let mut line = line.to_string();
        if line.trim_start().starts_with("p99-latency ") {
            let words: Vec<String> = (line.split_whitespace())
                .map(|w| match w.split_once('=') {
                    Some((key, _)) => format!("{key}=<masked>"),
                    None => w.to_string(),
                })
                .collect();
            line = format!("  {}", words.join(" "));
        }
        if line.contains("buckets p99 [") {
            if let Some(i) = line.rfind("])") {
                line.truncate(i + 2);
                line.push_str("   <time>");
            }
        }
        for key in ["\"elapsed_ms\":", "\"supervisor_stale_ms\":"] {
            if let Some(i) = line.find(key) {
                let start = i + key.len();
                let rest = &line[start..];
                let value_start = start + (rest.len() - rest.trim_start().len());
                if !line[value_start..].starts_with(|c: char| c.is_ascii_digit()) {
                    continue;
                }
                let value_end = line[value_start..]
                    .find([',', '}'])
                    .map_or(line.len(), |j| value_start + j);
                line.replace_range(value_start..value_end, "<masked>");
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn scenario(n_flows: usize) -> ScenarioSpec {
    ScenarioSpec {
        topology: TopoSpec::FatTreeSmall { oversub: 2 },
        workload: WorkloadSpec {
            n_flows,
            matrix: "B".into(),
            sizes: "WebServer".into(),
            sigma: 1.0,
            max_load: 0.4,
        },
        config: ConfigSpec::default(),
    }
}

fn requests(reqs: &[EstimateRequest]) -> String {
    serde_json::to_string(reqs).expect("serialize requests")
}

/// Two plain requests on one scenario.
fn two_requests() -> String {
    requests(&[
        EstimateRequest::new(scenario(400), PATHS, 1),
        EstimateRequest::new(scenario(400), PATHS, 2),
    ])
}

/// Three requests that fail flowSim on every path (tripping the flowSim
/// breaker), then three clean ones: two routed past the open breaker and
/// the half-open probe.
fn breaker_requests() -> String {
    let mut reqs = Vec::new();
    for i in 0..6 {
        let mut r = EstimateRequest::new(scenario(400), PATHS, 30 + i);
        if i < 3 {
            r.fault_plan = Some(FaultPlan::new(16).with(InjectedFault::FlowsimNan, 1.0));
            r.policy = Some(DegradationPolicy::FailFast);
        }
        reqs.push(r);
    }
    requests(&reqs)
}

fn session_spec(case: &Case, journal: Option<&str>, resume: bool) -> String {
    let scenario = serde_json::to_string(&scenario(400)).expect("serialize scenario");
    let body = &scenario[1..scenario.len() - 1];
    let journal = journal.map_or("null".to_string(), |j| format!("{:?}", case.path(j)));
    case.write(
        "session.json",
        &format!(
            r#"{{{body}, "paths": {PATHS}, "seed": 5, "model": {:?}, "journal": {journal}, "resume": {resume}}}"#,
            case.path("model.ckpt")
        ),
    )
}

#[test]
fn serve_runs_a_two_request_batch() {
    let case = Case::new("serve");
    let spec = case.write(
        "serve.json",
        &format!(
            r#"{{"workers": 1, "model": {:?}, "requests": {}}}"#,
            case.path("model.ckpt"),
            two_requests()
        ),
    );
    case.check("serve", &case.run(&["serve", &spec], ""));
}

#[test]
fn serve_resumes_its_journal_without_resubmitting() {
    let case = Case::new("serve-resume");
    let spec = |resume: bool| {
        case.write(
            "serve.json",
            &format!(
                r#"{{"workers": 1, "journal": {:?}, "resume": {resume}, "model": {:?}, "requests": {}}}"#,
                case.path("serve.journal"),
                case.path("model.ckpt"),
                two_requests()
            ),
        )
    };
    case.check("serve_journaled", &case.run(&["serve", &spec(false)], ""));
    case.check("serve_resumed", &case.run(&["serve", &spec(true)], ""));
}

#[test]
fn resume_without_a_journal_exits_2() {
    let case = Case::new("resume-no-journal");
    let serve = case.write(
        "serve.json",
        &format!(
            r#"{{"resume": true, "model": {:?}, "requests": {}}}"#,
            case.path("model.ckpt"),
            two_requests()
        ),
    );
    let session = session_spec(&case, None, true);
    let actual = case.run(&["serve", &serve], "") + &case.run(&["session", &session], "");
    case.check("resume_without_journal", &actual);
}

#[test]
fn serve_routes_past_an_open_breaker() {
    let case = Case::new("serve-breaker");
    let spec = case.write(
        "serve.json",
        &format!(
            r#"{{"workers": 1, "model": {:?}, "requests": {}}}"#,
            case.path("model.ckpt"),
            breaker_requests()
        ),
    );
    case.check("serve_breaker", &case.run(&["serve", &spec], ""));
}

/// A monitored batch prints the monitor's last report, and `m3 monitor`
/// renders the status file it left. The sampling interval outlasts the
/// batch, so the drain takes exactly one sample and one drift check
/// before the final one.
#[test]
fn serve_reports_its_monitor() {
    let case = Case::new("serve-monitor");
    let status = case.path("status.json");
    let spec = case.write(
        "serve.json",
        &format!(
            r#"{{"workers": 1, "model": {:?}, "monitor": {{"status_out": {status:?}, "sample_every_ms": 600000}}, "requests": {}}}"#,
            case.path("model.ckpt"),
            two_requests()
        ),
    );
    let actual = case.run(&["serve", &spec], "") + &case.run(&["monitor", &status], "");
    case.check("serve_monitor", &actual);
}

#[test]
fn cluster_runs_a_batch_on_two_shards() {
    let case = Case::new("cluster");
    let spec = case.write(
        "cluster.json",
        &format!(
            r#"{{"shards": 2, "journal_dir": {:?}, "scatter_threshold": 4, "scatter_chunk": 2, "model": {:?}, "requests": {}}}"#,
            case.path("journals"),
            case.path("model.ckpt"),
            two_requests()
        ),
    );
    case.check("cluster", &case.run(&["cluster", &spec], ""));
}

#[test]
fn cluster_reports_a_breaker_degraded_job() {
    let case = Case::new("cluster-breaker");
    let spec = case.write(
        "cluster.json",
        &format!(
            r#"{{"shards": 1, "model": {:?}, "requests": {}}}"#,
            case.path("model.ckpt"),
            breaker_requests()
        ),
    );
    case.check("cluster_breaker", &case.run(&["cluster", &spec], ""));
}

#[test]
fn session_applies_stdin_deltas() {
    let case = Case::new("session");
    let spec = session_spec(&case, None, false);
    let stdin = "# a comment\n\
                 {\"kind\":\"link_capacity\",\"link\":3,\"bandwidth\":5000000000}\n\
                 \n\
                 not a delta\n\
                 {\"kind\":\"link_down\",\"link\":99999}\n\
                 {\"kind\":\"traffic_shift\",\"num\":3,\"den\":2}\n\
                 close\n\
                 {\"kind\":\"link_down\",\"link\":3}\n";
    case.check("session", &case.run(&["session", &spec], stdin));
}

/// A journaled session killed after its first update is re-adopted, delta
/// replayed, by a run with `"resume": true`.
#[test]
fn session_resumes_its_journal() {
    let case = Case::new("session-resume");
    let spec = session_spec(&case, Some("session.journal"), false);
    let mut child = Command::new(env!("CARGO_BIN_EXE_m3"))
        .args(["session", &spec])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn m3");
    let mut stdin = child.stdin.take().expect("stdin");
    writeln!(
        stdin,
        r#"{{"kind":"link_capacity","link":3,"bandwidth":5000000000}}"#
    )
    .expect("write delta");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout")).lines();
    let mut killed = String::new();
    for _ in 0..2 {
        killed.push_str(&lines.next().expect("a result line").expect("read line"));
        killed.push('\n');
    }
    child.kill().expect("kill m3");
    child.wait().expect("reap m3");
    let resumed = session_spec(&case, Some("session.journal"), true);
    let actual = case.transcript(None, &killed, "") + &case.run(&["session", &resumed], "");
    case.check("session_resumed", &actual);
}

#[test]
fn every_example_prints_json_that_parses() {
    let case = Case::new("examples");
    let mut actual = String::new();
    for cmd in [
        "example-spec",
        "example-service-spec",
        "example-cluster-spec",
        "example-session-spec",
        "example-train-spec",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_m3"))
            .arg(cmd)
            .output()
            .expect("run m3");
        let stdout = String::from_utf8_lossy(&out.stdout);
        if let Err(e) = serde_json::from_str::<serde_json::Value>(&stdout) {
            panic!("m3 {cmd} printed JSON that does not parse ({e}):\n{stdout}");
        }
        actual.push_str(&format!("==> {cmd}\n"));
        actual.push_str(&case.transcript(
            out.status.code(),
            &stdout,
            &String::from_utf8_lossy(&out.stderr),
        ));
    }
    case.check("examples", &actual);
}

/// A misspelt method fails the spec before any estimator runs: no `m3:`
/// line reaches stdout.
#[test]
fn estimate_checks_every_method_before_running_the_first() {
    let case = Case::new("estimate-methods");
    let scenario = serde_json::to_string(&scenario(400)).expect("serialize scenario");
    let body = &scenario[1..scenario.len() - 1];
    let spec = case.write(
        "spec.json",
        &format!(
            r#"{{{body}, "methods": ["m3", "typo"], "paths": {PATHS}, "model": {:?}}}"#,
            case.path("model.ckpt")
        ),
    );
    let actual = case.run(&["estimate", &spec], "");
    assert!(
        !actual.lines().any(|l| l.trim_start().starts_with("m3:")),
        "an estimator ran before the spec was checked:\n{actual}"
    );
    case.check("estimate_unknown_method", &actual);
}
