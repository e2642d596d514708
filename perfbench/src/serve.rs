//! `serve-closed-loop`: an in-process `Server::start` on its default
//! on-disk service directory, driven by two client threads that each
//! submit a seeded job mix and poll every job to a terminal state (then
//! fetch its result) before sending the next — a closed loop.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use realm_core::rng::SplitMix64;
use realm_metrics::{parse_design, ErrorSummary};
use realm_obs::Json;
use realm_serve::client::{extract_string_field, extract_u64_field, http_request};
use realm_serve::{ServeConfig, Server};

use crate::reference;
use crate::trace::{span_opt, Tracer};
use crate::util::{fresh_dir, median, percentile, secs, Outcome, SETUPS};

/// Client threads (the load comes from this one process).
pub const CLIENTS: usize = 2;
/// Jobs in one client's round; every round replays the same mix.
const JOBS_PER_ROUND: usize = 8;
/// Operand pairs of each Monte-Carlo and SLA job.
pub const MC_SAMPLES: u64 = 4096;
/// Rows of each 8-bit exhaustive job (`a ∈ [lo, lo + 63]`,
/// `b ∈ [32, 255]`).
const EXHAUSTIVE_ROWS: u64 = 64;
const EXHAUSTIVE_B: (u64, u64) = (32, 255);
/// Pause between two polls of one job (a fixed sub-millisecond
/// cadence; `client::wait_terminal` would sleep 20 ms).
const POLL_EVERY: Duration = Duration::from_micros(250);
/// A job not terminal this long after its submit started counts as
/// failed.
const JOB_DEADLINE: Duration = Duration::from_secs(2);
/// The error budget of the SLA tenant's `"auto"` jobs.
pub const SLA: &str = "mean:0.02";
const SLA_TENANT: &str = "sla";

const MC_DESIGNS: [&str; 7] = [
    "realm:m=16,t=0",
    "realm:m=8,t=3",
    "calm",
    "drum:k=6",
    "mbm:t=0",
    "scaletrim:t=6,c=1",
    "ilm:i=2",
];
const EXHAUSTIVE_DESIGNS: [&str; 4] = ["realm:m=16,t=0", "realm:m=4,t=9", "calm", "ilm:i=2"];

/// What a job asks for, for the reference check.
#[derive(Debug, Clone)]
pub enum Kind {
    MonteCarlo { design: String, seed: u64 },
    Exhaustive { design: String, a: (u64, u64) },
    Auto { seed: u64 },
}

/// One job of the mix: its submission body and what it computes.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub body: String,
    pub kind: Kind,
}

impl JobSpec {
    /// Operand pairs the job scores.
    pub fn pairs(&self) -> u64 {
        match self.kind {
            Kind::Exhaustive { .. } => EXHAUSTIVE_ROWS * (EXHAUSTIVE_B.1 - EXHAUSTIVE_B.0 + 1),
            _ => MC_SAMPLES,
        }
    }
}

fn auto_job(tenant_seed: u64) -> JobSpec {
    JobSpec {
        body: format!(
            "{{\"tenant\":\"{SLA_TENANT}\",\"error_sla\":\"{SLA}\",\"samples\":{MC_SAMPLES},\
             \"seed\":{tenant_seed}}}"
        ),
        kind: Kind::Auto { seed: tenant_seed },
    }
}

/// Client `client`'s round: per four jobs, two Monte-Carlo jobs on
/// seeded designs, one 8-bit exhaustive-range job and one `"auto"` SLA
/// job of the shared SLA tenant.
pub fn job_mix(seed: u64, client: usize) -> Vec<JobSpec> {
    let mut rng = SplitMix64::stream(seed, 100 + client as u64);
    let tenant = format!("client-{client}");
    (0..JOBS_PER_ROUND)
        .map(|j| {
            let job_seed = rng.next_u64() >> 32;
            match j % 4 {
                0 | 1 => {
                    let design = MC_DESIGNS[rng.index(MC_DESIGNS.len())].to_string();
                    JobSpec {
                        body: format!(
                            "{{\"tenant\":\"{tenant}\",\"design\":\"{design}\",\
                             \"samples\":{MC_SAMPLES},\"seed\":{job_seed}}}"
                        ),
                        kind: Kind::MonteCarlo {
                            design,
                            seed: job_seed,
                        },
                    }
                }
                2 => {
                    let design = EXHAUSTIVE_DESIGNS[rng.index(EXHAUSTIVE_DESIGNS.len())];
                    let lo = rng.range_inclusive(1, 255 - EXHAUSTIVE_ROWS + 1);
                    let a = (lo, lo + EXHAUSTIVE_ROWS - 1);
                    JobSpec {
                        body: format!(
                            "{{\"tenant\":\"{tenant}\",\"design\":\"{design}\",\
                             \"family\":\"exhaustive\",\"a\":[{},{}],\"b\":[{},{}]}}",
                            a.0, a.1, EXHAUSTIVE_B.0, EXHAUSTIVE_B.1
                        ),
                        kind: Kind::Exhaustive {
                            design: design.to_string(),
                            a,
                        },
                    }
                }
                _ => auto_job(job_seed),
            }
        })
        .collect()
}

/// A running service and its directory.
pub struct Service {
    pub server: Server,
    pub dir: PathBuf,
}

impl Service {
    /// Starts a server on a fresh directory under the run directory
    /// (the checkout's own disk file system) with `threads` workers and
    /// `threads` acceptors; each job runs on one chunk thread.
    pub fn start(threads: usize) -> Result<Service, String> {
        let dir = fresh_dir("serve").map_err(|e| format!("service directory: {e}"))?;
        let config = ServeConfig {
            dir: dir.clone(),
            workers: threads,
            http_threads: threads,
            job_threads: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
        Ok(Service { server, dir })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Drains, joins every service thread and removes the directory.
    pub fn stop(self) -> Result<(), String> {
        let result = self.server.shutdown().map_err(|e| format!("shutdown: {e}"));
        let _ = std::fs::remove_dir_all(&self.dir);
        result
    }
}

/// Starts a service and warms up the SLA tenant: its first `"auto"`
/// job loads or characterizes the QoS table during admission.
pub fn start_warm(threads: usize) -> Result<Service, String> {
    let service = Service::start(threads)?;
    match run_job(service.addr(), &auto_job(1), None) {
        JobResult::Completed { .. } => Ok(service),
        other => {
            let _ = service.stop();
            Err(format!("warm-up job did not complete: {other:?}"))
        }
    }
}

/// How one job ended, seen from the client.
#[derive(Debug)]
pub enum JobResult {
    Completed {
        latency_ms: f64,
        result: String,
    },
    /// 429: the submission was shed.
    Shed,
    /// Not terminal by the deadline with the signature of the known
    /// fault (README): the view reads `queued` with no attempt while
    /// the service's queue is empty.
    Stuck(String),
    /// Any other failure (5xx, unexpected status, transport error,
    /// not terminal by the deadline, a terminal state other than
    /// completed).
    Failed(String),
}

/// Submits one job, polls it at [`POLL_EVERY`] until a poll sees it
/// terminal (the latency ends there), then fetches its result.
pub fn run_job(addr: SocketAddr, spec: &JobSpec, tracer: Option<&Tracer>) -> JobResult {
    let (result, _) = span_opt(tracer, None, "client", "job", |job| {
        let start = Instant::now();
        let (submitted, _) = span_opt(tracer, job, "realm-serve", "POST /jobs", |_| {
            http_request(addr, "POST", "/jobs", Some(&spec.body))
        });
        let id = match submitted {
            Ok((202, body)) => match extract_u64_field(&body, "id") {
                Some(id) => id,
                None => return JobResult::Failed(format!("202 without an id: {body}")),
            },
            Ok((429, _)) => return JobResult::Shed,
            Ok((status, body)) => return JobResult::Failed(format!("submit {status}: {body}")),
            Err(e) => return JobResult::Failed(format!("submit transport: {e}")),
        };
        let path = format!("/jobs/{id}");
        let (terminal, _) = span_opt(tracer, job, "realm-serve", "queue_run", |queue_run| loop {
            let (polled, _) = span_opt(tracer, queue_run, "realm-serve", "GET /jobs/<id>", |_| {
                http_request(addr, "GET", &path, None)
            });
            match polled {
                Ok((200, body)) => {
                    let state = extract_string_field(&body, "state").unwrap_or_default();
                    if matches!(state.as_str(), "completed" | "failed" | "dead_letter") {
                        break Ok(state);
                    }
                }
                Ok((status, body)) => {
                    break Err(JobResult::Failed(format!("poll {status}: {body}")))
                }
                Err(e) => break Err(JobResult::Failed(format!("poll transport: {e}"))),
            }
            if start.elapsed() > JOB_DEADLINE {
                break Err(overdue(addr, id, &path));
            }
            std::thread::sleep(POLL_EVERY);
        });
        let latency_ms = secs(start) * 1e3;
        match terminal {
            Ok(state) if state == "completed" => {}
            Ok(state) => return JobResult::Failed(format!("job {id} ended {state}")),
            Err(e) => return e,
        }
        let (fetched, _) = span_opt(tracer, job, "realm-serve", "GET /jobs/<id>/result", |_| {
            http_request(addr, "GET", &format!("{path}/result"), None)
        });
        match fetched {
            Ok((200, result)) => JobResult::Completed { latency_ms, result },
            Ok((status, body)) => JobResult::Failed(format!("result {status}: {body}")),
            Err(e) => JobResult::Failed(format!("result transport: {e}")),
        }
    });
    result
}

/// Classifies a job not terminal by its deadline, naming what the
/// service reports so the known fault shows as such.
fn overdue(addr: SocketAddr, id: u64, path: &str) -> JobResult {
    let view = http_request(addr, "GET", path, None)
        .map(|r| r.1)
        .unwrap_or_default();
    let health = http_request(addr, "GET", "/healthz", None)
        .map(|r| r.1)
        .unwrap_or_default();
    let detail = format!(
        "job {id} not terminal after {JOB_DEADLINE:?}: view {}, healthz {}",
        view.trim(),
        health.trim()
    );
    let stuck = extract_string_field(&view, "state").as_deref() == Some("queued")
        && extract_u64_field(&view, "attempts") == Some(0)
        && extract_u64_field(&health, "queue_depth") == Some(0);
    if stuck {
        JobResult::Stuck(detail)
    } else {
        JobResult::Failed(detail)
    }
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
    /// Failures with the known fault's signature (also in `failed`).
    pub stuck: u64,
    pub pairs: u64,
    pub latencies_ms: Vec<f64>,
    /// `(index into the mix, result document)` of completed jobs.
    pub results: Vec<(usize, String)>,
    pub errors: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, error: String, stuck: bool) {
        self.failed += 1;
        self.stuck += u64::from(stuck);
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }
}

/// Runs whole rounds of `mix` until `seconds` have passed since
/// `start` (at least one round), or exactly `rounds` rounds.
pub fn run_client(
    addr: SocketAddr,
    mix: &[JobSpec],
    start: Instant,
    seconds: f64,
    rounds: Option<u64>,
    tracer: Option<&Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut done = 0u64;
    while match rounds {
        Some(n) => done < n,
        None => done == 0 || secs(start) < seconds,
    } {
        for (i, spec) in mix.iter().enumerate() {
            log.attempted += 1;
            match run_job(addr, spec, tracer) {
                JobResult::Completed { latency_ms, result } => {
                    log.latencies_ms.push(latency_ms);
                    log.pairs += spec.pairs();
                    log.results.push((i, result));
                }
                JobResult::Shed => {
                    log.failed += 1;
                    log.shed += 1;
                }
                JobResult::Stuck(e) => log.fail(e, true),
                JobResult::Failed(e) => log.fail(e, false),
            }
        }
        done += 1;
    }
    log
}

/// Runs every client on its own thread against `addr`.
pub fn run_clients(
    addr: SocketAddr,
    mixes: &[Vec<JobSpec>],
    seconds: f64,
    rounds: Option<u64>,
    tracer: Option<&Tracer>,
) -> Vec<ClientLog> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter()
            .map(|mix| scope.spawn(move || run_client(addr, mix, start, seconds, rounds, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn measure(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let mixes: Vec<Vec<JobSpec>> = (0..CLIENTS).map(|c| job_mix(seed, c)).collect();
    let mut setup_times = Vec::new();
    let mut service = None;
    for _ in 0..SETUPS {
        if let Some(previous) = service.take() {
            if let Err(e) = Service::stop(previous) {
                out.problems.push(e);
            }
        }
        let start = Instant::now();
        match start_warm(threads) {
            Ok(s) => service = Some(s),
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        }
        setup_times.push(secs(start));
    }
    let service = service.expect("at least one set-up");

    let start = Instant::now();
    let logs = run_clients(service.addr(), &mixes, seconds, None, None);
    let wall = secs(start);
    if let Err(e) = service.stop() {
        out.problems.push(e);
    }

    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.latencies_ms.clone()).collect();
    let completed = latencies.len() as u64;
    out.attempted = logs.iter().map(|l| l.attempted).sum();
    out.failed = logs.iter().map(|l| l.failed).sum();
    let shed: u64 = logs.iter().map(|l| l.shed).sum();
    let pairs: u64 = logs.iter().map(|l| l.pairs).sum();
    out.metric("setup_s", median(&setup_times), "s");
    out.metric("samples_per_s", pairs as f64 / wall, "1/s");
    out.metric("jobs_per_s", completed as f64 / wall, "1/s");
    let (p50, p90) = if latencies.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        (percentile(&latencies, 0.5), percentile(&latencies, 0.9))
    };
    out.metric("job_latency_p50_ms", p50, "ms");
    out.metric("job_latency_p90_ms", p90, "ms");
    out.note(format!(
        "serve-closed-loop: {completed} of {} jobs completed in {wall:.2} s by {CLIENTS} clients \
         ({threads} workers, {threads} acceptors, 1 chunk thread per job, poll every {POLL_EVERY:?})",
        out.attempted
    ));
    for log in &logs {
        for e in &log.errors {
            out.note(format!("  failed job: {e}"));
        }
    }
    out.check(shed == 0, || format!("{shed} submissions were shed (429)"));
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} jobs did not complete"));
    out.check(completed >= 100, || {
        format!("only {completed} jobs completed; the latency percentiles need 100")
    });
    check_results(&mut out, &mixes, &logs);
    out
}

/// A float member `{"value": …, "bits": "<hex>"}` of a result document.
fn result_f64(doc: &Json, key: &str) -> Option<f64> {
    let bits = doc.get(key)?.get("bits")?.as_str()?;
    u64::from_str_radix(bits, 16).ok().map(f64::from_bits)
}

/// Parses a result document into `(design, summary)`.
pub fn parse_result(text: &str) -> Option<(String, ErrorSummary)> {
    let doc = Json::parse(text.trim()).ok()?;
    let summary = ErrorSummary {
        samples: doc.get("samples")?.as_u64()?,
        bias: result_f64(&doc, "bias")?,
        mean_error: result_f64(&doc, "mean_error")?,
        variance: result_f64(&doc, "variance")?,
        min_error: result_f64(&doc, "min_error")?,
        max_error: result_f64(&doc, "max_error")?,
    };
    Some((doc.get("design")?.as_str()?.to_string(), summary))
}

/// The reference computation of a job's concrete spec (`design` is
/// the design the service bound for `"auto"` jobs).
pub fn reference_for(kind: &Kind, design: &str) -> Result<reference::RefStats, String> {
    let model = parse_design(design).map_err(|e| format!("result names design {design}: {e}"))?;
    Ok(match kind {
        Kind::MonteCarlo { seed, .. } | Kind::Auto { seed } => {
            reference::monte_carlo_chunk0(model.as_ref(), *seed, MC_SAMPLES)
        }
        Kind::Exhaustive { a, .. } => reference::exhaustive(model.as_ref(), *a, EXHAUSTIVE_B),
    })
}

/// Every result document against the reference computation of its
/// concrete spec (cached per distinct spec).
pub fn check_results(out: &mut Outcome, mixes: &[Vec<JobSpec>], logs: &[ClientLog]) {
    let mut cache: BTreeMap<(usize, usize, String), reference::RefStats> = BTreeMap::new();
    for (client, (mix, log)) in mixes.iter().zip(logs).enumerate() {
        for (i, text) in &log.results {
            let spec = &mix[*i];
            let Some((design, summary)) = parse_result(text) else {
                out.problems
                    .push(format!("unreadable result document: {text}"));
                continue;
            };
            let expected_design = match &spec.kind {
                Kind::MonteCarlo { design, .. } | Kind::Exhaustive { design, .. } => {
                    Some(design.as_str())
                }
                Kind::Auto { .. } => None,
            };
            if expected_design.is_some_and(|d| d != design) {
                out.problems.push(format!(
                    "job asked for {expected_design:?}, result names {design}"
                ));
                continue;
            }
            let key = (client, *i, design.clone());
            if !cache.contains_key(&key) {
                match reference_for(&spec.kind, &design) {
                    Ok(stats) => {
                        cache.insert(key.clone(), stats);
                    }
                    Err(e) => {
                        out.problems.push(e);
                        continue;
                    }
                }
            }
            if let Err(e) =
                reference::compare(&format!("job {:?}", spec.kind), &summary, &cache[&key])
            {
                out.problems.push(e);
            }
        }
    }
}
