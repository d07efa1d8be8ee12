//! `service`: a `ruche-sim serve` daemon on a Unix socket with one pool
//! worker and a private store, loaded by two closed-loop clients.

use crate::check;
use crate::probe;
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb_of, quantile, Rng, Scratch};
use crate::{Metrics, Workload};
use ruche::bench::ResultStore;
use ruche::noc::prelude::*;
use ruche::service::proto::{parse_request, render_done, render_job_result};
use ruche::service::{respond, Bind, Client, Engine};
use ruche::telemetry::json::{parse, Json};
use ruche::traffic::{Pattern, SweepRequest, TbResult, Testbench};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Distinct jobs the store is warmed with; batches repeat them.
const POOL: usize = 16;
/// Jobs per batch: one fresh job plus repeats from the pool.
const BATCH: usize = 8;
/// Batches each client sends per round.
const STEPS: usize = 12;
/// Every `SHARED`-th step both clients send the same fresh job at once.
const SHARED: usize = 3;

/// Job `idx` of the store's repeat pool: a Figure 6 network on 8×8
/// (cycling through the set), uniform-random or transpose traffic at a
/// light-to-medium load. The seed draws only the traffic's random stream,
/// so every seed asks for the same amount of work.
fn job(idx: usize, rng: &mut Rng) -> SweepRequest {
    let cfgs = ruche_verify::grid::full_network_configs(Dims::new(8, 8));
    let cfg = cfgs[idx % cfgs.len()].clone();
    let pattern = [Pattern::UniformRandom, Pattern::Transpose][(idx / cfgs.len()) % 2];
    let rate = [0.05, 0.10, 0.15][idx % 3];
    testbench_job(cfg, pattern, rate, rng)
}

/// A fresh job: Full Ruche RF2 depopulated on 8×8, uniform random at
/// 0.10, with its own traffic stream. Fresh jobs are all of one network,
/// pattern and rate, so the requests that carry them are like-sized and
/// a request percentile measures the service rather than the job mix: a
/// mix whose costs differ by 3× puts the 95th percentile on the edge of
/// whichever slow job makes up about 5 % of the requests.
fn fresh_job(rng: &mut Rng) -> SweepRequest {
    let cfg = NetworkConfig::full_ruche(Dims::new(8, 8), 2, CrossbarScheme::Depopulated);
    testbench_job(cfg, Pattern::UniformRandom, 0.10, rng)
}

fn testbench_job(cfg: NetworkConfig, pattern: Pattern, rate: f64, rng: &mut Rng) -> SweepRequest {
    let tb = Testbench::builder(pattern, rate)
        .quick()
        .seed(rng.seed())
        .build()
        .expect("service testbench is valid");
    SweepRequest::new(cfg, tb)
}

fn batch_line(jobs: &[&SweepRequest]) -> String {
    Json::Obj(vec![(
        "jobs".into(),
        Json::Arr(jobs.iter().map(|j| j.to_wire()).collect()),
    )])
    .render()
}

struct Request {
    line: String,
    lines: Vec<String>,
    ms: f64,
}

pub struct Service {
    scratch: Scratch,
    seed: u64,
    child: Option<Child>,
    clients: Vec<Client>,
    pool: Vec<SweepRequest>,
    warm_line: String,
    offline: Engine,
    rounds: u64,
    last: Vec<Request>,
    latencies_ms: Vec<f64>,
    work_requests: u64,
    work_jobs: u64,
}

/// Starts the daemon: this very binary running the `ruche-sim serve`
/// entry point (`ruche::serve::dispatch`), with its results directory in
/// the run's scratch space.
fn spawn_daemon(scratch: &Scratch) -> Result<(Child, Bind), String> {
    let sock = scratch.path().join("d.sock");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .arg("__serve")
        .arg("--unix")
        .arg(&sock)
        .args(["--threads", "1"])
        .env("RUCHE_RESULTS_DIR", scratch.path().join("results"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
    Ok((child, Bind::unix(sock)))
}

fn connect(bind: &Bind) -> Result<Client, String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match Client::connect(bind) {
            Ok(mut c) => {
                if c.ping().unwrap_or(false) {
                    return Ok(c);
                }
            }
            Err(_) if Instant::now() < deadline => {}
            Err(e) => return Err(format!("daemon did not come up: {e}")),
        }
        if Instant::now() >= deadline {
            return Err("daemon did not answer a ping".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

pub fn setup(seed: u64, tr: Option<&Tracer>) -> Result<Service, String> {
    let scratch = Scratch::new("service");
    let (mut child, bind) = spawn_daemon(&scratch)?;
    let clients = match (connect(&bind), connect(&bind)) {
        (Ok(a), Ok(b)) => vec![a, b],
        (a, b) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(a.err().or(b.err()).unwrap_or_default());
        }
    };
    let mut rng = Rng::new(seed);
    let pool: Vec<SweepRequest> = (0..POOL).map(|i| job(i, &mut rng)).collect();
    let warm_line = batch_line(&pool.iter().collect::<Vec<_>>());
    let offline_store = ResultStore::open(scratch.path().join("offline"));
    let mut s = Service {
        scratch,
        seed,
        child: Some(child),
        clients,
        pool,
        warm_line,
        offline: Engine::new(1).with_store(Arc::new(offline_store)),
        rounds: 0,
        last: Vec::new(),
        latencies_ms: Vec::new(),
        work_requests: 0,
        work_jobs: 0,
    };
    let warm = probe::span(tr, "service.warm", None, 0, || {
        s.clients[0].submit(&s.warm_line)
    });
    match warm {
        Ok(lines) if lines.last() == Some(&render_done(POOL)) => Ok(s),
        _ => {
            s.finish();
            Err("store warm-up failed".into())
        }
    }
}

impl Service {
    /// The request lines of round `round`, per client.
    fn lines(&self, round: u64) -> [Vec<String>; 2] {
        let mut out: [Vec<String>; 2] = Default::default();
        for k in 0..STEPS {
            let stream = |c: u64| Rng::new(self.seed ^ (round << 32) ^ ((k as u64) << 8) ^ c);
            let shared_job = fresh_job(&mut stream(0));
            for (c, lines) in out.iter_mut().enumerate() {
                let mut rng = stream(c as u64 + 1);
                let fresh = if k % SHARED == 0 {
                    shared_job.clone()
                } else {
                    fresh_job(&mut rng)
                };
                let mut jobs: Vec<&SweepRequest> = (1..BATCH)
                    .map(|_| &self.pool[rng.below(POOL as u64) as usize])
                    .collect();
                jobs.insert(rng.below(BATCH as u64) as usize, &fresh);
                lines.push(batch_line(&jobs));
            }
        }
        out
    }

    fn stop_daemon(&mut self) {
        if let Some(c) = self.clients.first_mut() {
            let _ = c.shutdown();
        }
        self.clients.clear();
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(20);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Workload for Service {
    fn round(&mut self, tr: Option<(&Tracer, u64)>) -> (u64, u64) {
        self.rounds += 1;
        let lines = self.lines(self.rounds);
        let barrier = Barrier::new(2);
        let results: Vec<Vec<Result<Request, String>>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&lines)
                .enumerate()
                .map(|(c, (client, mine))| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for (k, line) in mine.iter().enumerate() {
                            if k % SHARED == 0 {
                                barrier.wait();
                            }
                            let req = (c * STEPS + k) as u64;
                            let t = Instant::now();
                            let got = match tr {
                                Some((tr, region)) => {
                                    tr.span("service.request", Some(region), req, |_| {
                                        client.submit(line)
                                    })
                                }
                                None => client.submit(line),
                            };
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            out.push(got.map_err(|e| e.to_string()).map(|lines| Request {
                                line: line.clone(),
                                lines,
                                ms,
                            }));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut failed = 0;
        self.last.clear();
        for r in results.into_iter().flatten() {
            match r {
                Ok(r) => {
                    self.latencies_ms.push(r.ms);
                    self.last.push(r);
                }
                Err(_) => failed += 1,
            }
        }
        ((2 * STEPS) as u64, failed)
    }

    fn check(&mut self) -> Vec<String> {
        // The offline renderings of the round's lines, each client's half
        // on its own thread so that checking takes no longer than the round.
        let engine = &self.offline;
        let render = |part: &[Request]| -> Vec<Vec<String>> {
            part.iter()
                .map(|r| {
                    let mut lines = Vec::new();
                    respond(engine, &r.line, &mut |l| lines.push(l.to_string()));
                    lines
                })
                .collect()
        };
        let (first, second) = self.last.split_at(self.last.len() / 2);
        let offline: Vec<Vec<String>> = std::thread::scope(|s| {
            let other = s.spawn(move || render(second));
            let mut all = render(first);
            all.extend(other.join().expect("offline render thread"));
            all
        });
        let mut bad = Vec::new();
        for (i, (r, offline)) in self.last.iter().zip(&offline).enumerate() {
            let label = format!("round {} request {i}", self.rounds);
            if r.lines.last() != Some(&render_done(BATCH)) {
                bad.push(format!(
                    "{label}: batch did not end in {}",
                    render_done(BATCH)
                ));
            }
            if r.lines.iter().any(|l| l.contains("\"error\"")) {
                bad.push(format!("{label}: error line"));
            }
            bad.extend(check::check_lines(&label, &r.lines, offline));
            self.work_requests += 1;
            self.work_jobs += BATCH as u64;
        }
        bad
    }

    fn work(&self) -> Vec<(&'static str, u64)> {
        vec![("requests", self.work_requests), ("jobs", self.work_jobs)]
    }

    fn op_ms(&self) -> &[f64] {
        &self.latencies_ms
    }

    fn peak_rss_mb(&self) -> f64 {
        self.child.as_ref().map_or(0.0, |c| peak_rss_mb_of(c.id()))
    }

    fn probes(&mut self, tr: &Tracer, m: &mut Metrics) {
        let metrics = self.clients[0].metrics().unwrap_or_default();
        let counters = parse(&metrics).ok();
        for (name, key) in [
            ("service.store_hits", "store_hits"),
            ("service.inflight_joins", "inflight_joins"),
            ("service.simulated", "simulated"),
        ] {
            let v = counters
                .as_ref()
                .and_then(|j| j.get("metrics"))
                .and_then(|j| j.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            m.push(name, v as f64, "count");
        }
        // Wire codec costs on the traced round's own lines.
        for (i, r) in self.last.iter().enumerate() {
            let _ = tr.span("service.decode", None, i as u64, |_| parse_request(&r.line));
            for (j, l) in r.lines.iter().enumerate() {
                let Some(res) = parse(l)
                    .ok()
                    .and_then(|v| v.get("result").and_then(|x| TbResult::from_wire(x).ok()))
                else {
                    continue;
                };
                tr.span("service.encode", None, i as u64, |_| {
                    render_job_result(j, &res)
                });
            }
        }
        m.push(
            "service.decode_us",
            median(&tr.durations("service.decode")) / 1e3,
            "us",
        );
        m.push(
            "service.encode_us",
            median(&tr.durations("service.encode")) / 1e3,
            "us",
        );
        // The same lines answered in process, against a store warmed the
        // same way.
        let store = Arc::new(ResultStore::open(self.scratch.path().join("replay")));
        let engine = Engine::new(1).with_store(store.clone());
        respond(&engine, &self.warm_line, &mut |_| {});
        for (i, r) in self.last.iter().enumerate() {
            tr.span("service.respond", None, i as u64, |_| {
                respond(&engine, &r.line, &mut |_| {})
            });
        }
        for (i, j) in self.pool.iter().enumerate() {
            let key = format!("{}|{}", ruche::bench::sweep::MODEL_VERSION, j.cache_key());
            let hit = tr.span("store.get", None, i as u64, |_| store.get(&key));
            debug_assert!(hit.is_some());
        }
        let respond_ms: Vec<f64> = tr
            .durations("service.respond")
            .iter()
            .map(|d| d / 1e6)
            .collect();
        let client_ms: Vec<f64> = tr
            .durations("service.request")
            .iter()
            .map(|d| d / 1e6)
            .collect();
        m.push("service.respond_ms_p50", quantile(&respond_ms, 0.5), "ms");
        m.push("service.respond_ms_p95", quantile(&respond_ms, 0.95), "ms");
        m.push(
            "service.transport_ms_p50",
            quantile(&client_ms, 0.5) - quantile(&respond_ms, 0.5),
            "ms",
        );
        m.push(
            "store.get_us_p50",
            median(&tr.durations("store.get")) / 1e3,
            "us",
        );
    }

    fn finish(&mut self) {
        self.stop_daemon();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_daemon();
    }
}
