//! End-to-end and per-layer benchmark of the ruche workspace.
//!
//! ```sh
//! python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` runs one workload and prints its end-to-end metrics;
//! `--trace 1` runs a traced round of every workload and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! 1 when a check or an operation failed. See README.md.

mod check;
mod manycore;
mod paper;
mod probe;
mod service;
mod sparse;
mod trace;
mod util;

use ruche::telemetry::json::Json;
use std::io::Write as _;
use std::process::Command;
use std::time::Instant;
use trace::Tracer;
use util::median;

/// Hypervisor steal time when the run started (see [`util::steal_s`]).
static STEAL_AT_START: std::sync::OnceLock<f64> = std::sync::OnceLock::new();

/// The workloads, in the order the traced run visits them.
const WORKLOADS: [&str; 4] = ["paper-sweep", "sparse-4k", "manycore", "service"];

/// Metrics by name, with their units, in the order they were pushed.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric; counts pushed twice under one name are summed.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) if unit == "count" => m.1 += value,
            Some(m) => m.1 = value,
            None => self.0.push((name.to_string(), value, unit)),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    let m = vec![
                        ("value".into(), num(*v)),
                        ("unit".into(), Json::Str(u.to_string())),
                    ];
                    (n.clone(), Json::Obj(m))
                })
                .collect(),
        )
    }
}

/// A number for the output; the benchmark never produces a non-finite
/// one, and JSON has no token for it.
fn num(x: f64) -> Json {
    Json::F64(if x.is_finite() { x } else { 0.0 })
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| num(x)).collect())
}

/// One workload between setup and teardown.
pub trait Workload {
    /// Runs one round of the workload's fixed work, traced when given a
    /// tracer and the region span to hang its spans under. Returns the
    /// operations attempted and failed.
    fn round(&mut self, tr: Option<(&Tracer, u64)>) -> (u64, u64);
    /// Checks the last round's outputs; returns the violations.
    fn check(&mut self) -> Vec<String>;
    /// Deterministic work counts so far.
    fn work(&self) -> Vec<(&'static str, u64)>;
    /// Layer probes of the traced run.
    fn probes(&mut self, tr: &Tracer, m: &mut Metrics);
    /// Host time of every operation so far, in milliseconds: as a client
    /// sees it for `service`, from outside the call for the others, whose
    /// rounds record their operations in the same order every round.
    fn op_ms(&self) -> &[f64];
    /// Peak resident set of the process that runs the program.
    fn peak_rss_mb(&self) -> f64 {
        util::peak_rss_mb()
    }
    /// Stops what the workload started.
    fn finish(&mut self) {}
}

fn setup(name: &str, seed: u64, tr: Option<&Tracer>) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper-sweep" => Box::new(paper::setup(seed, tr)?),
        "sparse-4k" => Box::new(sparse::setup(seed, tr)?),
        "manycore" => Box::new(manycore::setup(seed, tr)?),
        "service" => Box::new(service::setup(seed, tr)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Fewest requests over which `service` takes a request percentile.
const REQUEST_BLOCK: usize = 200;

/// Nominal length of one round. A run executes `ceil(seconds / nominal)`
/// rounds, so every run of a workload does the same work whatever the
/// host's speed at the time; `service` depends on this most, since its
/// store grows with every round. At `--seconds 10` the three long
/// workloads do three rounds, whose median damps one slow round.
fn nominal_round_s(name: &str) -> f64 {
    match name {
        "paper-sweep" | "sparse-4k" | "manycore" => 4.0,
        _ => 0.1,
    }
}

/// Set-ups measured per run (this process plus fresh child processes),
/// whose median is `setup_s`: more where a set-up is short and noisy.
/// `sparse-4k` sets up twice: one set-up is a single build of about 15 s,
/// and a third would add another 15 s to every run.
fn setup_samples(name: &str) -> usize {
    match name {
        "sparse-4k" => 2,
        _ => 5,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !a.trace && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

fn main() {
    let start = Instant::now();
    STEAL_AT_START.get_or_init(util::steal_s);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("__serve") {
        // The daemon child: exactly what `ruche-sim serve` runs.
        std::process::exit(ruche::serve::dispatch("serve", &argv[1..]));
    }
    if let Some((k, _)) = std::env::vars().find(|(k, _)| k.starts_with("RUCHE_")) {
        eprintln!("perfbench: refusing to run with {k} set; it would change the engine measured");
        std::process::exit(2);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = if args.setup_only {
        setup_only(&args, start)
    } else if args.trace {
        traced(&args)
    } else {
        untraced(&args, start)
    };
    std::process::exit(code);
}

fn setup_only(args: &Args, start: Instant) -> i32 {
    match setup(&args.workload, args.seed, None) {
        Ok(mut w) => {
            let s = start.elapsed().as_secs_f64();
            w.finish();
            println!("{s}");
            0
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            1
        }
    }
}

/// Measures one more set-up in a fresh process.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(String::from_utf8_lossy(&out.stderr).into_owned());
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up child: {e}"))
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Outcome {
    fn take(&mut self, (a, f): (u64, u64), errors: Vec<String>) {
        self.attempted += a;
        self.failed += f;
        self.errors.extend(errors);
    }
}

fn untraced(args: &Args, start: Instant) -> i32 {
    let mut w = match setup(&args.workload, args.seed, None) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return 1;
        }
    };
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let mut out = Outcome::default();
    let mut rounds = Vec::new();
    let n_rounds = (args.seconds / nominal_round_s(&args.workload))
        .ceil()
        .max(1.0) as usize;
    while rounds.len() < n_rounds {
        let t = Instant::now();
        let done = w.round(None);
        rounds.push(t.elapsed().as_secs_f64());
        out.take(done, w.check());
    }
    let mut m = Metrics::default();
    m.push("wall_s", median(&rounds), "s");
    m.push("peak_rss_mb", w.peak_rss_mb(), "MiB");
    let (p50, p95) = match args.workload.as_str() {
        // Service requests are like-sized. Each percentile is taken over
        // blocks of at least 200 requests in the order they were made, and
        // the median block is reported, so that a burst of load from other
        // tenants over one block does not set it.
        "service" => {
            let ops = w.op_ms();
            let size = ops.len() / (ops.len() / REQUEST_BLOCK).max(1);
            let q = |p: f64| {
                let per: Vec<f64> = ops
                    .chunks_exact(size.max(1))
                    .map(|b| util::quantile(b, p))
                    .collect();
                median(&per)
            };
            (q(0.5), q(0.95))
        }
        // The other workloads' operations differ in size by 10× or more;
        // each one's median over the rounds goes in, so that one slow
        // instance does not become the tail.
        _ => {
            let ops = util::per_op_medians(w.op_ms(), rounds.len());
            (util::quantile(&ops, 0.5), util::quantile(&ops, 0.95))
        }
    };
    m.push("request_p50_ms", p50, "ms");
    m.push("request_p95_ms", p95, "ms");
    let work = w.work();
    w.finish();
    drop(w);
    for _ in 1..setup_samples(&args.workload) {
        match child_setup(args) {
            Ok(s) => setups.push(s),
            Err(e) => {
                eprintln!("perfbench: set-up child failed: {e}");
                return 1;
            }
        }
    }
    m.push("setup_s", median(&setups), "s");
    let mut fields = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::U64(args.seed)),
        ("round_s".into(), nums(&rounds)),
        ("setup_samples_s".into(), nums(&setups)),
    ];
    fields.extend(
        work.iter()
            .map(|(k, v)| (format!("work.{k}"), Json::U64(*v))),
    );
    emit(fields, &out, &m)
}

/// Prints the provenance line, the violations, and the result line;
/// returns the exit code, 1 when a check failed or an operation failed.
fn emit(mut fields: Vec<(String, Json)>, out: &Outcome, m: &Metrics) -> i32 {
    for e in out.errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    let steal = util::steal_s() - STEAL_AT_START.get().copied().unwrap_or(0.0);
    let mut prov: Vec<(String, Json)> = util::provenance()
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::Str(v)))
        .collect();
    prov.append(&mut fields);
    prov.push(("host_steal_s".into(), num(steal)));
    prov.push(("attempted".into(), Json::U64(out.attempted)));
    prov.push(("failed".into(), Json::U64(out.failed)));
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.errors.is_empty())),
        ("attempted".into(), Json::U64(out.attempted)),
        ("failed".into(), Json::U64(out.failed)),
        ("metrics".into(), m.to_json()),
    ]);
    let stdout = std::io::stdout();
    let mut o = stdout.lock();
    let _ = writeln!(
        o,
        "{}",
        Json::Obj(vec![("provenance".into(), Json::Obj(prov))]).render()
    );
    let _ = writeln!(o, "{}", result.render());
    let _ = o.flush();
    i32::from(!out.errors.is_empty() || out.failed > 0)
}

/// The traced run: for every workload, set-up under spans, one untraced
/// and one traced round of the same work, then its layer probes.
fn traced(args: &Args) -> i32 {
    let tr = Tracer::default();
    let mut m = Metrics::default();
    let mut out = Outcome::default();
    let mut plain_s = 0.0;
    let mut traced_s = 0.0;
    let mut regions = Vec::new();
    let mut fields = vec![("seed".to_string(), Json::U64(args.seed))];
    for name in WORKLOADS {
        let mut w = match tr.span("perfbench.setup", None, 0, |_| {
            setup(name, args.seed, Some(&tr))
        }) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("perfbench: {name} set-up failed: {e}");
                return 1;
            }
        };
        let t = Instant::now();
        let done = w.round(None);
        plain_s += t.elapsed().as_secs_f64();
        out.take(done, w.check());
        let region = tr.alloc();
        let (s, t) = (tr.now_ns(), Instant::now());
        let done = w.round(Some((&tr, region)));
        traced_s += t.elapsed().as_secs_f64();
        tr.push(region, None, 0, "perfbench.region", s, tr.now_ns());
        regions.push((name, region));
        out.take(done, w.check());
        w.probes(&tr, &mut m);
        fields.extend(
            w.work()
                .iter()
                .map(|(k, v)| (format!("work.{name}.{k}"), Json::U64(*v))),
        );
        w.finish();
    }
    let cold: f64 = tr.durations("noc.new_cold").iter().sum();
    m.push("noc.build_cold_s", cold / 1e9, "s");
    m.push(
        "verify.config_ms",
        median(&tr.durations("verify.verify")) / 1e6,
        "ms",
    );
    m.push("trace.overhead_x", traced_s / plain_s, "ratio");
    if let Some(p16) =
        m.0.iter()
            .find(|x| x.0 == "noc.step_ns_per_hop")
            .map(|x| x.1)
    {
        if let Some(p64) =
            m.0.iter()
                .find(|x| x.0 == "noc.step_ns_per_hop_64x64")
                .map(|x| x.1)
        {
            m.push("noc.hop_cost_ratio_64_16", p64 / p16, "ratio");
        }
    }
    let spans = tr.spans();
    let shares = Json::Obj(
        regions
            .iter()
            .map(|&(name, region)| {
                let a = trace::attribute(&spans, region);
                let layers = a.into_iter().map(|(l, ns)| (l, num(ns / 1e9))).collect();
                (name.to_string(), Json::Obj(layers))
            })
            .collect(),
    );
    let path = write_trace(args.seed, &spans, &shares);
    fields.push(("trace_file".into(), Json::Str(path)));
    fields.push(("self_time_s".into(), shares));
    emit(fields, &out, &m)
}

/// Writes every span (parent 0 marks a root), and each region's self time
/// per layer, to `.perfbench/traces/`; returns the file's path.
fn write_trace(seed: u64, spans: &[trace::Span], shares: &Json) -> String {
    let dir = std::path::Path::new(".perfbench").join("traces");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("trace-{seed}.json"));
    let rows = spans
        .iter()
        .map(|x| {
            Json::Obj(vec![
                ("id".into(), Json::U64(x.id)),
                ("parent".into(), Json::U64(x.parent.unwrap_or(0))),
                ("req".into(), Json::U64(x.req)),
                ("name".into(), Json::Str(x.name.clone())),
                ("start_ns".into(), Json::U64(x.start_ns)),
                ("end_ns".into(), Json::U64(x.end_ns)),
            ])
        })
        .collect();
    let body = Json::Obj(vec![
        ("self_time_s".into(), shares.clone()),
        ("spans".into(), Json::Arr(rows)),
    ]);
    if let Err(e) = std::fs::write(&path, body.render() + "\n") {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    path.display().to_string()
}
