//! `paper-sweep`: a cold sweep of the paper's synthetic-traffic points
//! through `SweepRunner` into a fresh, empty `ResultStore`.

use crate::check::{self, PointSpec};
use crate::probe;
use crate::trace::Tracer;
use crate::util::{median, Rng, Scratch};
use crate::{Metrics, Workload};
use ruche::bench::{ResultStore, SweepJob, SweepRunner};
use ruche::noc::fault::FaultModel;
use ruche::noc::prelude::*;
use ruche::traffic::{Pattern, TbResult, Testbench};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rates of the Figure 6 uniform-random curves; 1.0 reads saturation.
const FIG6_UR_RATES: [f64; 4] = [0.02, 0.10, 0.30, 1.0];
/// Rates of the Figure 6 transpose curves.
const FIG6_TR_RATES: [f64; 3] = [0.02, 0.10, 0.30];
/// Rates of the Figure 9 curves (uniform random and tile-to-memory).
const FIG9_RATES: [f64; 3] = [0.02, 0.10, 1.0];
/// Link-fault probabilities of the degradation slice.
const FAULT_RATES: [f64; 2] = [0.05, 0.10];
/// Offered loads of the degradation slice: the lower one stays below the
/// saturation of every faulted network (up*/down* detours saturate a 16×16
/// mesh with 10% of its links dead near 0.03), the higher one need not.
const FAULT_LOADS: [f64; 2] = [0.01, 0.05];

struct Point {
    spec: PointSpec,
    /// Index of the curve (config, pattern) the point belongs to.
    curve: usize,
    /// Saturation point of its curve (rate 1.0).
    sat: bool,
    /// Figure 6 uniform-random saturation ordering: `Some(true)` for
    /// mesh, `Some(false)` for torus and every Full Ruche network.
    order: Option<bool>,
}

pub struct Paper {
    jobs: Vec<SweepJob>,
    points: Vec<Point>,
    configs: Vec<NetworkConfig>,
    threads: usize,
    scratch: Scratch,
    rounds: usize,
    last: Vec<TbResult>,
    /// The last round's store, which the store probes read.
    store: Option<Arc<ResultStore>>,
    store_dir: Option<PathBuf>,
    work_points: u64,
    work_delivered: u64,
    op_ms: Vec<f64>,
}

/// Builds the job list; `seed` draws every traffic and fault seed.
fn jobs(seed: u64) -> (Vec<SweepJob>, Vec<Point>) {
    let mut rng = Rng::new(seed);
    let mut jobs = Vec::new();
    let mut points = Vec::new();
    let mut curve = 0usize;
    let d16 = Dims::new(16, 16);
    let quick = |pattern: Pattern, rate: f64, seed: u64| {
        Testbench::builder(pattern, rate)
            .quick()
            .seed(seed)
            .build()
            .expect("sweep testbench is valid")
    };
    let mut add_curve = |cfg: &NetworkConfig,
                         pattern: Pattern,
                         rates: &[f64],
                         order: Option<bool>,
                         rng: &mut Rng| {
        let mut run_cfg = cfg.clone();
        if pattern.needs_edge_ports() {
            run_cfg.edge_memory_ports = true;
        }
        let none = FaultModel::default();
        let share = check::active_share(&run_cfg, pattern, &none);
        let hops = check::min_hops(&run_cfg, pattern);
        for (k, &rate) in rates.iter().enumerate() {
            let tb = quick(pattern, rate, rng.seed());
            points.push(Point {
                spec: PointSpec {
                    label: format!("{} {} {rate}", cfg.label(), pattern.name()),
                    tiles: cfg.dims.count(),
                    rate,
                    measure: tb.measure,
                    faulted: false,
                    share,
                    hops,
                    below_saturation: k == 0,
                    lowest: k == 0,
                },
                curve,
                sat: rate >= 1.0,
                order: order.filter(|_| rate >= 1.0),
            });
            jobs.push(SweepJob::new(cfg.clone(), tb));
        }
        curve += 1;
    };
    for cfg in ruche_verify::grid::full_network_configs(d16) {
        let order = match cfg.topology {
            TopologyKind::Mesh => Some(true),
            TopologyKind::Torus { .. } | TopologyKind::Ruche { .. } => Some(false),
            _ => None,
        };
        add_curve(
            &cfg,
            Pattern::UniformRandom,
            &FIG6_UR_RATES,
            order,
            &mut rng,
        );
        add_curve(&cfg, Pattern::Transpose, &FIG6_TR_RATES, None, &mut rng);
    }
    for cfg in ruche_verify::grid::half_network_configs(Dims::new(16, 8)) {
        add_curve(&cfg, Pattern::UniformRandom, &FIG9_RATES, None, &mut rng);
        add_curve(&cfg, Pattern::TileToMemory, &FIG9_RATES, None, &mut rng);
    }
    for base in [
        NetworkConfig::mesh(d16),
        NetworkConfig::half_ruche(d16, 2, CrossbarScheme::Depopulated),
        NetworkConfig::full_ruche(d16, 2, CrossbarScheme::Depopulated),
    ] {
        for p in FAULT_RATES {
            let faults = FaultModel::random_links(&base, p, rng.seed());
            let share = check::active_share(&base, Pattern::UniformRandom, &faults);
            for (k, load) in FAULT_LOADS.into_iter().enumerate() {
                let tb = Testbench {
                    faults: faults.clone(),
                    ..quick(Pattern::UniformRandom, load, rng.seed())
                };
                points.push(Point {
                    spec: PointSpec {
                        label: format!("{} faults {p} load {load}", base.label()),
                        tiles: base.dims.count(),
                        rate: load,
                        measure: tb.measure,
                        faulted: true,
                        share,
                        hops: (0.0, 0.0),
                        below_saturation: k == 0,
                        lowest: false,
                    },
                    curve: usize::MAX,
                    sat: false,
                    order: None,
                });
                jobs.push(SweepJob::new(base.clone(), tb));
            }
        }
    }
    (jobs, points)
}

/// Distinct network configurations of a job list, as the runs build them.
pub fn distinct_configs(jobs: &[SweepJob]) -> Vec<NetworkConfig> {
    let mut out: Vec<NetworkConfig> = Vec::new();
    for j in jobs {
        let mut cfg = j.cfg.clone();
        if j.tb.pattern.needs_edge_ports() {
            cfg.edge_memory_ports = true;
        }
        if !out.contains(&cfg) {
            out.push(cfg);
        }
    }
    out
}

/// Verifies every configuration (when `verify` is set, as the sweep
/// harness and the daemon do) and builds each once, so crossbar
/// derivation happens here and not in the timed rounds.
pub fn preflight(
    configs: &[NetworkConfig],
    verify: bool,
    tr: Option<&Tracer>,
) -> Result<(), String> {
    for (i, cfg) in configs.iter().enumerate() {
        if verify {
            let report = probe::span(tr, "verify.verify", None, i as u64, || {
                ruche_verify::verify(cfg)
            });
            if report.has_errors() {
                return Err(format!("{}: verifier reports errors", cfg.label()));
            }
        }
        probe::span(tr, "noc.new_cold", None, i as u64, || {
            Network::new(cfg.clone())
        })
        .map_err(|e| format!("{}: {e}", cfg.label()))?;
    }
    Ok(())
}

pub fn setup(seed: u64, tr: Option<&Tracer>) -> Result<Paper, String> {
    let (jobs, points) = jobs(seed);
    let configs = distinct_configs(&jobs);
    preflight(&configs, true, tr)?;
    Ok(Paper {
        jobs,
        points,
        configs,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        scratch: Scratch::new("paper-sweep"),
        rounds: 0,
        last: Vec::new(),
        store: None,
        store_dir: None,
        work_points: 0,
        work_delivered: 0,
        op_ms: Vec::new(),
    })
}

/// Completion timestamps of a sweep's points, taken in the sink.
#[derive(Default)]
struct Completions(Mutex<Vec<(std::thread::ThreadId, usize, Instant)>>);

impl Completions {
    fn sink(&self, i: usize) {
        let t = Instant::now();
        self.0
            .lock()
            .expect("sink lock")
            .push((std::thread::current().id(), i, t));
    }

    /// `(point, start, end)` of every point. Each worker finishes its
    /// points back to back: a point runs from its worker's previous
    /// completion (or the sweep's start) to its own.
    fn intervals(self, start: Instant) -> Vec<(usize, Instant, Instant)> {
        let mut done = self.0.into_inner().expect("sink lock");
        done.sort_by_key(|&(_, _, t)| t);
        let mut last: Vec<(std::thread::ThreadId, Instant)> = Vec::new();
        let mut out = Vec::new();
        for (th, i, t) in done {
            let from = match last.iter_mut().find(|(id, _)| *id == th) {
                Some(slot) => std::mem::replace(&mut slot.1, t),
                None => {
                    last.push((th, t));
                    start
                }
            };
            out.push((i, from, t));
        }
        out
    }
}

impl Workload for Paper {
    fn round(&mut self, tr: Option<(&Tracer, u64)>) -> (u64, u64) {
        self.rounds += 1;
        let dir = self.scratch.path().join(format!("store-{}", self.rounds));
        let store = Arc::new(ResultStore::open(&dir));
        let mut runner = SweepRunner::uncached(self.threads).with_store(store.clone());
        let done = Completions::default();
        let t0 = Instant::now();
        let res = runner.run_all_with(&self.jobs, |i, _| done.sink(i));
        let t1 = Instant::now();
        let points = done.intervals(t0);
        if let Some((tr, region)) = tr {
            let sweep = tr.alloc();
            tr.push(
                sweep,
                Some(region),
                0,
                "sweep.run_all_with",
                tr.at(t0),
                tr.at(t1),
            );
            for &(i, from, to) in &points {
                tr.push(
                    tr.alloc(),
                    Some(sweep),
                    i as u64,
                    "sweep.point",
                    tr.at(from),
                    tr.at(to),
                );
            }
        }
        let mut ms = vec![0.0; self.jobs.len()];
        for &(i, a, b) in &points {
            ms[i] = (b - a).as_secs_f64() * 1e3;
        }
        self.op_ms.extend(ms);
        assert!(
            runner.cache_hits == 0 && runner.simulated == self.jobs.len(),
            "cold sweep answered {} of {} points from the store",
            runner.cache_hits,
            self.jobs.len()
        );
        self.last = res;
        self.store = Some(store);
        self.store_dir = Some(dir);
        (self.jobs.len() as u64, 0)
    }

    fn check(&mut self) -> Vec<String> {
        if let Some(dir) = self.store_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut bad = Vec::new();
        let res = &self.last;
        let sat_of = |curve: usize| {
            self.points
                .iter()
                .zip(res)
                .find(|(p, _)| p.curve == curve && p.sat)
                .map(|(_, r)| r.accepted)
        };
        for (p, r) in self.points.iter().zip(res) {
            let mut spec = p.spec.clone();
            if let Some(sat) = sat_of(p.curve) {
                spec.below_saturation |= spec.rate <= 0.5 * sat;
            }
            bad.extend(check::check_point(&spec, r));
        }
        let mesh = self
            .points
            .iter()
            .zip(res)
            .find(|(p, _)| p.order == Some(true))
            .map(|(_, r)| r.accepted);
        for (p, r) in self.points.iter().zip(res) {
            if p.order == Some(false) && mesh.is_some_and(|m| r.accepted <= m) {
                bad.push(format!(
                    "{}: saturation {} does not exceed mesh's {mesh:?}",
                    p.spec.label, r.accepted
                ));
            }
        }
        self.work_points += res.len() as u64;
        self.work_delivered += res.iter().map(|r| r.delivered).sum::<u64>();
        bad
    }

    fn work(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("points", self.work_points),
            ("delivered_packets", self.work_delivered),
        ]
    }

    fn op_ms(&self) -> &[f64] {
        &self.op_ms
    }

    fn probes(&mut self, tr: &Tracer, m: &mut Metrics) {
        // Repeat builds: the one build every sweep point pays.
        for (i, cfg) in self.configs.iter().enumerate() {
            for _ in 0..3 {
                let net = tr.span("noc.new_warm", None, i as u64, |_| {
                    Network::new(cfg.clone())
                });
                drop(net.expect("preflight built this configuration"));
            }
        }
        m.push(
            "noc.build_warm_ms",
            median(&tr.durations("noc.new_warm")) / 1e6,
            "ms",
        );
        let pts = sweep_point_metrics(tr, self.threads);
        m.push("sweep.point_p50_ms", pts.0, "ms");
        m.push("sweep.point_max_ms", pts.1, "ms");
        m.push("sweep.pool_busy_share", pts.2, "ratio");
        // The store's write path on the round's results: the values the
        // round stored, written again into fresh stores.
        let round = self.store.take().expect("a round ran before the probes");
        for rep in 0..3 {
            let fresh = ResultStore::open(self.scratch.path().join(format!("probe-{rep}")));
            for (i, job) in self.jobs.iter().enumerate() {
                let key = job.cache_key();
                let stored = round.get(&key).expect("the round stored every point");
                let hit = tr.span("store.get_miss", None, i as u64, |_| fresh.get(&key));
                assert!(hit.is_none(), "fresh store answered a key");
                tr.span("store.put", None, i as u64, |_| fresh.put(&key, &stored));
            }
            tr.span("store.flush", None, 0, |_| fresh.flush());
        }
        m.push(
            "store.put_us_p50",
            median(&tr.durations("store.put")) / 1e3,
            "us",
        );
        m.push(
            "store.flush_ms",
            median(&tr.durations("store.flush")) / 1e6,
            "ms",
        );
        // Step cost on the sweep's grid size, driven by the benchmark's own
        // injector, next to the testbench running the same points.
        let d16 = Dims::new(16, 16);
        let sampled = [
            NetworkConfig::mesh(d16),
            NetworkConfig::torus(d16),
            NetworkConfig::full_ruche(d16, 2, CrossbarScheme::Depopulated),
        ];
        let mut steps = probe::StepTotals::default();
        let mut shares = Vec::new();
        for (i, cfg) in sampled.iter().enumerate() {
            let tb = Testbench::builder(Pattern::UniformRandom, 0.10)
                .quick()
                .seed(1 + i as u64)
                .build()
                .expect("probe testbench is valid");
            let t = Instant::now();
            let r = tr.span("traffic.run", None, i as u64, |_| {
                ruche::traffic::run(cfg, &tb)
            });
            let run_ns = t.elapsed().as_nanos() as f64;
            r.expect("probe point runs");
            let s = probe::drive(tr, cfg, &tb, i as u64);
            shares.push(1.0 - s.step_ns / run_ns);
            steps.add(&s);
        }
        m.push(
            "noc.step_ns_per_hop",
            steps.step_ns / steps.hops.max(1) as f64,
            "ns",
        );
        m.push(
            "traffic.run_ms_p50",
            median(&tr.durations("traffic.run")) / 1e6,
            "ms",
        );
        m.push("traffic.self_share_16x16", median(&shares), "ratio");
        m.push("noc.hops", steps.hops as f64, "count");
        m.push("noc.cycles", steps.cycles as f64, "count");
    }
}

/// Median and largest point time, and the pool's busy share, from the
/// sweep's point spans.
fn sweep_point_metrics(tr: &Tracer, width: usize) -> (f64, f64, f64) {
    let pts = tr.durations("sweep.point");
    let region: f64 = tr.durations("sweep.run_all_with").iter().sum();
    let busy: f64 = pts.iter().sum();
    let max = pts.iter().copied().fold(0.0, f64::max);
    (
        median(&pts) / 1e6,
        max / 1e6,
        busy / (region * width as f64).max(1.0),
    )
}
