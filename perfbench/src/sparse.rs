//! `sparse-4k`: Full Ruche RF2 depopulated on a 64×64 array under very
//! light uniform-random traffic with long windows, run once plainly and
//! once with telemetry attached.

use crate::check::{self, PointSpec};
use crate::paper::preflight;
use crate::probe;
use crate::trace::Tracer;
use crate::util::{median, Rng};
use crate::{Metrics, Workload};
use ruche::noc::prelude::*;
use ruche::traffic::{run, run_probed, Pattern, TbResult, Testbench};
use std::time::Instant;

/// Rates of the plain runs and of the telemetry runs.
const RATES: [f64; 2] = [0.0005, 0.001];
/// Windows (warmup, measure, drain) of the plain runs.
const LONG: (u64, u64, u64) = (500, 13_500, 3_000);
/// Windows of the telemetry runs and their plain twins: short enough that
/// the telemetry half (twins included) costs about as much host time as
/// the plain half, about 2 s each on the reference host (README.md).
const SHORT: (u64, u64, u64) = (200, 650, 2_000);
/// Time-series bin width of the attached telemetry.
const WINDOW: u64 = 64;

pub struct Sparse {
    cfg: NetworkConfig,
    long: Vec<Testbench>,
    short: Vec<Testbench>,
    hops: (f64, f64),
    last: Vec<(PointSpec, TbResult, Option<TbResult>)>,
    work_runs: u64,
    work_delivered: u64,
    op_ms: Vec<f64>,
}

fn tb(rate: f64, w: (u64, u64, u64), seed: u64) -> Testbench {
    Testbench::builder(Pattern::UniformRandom, rate)
        .warmup(w.0)
        .measure(w.1)
        .drain(w.2)
        .seed(seed)
        .build()
        .expect("sparse testbench is valid")
}

pub fn setup(seed: u64, tr: Option<&Tracer>) -> Result<Sparse, String> {
    let cfg = NetworkConfig::full_ruche(Dims::new(64, 64), 2, CrossbarScheme::Depopulated);
    // A 64×64 run goes straight to `traffic::run`, which verifies nothing;
    // the verifier's whole-grid route enumeration would cost a minute here.
    preflight(std::slice::from_ref(&cfg), false, tr)?;
    let mut rng = Rng::new(seed);
    Ok(Sparse {
        long: RATES.iter().map(|&r| tb(r, LONG, rng.seed())).collect(),
        short: RATES.iter().map(|&r| tb(r, SHORT, rng.seed())).collect(),
        hops: check::min_hops(&cfg, Pattern::UniformRandom),
        cfg,
        last: Vec::new(),
        work_runs: 0,
        work_delivered: 0,
        op_ms: Vec::new(),
    })
}

impl Sparse {
    fn spec(&self, tb: &Testbench) -> PointSpec {
        PointSpec {
            label: format!("64x64 {} {}", self.cfg.label(), tb.injection_rate),
            tiles: self.cfg.dims.count(),
            rate: tb.injection_rate,
            measure: tb.measure,
            faulted: false,
            share: 1.0,
            hops: self.hops,
            below_saturation: true,
            lowest: true,
        }
    }
}

impl Workload for Sparse {
    fn round(&mut self, tr: Option<(&Tracer, u64)>) -> (u64, u64) {
        let (t, parent) = (tr.map(|x| x.0), tr.map(|x| x.1));
        let cfg = &self.cfg;
        let op_ms = &mut self.op_ms;
        let mut timed = |name: &str, req: u64, f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            probe::span(t, name, parent, req, f);
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        };
        let mut out = Vec::new();
        let mut failed = 0;
        for (i, tb) in self.long.iter().enumerate() {
            let mut r = None;
            timed("traffic.run", i as u64, &mut || r = Some(run(cfg, tb)));
            match r.expect("run happened") {
                Ok(r) => out.push((tb, r, None)),
                Err(_) => failed += 1,
            }
        }
        for (i, tb) in self.short.iter().enumerate() {
            let req = (self.long.len() + i) as u64;
            let (mut plain, mut probed) = (None, None);
            timed("traffic.run_twin", req, &mut || plain = Some(run(cfg, tb)));
            timed("telemetry.run_probed", req, &mut || {
                probed = Some(run_probed(cfg, tb, WINDOW));
            });
            let (plain, probed) = (plain.expect("run happened"), probed.expect("run happened"));
            failed += u64::from(plain.is_err()) + u64::from(probed.is_err());
            if let (Ok(a), Ok((b, _))) = (plain, probed) {
                out.push((tb, a, Some(b)));
            }
        }
        self.last = out
            .into_iter()
            .map(|(tb, a, b)| (self.spec(tb), a, b))
            .collect();
        ((self.long.len() + 2 * self.short.len()) as u64, failed)
    }

    fn check(&mut self) -> Vec<String> {
        let mut bad = Vec::new();
        for (spec, r, probed) in &self.last {
            bad.extend(check::check_point(spec, r));
            if let Some(p) = probed {
                if p != r {
                    bad.push(format!("{}: telemetry changed the result", spec.label));
                }
            }
            self.work_runs += 1 + u64::from(probed.is_some());
            self.work_delivered += r.delivered * (1 + u64::from(probed.is_some()));
        }
        bad
    }

    fn work(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("testbench_runs", self.work_runs),
            ("delivered_packets", self.work_delivered),
        ]
    }

    fn op_ms(&self) -> &[f64] {
        &self.op_ms
    }

    fn probes(&mut self, tr: &Tracer, m: &mut Metrics) {
        let plain = tr.durations("traffic.run_twin");
        let probed = tr.durations("telemetry.run_probed");
        let ratios: Vec<f64> = probed.iter().zip(&plain).map(|(p, q)| p / q).collect();
        m.push("telemetry.overhead_x", median(&ratios), "ratio");
        let tb = &self.long[0];
        let t = Instant::now();
        tr.span("traffic.run", None, 100, |_| run(&self.cfg, tb))
            .expect("probe point runs");
        let run_ns = t.elapsed().as_nanos() as f64;
        let s = probe::drive(tr, &self.cfg, tb, 100);
        m.push("traffic.self_share", 1.0 - s.step_ns / run_ns, "ratio");
        m.push(
            "noc.step_ns_per_cycle",
            s.step_ns / s.cycles.max(1) as f64,
            "ns",
        );
        m.push(
            "noc.step_ns_per_hop_64x64",
            s.step_ns / s.hops.max(1) as f64,
            "ns",
        );
        m.push("noc.hops", s.hops as f64, "count");
        m.push("noc.cycles", s.cycles as f64, "count");
    }
}
