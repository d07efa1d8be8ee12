//! `manycore`: the seven Table 5 kernels on the 16×8 array, on a mesh and
//! on Half Ruche RF2 depopulated.

use crate::check;
use crate::paper::preflight;
use crate::probe;
use crate::trace::Tracer;
use crate::util::{median, Rng};
use crate::{Metrics, Workload};
use ruche::manycore::graph::GraphId;
use ruche::manycore::kernels::{Benchmark, DatasetId, Workload as Program};
use ruche::manycore::machine::{self, RunResult, SystemConfig};
use ruche::noc::prelude::*;
use std::time::Instant;

/// One dataset per kernel, mixing short runs (a few thousand simulated
/// cycles) with long ones (tens of thousands).
const KERNELS: [(Benchmark, DatasetId); 7] = [
    (Benchmark::Jacobi, DatasetId::Default),
    (Benchmark::Sgemm, DatasetId::Default),
    (Benchmark::Fft, DatasetId::Fft16K),
    (Benchmark::BarnesHut, DatasetId::Bh32K),
    (Benchmark::Bfs, DatasetId::Graph(GraphId::Ca)),
    (Benchmark::PageRank, DatasetId::Graph(GraphId::Os)),
    (Benchmark::SpGemm, DatasetId::Graph(GraphId::Ca)),
];

pub struct Manycore {
    programs: Vec<Program>,
    systems: [SystemConfig; 2],
    /// Run order: (kernel, system) pairs, shuffled by the seed.
    order: Vec<(usize, usize)>,
    last: Vec<((usize, usize), RunResult)>,
    work_runs: u64,
    work_cycles: u64,
    work_instructions: u64,
    op_ms: Vec<f64>,
}

pub fn setup(seed: u64, tr: Option<&Tracer>) -> Result<Manycore, String> {
    let dims = Dims::new(16, 8);
    let programs: Vec<Program> = KERNELS
        .iter()
        .enumerate()
        .map(|(i, &(b, d))| {
            probe::span(tr, "manycore.build", None, i as u64, || {
                Program::build(b, d, dims)
            })
        })
        .collect();
    let bases = [
        NetworkConfig::mesh(dims),
        NetworkConfig::half_ruche(dims, 2, CrossbarScheme::Depopulated),
    ];
    let nets: Vec<NetworkConfig> = bases
        .iter()
        .flat_map(ruche_verify::grid::manycore_net_pair)
        .collect();
    preflight(&nets, true, tr)?;
    let mut order: Vec<(usize, usize)> =
        (0..programs.len()).flat_map(|k| [(k, 0), (k, 1)]).collect();
    let mut rng = Rng::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Ok(Manycore {
        programs,
        systems: bases.map(SystemConfig::new),
        order,
        last: Vec::new(),
        work_runs: 0,
        work_cycles: 0,
        work_instructions: 0,
        op_ms: Vec::new(),
    })
}

impl Workload for Manycore {
    fn round(&mut self, tr: Option<(&Tracer, u64)>) -> (u64, u64) {
        let (t, parent) = (tr.map(|x| x.0), tr.map(|x| x.1));
        let mut failed = 0;
        self.last.clear();
        for (i, &(k, s)) in self.order.iter().enumerate() {
            let t0 = Instant::now();
            let res = probe::span(t, "manycore.run", parent, i as u64, || {
                machine::run(&self.systems[s], &self.programs[k])
            });
            self.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match res {
                Ok(r) => self.last.push(((k, s), r)),
                Err(_) => failed += 1,
            }
        }
        (self.order.len() as u64, failed)
    }

    fn check(&mut self) -> Vec<String> {
        let mut bad = Vec::new();
        let mut cycles = vec![[0u64; 2]; self.programs.len()];
        for &((k, s), ref r) in &self.last {
            let label = format!(
                "{} on {}",
                self.programs[k].name,
                self.systems[s].net.label()
            );
            bad.extend(check::check_manycore(&label, &self.programs[k].programs, r));
            cycles[k][s] = r.cycles;
            self.work_runs += 1;
            self.work_cycles += r.cycles;
            self.work_instructions += r.instructions;
        }
        let logs: Vec<f64> = cycles
            .iter()
            .filter(|c| c[0] > 0 && c[1] > 0)
            .map(|c| (c[0] as f64 / c[1] as f64).ln())
            .collect();
        let geomean = (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp();
        if logs.len() != self.programs.len() || geomean <= 1.0 {
            bad.push(format!(
                "half-ruche geomean speedup over mesh {geomean} is not above 1"
            ));
        }
        bad
    }

    fn work(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("machine_runs", self.work_runs),
            ("sim_cycles", self.work_cycles),
            ("instructions", self.work_instructions),
        ]
    }

    fn op_ms(&self) -> &[f64] {
        &self.op_ms
    }

    fn probes(&mut self, tr: &Tracer, m: &mut Metrics) {
        let run_ns: f64 = tr.durations("manycore.run").iter().sum();
        let (cycles, instr) = self.last.iter().fold((0u64, 0u64), |a, (_, r)| {
            (a.0 + r.cycles, a.1 + r.instructions)
        });
        m.push(
            "manycore.build_ms",
            median(&tr.durations("manycore.build")) / 1e6,
            "ms",
        );
        m.push(
            "manycore.ns_per_sim_cycle",
            run_ns / cycles.max(1) as f64,
            "ns",
        );
        m.push("manycore.ns_per_instr", run_ns / instr.max(1) as f64, "ns");
        m.push("manycore.sim_cycles", cycles as f64, "count");
    }
}
