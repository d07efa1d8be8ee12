//! Layer probes of the traced run: optional spans, and `Network::step`
//! driven by the benchmark's own injector.

use crate::trace::Tracer;
use crate::util::Rng;
use ruche::noc::packet::Flit;
use ruche::noc::prelude::*;
use ruche::noc::routing::Dest;
use ruche::traffic::Testbench;

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn span<T>(
    tr: Option<&Tracer>,
    name: &str,
    parent: Option<u64>,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(tr) => tr.span(name, parent, req, |_| f()),
        None => f(),
    }
}

/// Step time and work of driven runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepTotals {
    pub step_ns: f64,
    pub cycles: u64,
    pub hops: u64,
}

impl StepTotals {
    pub fn add(&mut self, o: &StepTotals) {
        self.step_ns += o.step_ns;
        self.cycles += o.cycles;
        self.hops += o.hops;
    }
}

/// Steps `cfg` under uniform-random Bernoulli injection at `tb`'s rate for
/// its warmup and measure windows, then drains for at most its drain
/// window. Injection draws come from the benchmark's generator, so the
/// timed `Network::step` calls carry no testbench work. Each step call
/// is a `noc.step` span.
pub fn drive(tr: &Tracer, cfg: &NetworkConfig, tb: &Testbench, req: u64) -> StepTotals {
    let mut net = Network::new(cfg.clone()).expect("probe configuration is valid");
    let dims = cfg.dims;
    let tiles: Vec<Coord> = dims.iter().collect();
    let mut rng = Rng::new(tb.seed);
    let inject_until = tb.warmup + tb.measure;
    let mut step_ns = 0u64;
    let mut id = 0u64;
    for cycle in 0..inject_until + tb.drain {
        if cycle < inject_until {
            for &src in &tiles {
                if rng.unit() < tb.injection_rate {
                    let mut d = tiles[rng.below(tiles.len() as u64) as usize];
                    while d == src {
                        d = tiles[rng.below(tiles.len() as u64) as usize];
                    }
                    let ep = net.tile_endpoint(src);
                    net.enqueue(ep, Flit::single(src, Dest::tile(d), id, cycle));
                    id += 1;
                }
            }
        } else if net.snapshot().is_idle() {
            break;
        }
        let s = tr.now_ns();
        let _ = net.step();
        let e = tr.now_ns();
        tr.push(tr.alloc(), None, req, "noc.step", s, e);
        step_ns += e - s;
    }
    StepTotals {
        step_ns: step_ns as f64,
        cycles: net.snapshot().cycle,
        hops: net.link_loads().raw().iter().sum(),
    }
}
