//! The benchmark's own correctness checks. Each one compares a program
//! output with a figure computed here, from the inputs alone, or with a
//! property the method must have; none compares with a stored copy of an
//! earlier output.

use ruche::manycore::core_model::Op;
use ruche::manycore::machine::RunResult;
use ruche::noc::prelude::*;
use ruche::traffic::{Pattern, TbResult};

/// Fewest hops that cover distance `d` on a line whose long channels
/// skip `reach` tiles (plain channels skip one); overshooting with a long
/// hop and stepping back is allowed.
pub fn line_hops(d: u32, reach: u32) -> u32 {
    if reach <= 1 {
        return d;
    }
    let (q, r) = (d / reach, d % reach);
    if r == 0 {
        q
    } else {
        (q + r).min(q + 1 + reach - r)
    }
}

/// Per-axis hop count between two positions `a`, `b` on an axis of
/// length `k` under the given channel kind.
fn axis_hops(a: u16, b: u16, k: u16, ring: bool, reach: u32) -> u32 {
    let d = u32::from(a.abs_diff(b));
    if ring {
        d.min(u32::from(k) - d)
    } else {
        line_hops(d, reach)
    }
}

/// `(ring, reach)` of each axis of `cfg`: ring distance on torus axes,
/// the Ruche factor on Ruche axes, 1 elsewhere.
fn axis_kinds(cfg: &NetworkConfig) -> [(bool, u32); 2] {
    let rf = u32::from(cfg.topology.ruche_factor().max(1));
    [Axis::X, Axis::Y].map(|a| {
        if cfg.torus_axis(a) {
            (true, 1)
        } else if cfg.ruche_axis(a) {
            (false, rf)
        } else {
            (false, 1)
        }
    })
}

/// Minimal hops from `s` to tile `d`.
pub fn tile_hops(cfg: &NetworkConfig, s: Coord, d: Coord) -> u32 {
    let [(rx, kx), (ry, ky)] = axis_kinds(cfg);
    axis_hops(s.x, d.x, cfg.dims.cols, rx, kx) + axis_hops(s.y, d.y, cfg.dims.rows, ry, ky)
}

/// Mean and standard deviation of the minimal hop count over the
/// (source, destination) pairs `pattern` draws on `cfg`, each source
/// equally likely and each of its destinations equally likely. Edge
/// memory destinations count the hops to the edge router, not the final
/// exit, so the figure stays a lower bound.
pub fn min_hops(cfg: &NetworkConfig, pattern: Pattern) -> (f64, f64) {
    let dims = cfg.dims;
    // Weighted sums of 1, h and h^2 over the pairs.
    let mut acc = [0.0f64; 3];
    let mut add = |h: u32, w: f64| {
        let h = f64::from(h);
        acc[0] += w;
        acc[1] += w * h;
        acc[2] += w * h * h;
    };
    for s in dims.iter() {
        match pattern {
            Pattern::UniformRandom => {
                let w = 1.0 / (dims.count() - 1) as f64;
                for d in dims.iter().filter(|&d| d != s) {
                    add(tile_hops(cfg, s, d), w);
                }
            }
            Pattern::Transpose => {
                let d = Coord::new(s.y, s.x);
                if d != s {
                    add(tile_hops(cfg, s, d), 1.0);
                }
            }
            Pattern::TileToMemory => {
                let w = 1.0 / (2.0 * f64::from(dims.cols));
                for c in 0..dims.cols {
                    for row in [0, dims.rows - 1] {
                        add(tile_hops(cfg, s, Coord::new(c, row)), w);
                    }
                }
            }
            other => panic!("no hop model for {other:?}"),
        }
    }
    let mean = acc[1] / acc[0];
    let var = (acc[2] / acc[0] - mean * mean).max(0.0);
    (mean, var.sqrt())
}

/// Share of tiles that inject under `pattern` (a source the pattern maps
/// to itself stays silent), weighted by the share of its destinations a
/// fault model leaves reachable.
pub fn active_share(cfg: &NetworkConfig, pattern: Pattern, faults: &FaultModel) -> f64 {
    let dims = cfg.dims;
    let comp = components(cfg, faults);
    let mut size = vec![0usize; dims.count()];
    for &c in &comp {
        size[c] += 1;
    }
    let mut share = 0.0;
    for s in dims.iter() {
        share += match pattern {
            Pattern::Transpose => {
                let d = Coord::new(s.y, s.x);
                f64::from(u8::from(
                    d != s && comp[dims.index(d)] == comp[dims.index(s)],
                ))
            }
            Pattern::UniformRandom => {
                let same = size[comp[dims.index(s)]] - 1;
                same as f64 / (dims.count() - 1) as f64
            }
            _ => 1.0,
        };
    }
    share / dims.count() as f64
}

/// Connected-component label of each tile over the links a fault model
/// leaves alive (a link dies when killed from either end).
fn components(cfg: &NetworkConfig, faults: &FaultModel) -> Vec<usize> {
    let dims = cfg.dims;
    let dead = faults.dead_links();
    let mut comp = vec![usize::MAX; dims.count()];
    for start in dims.iter() {
        if comp[dims.index(start)] != usize::MAX {
            continue;
        }
        let label = dims.index(start);
        comp[label] = label;
        let mut stack = vec![start];
        while let Some(c) = stack.pop() {
            for dir in cfg.ports().into_iter().filter(|&d| d != Dir::P) {
                let Some(nb) = cfg.neighbor(c, dir) else {
                    continue;
                };
                if dead.contains(&(c, dir)) || dead.contains(&(nb, dir.opposite())) {
                    continue;
                }
                if comp[dims.index(nb)] == usize::MAX {
                    comp[dims.index(nb)] = label;
                    stack.push(nb);
                }
            }
        }
    }
    comp
}

/// Tolerance on a measured rate from `n` Bernoulli trials of probability
/// `p`: six standard deviations plus one trial.
pub fn binomial_tol(p: f64, n: f64) -> f64 {
    6.0 * (p * (1.0 - p) / n).sqrt() + 1.0 / n
}

/// What the checks need to know about one synthetic point.
#[derive(Debug, Clone)]
pub struct PointSpec {
    pub label: String,
    /// Tiles of the array.
    pub tiles: usize,
    pub rate: f64,
    pub measure: u64,
    /// Links were killed: the hop bound does not apply.
    pub faulted: bool,
    /// [`active_share`] of the point.
    pub share: f64,
    /// [`min_hops`] of the point's pattern on its network.
    pub hops: (f64, f64),
    /// Well below the saturation rate: the point must lose nothing and
    /// accept what it offers.
    pub below_saturation: bool,
    /// The lowest rate of its curve: latency is bounded by hop counts.
    pub lowest: bool,
}

/// Highest mean latency accepted at the lowest rate, as a multiple of the
/// minimal hop count plus a fixed number of cycles.
pub const LATENCY_MARGIN: (f64, f64) = (1.5, 4.0);

/// Checks one synthetic testbench result; returns the violations.
pub fn check_point(p: &PointSpec, r: &TbResult) -> Vec<String> {
    let mut bad = Vec::new();
    let n = p.tiles as f64 * p.measure as f64;
    let expect = p.rate * p.share;
    let tol = binomial_tol(expect.min(1.0), n);
    if r.accepted > r.offered + binomial_tol(r.offered.min(1.0), n) {
        bad.push(format!(
            "{}: accepted {} exceeds offered {}",
            p.label, r.accepted, r.offered
        ));
    }
    if p.below_saturation {
        if r.lost != 0 {
            bad.push(format!(
                "{}: lost {} packets below saturation",
                p.label, r.lost
            ));
        }
        if (r.accepted - expect).abs() > tol {
            bad.push(format!(
                "{}: accepted {} not within {tol} of expected {expect}",
                p.label, r.accepted
            ));
        }
    }
    if p.lowest && !p.faulted {
        let (mean, sd) = p.hops;
        let floor = mean - 6.0 * sd / (r.delivered.max(1) as f64).sqrt();
        let ceil = LATENCY_MARGIN.0 * mean + LATENCY_MARGIN.1;
        if r.avg_latency < floor || r.avg_latency > ceil {
            bad.push(format!(
                "{}: latency {} outside [{floor}, {ceil}] (minimal hops {mean})",
                p.label, r.avg_latency
            ));
        }
    }
    bad
}

/// Instructions and memory operations a stream issues: `Compute(n)`
/// issues max(n, 1), `WaitAll` and each memory operation one, `Barrier`
/// none.
pub fn issue_counts(ops: &[Op]) -> (u64, u64) {
    let mut instr = 0u64;
    let mut mem = 0u64;
    for op in ops {
        match *op {
            Op::Compute(n) => instr += u64::from(n.max(1)),
            Op::WaitAll => instr += 1,
            Op::Barrier => {}
            Op::Load(_) | Op::Store(_) | Op::Amo(_) | Op::LoadTile(_) => {
                instr += 1;
                mem += 1;
            }
        }
    }
    (instr, mem)
}

/// Checks one manycore run against the counts of its op streams.
pub fn check_manycore(label: &str, programs: &[Vec<Op>], r: &RunResult) -> Vec<String> {
    let mut bad = Vec::new();
    let per_tile: Vec<(u64, u64)> = programs.iter().map(|p| issue_counts(p)).collect();
    let instr: u64 = per_tile.iter().map(|c| c.0).sum();
    let mem: u64 = per_tile.iter().map(|c| c.1).sum();
    let longest = per_tile.iter().map(|c| c.0).max().unwrap_or(0);
    if r.instructions != instr {
        bad.push(format!(
            "{label}: {} instructions, streams issue {instr}",
            r.instructions
        ));
    }
    if r.mem_ops != mem {
        bad.push(format!(
            "{label}: {} memory ops, streams issue {mem}",
            r.mem_ops
        ));
    }
    if r.cycles < longest {
        bad.push(format!(
            "{label}: {} cycles, a tile issues {longest}",
            r.cycles
        ));
    }
    let l = &r.load_latency;
    let sum = l.intrinsic.mean() + l.congestion.mean();
    if (l.total.mean() - sum).abs() > 1e-9 * l.total.mean().max(1.0) {
        bad.push(format!(
            "{label}: mean latency {} != intrinsic + congestion {sum}",
            l.total.mean()
        ));
    }
    if l.congestion.min().is_some_and(|m| m < 0.0) {
        bad.push(format!("{label}: negative congestion latency"));
    }
    bad
}

/// Compares a daemon's response lines with the offline rendering.
pub fn check_lines(label: &str, daemon: &[String], offline: &[String]) -> Vec<String> {
    if daemon == offline {
        return Vec::new();
    }
    let i = daemon
        .iter()
        .zip(offline)
        .position(|(a, b)| a != b)
        .unwrap_or(daemon.len().min(offline.len()));
    vec![format!(
        "{label}: line {i} differs from the offline rendering ({} vs {} lines)",
        daemon.len(),
        offline.len()
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruche::manycore::machine::{LatencySplit, RunResult};
    use ruche::noc::topology::CrossbarScheme;

    fn d4() -> Dims {
        Dims::new(4, 4)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    // 4x4, uniform random: 240 ordered pairs. Per axis, the 16 ordered
    // position pairs have distances 0 (4), 1 (6), 2 (4), 3 (2), so the
    // all-pairs hop sum is 256 * 2 * (per-axis mean), divided by 240.
    #[test]
    fn uniform_random_bounds_on_4x4() {
        let ur = Pattern::UniformRandom;
        // mesh: per-axis sum 6+8+6 = 20.
        assert!(close(
            min_hops(&NetworkConfig::mesh(d4()), ur).0,
            640.0 / 240.0
        ));
        // torus: ring distances 1, 2, 1 -> sum 6+8+2 = 16.
        assert!(close(
            min_hops(&NetworkConfig::torus(d4()), ur).0,
            512.0 / 240.0
        ));
        // RF2: hops 1, 1, 2 -> sum 6+4+4 = 14.
        let rf2 = NetworkConfig::full_ruche(d4(), 2, CrossbarScheme::Depopulated);
        assert!(close(min_hops(&rf2, ur).0, 448.0 / 240.0));
        // RF3: hops 1, 2, 1 -> sum 16.
        let rf3 = NetworkConfig::full_ruche(d4(), 3, CrossbarScheme::FullyPopulated);
        assert!(close(min_hops(&rf3, ur).0, 512.0 / 240.0));
    }

    // 4x4, transpose: 12 sources off the diagonal, each crossing the same
    // distance d = |x - y| on both axes; d = 1 (6), 2 (4), 3 (2).
    #[test]
    fn transpose_bounds_on_4x4() {
        let tr = Pattern::Transpose;
        assert!(close(
            min_hops(&NetworkConfig::mesh(d4()), tr).0,
            40.0 / 12.0
        ));
        assert!(close(
            min_hops(&NetworkConfig::torus(d4()), tr).0,
            32.0 / 12.0
        ));
        let rf2 = NetworkConfig::full_ruche(d4(), 2, CrossbarScheme::Depopulated);
        assert!(close(min_hops(&rf2, tr).0, 28.0 / 12.0));
        let rf3 = NetworkConfig::full_ruche(d4(), 3, CrossbarScheme::Depopulated);
        assert!(close(min_hops(&rf3, tr).0, 32.0 / 12.0));
    }

    #[test]
    fn long_hops_may_overshoot() {
        assert_eq!(line_hops(3, 4), 2); // one skip of 4, one step back
        assert_eq!(line_hops(7, 3), 3);
        assert_eq!(line_hops(5, 1), 5);
    }

    #[test]
    fn binomial_tolerance() {
        // p = 0.5 over 10_000 trials: sd = 0.005, so 6 sd + 1e-4.
        assert!(close(binomial_tol(0.5, 10_000.0), 0.0301));
        assert!(binomial_tol(0.02, 1e6) < binomial_tol(0.02, 1e4));
    }

    #[test]
    fn transpose_silences_the_diagonal() {
        let cfg = NetworkConfig::mesh(d4());
        assert!(close(
            active_share(&cfg, Pattern::Transpose, &FaultModel::default()),
            0.75
        ));
        assert!(close(
            active_share(&cfg, Pattern::UniformRandom, &FaultModel::default()),
            1.0
        ));
    }

    #[test]
    fn a_cut_corner_leaves_its_tile_unreachable() {
        let cfg = NetworkConfig::mesh(d4());
        let corner = Coord::new(0, 0);
        let f = FaultModel::new()
            .kill_link(corner, Dir::E)
            .kill_link(corner, Dir::S);
        // 15 tiles reach 14 of 15 others; the corner reaches none.
        let share = active_share(&cfg, Pattern::UniformRandom, &f);
        assert!(close(share, 15.0 * 14.0 / 15.0 / 16.0));
    }

    fn result(offered: f64, accepted: f64, latency: f64, lost: u64) -> TbResult {
        TbResult {
            offered,
            accepted,
            avg_latency: latency,
            p99_latency: latency,
            delivered: 10_000,
            lost,
            per_tile_latency: Vec::new(),
            saturated: false,
        }
    }

    fn spec(cfg: &NetworkConfig, faults: &FaultModel) -> PointSpec {
        PointSpec {
            label: "t".into(),
            tiles: cfg.dims.count(),
            rate: 0.02,
            measure: 2_000,
            faulted: !faults.is_empty(),
            share: active_share(cfg, Pattern::UniformRandom, faults),
            hops: min_hops(cfg, Pattern::UniformRandom),
            below_saturation: true,
            lowest: true,
        }
    }

    #[test]
    fn an_honest_point_passes() {
        let cfg = NetworkConfig::mesh(Dims::new(16, 16));
        let (hops, _) = min_hops(&cfg, Pattern::UniformRandom);
        let p = spec(&cfg, &FaultModel::default());
        assert!(check_point(&p, &result(0.02, 0.0201, hops + 0.3, 0)).is_empty());
    }

    #[test]
    fn accepted_beyond_offered_is_flagged() {
        let cfg = NetworkConfig::mesh(Dims::new(16, 16));
        let (hops, _) = min_hops(&cfg, Pattern::UniformRandom);
        let p = spec(&cfg, &FaultModel::default());
        let bad = check_point(&p, &result(0.02, 0.03, hops + 0.3, 0));
        assert!(bad.iter().any(|b| b.contains("exceeds offered")), "{bad:?}");
    }

    #[test]
    fn loss_and_impossible_latency_are_flagged() {
        let cfg = NetworkConfig::mesh(Dims::new(16, 16));
        let (hops, _) = min_hops(&cfg, Pattern::UniformRandom);
        let p = spec(&cfg, &FaultModel::default());
        assert!(!check_point(&p, &result(0.02, 0.02, hops + 0.3, 1)).is_empty());
        assert!(!check_point(&p, &result(0.02, 0.02, hops - 1.0, 0)).is_empty());
        assert!(!check_point(&p, &result(0.02, 0.02, 2.0 * hops + 5.0, 0)).is_empty());
    }

    #[test]
    fn issue_rule() {
        let ops = [
            Op::Compute(3),
            Op::Compute(0),
            Op::Load(1),
            Op::WaitAll,
            Op::Barrier,
            Op::Store(2),
            Op::Amo(3),
            Op::LoadTile(Coord::new(1, 1)),
        ];
        // 3 + 1 + 1 + 1 + 0 + 1 + 1 + 1
        assert_eq!(issue_counts(&ops), (9, 4));
    }

    fn run_result(instructions: u64, mem_ops: u64, cycles: u64) -> RunResult {
        RunResult {
            label: "t".into(),
            cycles,
            instructions,
            stall_cycles: 0,
            idle_cycles: 0,
            mem_ops,
            load_latency: LatencySplit::default(),
            energy: Default::default(),
        }
    }

    #[test]
    fn an_instruction_count_off_by_one_is_flagged() {
        let programs = vec![vec![Op::Compute(4), Op::Load(0)], vec![Op::Barrier]];
        assert!(check_manycore("t", &programs, &run_result(5, 1, 9)).is_empty());
        assert!(!check_manycore("t", &programs, &run_result(6, 1, 9)).is_empty());
        assert!(!check_manycore("t", &programs, &run_result(5, 1, 4)).is_empty());
    }

    #[test]
    fn a_line_one_byte_off_is_flagged() {
        let offline = vec![
            r#"{"job":0,"result":{"x":1}}"#.to_string(),
            r#"{"done":1}"#.into(),
        ];
        let mut daemon = offline.clone();
        assert!(check_lines("t", &daemon, &offline).is_empty());
        daemon[0] = r#"{"job":0,"result":{"x":2}}"#.into();
        assert_eq!(check_lines("t", &daemon, &offline).len(), 1);
    }
}
