//! Small helpers: order statistics, a seeded generator, host provenance,
//! peak memory and scratch directories.

use std::path::{Path, PathBuf};

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated `q` quantile of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Each operation's median over `rounds` rounds that record the same
/// operations in the same order: `v[r * n + j]` is operation `j` of round
/// `r`.
pub fn per_op_medians(v: &[f64], rounds: usize) -> Vec<f64> {
    let n = v.len() / rounds.max(1);
    assert_eq!(
        n * rounds,
        v.len(),
        "every round records the same operations"
    );
    (0..n)
        .map(|j| median(&(0..rounds).map(|r| v[r * n + j]).collect::<Vec<_>>()))
        .collect()
}

/// SplitMix64: the benchmark's own generator, so its inputs depend on
/// `--seed` alone and on no crate of the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A seed for a program-side generator.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() >> 1
    }
}

/// CPU time the hypervisor has taken from this machine's CPUs (`steal`
/// in `/proc/stat`), in seconds: other tenants' load, which slows every
/// timing of a run.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb_of(pid: u32) -> f64 {
    proc_status_kb(&format!("/proc/{pid}/status"), "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn proc_status_kb(path: &str, key: &str) -> Option<f64> {
    let s = std::fs::read_to_string(path).ok()?;
    let line = s.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Host and revision fingerprint recorded with every output.
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("git_rev", git_revision(Path::new("."))),
    ]
}

/// The checked-out revision, read from `.git` without running git;
/// `unknown` when the tree is not a git checkout.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A scratch directory under `.perfbench/` in the working directory,
/// removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let p = PathBuf::from(".perfbench").join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&p).expect("create scratch directory");
        Scratch(p)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_medians_take_each_operation_across_rounds() {
        // Three rounds of two operations; the slow second instance of
        // operation 0 does not reach its median.
        let v = [1.0, 10.0, 9.0, 11.0, 2.0, 12.0];
        assert_eq!(per_op_medians(&v, 3), vec![2.0, 11.0]);
        assert_eq!(per_op_medians(&v, 1), v.to_vec());
    }
}
