//! Statistics helpers: supported percentiles, span self time and peak
//! resident memory.

/// The fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from a sample, with the quantile actually used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample value at the quantile (nearest rank).
    pub value: f64,
    /// The quantile reported: the one asked for, or the highest lower
    /// one that still has [`MIN_BEYOND`] samples beyond it.
    pub q: f64,
    /// Sample count.
    pub n: usize,
}

impl Percentile {
    /// `true` when the asked-for quantile had to be lowered.
    pub fn reduced(&self, asked: f64) -> bool {
        self.q < asked
    }
}

/// Nearest-rank index of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q` quantile of `samples` (nearest rank), lowered to the highest
/// quantile with at least [`MIN_BEYOND`] samples above its rank. `None`
/// when no quantile has that many samples beyond it (`n <= MIN_BEYOND`).
pub fn supported_percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Samples beyond rank r are n - 1 - r; the highest admissible rank is
    // n - 1 - MIN_BEYOND, reached by any q <= (n - MIN_BEYOND) / n.
    let q_max = (n - MIN_BEYOND) as f64 / n as f64;
    let q = q.min(q_max);
    let r = rank(n, q);
    debug_assert!(n - 1 - r >= MIN_BEYOND);
    Some(Percentile {
        value: sorted[r],
        q,
        n,
    })
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Length of the part of `[start, end)` covered by the union of
/// `children` (each clipped to the parent), so overlapping children
/// count once.
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span: its duration minus the part its children cover.
pub fn self_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered_ns(start, end, children)
}

/// Peak resident set size in KiB from a `/proc/<pid>/status` document
/// (the `VmHWM` line).
pub fn peak_rss_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    peak_rss_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: u64 = 100;

/// Time the hypervisor stole from this virtual machine, per CPU, in ns,
/// from a `/proc/stat` document: the aggregate `cpu` line's steal ticks
/// divided by the number of `cpuN` lines.
pub fn steal_ns_per_cpu(stat: &str) -> Option<u64> {
    let mut lines = stat.lines();
    let total = lines.next()?.strip_prefix("cpu ")?;
    let steal: u64 = total.split_whitespace().nth(7)?.parse().ok()?;
    let cpus = lines
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count() as u64;
    (cpus > 0).then(|| steal * (1_000_000_000 / USER_HZ) / cpus)
}

/// A clock that reads wall time minus the time stolen from the virtual
/// machine. On a shared host the hypervisor's steal comes and goes with
/// other tenants' load and says nothing about the program, so host-time
/// metrics are taken on this clock. Without `/proc/stat` steal reads 0.
#[derive(Debug, Clone, Copy)]
pub struct RunClock {
    wall: std::time::Instant,
    steal_ns: u64,
}

impl RunClock {
    /// Reads the clock now.
    pub fn now() -> RunClock {
        let steal_ns = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| steal_ns_per_cpu(&s))
            .unwrap_or(0);
        RunClock {
            wall: std::time::Instant::now(),
            steal_ns,
        }
    }

    /// Wall ns from `self` to `later`.
    pub fn wall_ns(&self, later: &RunClock) -> u64 {
        (later.wall - self.wall).as_nanos() as u64
    }

    /// Stolen ns per CPU from `self` to `later`.
    pub fn steal_ns(&self, later: &RunClock) -> u64 {
        later.steal_ns.saturating_sub(self.steal_ns)
    }

    /// Wall ns minus stolen ns from `self` to `later`.
    pub fn run_ns(&self, later: &RunClock) -> u64 {
        self.wall_ns(later)
            .saturating_sub(self.steal_ns(later))
            .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_kept_when_ten_samples_lie_beyond() {
        // 1100 samples: rank of p99 is 1088, leaving 11 beyond.
        let p = supported_percentile(&ramp(1100), 0.99).unwrap();
        assert_eq!(p.q, 0.99);
        assert_eq!(p.value, 1089.0);
        assert!(!p.reduced(0.99));
        // Exactly 1000 samples: p99 leaves exactly ten beyond.
        let p = supported_percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!(p.q, 0.99);
        assert_eq!(p.value, 990.0);
    }

    #[test]
    fn p99_is_lowered_until_ten_samples_lie_beyond() {
        for n in [11, 50, 200, 999] {
            let samples = ramp(n);
            let p = supported_percentile(&samples, 0.99).unwrap();
            assert!(p.reduced(0.99), "n = {n}");
            let beyond = samples.iter().filter(|&&v| v > p.value).count();
            assert_eq!(beyond, MIN_BEYOND, "n = {n}");
        }
        // Order of the input does not matter.
        let mut shuffled = ramp(200);
        shuffled.reverse();
        assert_eq!(
            supported_percentile(&shuffled, 0.99),
            supported_percentile(&ramp(200), 0.99)
        );
    }

    #[test]
    fn too_few_samples_give_no_percentile() {
        assert_eq!(supported_percentile(&ramp(10), 0.5), None);
        assert_eq!(supported_percentile(&[], 0.5), None);
        assert_eq!(supported_percentile(&ramp(20), 0.5).unwrap().value, 10.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap on
        // [30, 40): covered = 50, not 60.
        assert_eq!(covered_ns(0, 100, &[(10, 40), (30, 60)]), 50);
        assert_eq!(self_ns(0, 100, &[(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_ns(0, 100, &[(10, 60), (20, 30)]), 50);
        // Disjoint children add up; children are clipped to the parent.
        assert_eq!(self_ns(0, 100, &[(90, 150), (0, 5), (50, 60)]), 75);
        // No children: all self.
        assert_eq!(self_ns(5, 25, &[]), 20);
        // Children outside the parent do not count.
        assert_eq!(self_ns(0, 10, &[(10, 20), (30, 40)]), 10);
    }

    #[test]
    fn peak_rss_is_parsed_from_a_status_document() {
        let status =
            "Name:\te2ebench\nVmPeak:\t  300000 kB\nVmHWM:\t  194528 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(peak_rss_kib(status), Some(194_528));
        assert_eq!(peak_rss_kib("Name:\tx\n"), None);
        assert_eq!(peak_rss_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn steal_is_read_per_cpu_from_proc_stat() {
        let stat = "cpu  100 0 50 900 1 0 2 300 0 0\ncpu0 50 0 25 450 0 0 1 150 0 0\n\
                    cpu1 50 0 25 450 1 0 1 150 0 0\nintr 12345\nctxt 99\n";
        // 300 ticks over two CPUs at 100 ticks/s: 1.5 s per CPU.
        assert_eq!(steal_ns_per_cpu(stat), Some(1_500_000_000));
        assert_eq!(steal_ns_per_cpu("intr 1\n"), None);
        assert!(steal_ns_per_cpu(&std::fs::read_to_string("/proc/stat").unwrap()).is_some());
        let a = RunClock::now();
        let b = RunClock::now();
        assert!(a.run_ns(&b) >= 1 && a.run_ns(&b) <= a.wall_ns(&b).max(1));
    }

    #[test]
    fn peak_rss_is_read_from_proc_self_status() {
        let before = peak_rss_mib().expect("/proc/self/status has VmHWM");
        assert!(before > 0.0);
        // Touch 64 MiB; the high-water mark must rise by most of it.
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let after = peak_rss_mib().unwrap();
        assert!(after >= before + 32.0, "{before} -> {after}");
    }
}
