//! Sample statistics, the failure tally and the metric report every
//! workload fills.

use std::fmt::Write as _;

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of a non-empty sample: the `⌈q·n⌉`-th smallest
/// value, so every reported quantile is an observed value.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie beyond the nearest-rank `q`-quantile.
pub fn beyond_quantile(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// On-CPU time of the calling thread so far, in seconds. The kernel
/// charges a thread only for the time it ran; on a virtual machine with
/// steal-time accounting, time the hypervisor gave the vCPU to other
/// guests is not charged. For one-thread work on an unshared core this
/// equals wall time.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// On-CPU time of every thread of this process so far, exited ones
/// included, in seconds; stolen time is not charged, as for
/// [`thread_cpu_s`].
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn cpu_clock(clock: i32) -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` for the whole
    // call, and `clock` is one of the two CPU-time clocks Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of this process in MB, or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor took from this machine's virtual CPUs so far
/// (the `steal` column of `/proc/stat`, all CPUs), in seconds at the usual
/// 100 ticks per second; `0.0` where `/proc` is unavailable. Printed with
/// each run because it explains most run-to-run spread on shared hosts.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Attempted and failed operations. An `Err` return, a degraded query and
/// an oracle mismatch each count as one failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one checked operation; report it on stderr when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.record(1, u64::from(!ok), what)
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn record(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) -> bool {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED ({failed} of {attempted}): {}", what());
        }
        failed == 0
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Named metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record one metric. Values must be finite: a non-finite value is a
    /// defect of the benchmark, not a measurement.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name.to_string(), value, unit));
    }

    /// One `name value unit` line per metric.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Values are printed with every digit Rust's shortest round-trip
    /// formatting gives.
    pub fn result_json(&self, tally: &Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0,
            tally.attempted.max(1),
            tally.failed
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Read one metric's value back out of a result line written by
/// [`Metrics::result_json`].
pub fn parse_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_observed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(beyond_quantile(100, 0.99), 1);
        assert_eq!(beyond_quantile(2000, 0.99), 20);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_round_trips() {
        let mut m = Metrics::default();
        m.put("order_s", 2.5, "s");
        m.put("serve_qps", 1234.125, "queries/s");
        let line = m.result_json(&Tally::default());
        assert_eq!(parse_metric(&line, "order_s"), Some(2.5));
        assert_eq!(parse_metric(&line, "serve_qps"), Some(1234.125));
        assert_eq!(parse_metric(&line, "missing"), None);
    }
}
