//! Process-level measurements read from outside the pipeline, and the statistics
//! every reported metric goes through.

use std::collections::BTreeMap;
use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 for user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of this process, from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after its closing
    // parenthesis are space-separated, starting with field 3 (`state`).
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = after_name.split(' ').collect();
    let ticks = |index: usize| -> f64 {
        // utime is field 14 and stime field 15, i.e. indices 11 and 12 here.
        fields[index]
            .parse::<u64>()
            .expect("utime/stime are integers") as f64
    };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set size of this process in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .expect("status reports VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM is a number of kB");
    kb / 1024.0
}

/// The median of a non-empty sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Samples that must lie above a reported tail value.
const TAIL_SAMPLES_BEYOND: usize = 10;

/// Zero-based rank of the reported tail in a sorted sample of `n` values: the
/// 90th-percentile rank (nearest rank), lowered until at least ten samples lie
/// above it. A sample too small to have ten beyond its median reports the median
/// rank, so the tail never claims more than the data show.
pub fn tail_rank(n: usize) -> usize {
    assert!(n > 0, "tail of an empty sample");
    let p90 = (9 * n).div_ceil(10) - 1;
    let median = (n - 1) / 2;
    match n.checked_sub(TAIL_SAMPLES_BEYOND + 1) {
        Some(highest) => p90.min(highest).max(median),
        None => median,
    }
}

/// The tail value of a non-empty sample, by [`tail_rank`].
pub fn tail(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[tail_rank(sorted.len())]
}

/// `true` for a metric name of the benchmark grammar `[A-Za-z0-9_.-]+` that starts
/// with a letter or digit and has at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Named metric values with their units, in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    /// Records one metric; names are checked against the grammar and used once.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(name, (value, unit));
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    /// The metrics as a JSON object of `{"value", "unit"}` members.
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p90_once_ten_samples_lie_beyond_it() {
        // 100 samples: nearest-rank p90 is rank 89, with exactly 10 above it.
        assert_eq!(tail_rank(100), 89);
        assert_eq!(tail_rank(1000), 899);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), 90.0);
    }

    #[test]
    fn tail_drops_below_p90_to_keep_ten_samples_beyond() {
        // 38 samples: p90 would be rank 34 with only 3 above; rank 27 keeps 10.
        assert_eq!(tail_rank(38), 27);
        assert_eq!(38 - 1 - tail_rank(38), 10);
        // Never below the median.
        assert_eq!(tail_rank(21), 10);
        assert_eq!(tail_rank(12), 5);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_median() {
        assert_eq!(tail_rank(1), 0);
        assert_eq!(tail_rank(10), 4);
        assert_eq!(tail(&[3.0]), 3.0);
        assert_eq!(tail(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for good in [
            "wall_s",
            "lp.pivots_float",
            "serve.near_ms_p50",
            "0x",
            "a-b",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            ".lp",
            "_x",
            "-x",
            "lp pivots",
            "lp/s",
            "ms%",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn metrics_render_as_value_unit_objects() {
        let mut metrics = Metrics::default();
        metrics.set("wall_s", 1.5, "s");
        metrics.set("cache.compiles", 3.0, "count");
        assert_eq!(
            metrics.to_json(),
            "{\"cache.compiles\": {\"value\": 3, \"unit\": \"count\"}, \
             \"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn a_metric_name_is_used_once() {
        let mut metrics = Metrics::default();
        metrics.set("wall_s", 1.0, "s");
        metrics.set("wall_s", 2.0, "s");
    }

    #[test]
    fn proc_readers_report_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
