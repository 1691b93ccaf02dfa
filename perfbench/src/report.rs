//! Metrics, summary statistics and the result line.
//!
//! Every metric carries the base it was computed from (a sample count, the
//! two sides of a ratio, the shape it was measured at), printed next to the
//! value so a reader can tell what a number stands for.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

/// The outcome of one workload: its metrics, operation counts and the
/// output checks that failed.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, base: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            base: base.into(),
        });
    }

    /// Records one operation and, when `ok` is false, counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one operation whose output was checked.
    pub fn checked_op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.check(ok, what);
    }

    /// Records an output check. A failed check is a failed operation and
    /// makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// Folds another workload's report into this one, prefixing its metric
    /// names with `prefix.` (used when one process runs every workload).
    pub fn absorb(&mut self, prefix: &str, other: Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check_failures.extend(
            other
                .check_failures
                .into_iter()
                .map(|c| format!("{prefix}: {c}")),
        );
        for mut m in other.metrics {
            m.name = format!("{prefix}.{}", m.name);
            self.metrics.push(m);
        }
    }

    /// Human-readable metric lines, one per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<40} {:>16} {:<10} {}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.base
            );
        }
        out
    }

    /// The single-line JSON result. Fails on an invalid metric name, a
    /// repeated name or a non-finite value.
    pub fn json(&self) -> Result<String, String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("metric {} reported twice", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Formats a value with every digit Rust needs to round-trip it.
fn fmt_num(v: f64) -> String {
    format!("{v:?}")
}

/// A metric name: a letter or digit first, then at most 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-';
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The median of a sample (mean of the two middle values for an even
/// count). Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// A tail percentile chosen by the rule "the highest percentile that has at
/// least ten samples beyond it".
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    /// The percentile used.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it in rank.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

impl Tail {
    /// The base string: which percentile, and how many samples it rests on.
    pub fn base(&self) -> String {
        format!(
            "p{} of {} samples, {} beyond it",
            self.pct, self.n, self.beyond
        )
    }
}

/// Minimum number of samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile, at most `cap`, from the ladder 99.9, 99, 98,
/// 95, 90, 75, 50 that has at least [`TAIL_MIN_BEYOND`] samples beyond its
/// nearest-rank position. `None` when even the median has too few.
pub fn tail_percentile(samples: &[f64], cap: f64) -> Option<Tail> {
    const LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    LADDER.iter().filter(|&&p| p <= cap).find_map(|&pct| {
        // Nearest rank: the smallest index covering pct% of the samples.
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        let beyond = n - 1 - idx;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: sorted[idx],
            beyond,
            n,
        })
    })
}

/// A ratio that remembers its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// `num / den`, or 0 when the base is empty.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// The base, as `num / den`.
    pub fn base(&self) -> String {
        format!("{} / {}", fmt_num(self.num), fmt_num(self.den))
    }

    /// Adds the ratio to a report under `name`, with its base and an
    /// explanation of what the two sides count.
    pub fn report(&self, r: &mut Report, name: &str, unit: &'static str, what: &str) {
        r.metric(
            name,
            self.value(),
            unit,
            format!("{} ({what})", self.base()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_uses_p99_when_ten_samples_lie_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail_percentile(&samples, 99.0).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));
        assert_eq!(t.base(), "p99 of 1000 samples, 10 beyond it");
    }

    #[test]
    fn tail_falls_back_when_the_tail_is_thin() {
        // 999 samples leave only 9 beyond p99, so p98 is the highest
        // percentile with ten behind it.
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail_percentile(&samples, 99.0).unwrap();
        assert_eq!(t.pct, 98.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);
        // Twenty samples: only the median has ten beyond it.
        let t = tail_percentile(&samples[..20], 99.0).unwrap();
        assert_eq!((t.pct, t.beyond), (50.0, 10));
        assert_eq!(tail_percentile(&samples[..19], 99.0), None);
        assert_eq!(tail_percentile(&[], 99.0), None);
    }

    #[test]
    fn tail_respects_the_cap_and_ignores_sample_order() {
        let mut samples: Vec<f64> = (1..=100_000).map(f64::from).collect();
        samples.reverse();
        assert_eq!(tail_percentile(&samples, 99.0).unwrap().value, 99_000.0);
        assert_eq!(tail_percentile(&samples, 100.0).unwrap().pct, 99.9);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in [
            "latency_ms",
            "tensor.gemm_us.top1",
            "serve_b1_p99_ms",
            "0x-1",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "ms\"", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        let mut r = Report::default();
        r.metric("bad name", 1.0, "s", "");
        assert!(r.json().is_err());
        let mut r = Report::default();
        r.metric("x", 1.0, "s", "");
        r.metric("x", 2.0, "s", "");
        assert!(r.json().is_err());
        let mut r = Report::default();
        r.metric("x", f64::NAN, "s", "");
        assert!(r.json().is_err());
    }

    #[test]
    fn ratios_report_their_base() {
        let r = Ratio::new(87.0, 100.0);
        assert_eq!(r.value(), 0.87);
        assert_eq!(r.base(), "87.0 / 100.0");
        let empty = Ratio::new(0.0, 0.0);
        assert_eq!(empty.value(), 0.0);
        assert_eq!(empty.base(), "0.0 / 0.0");
        let mut rep = Report::default();
        r.report(&mut rep, "tensor.pool_hit_ratio", "ratio", "hits / lookups");
        assert_eq!(rep.metrics[0].base, "87.0 / 100.0 (hits / lookups)");
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut r = Report::default();
        r.op(true);
        r.op(false);
        r.metric("latency_ms", 1.25, "ms", "n=2");
        assert_eq!(
            r.json().unwrap(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check(false, || "bad output".to_string());
        assert!(!r.correct());
        assert_eq!(r.failed, 2);
    }
}
