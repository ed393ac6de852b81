//! Metric catalogue, summary statistics and the one-line JSON result.

use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("problems_per_s", "1/s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("accuracy", "frac"),
    ("factorization_accuracy", "frac"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("workloads.encode_ms", "ms"),
    ("workloads.decode_ms", "ms"),
    ("workloads.score_ms", "ms"),
    ("workloads.unattributed_frac", "frac"),
    ("workloads.plan_compile_us", "us"),
    ("workloads.plan_cache_hit_frac", "frac"),
    ("factorizer.b0.ms", "ms"),
    ("factorizer.b0.row_iters", "count"),
    ("factorizer.b0.capped_rows", "count"),
    ("factorizer.b0.tail_iter_share", "frac"),
    ("factorizer.b0.exact_frac", "frac"),
    ("factorizer.b1.ms", "ms"),
    ("factorizer.b1.row_iters", "count"),
    ("factorizer.b1.capped_rows", "count"),
    ("factorizer.b1.tail_iter_share", "frac"),
    ("factorizer.b1.exact_frac", "frac"),
    ("vsa.similarity_us", "us"),
    ("vsa.similarity_bytes", "B"),
    ("vsa.cleanup_us", "us"),
    ("vsa.cleanup_bytes", "B"),
    ("vsa.fused_step_us", "us"),
    ("vsa.fused_step_bytes", "B"),
    ("serve.engine_frac", "frac"),
    ("serve.retry_work_frac", "frac"),
    ("serve.batch_mean", "count"),
    ("serve.degraded_frac", "frac"),
    ("serve.shed", "count"),
    ("serve.max_level", "count"),
    ("serve.peak_queue_depth", "count"),
    ("trace_overhead_frac", "frac"),
];

/// Outcome of one benchmark run: the metrics plus every failed correctness check.
#[derive(Debug, Default)]
pub struct Report {
    /// Engine calls made in the measured phase.
    pub attempted: u64,
    /// Engine calls that returned an error the workload does not expect.
    pub failed: u64,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// One message per correctness check that did not hold.
    pub violations: Vec<String>,
    /// Host slowdown factor the time metrics were scaled by (1.0 = nominal).
    pub host_factor: f64,
    /// Time metrics as measured on the host, before scaling.
    pub raw: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Records a metric; its unit comes from the catalogue.
    ///
    /// # Panics
    /// Panics on a name missing from both catalogues (a bug in this program).
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"));
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Records a failed correctness check unless `ok` holds.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(message());
        }
    }

    /// Scales the time metrics to a host running at nominal speed: values in
    /// `s`, `ms` and `us` are divided by the host slowdown `factor`, rates in
    /// `1/s` multiplied by it. The measured values are kept in `raw`.
    pub fn normalize(&mut self, factor: f64) {
        self.host_factor = factor;
        for (name, value, unit) in &mut self.metrics {
            let scaled = match *unit {
                "s" | "ms" | "us" => *value / factor,
                "1/s" => *value * factor,
                _ => continue,
            };
            self.raw.push((name.clone(), *value, unit));
            *value = scaled;
        }
    }

    /// True when every correctness check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the result line. `traced` selects the per-layer catalogue;
    /// metrics outside the selected catalogue are left out, and a missing or
    /// non-finite one is reported as a violation so the line stays valid JSON.
    pub fn to_json(&mut self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut body = String::new();
        let mut missing = Vec::new();
        for (name, unit) in catalogue {
            match self.get(name) {
                Some(value) if value.is_finite() => {
                    if !body.is_empty() {
                        body.push_str(", ");
                    }
                    let _ = write!(
                        body,
                        "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                    );
                }
                _ => missing.push(format!("metric `{name}` missing or not finite")),
            }
        }
        self.violations.extend(missing);
        // A run that failed before its first engine call reports its set-up
        // as the one attempt, failed.
        let (attempted, failed) = if self.attempted == 0 {
            (1, 1)
        } else {
            (self.attempted, self.failed)
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
            self.correct(),
        )
    }
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// `numerator / denominator`, or `empty` when the denominator is zero.
pub fn ratio(numerator: f64, denominator: f64, empty: f64) -> f64 {
    if denominator == 0.0 {
        empty
    } else {
        numerator / denominator
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a over a word stream: cheap, deterministic fingerprints of choice lists.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one word into the fingerprint.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The fingerprint value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_selected_metric_with_its_unit() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            report.set(name, 1.5 + i as f64);
        }
        let line = report.to_json(false);
        assert!(report.correct(), "{:?}", report.violations);
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        report.attempted = 0;
        assert!(report
            .to_json(false)
            .contains("\"attempted\": 1, \"failed\": 1"));
        assert!(
            !line.contains("workloads."),
            "traced metrics stay out: {line}"
        );
    }

    #[test]
    fn normalizing_scales_times_and_rates_and_keeps_the_raw_values() {
        let mut report = Report::default();
        report.set("problems_per_s", 100.0);
        report.set("call_ms_p50", 10.0);
        report.set("accuracy", 0.9);
        report.normalize(1.25);
        assert_eq!(report.get("problems_per_s"), Some(125.0));
        assert_eq!(report.get("call_ms_p50"), Some(8.0));
        assert_eq!(report.get("accuracy"), Some(0.9));
        assert_eq!(report.raw.len(), 2);
        assert_eq!(report.host_factor, 1.25);
    }

    #[test]
    fn a_missing_or_non_finite_metric_is_a_violation() {
        let mut report = Report::default();
        report.set("accuracy", f64::NAN);
        let line = report.to_json(false);
        assert!(!report.correct());
        assert!(line.starts_with("{\"correct\": false"));
        assert!(!line.contains("NaN"));
    }

    #[test]
    fn percentiles_and_medians_use_the_whole_sample() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
