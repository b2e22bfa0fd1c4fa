//! The result line: metrics by name with their units, attempted and
//! failed operations, and whether every correctness check passed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// Metrics, notes and counts collected by one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
    /// Operations attempted: reads aligned or requests sent.
    pub attempted: u64,
    /// Attempted operations that failed (shed, errored or unanswered).
    pub failed: u64,
}

/// Significant digits kept on simulated values. The simulated energy is
/// a float sum merged in worker-completion order, so its last bits vary
/// with thread scheduling; every digit kept here repeats exactly.
const SIM_DIGITS: i32 = 9;

/// `v` rounded to [`SIM_DIGITS`] significant digits.
pub fn sim_round(v: f64) -> f64 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    let scale = 10f64.powi(SIM_DIGITS - 1 - v.abs().log10().floor() as i32);
    (v * scale).round() / scale
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Sets metric `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Sets metric `name` from a sample's supported percentile `q`
    /// (ms samples), noting when `q` had to be lowered.
    pub fn put_percentile(&mut self, name: &str, samples_ms: &[f64], q: f64) {
        match stats::supported_percentile(samples_ms, q) {
            Some(p) => {
                if p.reduced(q) {
                    self.note(format!(
                        "{name}: {} samples leave fewer than {} beyond p{}; reported p{:.2}",
                        p.n,
                        stats::MIN_BEYOND,
                        q * 100.0,
                        p.q * 100.0
                    ));
                }
                self.put(name, p.value);
            }
            None => self.absent(
                name,
                &format!(
                    "{} samples; no percentile has ten beyond it",
                    samples_ms.len()
                ),
            ),
        }
    }

    /// Reports metric `name` as 0 and says why it was not measured.
    pub fn absent(&mut self, name: &str, why: &str) {
        self.note(format!("{name}: absent ({why}); reported as 0"));
        self.put(name, 0.0);
    }

    /// Adds a note, printed before the result line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// The notes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// A human-readable table of the metrics in `wanted` order.
    pub fn table(&self, wanted: &[(String, String)]) -> String {
        let mut out = String::new();
        for (name, unit) in wanted {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(out, "{name:<34} {v:>16.6} {unit}");
            }
        }
        out
    }

    /// The result line: exactly the metrics in `wanted` (name, unit),
    /// in that order.
    ///
    /// # Errors
    ///
    /// Names the first wanted metric the run did not set.
    pub fn result_line(
        &self,
        wanted: &[(String, String)],
        correct: bool,
    ) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let v = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        ))
    }
}

/// `ns` as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `ns` as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The median of `samples_ns`, in seconds.
pub fn median_s(samples_ns: &[u64]) -> f64 {
    let v: Vec<f64> = samples_ns.iter().map(|&n| secs(n)).collect();
    stats::median(&v)
}

/// A percentile of `samples`, or 0 when the sample is too small.
pub fn pct_or_zero(samples: &[f64], q: f64) -> f64 {
    stats::supported_percentile(samples, q).map_or(0.0, |p| p.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_values_round_to_nine_significant_digits() {
        assert_eq!(sim_round(4_736_842.105_263_158), 4_736_842.11);
        assert_eq!(sim_round(0.000_123_456_789_123), 0.000_123_456_789);
        assert_eq!(sim_round(0.0), 0.0);
        // Float-sum noise in the last bits disappears.
        let a = 0.1 + 0.2;
        assert_eq!(sim_round(a), sim_round(0.3));
    }

    #[test]
    fn result_line_has_every_wanted_metric_in_order() {
        let mut r = Report::new();
        r.put("b", 2.5);
        r.put("a", 1.0);
        r.put("extra", 9.0);
        r.attempted = 10;
        r.failed = 1;
        let wanted = vec![
            ("a".to_owned(), "s".to_owned()),
            ("b".to_owned(), "ms".to_owned()),
        ];
        let line = r.result_line(&wanted, true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
        let doc = bench::json::parse(&line).unwrap();
        assert_eq!(doc.get("metrics.b.value").unwrap().as_f64(), Some(2.5));
        let missing = vec![("c".to_owned(), "s".to_owned())];
        assert!(r.result_line(&missing, true).is_err());
    }
}
