//! What one run of one workload reports, and how it is printed: a table a
//! person reads, then — as the last line of stdout — the one JSON object
//! the driver reads.

use crate::json::Value;
use crate::samples::Samples;

/// One named number. `series` is the run's own samples when the value is
/// the median of several (timings); exact counts carry none.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub series: Option<Samples>,
}

impl Metric {
    /// A metric whose value is the median of `series`.
    pub fn median(name: &'static str, unit: &'static str, series: Samples) -> Metric {
        Metric { name, unit, value: series.median(), series: Some(series) }
    }

    /// A metric that is one number (a count, a ratio of medians).
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, series: None }
    }
}

/// One run of one workload.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    /// Operations timed (solves, jobs) and how many of them failed a check,
    /// returned a typed error or were rejected.
    pub attempted: u64,
    pub failed: u64,
    /// Checks that failed, in words. Empty on a correct run.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed under the table (shapes, sizes, notices).
    pub notes: Vec<String>,
}

impl Report {
    /// Every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The table: one metric a line, by name, with unit and — for a timing
    /// — `n, min, q1, median, q3` of the run's samples.
    pub fn print(&self) {
        println!(
            "# workload {} seed {}: attempted {} failed {}",
            self.workload, self.seed, self.attempted, self.failed
        );
        for m in &self.metrics {
            // Exact counts repeat exactly: no statistics, no decimals.
            let series = m.series.as_ref().filter(|s| s.min() != s.max());
            let series = series.map(|s| format!("  [{}]", s.summary())).unwrap_or_default();
            let digits = if m.value.fract() == 0.0 && m.value.abs() >= 1000.0 { 0 } else { 6 };
            println!("{:<32} {:>16.digits$} {:<8}{series}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for p in &self.problems {
            println!("# CHECK FAILED: {p}");
        }
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (`name → {value, unit}`).
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name, Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))])));
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_json()
    }

    /// The fuller record `--out` writes and `--compare` reads: every metric
    /// with its run statistics.
    pub fn to_json(&self) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
            if let Some(s) = &m.series {
                fields.extend([
                    ("n", Value::Num(s.n() as f64)),
                    ("min", Value::Num(s.min())),
                    ("q1", Value::Num(s.q1())),
                    ("median", Value::Num(s.median())),
                    ("q3", Value::Num(s.q3())),
                ]);
            }
            (m.name, Value::obj(fields))
        });
        Value::obj([
            ("seed", Value::Num(self.seed as f64)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }
}
