//! `suite --compare A.json B.json`: two `--out` files, metric by metric.
//!
//! For every (workload, end-to-end metric) pair: both values, the relative
//! difference, the metric's bound, and a verdict — `within` when B is no
//! worse than A by more than the bound, `outside` when it is, `unresolved`
//! when either run's own interquartile spread is wider than the bound (the
//! difference then says nothing either way). Other metrics are listed
//! without a verdict. This is the tool the two-set agreement check in
//! README.md is made with.

use crate::json::Value;
use crate::metrics::{Better, END_TO_END};

/// How B compares to A on one bounded metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Outside,
    Unresolved,
}

/// By how much B is worse than A, as a share of A (negative: B is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict for one metric, given each side's value and spread.
pub fn verdict(a: f64, b: f64, spread_a: f64, spread_b: f64, better: Better, bound: f64) -> Verdict {
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worsening(a, b, better) > bound {
        Verdict::Outside
    } else {
        Verdict::Within
    }
}

/// `(q3 − q1) / median` of a metric record, 0 when it carries no series.
fn spread(metric: &Value) -> f64 {
    let f = |k: &str| metric.get(k).and_then(Value::as_f64);
    match (f("q1"), f("median"), f("q3")) {
        (Some(q1), Some(median), Some(q3)) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison. `Ok(true)` when no metric is outside its bound.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads_b = b.get("workloads").ok_or_else(|| format!("{path_b}: no \"workloads\""))?;
    let mut outside = 0;
    println!(
        "{:<12} {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B vs A", "bound"
    );
    for (workload, wa) in a
        .get("workloads")
        .ok_or_else(|| format!("{path_a}: no \"workloads\""))?
        .members()
    {
        let Some(wb) = workloads_b.get(workload) else {
            println!("{workload:<12} only in {path_a}");
            continue;
        };
        for (name, ma) in wa.get("metrics").map(Value::members).unwrap_or_default() {
            let Some(mb) = wb.get("metrics").and_then(|m| m.get(name)) else {
                continue;
            };
            let (Some(va), Some(vb)) = (ma.get("value").and_then(Value::as_f64), mb.get("value").and_then(Value::as_f64)) else {
                continue;
            };
            let rel = if va != 0.0 { (vb - va) / va.abs() * 100.0 } else { 0.0 };
            let (bound, word) = match END_TO_END.iter().find(|m| m.name == name) {
                Some(m) => {
                    let v = verdict(va, vb, spread(ma), spread(mb), m.better, m.bound);
                    if v == Verdict::Outside {
                        outside += 1;
                    }
                    let word = match v {
                        Verdict::Within => "within",
                        Verdict::Outside => "OUTSIDE",
                        Verdict::Unresolved => "unresolved (spread wider than bound)",
                    };
                    (format!("{:.0}%", m.bound * 100.0), word)
                }
                None => ("-".to_string(), ""),
            };
            println!("{workload:<12} {name:<30} {va:>14.6} {vb:>14.6} {rel:>+8.1}% {bound:>7}  {word}");
        }
    }
    println!("# {outside} metric(s) outside their bound");
    Ok(outside == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(1.0, 1.2, Better::Lower) - 0.2).abs() < 1e-12);
        assert!((worsening(10.0, 8.0, Better::Higher) - 0.2).abs() < 1e-12);
        assert!(worsening(1.0, 0.5, Better::Lower) < 0.0);
    }

    #[test]
    fn verdicts() {
        let v = |a, b, sa, sb| verdict(a, b, sa, sb, Better::Lower, 0.10);
        assert_eq!(v(1.0, 1.05, 0.02, 0.03), Verdict::Within);
        assert_eq!(v(1.0, 0.5, 0.02, 0.03), Verdict::Within); // better is never outside
        assert_eq!(v(1.0, 1.2, 0.02, 0.03), Verdict::Outside);
        assert_eq!(v(1.0, 1.2, 0.02, 0.15), Verdict::Unresolved);
        assert_eq!(verdict(8.0, 7.0, 0.0, 0.0, Better::Higher, 0.10), Verdict::Outside);
    }

    #[test]
    fn spread_reads_the_quartiles_of_a_record() {
        let m = Value::parse(r#"{"value":2.0,"q1":1.9,"median":2.0,"q3":2.2}"#).unwrap();
        assert!((spread(&m) - 0.15).abs() < 1e-12);
        assert_eq!(spread(&Value::parse(r#"{"value":2.0}"#).unwrap()), 0.0);
    }
}
