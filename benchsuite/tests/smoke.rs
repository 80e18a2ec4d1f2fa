//! Every workload, in smoke mode, with and without the trace: each metric
//! of the table appears exactly once, finite, with its unit; every check
//! passes.
//!
//! One `#[test]` on purpose: the flop counters the traced run reads are
//! process-global, so workloads must not run side by side.

use ft_benchsuite::e2e::{self, RunCfg};
use ft_benchsuite::layers;
use ft_benchsuite::metrics::{END_TO_END, PER_LAYER};
use ft_benchsuite::report::Report;
use ft_benchsuite::serve::daemon_binary_path;
use ft_benchsuite::workloads::WORKLOADS;

fn check(report: &Report, table: &[(&str, &str)]) {
    assert!(
        report.correct(),
        "{}: {:?} (failed {} of {})",
        report.workload,
        report.problems,
        report.failed,
        report.attempted
    );
    assert!(report.attempted >= 1);
    assert_eq!(report.metrics.len(), table.len(), "{}: metric count", report.workload);
    for (name, unit) in table {
        let found: Vec<_> = report.metrics.iter().filter(|m| m.name == *name).collect();
        assert_eq!(found.len(), 1, "{}: {name} appears {} times", report.workload, found.len());
        assert_eq!(found[0].unit, *unit, "{}: unit of {name}", report.workload);
        assert!(found[0].value.is_finite(), "{}: {name} = {}", report.workload, found[0].value);
    }
}

#[test]
fn every_workload_reports_every_metric_in_smoke_mode() {
    ft_dense::pool::set_threads_override(Some(1));
    let daemon = Some(daemon_binary_path()).filter(|p| p.exists());
    let cfg = RunCfg { seed: 5, seconds: 1.0, smoke: true, daemon };
    let e2e_table: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layer_table: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let trace_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in WORKLOADS.map(|w| w.smoke()) {
        assert!(w.shape.n <= 192, "{}: smoke N = {}", w.name, w.shape.n);
        if w.serve.is_some() && cfg.daemon.is_none() {
            println!(
                "skipping {}: {} is not built (cargo build --release at the repo root)",
                w.name,
                daemon_binary_path().display()
            );
            continue;
        }
        let plain = e2e::run(&w, &cfg).unwrap();
        check(&plain, &e2e_table);
        // The end-to-end metrics must never read 0.
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.name, m.name, m.value);
        }

        let trace_file = trace_dir.join(format!("{}.trace.jsonl", w.name));
        let traced = layers::run(&w, &cfg, &trace_file).unwrap();
        check(&traced, &layer_table);
        let spans = std::fs::read_to_string(&trace_file).unwrap();
        assert!(spans.lines().count() > 10, "{}: span file has {} lines", w.name, spans.lines().count());
        for name in [
            "\"pblas.panel\"",
            "\"pblas.update\"",
            "\"core.encode\"",
            "\"core.panel\"",
            "\"core.scope\"",
        ] {
            assert!(spans.contains(name), "{}: no {name} span", w.name);
        }
    }
}
