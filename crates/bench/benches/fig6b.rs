//! Figure 6(b): Overhead of FT-Hess (Algorithm 2) **with one failure**
//! injected mid-factorization, recovery cost included.
//!
//! Paper result: total overhead including recovery stays low and keeps
//! decreasing with scale — 4.03 % at N = 96,000 on 96×96.

use ft_bench::*;
use ft_hess::{Phase, Variant};

fn main() {
    println!("# Figure 6(b): overhead of FT-Hess (Algorithm 2), one failure + recovery");
    println!("# paper: overhead still decreasing with scale; 4.03% at 96k/96x96");
    print_overhead_header("FT+1f");
    let r = reps();
    let mut rows = Vec::new();
    for cfg in paper_sweep() {
        let mut f_plain = 0;
        let mut f_ft = 0;
        let t_plain = best_of(r, |i| {
            let (t, f) = time_plain(cfg, 200 + i as u64);
            f_plain = f;
            t
        });
        // Failure in the middle of the factorization, after a right update
        // (the phase with the most state in flight); victim rank 1.
        let mid = panel_count(cfg.n, cfg.nb) / 2;
        let t_ft = best_of(r, |i| {
            let (t, f, rep) = time_ft(cfg, 200 + i as u64, Variant::NonDelayed, Some((mid, Phase::AfterRightUpdate, 1)));
            assert_eq!(rep.recoveries, 1);
            f_ft = f;
            t
        });
        print_overhead_row(cfg, t_plain, t_ft, f_plain, f_ft);
        rows.push(overhead_row_json(cfg, t_plain, t_ft, f_plain, f_ft));
    }
    let report = json::Obj::new()
        .str("bench", "fig6b")
        .str("variant", "NonDelayed")
        .str("failure", "mid-run AfterRightUpdate, victim rank 1")
        .int("reps", r as u64)
        .raw("rows", &json::array(&rows))
        .finish();
    if let Ok(p) = json::write_artifact("BENCH_fig6b.json", &report, false) {
        println!("# wrote {}", p.display());
    }
}
