//! Figure 6(a): Overhead of FT-Hess (Algorithm 2) **without failures**,
//! against the fault-intolerant ScaLAPACK-style `pdgehrd`.
//!
//! Paper result (Titan, NB = 80): the performance penalty drops from 7.6 %
//! at N = 6000 on a 6×6 grid to 1.8 % at N = 96,000 on 96×96. The claim
//! under test here is the *shape*: penalty decreases as the matrix and the
//! grid grow together.

use ft_bench::*;
use ft_hess::Variant;

fn main() {
    println!("# Figure 6(a): overhead of FT-Hess (Algorithm 2), no failures");
    println!("# paper: penalty 7.6% at 6k/6x6 -> 1.8% at 96k/96x96, monotone decreasing");
    print_overhead_header("FT");
    let r = reps();
    let mut rows = Vec::new();
    for cfg in paper_sweep() {
        let mut f_plain = 0;
        let mut f_ft = 0;
        let t_plain = best_of(r, |i| {
            let (t, f) = time_plain(cfg, 100 + i as u64);
            f_plain = f;
            t
        });
        let t_ft = best_of(r, |i| {
            let (t, f, _) = time_ft(cfg, 100 + i as u64, Variant::NonDelayed, None);
            f_ft = f;
            t
        });
        print_overhead_row(cfg, t_plain, t_ft, f_plain, f_ft);
        rows.push(overhead_row_json(cfg, t_plain, t_ft, f_plain, f_ft));
    }
    let report = json::Obj::new()
        .str("bench", "fig6a")
        .str("variant", "NonDelayed")
        .int("reps", r as u64)
        .raw("rows", &json::array(&rows))
        .finish();
    if let Ok(p) = json::write_artifact("BENCH_fig6a.json", &report, false) {
        println!("# wrote {}", p.display());
    }
}
