//! Ablation benches beyond the paper's figures (DESIGN.md §4):
//!
//! 1. blocking-factor (NB) sweep — the paper fixes NB = 80;
//! 2. grid-shape sweep at constant process count — the §6 model says the
//!    flop overhead scales with 1/Q (the *column* count), not 1/(PQ);
//! 3. Algorithm 2 vs Algorithm 3 head-to-head;
//! 4. recovery-cost breakdown by failure time and phase;
//! 5. ABFT vs the §2 Checkpoint/Restart baseline under Poisson failures;
//! 6. checksum redundancy levels (paper scheme vs the §8 future-work
//!    weighted extension).

use ft_bench::*;
use ft_dense::gen::uniform_entry;
use ft_hess::{cr_pdgehrd, failpoint, ft_pdgehrd, Encoded, Phase, Redundancy, Variant};
use ft_pblas::{Desc, DistMatrix};
use ft_runtime::{poisson_failures, run_spmd, FaultScript, PlannedFailure};
use std::time::Instant;

fn main() {
    let r = reps();

    println!("# Ablation 1: blocking factor sweep (fixed N, grid 4x4)");
    println!("{:>4}  {:>9} {:>9} {:>9}", "nb", "plain s", "FT s", "penalty %");
    for nb in [8usize, 16, 32] {
        let n = 768usize.div_ceil(nb) * nb;
        let cfg = Config { p: 4, q: 4, n, nb };
        let tp = best_of(r, |i| time_plain(cfg, 10 + i as u64).0);
        let tf = best_of(r, |i| time_ft(cfg, 10 + i as u64, Variant::NonDelayed, None).0);
        println!("{:>4}  {:>9.3} {:>9.3} {:>9.2}", nb, tp, tf, (tf - tp) / tp * 100.0);
    }

    println!("\n# Ablation 2: grid shape at constant 16 processes (overhead ~ 1/Q)");
    println!("{:>6}  {:>9} {:>9} {:>9}", "grid", "plain s", "FT s", "penalty %");
    for (p, q) in [(8usize, 2usize), (4, 4), (2, 8)] {
        let cfg = Config { p, q, n: 768, nb: 16 };
        let tp = best_of(r, |i| time_plain(cfg, 20 + i as u64).0);
        let tf = best_of(r, |i| time_ft(cfg, 20 + i as u64, Variant::NonDelayed, None).0);
        println!("{:>6}  {:>9.3} {:>9.3} {:>9.2}", cfg.grid_label(), tp, tf, (tf - tp) / tp * 100.0);
    }

    println!("\n# Ablation 3: Algorithm 2 (fused) vs Algorithm 3 (delayed)");
    println!("{:>6} {:>7}  {:>9} {:>9} {:>9}", "grid", "N", "Alg2 s", "Alg3 s", "A3/A2");
    for cfg in paper_sweep() {
        let t2 = best_of(r, |i| time_ft(cfg, 30 + i as u64, Variant::NonDelayed, None).0);
        let t3 = best_of(r, |i| time_ft(cfg, 30 + i as u64, Variant::Delayed, None).0);
        println!("{:>6} {:>7}  {:>9.3} {:>9.3} {:>9.3}", cfg.grid_label(), cfg.n, t2, t3, t3 / t2);
    }

    println!("\n# Ablation 7: blocked vs non-blocked reduction (paper §3.3/§3.4, grid 2x2)");
    blocked_vs_unblocked();

    println!("\n# Ablation 5: ABFT vs Checkpoint/Restart under Poisson failures (4x4, N=768)");
    abft_vs_cr();

    println!("\n# Ablation 6: redundancy levels, fault-free overhead (4x4, N=768)");
    redundancy_levels();

    println!("\n# Ablation 4: recovery cost vs failure time and phase (grid 4x4)");
    let cfg = Config { p: 4, q: 4, n: 768, nb: 16 };
    let panels = panel_count(cfg.n, cfg.nb);
    println!("{:>8} {:>18}  {:>9} {:>12}", "panel", "phase", "total s", "recovery s");
    for (label, panel) in [("early", 1), ("middle", panels / 2), ("late", panels - 2)] {
        for phase in [Phase::AfterPanel, Phase::AfterRightUpdate, Phase::AfterLeftUpdate] {
            let (t, _, rep) = time_ft(cfg, 40, Variant::NonDelayed, Some((panel, phase, 5)));
            assert_eq!(rep.recoveries, 1);
            println!("{:>8} {:>18}  {:>9.3} {:>12.4}", label, format!("{phase:?}"), t, rep.recovery_secs);
        }
    }
}

/// Ablation 5: the paper's §2 argument quantified. Same Poisson failure
/// schedules drive the ABFT reduction and the diskless C/R baseline; the
/// C/R run pays full-matrix checkpoints plus lost work per rollback.
fn abft_vs_cr() {
    let cfg = Config { p: 4, q: 4, n: 768, nb: 16 };
    let panels = panel_count(cfg.n, cfg.nb);
    let interval = 8; // C/R checkpoint every 8 panels
    println!(
        "{:>9}  {:>9} {:>9}  {:>9} {:>9} {:>10}",
        "failures", "ABFT s", "recov", "C/R s", "rollbk", "lost panels"
    );
    for expected in [0usize, 1, 3, 6] {
        let schedule: Vec<PlannedFailure> = if expected == 0 {
            vec![]
        } else {
            poisson_failures(panels as u64, panels as f64 / expected as f64, cfg.procs(), 99 + expected as u64)
                .into_iter()
                .map(|f| PlannedFailure {
                    victim: f.victim,
                    point: failpoint(f.point as usize, Phase::AfterLeftUpdate),
                })
                .collect()
        };
        let nfail = schedule.len();

        let (n, nb, p, q) = (cfg.n, cfg.nb, cfg.p, cfg.q);
        let sched2 = schedule.clone();
        let t = Instant::now();
        let recov = run_spmd(p, q, FaultScript::new(schedule), move |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(5, i, j));
            let mut tau = vec![0.0; n - 1];
            ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau)
                .expect("within the fault model")
                .recoveries
        })[0];
        let t_abft = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let (rollbacks, lost) = run_spmd(p, q, FaultScript::new(sched2), move |ctx| {
            let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(5, i, j));
            let mut tau = vec![0.0; n - 1];
            let rep = cr_pdgehrd(&ctx, &mut a, interval, &mut tau);
            (rep.rollbacks, rep.lost_panels)
        })[0];
        let t_cr = t.elapsed().as_secs_f64();

        println!("{:>9}  {:>9.3} {:>9} {:>9.3} {:>9} {:>10}", nfail, t_abft, recov, t_cr, rollbacks, lost);
    }
}

/// Ablation 6: fault-free cost of the redundancy levels. `Coded(2)` doubles the
/// checksum columns (4 weighted vs 2 duplicated), roughly doubling the
/// checksum-update flops, in exchange for tolerating two failures per
/// process row.
fn redundancy_levels() {
    let cfg = Config { p: 4, q: 4, n: 768, nb: 16 };
    let (n, nb, p, q) = (cfg.n, cfg.nb, cfg.p, cfg.q);
    let (t_plain, f_plain) = time_plain(cfg, 6);
    println!("{:>8}  {:>9} {:>11} {:>11}", "scheme", "time s", "wall pen %", "flop pen %");
    println!("{:>8}  {:>9.3} {:>11} {:>11}", "none", t_plain, "-", "-");
    for (label, red) in [("single", Redundancy::Single), ("coded2", Redundancy::Coded(2))] {
        ft_dense::counters::reset_flops();
        let t = Instant::now();
        run_spmd(p, q, FaultScript::none(), move |ctx| {
            let mut enc = Encoded::with_redundancy(&ctx, n, nb, red, |i, j| uniform_entry(6, i, j));
            let mut tau = vec![0.0; n - 1];
            ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("within the fault model");
        });
        let secs = t.elapsed().as_secs_f64();
        let flops = ft_dense::counters::flops();
        println!(
            "{:>8}  {:>9.3} {:>11.2} {:>11.2}",
            label,
            secs,
            (secs - t_plain) / t_plain * 100.0,
            (flops as f64 - f_plain as f64) / f_plain as f64 * 100.0
        );
    }
}

/// Ablation 7: the paper's §3.3 point — the non-blocked reduction is all
/// Level-2 BLAS and per-column communication; blocking (§3.4) batches both.
/// nb = 1 *is* the non-blocked algorithm under this code base (every panel
/// is one column).
fn blocked_vs_unblocked() {
    let n = 256;
    println!("{:>4}  {:>9} {:>11}", "nb", "plain s", "vs nb=16");
    let base = {
        let cfg = Config { p: 2, q: 2, n, nb: 16 };
        time_plain(cfg, 8).0
    };
    for nb in [1usize, 4, 16, 32] {
        let cfg = Config { p: 2, q: 2, n, nb };
        let t = time_plain(cfg, 8).0;
        println!("{:>4}  {:>9.3} {:>10.2}x", nb, t, t / base);
    }
}
