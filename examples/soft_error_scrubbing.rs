//! Silent-data-corruption scrubbing with the weighted checksums — the
//! Huang–Abraham side of ABFT (paper ref. [29]) on top of the same
//! encoding that handles fail-stop failures.
//!
//! Seeded bit flips silently corrupt local blocks while the FT Hessenberg
//! reduction runs. The scrub pass at every panel boundary detects each
//! violated checksum group, locates the corrupted member block from the
//! ratio of weighted violations and rewrites it from the surviving data —
//! no rollback, no recomputation — and the residual check passes.
//!
//! ```text
//! cargo run --release --example soft_error_scrubbing
//! ```

use abft_hessenberg::dense::gen::uniform_entry;
use abft_hessenberg::hess::{ft_solve, DriverControl, Encoded, FtSolver, Hessenberg, Redundancy, ScrubPolicy, Variant};
use abft_hessenberg::pblas::{Desc, DistMatrix};
use abft_hessenberg::runtime::{run_spmd, FaultScript};

fn main() {
    let (n, nb, p, q) = (128, 8, 2usize, 4usize);
    // Four flips at seeded message ops of seeded ranks.
    let flips = FaultScript::parse("5:flip=4", p * q, 50..800).expect("a valid fault script");
    println!("soft-error scrubbing demo: {n}x{n}, grid {p}x{q}, Coded(2) (weighted) checksums, 4 seeded bit flips\n");

    let out = run_spmd(p, q, flips, move |ctx| {
        let entry = |i, j| uniform_entry(99, i, j);
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Coded(2), entry);
        let mut tau = vec![0.0; Hessenberg.tau_len(n)];
        let ctl = DriverControl {
            scrub: ScrubPolicy::every_panels(1),
            ..DriverControl::default()
        };
        let rep = ft_solve(&ctx, &Hessenberg, &mut enc, Variant::NonDelayed, &mut tau, ctl).expect("every flip is correctable");
        let scrub = rep.scrub.gathered(&ctx, 1);
        let a0 = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, entry);
        (scrub, Hessenberg.verify_residual(&ctx, &a0, &enc.a, n, &tau))
    });
    let (scrub, residual) = &out[0];
    println!("scrub report (grid-wide): {scrub:#?}");
    println!("\nresidual r_inf = {residual:.4} (paper threshold 3)");
    assert!(scrub.corrections > 0 && scrub.escalations == 0 && scrub.rollbacks == 0);
    assert!(*residual < 3.0);
    println!("PASS: every corruption detected and repaired in place.");
}
