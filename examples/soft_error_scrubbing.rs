//! Silent-data-corruption scrubbing with the weighted checksums — the
//! Huang–Abraham side of ABFT (paper ref. [29]) on top of the same
//! encoding that handles fail-stop failures.
//!
//! A cosmic-ray bit flip silently corrupts matrix entries; the periodic
//! scrub detects the violated checksum group, locates the corrupted
//! process column from the ratio of weighted violations, and rewrites the
//! block from the surviving data — no rollback, no recomputation.
//!
//! ```text
//! cargo run --release --example soft_error_scrubbing
//! ```

use abft_hessenberg::dense::gen::uniform_entry;
use abft_hessenberg::hess::{scrub_groups, Encoded, Redundancy};
use abft_hessenberg::runtime::{run_spmd, FaultScript};

fn main() {
    let n = 128;
    let nb = 8;
    let (p, q) = (2usize, 4usize);
    println!("soft-error scrubbing demo: {n}x{n}, grid {p}x{q}, Coded(2) (weighted) checksums\n");

    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Coded(2), |i, j| uniform_entry(99, i, j));
        enc.compute_initial_checksums(&ctx);
        let pristine = enc.gather_logical(&ctx, 1);

        // Corrupt three entries on different processes / groups.
        // One corruption per checksum group (group = 32 columns here).
        let flips = [(5usize, 9usize, 1e3), (40, 49, -2.5), (100, 101, 7.0)];
        for &(r, c, delta) in &flips {
            if enc.a.owns_row(r) && enc.a.owns_col(c) {
                let v = enc.a.get(r, c);
                enc.a.set(r, c, v + delta);
            }
        }

        let groups = 0..enc.groups();
        let findings = scrub_groups(&ctx, &mut enc, groups, 1e-9);
        if ctx.rank() == 0 {
            println!("scrub findings:");
            for f in &findings {
                println!(
                    "  group {:>2}: |violation| = {:>9.3e}, member column index {:?}, corrected: {}",
                    f.group, f.magnitude, f.member_index, f.corrected
                );
            }
        }
        assert_eq!(findings.len(), flips.len());
        assert!(findings.iter().all(|f| f.corrected));

        let healed = enc.gather_logical(&ctx, 3);
        let d = healed.max_abs_diff(&pristine);
        if ctx.rank() == 0 {
            println!("\nmax |healed − pristine| = {d:.3e}");
            assert!(d < 1e-9);
            println!("PASS: all corruptions located and repaired in place.");
        }
    });
}
