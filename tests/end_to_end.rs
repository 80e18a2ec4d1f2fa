//! Workspace-level integration tests: the full eigensolver pipeline across
//! all five crates — distributed fault-tolerant reduction (with injected
//! failures) feeding the shared-memory QR eigenvalue iteration, verified
//! against the pure shared-memory path.

use abft_hessenberg::dense::gen::{uniform_entry, uniform_indexed_matrix};
use abft_hessenberg::dense::Matrix;
use abft_hessenberg::hess::{failpoint, ft_pdgehrd, Encoded, Phase, Variant};
use abft_hessenberg::lapack::{
    eigenvalues, extract_h, hessenberg_eigenvalues, hessenberg_residual, is_hessenberg, orghr, orthogonality_residual,
};
use abft_hessenberg::runtime::{run_spmd, FaultScript};

fn reduce_distributed(
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    seed: u64,
    variant: Variant,
    script: FaultScript,
) -> (Matrix, Vec<f64>, usize) {
    let out = run_spmd(p, q, script, move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        let rep = ft_pdgehrd(&ctx, &mut enc, variant, &mut tau).expect("within the fault model");
        (enc.gather_logical(&ctx, 600), tau, rep.recoveries)
    });
    out.into_iter().next().unwrap()
}

#[test]
fn eigenvalues_survive_failure() {
    let (n, nb, p, q) = (96, 8, 2, 2);
    let seed = 3;
    let a0 = uniform_indexed_matrix(n, n, seed);

    // Reference spectrum: pure shared-memory path.
    let mut eig_ref = eigenvalues(&a0, nb).unwrap();

    // Distributed FT path with a failure.
    let script = FaultScript::one(2, failpoint(4, Phase::AfterRightUpdate));
    let (ag, _, rec) = reduce_distributed(n, nb, p, q, seed, Variant::NonDelayed, script);
    assert_eq!(rec, 1);
    let mut eig_ft = hessenberg_eigenvalues(&extract_h(&ag)).unwrap();

    // Spectra match as multisets (sort by (re, im)).
    let key = |e: &abft_hessenberg::lapack::Eigenvalue| (e.re, e.im);
    eig_ref.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap());
    eig_ft.sort_by(|a, b| key(a).partial_cmp(&key(b)).unwrap());
    for (a, b) in eig_ref.iter().zip(&eig_ft) {
        assert!((a.re - b.re).abs() < 1e-6 && (a.im - b.im).abs() < 1e-6, "eigenvalue mismatch: {a:?} vs {b:?}");
    }
}

#[test]
fn factorization_quality_after_failure_all_variants() {
    let (n, nb, p, q) = (64, 8, 2, 3);
    let seed = 9;
    let a0 = uniform_indexed_matrix(n, n, seed);
    for variant in [Variant::NonDelayed, Variant::Delayed] {
        let script = FaultScript::one(4, failpoint(3, Phase::AfterLeftUpdate));
        let (ag, tau, rec) = reduce_distributed(n, nb, p, q, seed, variant, script);
        assert_eq!(rec, 1);
        let h = extract_h(&ag);
        assert!(is_hessenberg(&h));
        let qm = orghr(&ag, &tau);
        assert!(orthogonality_residual(&qm) < 10.0);
        let r = hessenberg_residual(&a0, &h, &qm);
        assert!(r < 3.0, "{variant:?}: residual {r}");
    }
}

#[test]
fn table1_property_residual_parity() {
    // The Table 1 claim as a property: with-failure residual within one
    // order of magnitude of the fault-free residual, both under r_t = 3.
    let (n, nb, p, q) = (80, 8, 2, 2);
    let seed = 21;
    let a0 = uniform_indexed_matrix(n, n, seed);

    let (ag_ok, tau_ok, _) = reduce_distributed(n, nb, p, q, seed, Variant::NonDelayed, FaultScript::none());
    let (ag_ft, tau_ft, rec) =
        reduce_distributed(n, nb, p, q, seed, Variant::NonDelayed, FaultScript::one(1, failpoint(5, Phase::AfterPanel)));
    assert_eq!(rec, 1);

    let r_ok = hessenberg_residual(&a0, &extract_h(&ag_ok), &orghr(&ag_ok, &tau_ok));
    let r_ft = hessenberg_residual(&a0, &extract_h(&ag_ft), &orghr(&ag_ft, &tau_ft));
    assert!(r_ok < 3.0 && r_ft < 3.0, "r_ok={r_ok} r_ft={r_ft}");
    assert!(r_ft < 10.0 * r_ok.max(0.01), "recovery lost accuracy: {r_ft} vs {r_ok}");
}

#[test]
fn shared_and_distributed_agree_without_faults() {
    // Cross-check the whole stack: gehrd (shared) vs ft_pdgehrd (distributed,
    // FT machinery on, no failures) produce the same H.
    let (n, nb, p, q) = (48, 4, 3, 2);
    let seed = 14;
    let a0 = uniform_indexed_matrix(n, n, seed);
    let mut aref = a0.clone();
    let mut tau_ref = vec![0.0; n - 1];
    abft_hessenberg::lapack::gehrd(&mut aref, nb, &mut tau_ref);

    let (ag, _, _) = reduce_distributed(n, nb, p, q, seed, Variant::NonDelayed, FaultScript::none());
    let h_ref = extract_h(&aref);
    let h = extract_h(&ag);
    let d = h.max_abs_diff(&h_ref);
    assert!(d < 1e-10, "shared vs distributed H: {d}");
}

#[test]
fn distributed_verification_after_failure() {
    // The fully distributed residual (Q applied as its block reflectors)
    // verifies a fault-recovered reduction without gathering anything.
    use abft_hessenberg::pblas::{pd_hessenberg_residual, Desc, DistMatrix};
    let (n, nb, p, q) = (64, 8, 2, 2);
    let seed = 77;
    let residuals = run_spmd(p, q, FaultScript::one(3, failpoint(2, Phase::AfterRightUpdate)), move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        let rep = ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("within the fault model");
        assert_eq!(rep.recoveries, 1);
        let a0 = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
        pd_hessenberg_residual(&ctx, &a0, &enc.a, n, &tau)
    });
    // Replicated result, below the paper's threshold.
    for r in &residuals {
        assert_eq!(*r, residuals[0], "residual not replicated");
        assert!(*r < 3.0, "distributed residual {r}");
    }
}
