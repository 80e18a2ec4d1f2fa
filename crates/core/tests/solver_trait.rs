//! The `FtSolver` contract as its callers see it: everything the CLI, the
//! serve worker and the benches need from a solver — the plain driver, the
//! FT driver, the residual oracles, the flop coefficient — is reachable
//! from a `&dyn FtSolver` looked up by name. This file never names a
//! concrete solver: a third `SOLVERS` entry is covered the day it is added.

use ft_dense::gen::uniform_entry;
use ft_hess::{failpoint, ft_solve, solver_by_name, DriverControl, Encoded, Phase, Variant, SOLVERS};
use ft_pblas::{Desc, DistMatrix};
use ft_runtime::{run_spmd, FaultScript};

#[test]
fn registry_resolves_every_solver_by_its_own_name() {
    assert!(!SOLVERS.is_empty());
    for (i, s) in SOLVERS.iter().enumerate() {
        let found = solver_by_name(s.name()).unwrap_or_else(|| panic!("{} not registered under its name", s.name()));
        assert_eq!(found.name(), s.name());
        // Names are the lookup key: they must be unique.
        assert!(SOLVERS[..i].iter().all(|t| t.name() != s.name()), "duplicate solver name {}", s.name());
        assert!(s.flop_coef() > 0.0);
        assert_eq!(s.panel_count(1, 4), s.panel_exists(0, 1) as usize);
    }
    assert!(solver_by_name("no-such-solver").is_none());
}

/// plain → FT → residual through the trait alone, fault-free and through a
/// scripted recovery: the FT factorization is element-wise the plain one
/// and passes the solver's own acceptance check.
#[test]
fn plain_ft_and_residual_agree_for_every_registered_solver() {
    let (n, nb, p, q, seed) = (24usize, 4usize, 2usize, 2usize, 31u64);
    for s in SOLVERS {
        let solver = solver_by_name(s.name()).unwrap();
        for script in [FaultScript::none(), FaultScript::one(3, failpoint(1, Phase::AfterPanel))] {
            let want_recoveries = script.failures().len();
            run_spmd(p, q, script, move |ctx| {
                let entry = |i, j| uniform_entry(seed, i, j);
                let desc = Desc { m: n, n, nb };
                let a0 = DistMatrix::from_global_fn(&ctx, desc, entry);

                let mut plain = DistMatrix::from_global_fn(&ctx, desc, entry);
                let mut tau_plain = vec![0.0; solver.tau_len(n)];
                solver.plain(&ctx, &mut plain, &mut tau_plain);

                let mut enc = Encoded::from_global_fn(&ctx, n, nb, entry);
                let mut tau = vec![0.0; solver.tau_len(n)];
                let rep = ft_solve(&ctx, solver, &mut enc, Variant::NonDelayed, &mut tau, DriverControl::default())
                    .expect("within the fault model");
                assert_eq!(rep.recoveries, want_recoveries, "{}", solver.name());

                let (g_plain, g_ft) = (plain.gather_all(&ctx, 700), enc.gather_logical(&ctx, 702));
                if want_recoveries == 0 {
                    assert_eq!(g_ft.max_abs_diff(&g_plain), 0.0, "{}: fault-free FT != plain", solver.name());
                    assert_eq!(tau, tau_plain, "{}: fault-free tau", solver.name());
                } else {
                    assert!(g_ft.max_abs_diff(&g_plain) < 1e-10, "{}: recovered FT drifted from plain", solver.name());
                }

                let r = solver.residual(&ctx, &a0, &enc.a, n, &tau);
                let v = solver.verify_residual(&ctx, &a0, &enc.a, n, &tau);
                assert!(r < 3.0 && v < 3.0, "{}: residual {r}, verify {v}", solver.name());
                assert!(v >= r, "{}: the acceptance check is at least the factorization residual", solver.name());
                if want_recoveries == 0 {
                    // Same bits in, same oracle, same bits out.
                    assert_eq!(r, solver.residual(&ctx, &a0, &plain, n, &tau_plain), "{}", solver.name());
                }
            });
        }
    }
}
