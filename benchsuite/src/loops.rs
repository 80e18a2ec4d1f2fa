//! The bench's own copies of the ten-line `pdgehrd` / `pdgeqrf` driver
//! loops, over the public panel and update kernels, with a span around
//! each call. The plain drivers have no hook, so this is how the traced run
//! splits the fault-intolerant path into panel and update time from
//! outside `ft-pblas`. `tests/equivalence.rs` proves both loops bitwise
//! equal to the library drivers, so the traced plain path is the same
//! program.

use crate::spans;
use ft_pblas::{apply_panel_updates, apply_qr_panel_updates, pdlahrd, pdlaqrf, DistMatrix};
use ft_runtime::Ctx;

/// [`ft_pblas::pdgehrd`], with `pblas.panel` / `pblas.update` spans.
pub fn traced_pdgehrd(ctx: &Ctx, a: &mut DistMatrix, tau: &mut [f64]) {
    let n = a.desc().n;
    let nb = a.desc().nb;
    let (mut k, mut panel) = (0, 0);
    while k + 2 < n {
        let w = nb.min(n - 2 - k);
        let f = spans::scoped("pblas.panel", Some(panel), || pdlahrd(ctx, a, n, k, w));
        spans::scoped("pblas.update", Some(panel), || apply_panel_updates(ctx, a, &f, n));
        tau[k..k + w].copy_from_slice(&f.tau);
        k += w;
        panel += 1;
    }
}

/// [`ft_pblas::pdgeqrf`], with `pblas.panel` / `pblas.update` spans.
pub fn traced_pdgeqrf(ctx: &Ctx, a: &mut DistMatrix, tau: &mut [f64]) {
    let n = a.desc().n;
    let nb = a.desc().nb;
    let (mut k, mut panel) = (0, 0);
    while k < n {
        let w = nb.min(n - k);
        let f = spans::scoped("pblas.panel", Some(panel), || pdlaqrf(ctx, a, n, k, w));
        spans::scoped("pblas.update", Some(panel), || apply_qr_panel_updates(ctx, a, &f, n));
        tau[k..k + w].copy_from_slice(&f.tau);
        k += w;
        panel += 1;
    }
}
