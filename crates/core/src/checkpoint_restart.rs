//! The Checkpoint/Restart baseline (paper §2).
//!
//! The paper motivates ABFT by arguing that classic C/R is a poor fit for
//! the Hessenberg reduction: "the whole trailing matrix … is modified very
//! frequently, annihilating even the potential benefits of incremental
//! checkpointing", so every checkpoint must copy essentially the whole
//! matrix. This module implements that comparison point faithfully as a
//! *diskless* C/R (checkpoints to a neighbor's memory, the strongest
//! variant discussed — refs [39, 25, 35]): a full local-state checkpoint
//! every `interval` panels, global rollback on failure.
//!
//! Differences from the ABFT scheme that the `ablations` bench quantifies:
//!
//! * checkpoint volume is the **whole matrix** per checkpoint, vs the ABFT
//!   scheme's one panel scope;
//! * a failure loses **all work since the last checkpoint** on *every*
//!   process (global rollback), vs the ABFT scheme's localized
//!   reconstruction;
//! * no extra flops during computation (no checksum updates), so the
//!   fault-free overhead is pure copy/communication time.
//!
//! The module also provides [`FtCheckpoint`], a serializable per-rank
//! snapshot of a mid-factorization **encoded** state (extended local
//! matrix + completed `tau` prefix) that round-trips through bytes
//! bit-exactly — the bridge between the ABFT drivers' in-memory scope
//! checkpoints and external storage.

use crate::encode::Encoded;
use ft_pblas::{apply_panel_updates, pdlahrd, DistMatrix};
use ft_runtime::{Ctx, Tag};
use std::time::Instant;

const TAG_CKPT: Tag = Tag::Checkpoint(0);
const TAG_CKPT_RESTORE: Tag = Tag::Recovery(0x10);
const TAG_CKPT_REARM: Tag = Tag::Recovery(0x11);

/// Outcome statistics of a C/R run.
#[derive(Debug, Clone, Default)]
pub struct CrReport {
    /// Checkpoints taken.
    pub checkpoints: usize,
    /// Rollbacks performed (= failure events survived).
    pub rollbacks: usize,
    /// Panel iterations re-executed due to rollbacks (the lost work).
    pub lost_panels: usize,
    /// Seconds spent taking checkpoints.
    pub checkpoint_secs: f64,
    /// Seconds spent restoring state on rollback.
    pub restore_secs: f64,
    /// Total wall seconds.
    pub total_secs: f64,
}

/// Magic prefix of the [`FtCheckpoint`] wire format (versioned).
const FT_CKPT_MAGIC: [u8; 8] = *b"FTHCKPT1";

/// A serializable per-rank checkpoint of a mid-factorization **encoded**
/// state: the rank's full extended local matrix (logical data *and* its
/// checksum columns/rows travel together, so Theorem 1 can be re-verified
/// on the restored image), plus the `tau` prefix completed so far.
///
/// This is the externalizable counterpart of the in-memory diskless
/// checkpoint [`cr_pdgehrd`] keeps on a neighbor: the byte format lets a
/// checkpoint outlive the process (disk, object store, a spare's memory).
/// Capture it from an observation hook
/// ([`crate::DriverControl::hook`]); the hook
/// holds no borrow of `tau`, so the reflector prefix is attached afterwards
/// via [`FtCheckpoint::record_tau`] — sound because every driver writes
/// each `tau` entry exactly once (a completed panel's entries never change
/// later in the run).
#[derive(Debug, Clone, PartialEq)]
pub struct FtCheckpoint {
    /// Logical dimension `N` of the encoding this snapshot came from.
    n: usize,
    /// Blocking factor of the encoding.
    nb: usize,
    /// Panel index the snapshot was taken at.
    panel: usize,
    /// This rank's full extended local matrix (data + checksums).
    local: Vec<f64>,
    /// The `tau` prefix written by the panels completed so far.
    tau: Vec<f64>,
}

impl FtCheckpoint {
    /// Snapshot this rank's extended local state at `panel`. `tau` is the
    /// reflector prefix completed so far — pass `&[]` when capturing from
    /// inside an observation hook and attach it later with
    /// [`FtCheckpoint::record_tau`].
    pub fn capture(enc: &Encoded, tau: &[f64], panel: usize) -> Self {
        Self {
            n: enc.n(),
            nb: enc.nb(),
            panel,
            local: enc.a.local().as_slice().to_vec(),
            tau: tau.to_vec(),
        }
    }

    /// Attach (or replace) the completed-`tau` prefix. Callable after the
    /// driver returns because `tau` entries are write-once per panel: the
    /// final run's prefix is bitwise the capture-time prefix.
    pub fn record_tau(&mut self, tau: &[f64]) {
        self.tau = tau.to_vec();
    }

    /// Panel index this checkpoint was captured at.
    pub fn panel(&self) -> usize {
        self.panel
    }

    /// Serialize: magic, five `u64` header words (`n`, `nb`, `panel`,
    /// local length, tau length), then the two payloads as little-endian
    /// IEEE bit patterns (bit-exact round-trip, `-0.0` and subnormals
    /// included).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 5 * 8 + 8 * (self.local.len() + self.tau.len()));
        out.extend_from_slice(&FT_CKPT_MAGIC);
        for v in [self.n, self.nb, self.panel, self.local.len(), self.tau.len()] {
            out.extend_from_slice(&(v as u64).to_le_bytes());
        }
        for &x in self.local.iter().chain(&self.tau) {
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        out
    }

    /// Parse a [`FtCheckpoint::to_bytes`] image. Fails (never panics) on a
    /// foreign magic, a truncated buffer, or trailing garbage — the three
    /// ways a stored checkpoint goes bad.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        fn take<'a>(bytes: &'a [u8], off: &mut usize, len: usize) -> Result<&'a [u8], String> {
            let end = off
                .checked_add(len)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| format!("checkpoint truncated: need {len} bytes at offset {off}, buffer has {}", bytes.len()))?;
            let s = &bytes[*off..end];
            *off = end;
            Ok(s)
        }
        fn take_u64(bytes: &[u8], off: &mut usize) -> Result<usize, String> {
            Ok(u64::from_le_bytes(take(bytes, off, 8)?.try_into().unwrap()) as usize)
        }
        fn take_f64s(bytes: &[u8], off: &mut usize, count: usize) -> Result<Vec<f64>, String> {
            let raw = take(bytes, off, count.checked_mul(8).ok_or("checkpoint header overflows")?)?;
            Ok(raw
                .chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                .collect())
        }
        let mut off = 0usize;
        let magic = take(bytes, &mut off, 8)?;
        if magic != FT_CKPT_MAGIC {
            return Err(format!("bad checkpoint magic {magic:02x?}"));
        }
        let n = take_u64(bytes, &mut off)?;
        let nb = take_u64(bytes, &mut off)?;
        let panel = take_u64(bytes, &mut off)?;
        let nlocal = take_u64(bytes, &mut off)?;
        let ntau = take_u64(bytes, &mut off)?;
        let local = take_f64s(bytes, &mut off, nlocal)?;
        let tau = take_f64s(bytes, &mut off, ntau)?;
        if off != bytes.len() {
            return Err(format!("trailing garbage: {} bytes past the checkpoint payload", bytes.len() - off));
        }
        Ok(Self { n, nb, panel, local, tau })
    }

    /// Whether this snapshot restores into an `N = n`, `nb` encoding whose
    /// local buffer holds `local_len` words, with a `tau_len`-long `tau`.
    /// `Err` names the first mismatch — a stored checkpoint can come back
    /// from disk for the wrong job or damaged.
    pub fn fits(&self, n: usize, nb: usize, local_len: usize, tau_len: usize) -> Result<(), String> {
        let mismatch = |what: &str, got: usize, want: usize| Err(format!("checkpoint {what} is {got}, the target's {want}"));
        if self.n != n {
            return mismatch("N", self.n, n);
        }
        if self.nb != nb {
            return mismatch("nb", self.nb, nb);
        }
        if self.local.len() != local_len {
            return mismatch("local length", self.local.len(), local_len);
        }
        if self.tau.len() > tau_len {
            return mismatch("tau prefix", self.tau.len(), tau_len);
        }
        Ok(())
    }

    /// Restore this snapshot into a freshly allocated encoding of the same
    /// shape: overwrite the rank's full extended local matrix and the
    /// completed-`tau` prefix (entries past the prefix are untouched).
    /// A shape mismatch ([`FtCheckpoint::fits`]) is an `Err` and writes
    /// nothing.
    pub fn restore(&self, enc: &mut Encoded, tau: &mut [f64]) -> Result<(), String> {
        self.fits(enc.n(), enc.nb(), enc.a.local().as_slice().len(), tau.len())?;
        enc.a.local_mut().as_mut_slice().copy_from_slice(&self.local);
        tau[..self.tau.len()].copy_from_slice(&self.tau);
        Ok(())
    }
}

struct Checkpoint {
    /// Global column the reduction resumes at.
    k: usize,
    /// Panel counter at the checkpoint (for lost-work accounting).
    panel_idx: usize,
    /// Full copy of this process's local matrix.
    local: Vec<f64>,
    /// Copy of tau.
    tau: Vec<f64>,
}

/// Fail-point id for the C/R driver: the same `(panel, phase)` space as the
/// ABFT driver, restricted to its two check locations (`BeforePanel` = even,
/// `AfterIteration` = odd), so fault scripts are portable across both.
pub fn cr_failpoint(panel: usize, after: bool) -> u64 {
    crate::algorithm::failpoint(
        panel,
        if after {
            crate::algorithm::Phase::AfterLeftUpdate
        } else {
            crate::algorithm::Phase::BeforePanel
        },
    )
}

/// Distributed Hessenberg reduction protected by diskless
/// checkpoint/restart: checkpoint every `interval` panels, roll the whole
/// computation back on failure. SPMD; fault script semantics as in
/// [`crate::ft_pdgehrd`] (fail points fire once).
pub fn cr_pdgehrd(ctx: &Ctx, a: &mut DistMatrix, interval: usize, tau: &mut [f64]) -> CrReport {
    let n = a.desc().n;
    let nb = a.desc().nb;
    let q = ctx.npcol();
    assert!(q >= 2, "C/R needs a neighbor process column to hold the remote checkpoint");
    assert!(interval >= 1);
    let mut report = CrReport::default();
    let t_total = Instant::now();

    let right = ctx.grid().rank_of(ctx.myrow(), (ctx.mycol() + 1) % q);
    let left = ctx.grid().rank_of(ctx.myrow(), (ctx.mycol() + q - 1) % q);

    let mut ckpt: Option<Checkpoint> = None;
    // The left neighbor's checkpoint piece (this process is its holder).
    let mut ckpt_backup: Vec<f64> = Vec::new();

    let mut k = 0usize;
    let mut panel_idx = 0usize;
    while k + 2 < n {
        let w = nb.min(n - 2 - k);

        if panel_idx.is_multiple_of(interval) {
            // ---- full diskless checkpoint --------------------------------
            let t = Instant::now();
            let local = a.local().as_slice().to_vec();
            ctx.send(right, TAG_CKPT, &local);
            ckpt_backup = ctx.recv(left, TAG_CKPT);
            ckpt = Some(Checkpoint { k, panel_idx, local, tau: tau.to_vec() });
            report.checkpoints += 1;
            report.checkpoint_secs += t.elapsed().as_secs_f64();
        }

        // ---- fail point before the panel ---------------------------------
        let victims = ctx.check_failpoint(cr_failpoint(panel_idx, false));
        if !victims.is_empty() {
            rollback(
                ctx,
                a,
                tau,
                ckpt.as_ref().expect("checkpoint exists"),
                &mut ckpt_backup,
                &victims,
                right,
                left,
                &mut report,
            );
            let c = ckpt.as_ref().unwrap();
            report.lost_panels += panel_idx - c.panel_idx;
            k = c.k;
            panel_idx = c.panel_idx;
            continue;
        }

        // ---- one unprotected iteration ------------------------------------
        let f = pdlahrd(ctx, a, n, k, w);
        apply_panel_updates(ctx, a, &f, n);
        tau[k..k + w].copy_from_slice(&f.tau);

        // ---- fail point after the iteration --------------------------------
        let victims = ctx.check_failpoint(cr_failpoint(panel_idx, true));
        if !victims.is_empty() {
            rollback(
                ctx,
                a,
                tau,
                ckpt.as_ref().expect("checkpoint exists"),
                &mut ckpt_backup,
                &victims,
                right,
                left,
                &mut report,
            );
            let c = ckpt.as_ref().unwrap();
            report.lost_panels += panel_idx + 1 - c.panel_idx;
            k = c.k;
            panel_idx = c.panel_idx;
            continue;
        }

        k += w;
        panel_idx += 1;
    }

    report.total_secs = t_total.elapsed().as_secs_f64();
    report
}

/// Global rollback: the victims re-fetch their checkpoint piece from the
/// right neighbor that holds it, everyone restores the checkpointed local
/// state, and the victims' holder role is re-armed by the left neighbor.
#[allow(clippy::too_many_arguments)]
fn rollback(
    ctx: &Ctx,
    a: &mut DistMatrix,
    tau: &mut [f64],
    ckpt: &Checkpoint,
    ckpt_backup: &mut Vec<f64>,
    victims: &[usize],
    right: usize,
    left: usize,
    report: &mut CrReport,
) {
    let t = Instant::now();
    let me = victims.contains(&ctx.rank());
    // One victim per process row, as in the ABFT scheme (the remote
    // checkpoint has a single holder).
    {
        use std::collections::HashSet;
        let mut rows = HashSet::new();
        for &v in victims {
            let (pv, _) = ctx.grid().coords_of(v);
            assert!(rows.insert(pv), "C/R: two failures in one process row are unrecoverable");
        }
    }
    // The victim's local checkpoint copy is gone with its memory; the
    // holder returns it.
    let mut restored: Option<Vec<f64>> = None;
    for &v in victims {
        let (pv, qv) = ctx.grid().coords_of(v);
        let holder = ctx.grid().rank_of(pv, (qv + 1) % ctx.npcol());
        if ctx.rank() == holder {
            ctx.send(v, TAG_CKPT_RESTORE, ckpt_backup);
        }
        if ctx.rank() == v {
            restored = Some(ctx.recv(holder, TAG_CKPT_RESTORE));
        }
    }
    // Everyone rolls back to the checkpoint.
    let state = if me {
        restored.expect("victim received its checkpoint")
    } else {
        ckpt.local.clone()
    };
    a.local_mut().as_mut_slice().copy_from_slice(&state);
    tau[..ckpt.tau.len()].copy_from_slice(&ckpt.tau);
    // Re-arm the victims' holder role (they hold the left neighbor's piece).
    for &v in victims {
        let (pv, qv) = ctx.grid().coords_of(v);
        let vleft = ctx.grid().rank_of(pv, (qv + ctx.npcol() - 1) % ctx.npcol());
        if ctx.rank() == vleft {
            ctx.send(v, TAG_CKPT_REARM, &ckpt.local);
        }
        if ctx.rank() == v {
            *ckpt_backup = ctx.recv(vleft, TAG_CKPT_REARM);
        }
    }
    let _ = (right, left);
    report.rollbacks += 1;
    report.restore_secs += t.elapsed().as_secs_f64();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_dense::gen::uniform_entry;
    use ft_dense::Matrix;
    use ft_pblas::{pdgehrd, Desc};
    use ft_runtime::{run_spmd, FaultScript};

    fn cr_result(n: usize, nb: usize, p: usize, q: usize, seed: u64, interval: usize, script: FaultScript) -> (Matrix, CrReport) {
        run_spmd(p, q, script, move |ctx| {
            let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
            let mut tau = vec![0.0; n - 1];
            let rep = cr_pdgehrd(&ctx, &mut a, interval, &mut tau);
            (a.gather_all(&ctx, 640), rep)
        })
        .into_iter()
        .next()
        .unwrap()
    }

    fn plain_result(n: usize, nb: usize, p: usize, q: usize, seed: u64) -> Matrix {
        run_spmd(p, q, FaultScript::none(), move |ctx| {
            let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
            let mut tau = vec![0.0; n - 1];
            pdgehrd(&ctx, &mut a, &mut tau);
            a.gather_all(&ctx, 642)
        })
        .into_iter()
        .next()
        .unwrap()
    }

    #[test]
    fn cr_fault_free_matches_plain() {
        let (n, nb, p, q) = (16, 2, 2, 2);
        let plain = plain_result(n, nb, p, q, 60);
        let (cr, rep) = cr_result(n, nb, p, q, 60, 2, FaultScript::none());
        assert_eq!(cr.max_abs_diff(&plain), 0.0);
        assert_eq!(rep.rollbacks, 0);
        assert!(rep.checkpoints >= 3);
    }

    #[test]
    fn cr_recovers_via_rollback() {
        let (n, nb, p, q) = (16, 2, 2, 2);
        let plain = plain_result(n, nb, p, q, 61);
        for after in [false, true] {
            let (cr, rep) = cr_result(n, nb, p, q, 61, 2, FaultScript::one(3, cr_failpoint(4, after)));
            assert_eq!(rep.rollbacks, 1, "after={after}");
            // Failing right after a fresh checkpoint (panel 4, interval 2,
            // before the panel ran) legitimately loses zero panels; the
            // after-iteration failure loses the iteration.
            assert_eq!(rep.lost_panels, usize::from(after));
            let d = cr.max_abs_diff(&plain);
            assert_eq!(d, 0.0, "after={after}: rollback re-execution diverged by {d}");
        }
    }

    #[test]
    fn cr_lost_work_grows_with_interval() {
        // A failure right before a would-be checkpoint loses interval−1
        // panels of work.
        let (n, nb, p, q) = (24, 2, 2, 2);
        let (_, rep_small) = cr_result(n, nb, p, q, 62, 2, FaultScript::one(1, cr_failpoint(5, false)));
        let (_, rep_large) = cr_result(n, nb, p, q, 62, 5, FaultScript::one(1, cr_failpoint(4, true)));
        assert!(
            rep_large.lost_panels > rep_small.lost_panels,
            "large interval {} vs small {}",
            rep_large.lost_panels,
            rep_small.lost_panels
        );
    }

    #[test]
    fn ft_checkpoint_bytes_roundtrip_bit_exact() {
        let ckpt = FtCheckpoint {
            n: 8,
            nb: 2,
            panel: 3,
            local: vec![0.5, -1.25, f64::MIN_POSITIVE, -0.0, 3.5e300],
            tau: vec![1.75, 3e-300],
        };
        let bytes = ckpt.to_bytes();
        let back = FtCheckpoint::from_bytes(&bytes).expect("well-formed image parses");
        assert_eq!(back.n, ckpt.n);
        assert_eq!(back.nb, ckpt.nb);
        assert_eq!(back.panel(), ckpt.panel);
        // Element-wise bit equality: `-0.0` and subnormals must survive.
        for (a, b) in back.local.iter().zip(&ckpt.local) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in back.tau.iter().zip(&ckpt.tau) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(back.local.len(), ckpt.local.len());
        assert_eq!(back.tau.len(), ckpt.tau.len());
    }

    #[test]
    fn ft_checkpoint_from_bytes_rejects_malformed_images() {
        let ckpt = FtCheckpoint { n: 4, nb: 2, panel: 1, local: vec![1.0, 2.0], tau: vec![0.5] };
        let bytes = ckpt.to_bytes();
        assert!(FtCheckpoint::from_bytes(&[]).is_err(), "empty buffer");
        for cut in [4usize, 8, 24, bytes.len() - 1] {
            assert!(FtCheckpoint::from_bytes(&bytes[..cut]).is_err(), "truncation at {cut} must not parse");
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        let e = FtCheckpoint::from_bytes(&bad_magic).expect_err("foreign magic");
        assert!(e.contains("magic"), "unexpected error: {e}");
        let mut long = bytes.clone();
        long.push(0);
        let e = FtCheckpoint::from_bytes(&long).expect_err("trailing byte");
        assert!(e.contains("trailing"), "unexpected error: {e}");
    }

    #[test]
    fn ft_checkpoint_capture_restore_single_redundancy_grid() {
        use crate::encode::Encoded;
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            let enc = Encoded::from_global_fn(&ctx, 12, 2, |i, j| uniform_entry(9, i, j));
            let tau = [0.25, 0.5];
            let mut ckpt = FtCheckpoint::capture(&enc, &[], 1);
            ckpt.record_tau(&tau);
            let back = FtCheckpoint::from_bytes(&ckpt.to_bytes()).expect("round-trip");
            let mut enc2 = Encoded::from_global_fn(&ctx, 12, 2, |_, _| 0.0);
            let mut tau2 = vec![0.0; 5];
            back.restore(&mut enc2, &mut tau2).expect("same shape");
            for (a, b) in enc2.a.local().as_slice().iter().zip(enc.a.local().as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "restored local state must be bitwise identical");
            }
            assert_eq!(&tau2[..2], &tau[..]);
            assert!(tau2[2..].iter().all(|&x| x == 0.0), "entries past the prefix stay untouched");
            // Every wrong shape is an error that writes nothing.
            let mut other_nb = Encoded::from_global_fn(&ctx, 12, 3, |_, _| 7.0);
            let e = back.restore(&mut other_nb, &mut tau2).expect_err("nb 2 into nb 3");
            assert!(e.contains("nb"), "unexpected error: {e}");
            assert!(other_nb.a.local().as_slice().iter().all(|&x| x == 7.0 || x == 0.0));
            let mut other_n = Encoded::from_global_fn(&ctx, 14, 2, |_, _| 0.0);
            assert!(back.restore(&mut other_n, &mut tau2).expect_err("N 12 into N 14").contains("N"));
            let mut short = [0.0];
            assert!(back.restore(&mut enc2, &mut short).expect_err("tau of 1").contains("tau"));
            assert_eq!(short, [0.0]);
        });
    }

    /// The ISSUE's round-trip scenario: capture a mid-factorization
    /// checkpoint under Coded(3) from the observation hook, push it through
    /// bytes, restore it into a **fresh** encoding in a separate SPMD world,
    /// and prove the restored state is a genuine mid-factorization image:
    /// Theorem 1 holds for every group strictly after the captured panel's
    /// scope, and the restored `tau` prefix is bitwise the solver's.
    fn ft_checkpoint_roundtrip(solver: &'static str) {
        use crate::algorithm::{ft_solve, DriverControl, Phase, Variant};
        use crate::encode::{Encoded, Redundancy};
        use crate::scrub::assert_theorem1;
        use std::sync::Arc;

        // Coded(3) needs Q >= 6; n/nb = 12 block columns over Q = 6 gives
        // two checksum groups, so a panel-2 capture (scope 0) leaves group 1
        // strictly-after-scope for the Theorem-1 re-verification.
        let (n, nb, p, q) = (96usize, 8usize, 1usize, 6usize);
        const CAPTURE_PANEL: usize = 2;
        let seed = 77u64;
        let ft = crate::solver_by_name(solver).expect("registered solver");
        let tau_len = ft.tau_len(n);

        // Run 1: fault-free factorization; the hook snapshots the encoded
        // state right after panel 2's left update, tau rides along after
        // the driver returns (write-once per panel).
        let per_rank: Vec<(Vec<u8>, Vec<f64>)> = run_spmd(p, q, FaultScript::none(), move |ctx| {
            let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Coded(3), |i, j| uniform_entry(seed, i, j));
            let mut tau = vec![0.0; tau_len];
            let mut ckpt: Option<FtCheckpoint> = None;
            let mut hook = |_: &Ctx, enc: &mut Encoded, panel: usize, phase: Phase| {
                if panel == CAPTURE_PANEL && phase == Phase::AfterLeftUpdate {
                    ckpt = Some(FtCheckpoint::capture(enc, &[], panel));
                }
            };
            let ctl = DriverControl { hook: Some(&mut hook), ..DriverControl::default() };
            ft_solve(&ctx, ft, &mut enc, Variant::NonDelayed, &mut tau, ctl).expect("fault-free run");
            let mut ckpt = ckpt.expect("capture hook fired at panel 2");
            ckpt.record_tau(&tau[..(CAPTURE_PANEL + 1) * nb]);
            (ckpt.to_bytes(), tau)
        });

        // Run 2: a separate world restores the serialized checkpoint into a
        // freshly allocated encoding and re-verifies the invariant.
        let payload = Arc::new(per_rank);
        run_spmd(p, q, FaultScript::none(), move |ctx| {
            let (bytes, tau_final) = &payload[ctx.rank()];
            let ckpt = FtCheckpoint::from_bytes(bytes).expect("stored checkpoint parses");
            assert_eq!(ckpt.panel(), CAPTURE_PANEL);
            let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Coded(3), |_, _| 0.0);
            let mut tau = vec![0.0; tau_len];
            ckpt.restore(&mut enc, &mut tau).expect("same shape");
            // tau prefix: write-once per panel means the completed run's
            // prefix IS the capture-time prefix — bitwise.
            let written = (CAPTURE_PANEL + 1) * nb;
            for (a, b) in tau[..written].iter().zip(&tau_final[..written]) {
                assert_eq!(a.to_bits(), b.to_bits(), "{solver}: restored tau prefix diverged");
            }
            assert!(tau[written..].iter().all(|&x| x == 0.0));
            // Theorem 1 on the restored image: every group strictly after
            // the captured scope, every Coded(3) checksum copy.
            let scope = CAPTURE_PANEL / ctx.npcol();
            let checked = assert_theorem1(&ctx, &enc, scope, 1e-11, solver, "restored checkpoint");
            assert_eq!(
                checked,
                (enc.groups() - scope - 1) * enc.ncopies(),
                "{solver}: Theorem-1 re-verification did not cover every trailing (group, copy) pair"
            );
            assert!(checked > 0, "{solver}: no trailing groups were checked — the capture point is miscalibrated");
        });
    }

    #[test]
    fn ft_checkpoint_roundtrip_theorem1_hessenberg_coded3() {
        ft_checkpoint_roundtrip("hessenberg");
    }

    #[test]
    fn ft_checkpoint_roundtrip_theorem1_qr_coded3() {
        ft_checkpoint_roundtrip("qr");
    }

    /// The serving layer's resume path: run once uninterrupted with the
    /// driver's scope sink collecting checkpoints, then restore a mid-run
    /// checkpoint into a fresh encoding and resume via
    /// `DriverControl::start_panel` — the factorization and tau must come
    /// out bitwise identical for both solvers.
    fn driver_resume_roundtrip(qr: bool) {
        use crate::algorithm::{ft_solve, DriverControl, Variant};
        use crate::encode::Encoded;

        let (n, nb, seed) = (16usize, 2usize, 91u64);
        let ft = crate::solver_by_name(if qr { "qr" } else { "hessenberg" }).expect("registered solver");
        run_spmd(2, 2, FaultScript::none(), move |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
            let mut tau = vec![0.0; n];
            let mut ckpts: Vec<FtCheckpoint> = Vec::new();
            {
                let mut sink = |_: &Ctx, e: &Encoded, t: &[f64], panel: usize| {
                    ckpts.push(FtCheckpoint::capture(e, t, panel));
                };
                let ctl = DriverControl { scope_sink: Some(&mut sink), ..DriverControl::default() };
                ft_solve(&ctx, ft, &mut enc, Variant::NonDelayed, &mut tau, ctl).expect("fault-free run");
            }
            let reference = enc.gather_logical(&ctx, 650);
            assert!(!ckpts.is_empty(), "no scope close fired the sink");
            // Scope closes land on odd block columns for Q = 2, so every
            // captured panel + 1 is a scope entry.
            let ck = ckpts.first().unwrap();
            let mut enc2 = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
            let mut tau2 = vec![0.0; n];
            ck.restore(&mut enc2, &mut tau2).expect("same shape");
            let ctl = DriverControl { start_panel: ck.panel() + 1, ..DriverControl::default() };
            ft_solve(&ctx, ft, &mut enc2, Variant::NonDelayed, &mut tau2, ctl).expect("resumed run");
            let resumed = enc2.gather_logical(&ctx, 652);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(
                        reference[(i, j)].to_bits(),
                        resumed[(i, j)].to_bits(),
                        "qr={qr}: resumed factorization diverged at ({i},{j})"
                    );
                }
            }
            for (a, b) in tau.iter().zip(&tau2) {
                assert_eq!(a.to_bits(), b.to_bits(), "qr={qr}: resumed tau diverged");
            }
        });
    }

    #[test]
    fn driver_resume_from_scope_checkpoint_is_bitwise_identical_hessenberg() {
        driver_resume_roundtrip(false);
    }

    #[test]
    fn driver_resume_from_scope_checkpoint_is_bitwise_identical_qr() {
        driver_resume_roundtrip(true);
    }

    #[test]
    fn cr_survives_multiple_failures() {
        use ft_runtime::PlannedFailure;
        let (n, nb, p, q) = (20, 2, 2, 3);
        let plain = plain_result(n, nb, p, q, 63);
        let script = FaultScript::new(vec![
            PlannedFailure { victim: 2, point: cr_failpoint(2, true) },
            PlannedFailure { victim: 4, point: cr_failpoint(6, false) },
        ]);
        let (cr, rep) = cr_result(n, nb, p, q, 63, 3, script);
        assert_eq!(rep.rollbacks, 2);
        assert_eq!(cr.max_abs_diff(&plain), 0.0);
    }
}
