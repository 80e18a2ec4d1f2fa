//! The online SDC scrub engine: detect — and where the encoding allows,
//! locate and correct — *silent* data corruption using the same row
//! checksums that protect against fail-stop failures.
//!
//! The paper's fault model is fail-stop, but its checksum machinery is the
//! direct descendant of Huang & Abraham's ABFT for silent errors (the
//! paper's ref. 29) and of the backward-error assertions of Boley et al.
//! (its ref. 7, cited in §7.3). This module closes that loop (DESIGN.md
//! §10):
//!
//! * **Detect** ([`residual`]): at a configurable cadence ([`ScrubPolicy`])
//!   the engine recomputes the Theorem-1 residual of every live checksum
//!   copy. Cross-checking the copies separates *data* corruption (violates
//!   every copy — all weights are ≥ 1) from *checksum* corruption (violates
//!   a strict subset).
//! * **Localize** ([`localize`]): with [`crate::Redundancy::Coded`] weights
//!   the per-copy violation ratios `viol_c/viol_0 = node(idx)^c` name the
//!   corrupted member block; the row half of the (row, block-column)
//!   intersection comes from the residual vector itself.
//! * **Correct** ([`correct`]): a located member block is rewritten
//!   column-wise from the surviving checksum (`member = chk₀ − Σ others`,
//!   the Area-1 formula with the located column as the "victim"); convicted
//!   checksum copies are recomputed from the vouched-for data. The active
//!   scope, whose checksums are stale mid-scope, is healed from the
//!   fail-stop machinery instead: Area 3 by bookkeeping compare/copy-back,
//!   Area 4 by snapshot + replay.
//! * **Escalate**: multi-block or unlocalizable damage rolls the run back
//!   to the last *verified* boundary image (the chaos-recovery path), or —
//!   when there is none yet or rollback makes no progress — fails with the typed
//!   [`crate::FtError::ScrubUnrecoverable`], identically on every rank.
//!
//! Every verdict is computed from replicated collective results, so all
//! ranks take the same action without extra agreement rounds.

pub mod correct;
pub mod localize;
pub mod policy;
pub mod residual;

pub use localize::{local_row_span, locate_member};
pub use policy::{ScrubCadence, ScrubPolicy};
pub use residual::{diagnose, first_theorem1_violation, scan_group, Diagnosis, GroupScan};

use crate::algorithm::Position;
use crate::encode::Encoded;
use crate::scope::ScopeState;
use crate::solver::FtSolver;
use ft_runtime::{Ctx, Tag};
use residual::TAG_SCRUB;
use std::time::Instant;

/// Assert the Theorem-1 row-checksum invariant: every group strictly after
/// scope `scope` must satisfy `‖Σ members − chk‖ < tol` for **all** live
/// checksum copies. Returns the number of (group, copy) pairs checked so
/// callers can assert coverage. Collective — every process must call it at
/// the same point; the panic message carries `context` to name the call
/// site (iteration/phase) and the violating checksum block column.
///
/// This is the paper's Theorem 1 made executable: the Non-delayed variant
/// (Algorithm 2) maintains it after *every* phase of every iteration, the
/// Delayed variant (Algorithm 3) restores it at scope boundaries after the
/// catch-up. The core test suites call this helper instead of hand-rolling
/// the loop.
pub fn assert_theorem1(ctx: &Ctx, enc: &Encoded, scope: usize, tol: f64, solver: &'static str, context: &str) -> usize {
    let (checked, hit) = first_theorem1_violation(ctx, enc, scope, tol, solver);
    if let Some((g, copy, v)) = hit {
        panic!("Theorem 1 violated at {context}: group {g} copy {copy} — {v} ≥ {tol}");
    }
    checked
}

/// Per-rank scrub statistics, aggregated grid-wide by
/// [`ScrubReport::gathered`] for the CLI summary table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScrubReport {
    /// Scrub passes run.
    pub scans: usize,
    /// Groups flagged by a scan (replicated verdicts).
    pub detections: usize,
    /// Member blocks rewritten in place from the checksums.
    pub corrections: usize,
    /// Checksum copies recomputed after a checksum-corruption conviction.
    pub chk_repairs: usize,
    /// Factorized scope panel columns copied back from the bookkeeping
    /// (per-rank counts — local repairs).
    pub area3_repairs: usize,
    /// Scans that could not correct in place.
    pub escalations: usize,
    /// Boundary-image rollbacks taken for escalations.
    pub rollbacks: usize,
    /// Wall seconds spent scanning/correcting on this rank.
    pub scan_secs: f64,
    /// Accumulated squared Frobenius mass of the copy-0 residuals over my
    /// local rows (each process row holds `Q` replicas; the gathered value
    /// divides them out).
    pub residual_mass: f64,
}

impl ScrubReport {
    /// Aggregate the per-rank reports into one grid-wide summary
    /// (collective; replicated result): replicated counters are
    /// de-duplicated, per-rank counters are summed, `scan_secs` averages
    /// across ranks, and `residual_mass` becomes the global `Σ‖R₀‖²_F`
    /// over all scans.
    pub fn gathered(&self, ctx: &Ctx, tag: impl Into<Tag>) -> ScrubReport {
        let mut row = [
            self.scans as f64,
            self.detections as f64,
            self.corrections as f64,
            self.chk_repairs as f64,
            self.area3_repairs as f64,
            self.escalations as f64,
            self.rollbacks as f64,
            self.scan_secs,
            self.residual_mass,
        ];
        ctx.allreduce_sum_world(&mut row, tag);
        let world = ctx.grid().size() as f64;
        let dedup = |x: f64| (x / world).round() as usize;
        ScrubReport {
            scans: dedup(row[0]),
            detections: dedup(row[1]),
            corrections: dedup(row[2]),
            chk_repairs: dedup(row[3]),
            area3_repairs: row[4] as usize,
            escalations: dedup(row[5]),
            rollbacks: dedup(row[6]),
            scan_secs: row[7] / world,
            residual_mass: row[8] / ctx.npcol() as f64,
        }
    }
}

/// How a scrub pass treats the trailing groups (strictly after scope `s`).
/// The finished groups (before `s`) are frozen — flips there stay at rest
/// until the scan, so in-place correction is always sound; the trailing
/// side depends on the variant and the moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrailingScan {
    /// Checksums are current and any corruption is still at rest (the
    /// Non-delayed variant scans every boundary before the next update
    /// consumes the data): scan, localize and correct in place.
    Live,
    /// Checksums lag the data (the Delayed variant mid-scope): scanning
    /// would convict healthy data, so the trailing groups are skipped —
    /// they get their scan at the scope boundary.
    Skip,
    /// Checksums were just caught up *through* the corrupted data (the
    /// Delayed variant at a scope boundary): a mid-scope flip has been
    /// consumed by the update replay, so the visible single-member residual
    /// understates the damage — an in-place rewrite would freeze the
    /// consistent-looking spread into the result. Data corruption here
    /// escalates to rollback; checksum-copy corruption (an additive offset
    /// the catch-up carried along) is still repaired in place.
    Suspect,
}

/// Corruption a scrub pass could not correct in place — the driver either
/// rolls back to the last verified boundary image or returns the typed
/// [`crate::FtError::ScrubUnrecoverable`]. The fields are replicated
/// (derived from collective scan verdicts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubEscalation {
    /// First group that stayed corrupt.
    pub group: usize,
    /// Global *data* block column of the damage: the convicted member when
    /// localization succeeded (but verification refuted the rewrite), else
    /// the group's first member block column.
    pub block_col: usize,
}

/// The driver-integrated scrub engine: policy + accumulated report. The
/// factorization driver runs a scrub pass at due boundaries; rollback
/// images and escalation handling live in the driver, which owns the
/// boundary-image machinery.
#[derive(Debug, Clone, Default)]
pub struct ScrubEngine {
    /// Scan schedule and correction policy.
    pub policy: ScrubPolicy,
    /// Accumulated per-rank statistics.
    pub report: ScrubReport,
}

impl ScrubEngine {
    /// Engine with the given policy and a fresh report.
    pub fn new(policy: ScrubPolicy) -> Self {
        Self { policy, report: ScrubReport::default() }
    }

    /// The no-op engine ([`ScrubPolicy::disabled`]).
    pub fn disabled() -> Self {
        Self::new(ScrubPolicy::disabled())
    }

    /// Whether the engine ever scans.
    #[inline]
    pub fn active(&self) -> bool {
        self.policy.active()
    }

    /// Is a pass due at the end of panel iteration `panel_idx`?
    #[inline]
    pub fn due(&self, panel_idx: usize, scope_closing: bool) -> bool {
        self.policy.due(panel_idx, scope_closing)
    }

    /// One full scrub pass at a quiescent boundary: heal the active scope's
    /// Areas 3/4 from the diskless bookkeeping, then scan, diagnose and
    /// correct every group with live checksums, at the driver's boundary
    /// `pos` — its open scope `s` and, for the Area-4 replay, how far the
    /// current iteration progressed. `trailing` says how the groups after
    /// scope `s` are treated (see [`TrailingScan`]).
    ///
    /// Collective. Returns the first uncorrectable group as a
    /// [`ScrubEscalation`] (replicated — every rank agrees).
    pub(crate) fn scrub_pass(
        &mut self,
        ctx: &Ctx,
        solver: &dyn FtSolver,
        enc: &mut Encoded,
        st: &ScopeState,
        pos: Position,
        trailing: TrailingScan,
    ) -> Result<(), ScrubEscalation> {
        let t = Instant::now();
        let s = pos.scope(enc);
        self.report.scans += 1;

        // The active scope first: its group-s checksums are stale mid-scope
        // (both variants), so corruption there is healed from the fail-stop
        // machinery, not detected. Order matters at scope boundaries — the
        // caller recomputes group s's checksum right after this pass, which
        // would absorb any lingering scope corruption for good.
        self.report.area3_repairs += correct::heal_area3(enc, st);
        if st.scope < enc.groups() {
            crate::recovery::replay_area4(ctx, solver, enc, st, pos);
        }

        let mut escalation: Option<ScrubEscalation> = None;
        for g in 0..enc.groups() {
            if g == s || (trailing == TrailingScan::Skip && g > s) {
                continue;
            }
            let scan = scan_group(ctx, enc, g, TAG_SCRUB);
            self.report.residual_mass += scan.local[0]
                .iter()
                .map(|&x| if x.is_finite() { x * x } else { 0.0 })
                .sum::<f64>();
            match diagnose(enc, &scan, ctx.npcol(), ScrubPolicy::TOL) {
                Diagnosis::Clean => {}
                Diagnosis::ChecksumCorrupt { copies } => {
                    self.report.detections += 1;
                    self.report.chk_repairs += copies.len();
                    // The data is vouched for by the clean copies:
                    // recomputing from it repairs every convicted copy at
                    // either redundancy level.
                    enc.compute_group_checksum(ctx, g);
                }
                Diagnosis::DataCorrupt { member: Some(idx) } if !(trailing == TrailingScan::Suspect && g > s) => {
                    self.report.detections += 1;
                    correct::correct_member(ctx, enc, g, idx);
                    // Verify against copy 1 — an equation *independent* of
                    // the copy-0 rewrite (copy 0 is zero by construction).
                    if enc.checksum_violation(ctx, g, 1, TAG_SCRUB.offset(36)) <= ScrubPolicy::TOL {
                        self.report.corrections += 1;
                    } else {
                        escalation = Some(ScrubEscalation {
                            group: g,
                            block_col: crate::areas::member_block_col(enc, g, idx),
                        });
                        break;
                    }
                }
                Diagnosis::DataCorrupt { .. } => {
                    self.report.detections += 1;
                    escalation = Some(ScrubEscalation {
                        group: g,
                        block_col: crate::areas::member_block_col(enc, g, 0),
                    });
                    break;
                }
            }
        }

        self.report.scan_secs += t.elapsed().as_secs_f64();
        match escalation {
            Some(e) => {
                self.report.escalations += 1;
                Err(e)
            }
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Redundancy;
    use ft_dense::gen::uniform_entry;
    use ft_runtime::{run_spmd, FaultScript};

    /// One pass of the engine over every group of a freshly encoded
    /// matrix (no scope active, checksums live): the per-rank report, and
    /// the escalation if a group stayed corrupt.
    fn scrub_all(ctx: &Ctx, enc: &mut Encoded) -> (ScrubReport, Result<(), ScrubEscalation>) {
        let mut engine = ScrubEngine::new(ScrubPolicy::every_panels(1));
        let st = ScopeState::empty(ctx, enc);
        let res = engine.scrub_pass(ctx, &crate::Hessenberg, enc, &st, Position::start(0), TrailingScan::Live);
        (engine.report, res)
    }

    #[test]
    fn clean_matrix_yields_no_findings() {
        run_spmd(1, 4, FaultScript::none(), |ctx| {
            let mut enc = Encoded::with_redundancy(&ctx, 16, 2, Redundancy::Coded(2), |i, j| uniform_entry(1, i, j));
            enc.compute_initial_checksums(&ctx);
            let (rep, res) = scrub_all(&ctx, &mut enc);
            assert_eq!(res, Ok(()));
            assert_eq!((rep.scans, rep.detections), (1, 0), "{rep:?}");
        });
    }

    #[test]
    fn single_redundancy_detects_without_correcting() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, 8, 2, |i, j| (i + j) as f64);
            enc.compute_initial_checksums(&ctx);
            if enc.a.owns_row(2) && enc.a.owns_col(1) {
                let v = enc.a.get(2, 1);
                enc.a.set(2, 1, v + 9.0);
            }
            // Duplicated checksums cannot name the member: the pass escalates.
            let (rep, res) = scrub_all(&ctx, &mut enc);
            assert_eq!(res, Err(ScrubEscalation { group: 0, block_col: 0 }));
            assert_eq!((rep.detections, rep.corrections, rep.escalations), (1, 0, 1), "{rep:?}");
        });
    }

    #[test]
    fn dual_locates_and_corrects_each_member() {
        let n = 16;
        let nb = 2;
        for corrupt_col in [0usize, 3, 5, 6] {
            run_spmd(2, 4, FaultScript::none(), move |ctx| {
                let mut enc = Encoded::with_redundancy(&ctx, n, nb, Redundancy::Coded(2), |i, j| uniform_entry(4, i, j));
                enc.compute_initial_checksums(&ctx);
                let before = enc.gather_logical(&ctx, 7300);
                // Corrupt one element of group 0 at the chosen member column.
                if enc.a.owns_row(5) && enc.a.owns_col(corrupt_col) {
                    let v = enc.a.get(5, corrupt_col);
                    enc.a.set(5, corrupt_col, v - 3.5);
                }
                let (rep, res) = scrub_all(&ctx, &mut enc);
                assert_eq!(res, Ok(()), "col {corrupt_col}");
                assert_eq!((rep.detections, rep.corrections), (1, 1), "col {corrupt_col}: {rep:?}");
                // The corruption is healed.
                let after = enc.gather_logical(&ctx, 7302);
                let d = after.max_abs_diff(&before);
                assert!(d < 1e-10, "col {corrupt_col}: residual corruption {d}");
            });
        }
    }

    #[test]
    fn dual_corrects_whole_block_corruption() {
        // A whole nb-column of garbage (e.g. a bad DIMM) in one block.
        run_spmd(2, 4, FaultScript::none(), |ctx| {
            let mut enc = Encoded::with_redundancy(&ctx, 16, 2, Redundancy::Coded(2), |i, j| uniform_entry(6, i, j));
            enc.compute_initial_checksums(&ctx);
            let before = enc.gather_logical(&ctx, 7304);
            for r in 0..16 {
                if enc.a.owns_row(r) && enc.a.owns_col(4) {
                    enc.a.set(r, 4, 1e6);
                }
                if enc.a.owns_row(r) && enc.a.owns_col(5) {
                    enc.a.set(r, 5, -1e6);
                }
            }
            let (rep, res) = scrub_all(&ctx, &mut enc);
            assert_eq!(res, Ok(()));
            assert_eq!((rep.detections, rep.corrections), (1, 1), "{rep:?}");
            let after = enc.gather_logical(&ctx, 7306);
            assert!(after.max_abs_diff(&before) < 1e-9);
        });
    }

    #[test]
    fn corrupted_checksum_copy_is_repaired_not_blamed_on_data() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, 8, 2, |i, j| uniform_entry(13, i, j));
            enc.compute_initial_checksums(&ctx);
            let before = enc.gather_logical(&ctx, 7310);
            let cc = enc.chk_col(0, 1, 0);
            if enc.a.owns_row(6) && enc.a.owns_col(cc) {
                let v = enc.a.get(6, cc);
                enc.a.set(6, cc, v * 2.0 + 1.0);
            }
            let (rep, res) = scrub_all(&ctx, &mut enc);
            assert_eq!(res, Ok(()));
            assert_eq!((rep.detections, rep.chk_repairs, rep.corrections), (1, 1, 0), "{rep:?}");
            // Data untouched, and the checksum invariant holds again.
            let after = enc.gather_logical(&ctx, 7312);
            assert_eq!(after.max_abs_diff(&before), 0.0);
            assert!(enc.checksum_violation(&ctx, 0, 1, 7314) < 1e-12);
        });
    }

    #[test]
    fn report_gathering_dedups_replicated_counts() {
        run_spmd(2, 2, FaultScript::none(), |ctx| {
            let rep = ScrubReport {
                scans: 3,
                detections: 1,
                corrections: 1,
                // Per-rank field: every rank repaired one panel column.
                area3_repairs: 1,
                scan_secs: 0.5,
                ..Default::default()
            };
            let g = rep.gathered(&ctx, 7400);
            assert_eq!(g.scans, 3);
            assert_eq!(g.detections, 1);
            assert_eq!(g.corrections, 1);
            assert_eq!(g.area3_repairs, 4); // summed across the 2×2 grid
            assert!((g.scan_secs - 0.5).abs() < 1e-12);
        });
    }
}
