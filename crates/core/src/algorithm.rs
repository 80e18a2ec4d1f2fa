//! The solver-agnostic ABFT driver — Algorithm 2 (non-delayed) and
//! Algorithm 3 (delayed) of the paper, written once against the
//! [`FtSolver`] contract and instantiated for the Hessenberg reduction
//! ([`ft_pdgehrd`]) and Householder QR ([`ft_pdgeqrf`]).
//!
//! Per panel iteration:
//!
//! 1. at scope entry (`block_col ≡ 0 mod Q`): snapshot the panel scope
//!    (Algorithm 2 line 4);
//! 2. the solver's panel kernel — `PDLAHRD` / `PDLAQRF` (line 6);
//! 3. pseudo checksum `Ve` of `V` (line 7) — only for solvers with a right
//!    update; Algorithm 2 computes it every panel, Algorithm 3 only when it
//!    updates the checksums;
//! 4. bookkeeping of `(panel, Y, T)` to the next process column (lines 8–9);
//! 5. right update `trail(Aₑ) −= Y·(Vₑ)ᵀ` (line 10) — Algorithm 2 includes
//!    the checksum columns of the groups after the scope, Algorithm 3 only
//!    the original columns. A left-only solver (QR) has no right update:
//!    the step still passes its fail point, so fail-point ids and the chaos
//!    rollback protocol are identical for every solver;
//! 6. left update `trail(Aₑ) −= V·Tᵀ·Vᵀ·trail(Aₑ)` (line 11), same column
//!    scope rule — row checksums are invariant under left updates for both
//!    solvers (Theorem 1), whether or not the checksum columns ride along;
//! 7. at scope end: Algorithm 3 catches the checksum columns up
//!    (lines 10–17 of Algorithm 3), then the finished group's checksum is
//!    recomputed once — it protects the finished columns (Area 2) forever.
//!
//! Fail points sit between the phases; on a failure every process runs the
//! recovery procedure of §5.3 (see [`crate::recovery`]). When kills can
//! strike, each panel's `BeforePanel` boundary is committed: a world barrier
//! and a boundary image a kill rolls back to ([`pass_boundary`]).

use crate::encode::{Encoded, Redundancy};
use crate::recovery;
use crate::scope::{ChkProgress, ScopeState};
use crate::scrub::{ScrubEngine, ScrubEscalation, ScrubPolicy, ScrubReport, TrailingScan};
use crate::solver::{FtSolver, Hessenberg, HouseholderQr};
use ft_dense::Matrix;
use ft_pblas::{left_update, right_update, PanelFactors};
use ft_runtime::{catch_interrupt, Ctx, Tag};
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// Driver-milestone trace for multi-process debugging, enabled by setting
/// `FT_DIST_TRACE` in the environment. Goes to stderr (the launcher passes
/// child stderr through), so a wedged distributed run shows how far each
/// rank got.
macro_rules! dtrace {
    ($ctx:expr, $($arg:tt)*) => {
        if dist_trace() {
            eprintln!("[ft rank {}] {}", $ctx.rank(), format!($($arg)*));
        }
    };
}

/// The `FT_DIST_TRACE` switch, read from the environment once a process.
fn dist_trace() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("FT_DIST_TRACE").is_some())
}

/// Control image shipped to a respawned replacement process (distributed
/// recovery): the driver bookkeeping a fresh process cannot reconstruct
/// locally. The matrix data itself is rebuilt by [`crate::recovery`].
const TAG_CTL_IMAGE: Tag = Tag::Recovery(0x50);
/// World-wide min-reduction of boundary-image ids — picks the common
/// rollback boundary when survivors' images diverge by one commit.
const TAG_BOUNDARY_MIN: Tag = Tag::Recovery(0x51);

/// Which ABFT variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Algorithm 2: checksum columns are updated fused with the trailing
    /// matrix, every iteration.
    NonDelayed,
    /// Algorithm 3: checksum updates are postponed to the end of each panel
    /// scope and applied panel-by-panel (tall-skinny updates — the cause of
    /// the overhead up-tick at large grids in Figure 7).
    Delayed,
}

/// Phase boundaries within one panel iteration where failures can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// After the scope snapshot, before the panel factorization.
    BeforePanel,
    /// After `PDLAHRD` + bookkeeping, before the right update.
    AfterPanel,
    /// After the right update (`PDGEMM`), before the left update.
    AfterRightUpdate,
    /// After the left update (`PDLARFB`).
    AfterLeftUpdate,
}

impl Phase {
    /// All phases, in iteration order.
    pub const ALL: [Phase; 4] = [
        Phase::BeforePanel,
        Phase::AfterPanel,
        Phase::AfterRightUpdate,
        Phase::AfterLeftUpdate,
    ];

    fn from_index(i: u64) -> Phase {
        Phase::ALL[i as usize]
    }
}

/// Encode a fail point id for [`ft_runtime::FaultScript`]: failure of panel
/// iteration `panel` at `phase`.
pub fn failpoint(panel: usize, phase: Phase) -> u64 {
    (panel as u64) * 4 + phase as u64
}

/// Terminal failure of a fault-tolerant reduction: the observed victim set
/// exceeds what the active redundancy level can repair. Every rank returns
/// the **identical** error (the tolerance check is deterministic over the
/// agreed victim set) — no rank panics and no rank proceeds with garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtError {
    /// More simultaneous failures in one process row than the code distance
    /// of the active redundancy level — the victim set erases more blocks
    /// per (row × group) than the surviving checksum copies can determine
    /// (see [`crate::recovery::check_tolerance`]). Raised at the
    /// deterministic tolerance gate, before any recovery work, for every
    /// redundancy level (`Single`, `Coded(f)`).
    ExceededCodeDistance {
        /// The victim set, sorted.
        victims: Vec<usize>,
        /// Panel iteration of the last consistent boundary.
        panel: usize,
        /// Phase of the last consistent boundary.
        phase: Phase,
        /// The process row that overflowed.
        row: usize,
        /// Victims observed in that row.
        count: usize,
        /// Effective per-row tolerance: `min(encoding_max, Q − 1)`.
        max_per_row: usize,
        /// The encoding's own per-row distance, before the backup-holder
        /// cap.
        encoding_max: usize,
        /// Which constraint bound the budget (the encoding's distance or
        /// the `Q − 1` backup holders).
        cap: crate::recovery::ToleranceCap,
    },
    /// Silent data corruption the scrub engine detected but could neither
    /// correct in place nor clear by rolling back to its last verified
    /// boundary image (rollback disabled, no image, or the same image
    /// already failed to make progress). Derived from replicated scan
    /// verdicts, so every rank returns the identical error.
    ScrubUnrecoverable {
        /// Panel iteration whose boundary scan escalated.
        panel: usize,
        /// First checksum group that stayed corrupt.
        group: usize,
        /// The group's copy-0 checksum block column (global block index).
        block_col: usize,
    },
}

impl FtError {
    /// The tolerance gate's verdict `tol` on `victims`, raised at the last
    /// consistent boundary `(panel, phase)`.
    fn exceeded(victims: Vec<usize>, panel: usize, phase: Phase, tol: recovery::ToleranceExceeded) -> FtError {
        let recovery::ToleranceExceeded { row, count, max_per_row, encoding_max, cap } = tol;
        FtError::ExceededCodeDistance {
            victims,
            panel,
            phase,
            row,
            count,
            max_per_row,
            encoding_max,
            cap,
        }
    }
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::ExceededCodeDistance {
                victims,
                panel,
                phase,
                row,
                count,
                max_per_row,
                encoding_max,
                cap,
            } => {
                let bound = match cap {
                    crate::recovery::ToleranceCap::Encoding => "the code distance".to_string(),
                    crate::recovery::ToleranceCap::BackupHolders => {
                        format!("the Q-1 backup holders (the code itself would tolerate {encoding_max})")
                    }
                };
                write!(
                    f,
                    "exceeded code distance at panel {panel} ({phase:?}): victims {victims:?} put {count} \
                     failure(s) in process row {row}, but {bound} caps recovery at {max_per_row} per row"
                )
            }
            FtError::ScrubUnrecoverable { panel, group, block_col } => write!(
                f,
                "unrecoverable silent corruption at panel {panel}: checksum group {group} (block \
                 column {block_col}) stayed violated after in-place correction and rollback were exhausted"
            ),
        }
    }
}

impl std::error::Error for FtError {}

/// Outcome statistics of a fault-tolerant reduction.
#[derive(Debug, Clone, Default)]
pub struct FtReport {
    /// Number of recovery events (a multi-victim failure counts once).
    pub recoveries: usize,
    /// Chaos-mode aborts: times an arbitrary-point failure unwound the
    /// driver to its last committed boundary (a nested failure during
    /// recovery counts again). Always 0 in scripted-only runs.
    pub chaos_aborts: usize,
    /// All victim ranks recovered, in event order.
    pub victims: Vec<usize>,
    /// Seconds in the initial checksum encoding (Algorithm 2 line 1).
    pub encode_secs: f64,
    /// Seconds in scope snapshots (line 4).
    pub snapshot_secs: f64,
    /// Seconds in per-panel bookkeeping sends (lines 8–9).
    pub bookkeeping_secs: f64,
    /// Seconds in scope-end work (checksum recompute; Algorithm 3 catch-up).
    pub scope_end_secs: f64,
    /// Seconds spent in recovery.
    pub recovery_secs: f64,
    /// Seconds in boundary commits: the commit barrier plus the boundary
    /// image capture. Zero unless chaos is live in process or the run is
    /// distributed — only those commit with an image.
    pub commit_secs: f64,
    /// `f64` words copied into boundary images (commits, the recapture after
    /// a distributed recovery, the scrub engine's verified images).
    pub image_words: usize,
    /// Total wall seconds of the reduction on this process.
    pub total_secs: f64,
    /// Scrub engine statistics (all zeros when the engine is disabled).
    pub scrub: ScrubReport,
}

/// Row index of checksum column `(g, copy, off)` inside the [`ve_rows`]
/// matrix.
#[inline]
pub fn ve_row_index(enc: &Encoded, g: usize, copy: usize, off: usize) -> usize {
    (copy * enc.groups() + g) * enc.nb() + off
}

/// Pseudo column checksums of `V` (paper §4): one row per checksum column
/// `(g, copy, off)` (see [`ve_row_index`]), holding
/// `Σ_q w(copy, q)·V((gQ+q)·nb + off, :)` — the "V row" of that checksum
/// column in the extended right update. With [`crate::encode::Redundancy::Single`]
/// the weights are 1 and the two copies' rows are identical; with `Coded(f)`
/// they carry the Vandermonde weights. Deterministic and identical on every
/// process (computed from the replicated `V`).
pub fn ve_rows(enc: &Encoded, f: &PanelFactors) -> Matrix {
    let nb = enc.nb();
    let r0 = f.v_row0();
    let n = f.n.min(enc.n());
    let mut ve = Matrix::zeros(enc.ncopies() * enc.groups() * nb, f.w);
    for copy in 0..enc.ncopies() {
        for g in 0..enc.groups() {
            let r = ve_row_index(enc, g, copy, 0);
            // Member blocks in member order — the order every row's sum
            // takes them in — each cut to the rows `V` has, `[r0, n)`.
            for (base, wgt) in enc.weighted_members(g, copy) {
                let (lo, hi) = (base.max(r0), (base + nb).min(n));
                if lo >= hi {
                    continue;
                }
                for l in 0..f.w {
                    let v = &f.vfull.col(l)[lo - r0..hi - r0];
                    let sums = &mut ve.col_mut(l)[r + lo - base..r + hi - base];
                    for (s, x) in sums.iter_mut().zip(v) {
                        *s += wgt * x;
                    }
                }
            }
        }
    }
    ve
}

/// Store `Ve` into the bottom pseudo-checksum rows (both copies) under the
/// panel columns — the extra storage allocated at encoding time (§4).
/// Purely local writes on the owners: the `nb` rows of one `(g, copy)` are
/// one block of the layout, so they sit with one process row, contiguous in
/// each of its local columns.
pub fn store_ve(enc: &mut Encoded, f: &PanelFactors, ve: &Matrix) {
    if !enc.a.owns_col(f.k) {
        return;
    }
    let nb = enc.nb();
    let lc0 = enc.a.g2l_col(f.k);
    for copy in 0..enc.ncopies() {
        for g in 0..enc.groups() {
            let r = enc.chk_row(g, copy, 0);
            debug_assert_eq!(r % nb, 0, "checksum rows start on a block boundary");
            if enc.a.owns_row(r) {
                let lr = enc.a.g2l_row(r);
                let vr = ve_row_index(enc, g, copy, 0);
                for l in 0..f.w {
                    enc.a.local_mut().col_mut(lc0 + l)[lr..lr + nb].copy_from_slice(&ve.col(l)[vr..vr + nb]);
                }
            }
        }
    }
}

/// My local columns among the **original** columns `[from, to)`, with their
/// global indices.
fn local_orig_cols(enc: &Encoded, from: usize, to: usize) -> (Vec<usize>, Vec<usize>) {
    let lc0 = enc.a.local_cols_below(from);
    let lc1 = enc.a.local_cols_below(to.min(enc.n()));
    let locals: Vec<usize> = (lc0..lc1).collect();
    let globals = locals.iter().map(|&lc| enc.a.l2g_col(lc)).collect();
    (locals, globals)
}

/// My local checksum columns of groups `> s` (all copies), with their
/// `(g, copy, off)` identity.
fn local_chk_cols_after(enc: &Encoded, s: usize) -> (Vec<usize>, Vec<(usize, usize, usize)>) {
    let mut locals = Vec::new();
    let mut meta = Vec::new();
    for g in s + 1..enc.groups() {
        for copy in 0..enc.ncopies() {
            for off in 0..enc.nb() {
                let cc = enc.chk_col(g, copy, off);
                if enc.a.owns_col(cc) {
                    locals.push(enc.a.g2l_col(cc));
                    meta.push((g, copy, off));
                }
            }
        }
    }
    // Keep the combined column list sorted by local index (checksum columns
    // are globally after every original column, and locals are globally
    // monotone, so appending preserves order; sort defensively anyway).
    let mut idx: Vec<usize> = (0..locals.len()).collect();
    idx.sort_by_key(|&i| locals[i]);
    (idx.iter().map(|&i| locals[i]).collect(), idx.iter().map(|&i| meta[i]).collect())
}

/// The right update's `V`-row operand: `top` (the original columns' rows of
/// `V`) over the `Ve` rows of the checksum columns `meta`, one column-slice
/// copy per run of consecutive `Ve` rows — a checksum block's `nb` columns
/// sit with one process column, so a run is a whole block.
fn stack_ve_rows(enc: &Encoded, top: &Matrix, ve: &Matrix, meta: &[(usize, usize, usize)]) -> Matrix {
    let (nt, w) = (top.rows(), ve.cols());
    let rows: Vec<usize> = meta.iter().map(|&(g, copy, off)| ve_row_index(enc, g, copy, off)).collect();
    let mut out = Matrix::zeros(nt + rows.len(), w);
    for l in 0..w {
        out.col_mut(l)[..nt].copy_from_slice(top.col(l));
    }
    let mut i = 0;
    while i < rows.len() {
        let run = 1 + (i + 1..rows.len()).take_while(|&e| rows[e] == rows[e - 1] + 1).count();
        for l in 0..w {
            out.col_mut(l)[nt + i..nt + i + run].copy_from_slice(&ve.col(l)[rows[i]..rows[i] + run]);
        }
        i += run;
    }
    out
}

/// Right update of panel `f` on the original columns `[from, to)` and —
/// when `include_chk` — the checksum columns of groups after scope `s`.
pub(crate) fn ft_right(enc: &mut Encoded, f: &PanelFactors, ve: &Matrix, from: usize, to: usize, include_chk: bool, s: usize) {
    let (mut locals, orig_g) = local_orig_cols(enc, from, to);
    let mut vrows = f.vrows_for(&orig_g);
    if include_chk {
        let (chk_locals, meta) = local_chk_cols_after(enc, s);
        if !chk_locals.is_empty() {
            vrows = stack_ve_rows(enc, &vrows, ve, &meta);
            locals.extend_from_slice(&chk_locals);
        }
    }
    let n = enc.n();
    right_update(&mut enc.a, n, &locals, &vrows, &f.y_loc);
}

/// Right update applied to the checksum columns only (Algorithm 3 catch-up).
pub(crate) fn ft_right_chk_only(enc: &mut Encoded, f: &PanelFactors, ve: &Matrix, s: usize) {
    let (locals, meta) = local_chk_cols_after(enc, s);
    let vrows = stack_ve_rows(enc, &Matrix::zeros(0, f.w), ve, &meta);
    let n = enc.n();
    right_update(&mut enc.a, n, &locals, &vrows, &f.y_loc);
}

/// Left update of panel `f` on the original columns `[from, to)` and —
/// when `include_chk` — the checksum columns of groups after scope `s`.
/// Collective (column reductions): every process must call it.
pub(crate) fn ft_left(ctx: &Ctx, enc: &mut Encoded, f: &PanelFactors, from: usize, to: usize, include_chk: bool, s: usize) {
    let (mut locals, _) = local_orig_cols(enc, from, to);
    if include_chk {
        let (chk_locals, _) = local_chk_cols_after(enc, s);
        locals.extend_from_slice(&chk_locals);
    }
    let v_myrows = f.v_for_local_rows(&enc.a);
    let n = enc.n();
    left_update(ctx, &mut enc.a, f.v_row0(), n, &locals, &v_myrows, &f.t);
}

/// Left update on the checksum columns only (Algorithm 3 catch-up).
pub(crate) fn ft_left_chk_only(ctx: &Ctx, enc: &mut Encoded, f: &PanelFactors, s: usize) {
    let (locals, _) = local_chk_cols_after(enc, s);
    let v_myrows = f.v_for_local_rows(&enc.a);
    let n = enc.n();
    left_update(ctx, &mut enc.a, f.v_row0(), n, &locals, &v_myrows, &f.t);
}

/// Algorithm 3: bring the checksum columns up to date with the data state
/// "(full updates of `factors[0..full]`) + (right update of `factors[full]`
/// when `extra_right`)". Tracks progress in `st.chk` so updates are applied
/// exactly once. For a left-only solver the right halves are no-ops (the
/// progress marker still advances identically, keeping recovery's phase
/// bookkeeping solver-agnostic).
pub(crate) fn alg3_catch_up(
    ctx: &Ctx,
    solver: &dyn FtSolver,
    enc: &mut Encoded,
    st: &mut ScopeState,
    s: usize,
    full: usize,
    extra_right: bool,
) {
    let right = solver.has_right_update();
    let mut done = st.chk.panels_done;
    let mut right_done = st.chk.right_done_for_next;
    while done < full {
        let f = &st.factors[done];
        if right && !right_done {
            let ve = ve_rows(enc, f);
            ft_right_chk_only(enc, f, &ve, s);
        }
        ft_left_chk_only(ctx, enc, f, s);
        done += 1;
        right_done = false;
    }
    if extra_right && !right_done {
        if right {
            let f = &st.factors[full];
            let ve = ve_rows(enc, f);
            ft_right_chk_only(enc, f, &ve, s);
        }
        right_done = true;
    }
    st.chk.panels_done = done;
    st.chk.right_done_for_next = extra_right && right_done;
}

/// Resume point within one panel iteration — where re-execution picks up
/// after a chaos rollback to a committed boundary. The driver loop is a
/// fall-through sequence of these steps; a fresh iteration starts at
/// [`Step::Begin`], a restored one at whatever the boundary image says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Scope entry (snapshot) + the `BeforePanel` fail point.
    Begin,
    /// `pdlahrd` + bookkeeping + the `AfterPanel` fail point.
    Panel,
    /// Right update + the `AfterRightUpdate` fail point.
    Right,
    /// Left update + the `AfterLeftUpdate` fail point.
    Left,
    /// tau write, checksum-progress marker, scope-end work, advance.
    ScopeEnd,
}

impl Step {
    /// Inverse of `step as u64` (the control-image wire form).
    fn from_index(i: u64) -> Step {
        [Step::Begin, Step::Panel, Step::Right, Step::Left, Step::ScopeEnd][i as usize]
    }
}

/// The driver's restartable control state (everything the loop mutates
/// besides the matrix itself).
struct DriverState {
    scope: Option<ScopeState>,
    k: usize,
    panel_idx: usize,
    resume: Step,
}

/// Bitwise image of one process's state at a committed fail-point boundary.
/// Captured only when the fault-tolerance machinery is live ([`ft_live`]
/// — scripted-only and fault-free in-process runs pay nothing); an
/// arbitrary-point failure rolls every rank back to its image (all ranks
/// always hold images of the *same* boundary, see [`pass_boundary`]) and
/// re-enters through [`recover_from`]. A scripted failure needs no image:
/// every rank stops on the boundary its fail point belongs to.
///
/// The matrix part is the local buffer's words inside `spans` — what can
/// still be written before the image can no longer be restored
/// ([`image_spans`]); a restore writes them back and leaves every other word
/// as it is, which is the word the capture saw.
struct BoundaryImage {
    /// The local buffer's words inside `spans`, span after span.
    data: Vec<f64>,
    /// Ranges of the local buffer the image holds, ascending and disjoint.
    spans: Vec<Range<usize>>,
    /// Debug builds only: the whole local buffer at capture — the oracle a
    /// restore is checked against. Empty in release builds.
    shadow: Vec<f64>,
    tau: Vec<f64>,
    scope: Option<ScopeState>,
    k: usize,
    panel_idx: usize,
    resume: Step,
    /// The boundary's phase — tells recovery how far the interrupted
    /// iteration had progressed.
    phase: Phase,
    /// Scope (= checksum group) index at the boundary; `enc.groups()` for
    /// the pre-loop boundary where no scope exists yet.
    s: usize,
    /// Boundary id (`failpoint + 1`; 0 for the pre-loop boundary) — also the
    /// first fail point a rollback to this image re-arms. In distributed
    /// runs this is what the survivors min-reduce over to agree on a common
    /// rollback point.
    id: u64,
}

/// The chaos/distributed rollback images. In-process chaos runs only ever
/// use `cur` — the revocable commit barrier keeps every rank's image on the
/// same boundary. Over a real network a SIGKILL mid-barrier can leave
/// survivors **one** commit apart (the victim's final barrier frame may have
/// reached some peers and not others), so distributed runs keep the previous
/// boundary too and [`dist_align_boundary`] demotes the leaders. A commit
/// refills `cur` in place, or — distributed — `prev`'s buffer, which then
/// becomes `cur`: no image is allocated after a rank's first two commits.
#[derive(Default)]
struct Images {
    cur: Option<BoundaryImage>,
    prev: Option<BoundaryImage>,
    /// Every image holds the whole buffer: something besides the driver can
    /// write anywhere in it (seeded flips, the scrub engine's corrections,
    /// a phase hook), and a rollback must undo that too.
    whole: bool,
}

/// Whether the fault-tolerance machinery (commit barriers, boundary images)
/// is live: chaos injection in-process, or any distributed run — over a real
/// transport ranks can die for real, scripted or not.
fn ft_live(ctx: &Ctx) -> bool {
    ctx.chaos_enabled() || ctx.distributed()
}

/// The local-buffer ranges a boundary image of scope `s` holds, into
/// `spans`: everything the driver can still write before the image can no
/// longer be restored — the next commit in process, the one after it in a
/// distributed run ([`dist_align_boundary`]), and any recovery attempt that
/// restores the image again (DESIGN.md §8). Commits sit at panel starts
/// (and at a scripted recovery's repaired boundary), so those writes come
/// from scope `s` and the scopes after it, and a right-looking reduction
/// never writes a column left of its open scope again. So that is
///
/// * every row of my original columns from scope `s`'s first column on —
///   the panels, both updates and `store_ve`'s pseudo-checksum rows;
/// * rows `[0, N)` of my checksum columns of groups `≥ s`: every update and
///   every recompute stops at `N`, and a finished group's checksum is
///   recomputed once, when its scope closes. `Coded(f)` recovery recomputes
///   every group a victim's column held a copy of, on every owner, finished
///   groups included, so a `Coded` image holds every group's rows `[0, N)`.
///
/// `whole`, and the pre-loop boundary (`s = enc.groups()`, no scope open),
/// hold the whole buffer.
fn image_spans(enc: &Encoded, s: usize, whole: bool, spans: &mut Vec<Range<usize>>) {
    let a = &enc.a;
    spans.clear();
    if whole || s >= enc.groups() {
        spans.push(0..a.local().as_slice().len());
        return;
    }
    let ld = a.local().ld();
    let lrn = a.local_rows_below(enc.n());
    let chk_from = if enc.redundancy() == Redundancy::Single { s } else { 0 };
    let mut push = |r: Range<usize>| match spans.last_mut() {
        _ if r.is_empty() => {}
        Some(last) if last.end == r.start => last.end = r.end,
        _ => spans.push(r),
    };
    push(a.local_cols_below(enc.group_cols(s).start) * ld..a.local_cols_below(enc.n_pad()) * ld);
    for lc in a.local_cols_below(enc.chk_col(chk_from, 0, 0))..a.lcols() {
        push(lc * ld..lc * ld + lrn);
    }
}

/// Refill the image in `slot` — reusing its buffers, allocating only into an
/// empty slot — with this rank's state at boundary `(phase, s, id)`. Returns
/// the matrix words copied.
#[allow(clippy::too_many_arguments)] // internal plumbing of the driver loop
fn capture_image(
    slot: &mut Option<BoundaryImage>,
    enc: &Encoded,
    tau: &[f64],
    st: &DriverState,
    phase: Phase,
    s: usize,
    id: u64,
    whole: bool,
) -> usize {
    let img = slot.get_or_insert_with(|| BoundaryImage {
        data: Vec::new(),
        spans: Vec::new(),
        shadow: Vec::new(),
        tau: Vec::new(),
        scope: None,
        k: 0,
        panel_idx: 0,
        resume: Step::Begin,
        phase,
        s,
        id,
    });
    image_spans(enc, s, whole, &mut img.spans);
    let buf = enc.a.local().as_slice();
    img.data.clear();
    for r in &img.spans {
        img.data.extend_from_slice(&buf[r.clone()]);
    }
    if cfg!(debug_assertions) {
        img.shadow.clear();
        img.shadow.extend_from_slice(buf);
    }
    img.tau.clear();
    img.tau.extend_from_slice(tau);
    img.scope.clone_from(&st.scope);
    (img.k, img.panel_idx, img.resume) = (st.k, st.panel_idx, st.resume);
    (img.phase, img.s, img.id) = (phase, s, id);
    img.data.len()
}

/// Roll this rank back to `img`. `intact`: no word outside the image's spans
/// has been written since the capture — true on every rank but a victim,
/// whose buffer recovery wipes and rebuilds right after. Debug builds check
/// the restored buffer against the capture's full copy there.
fn restore_image(enc: &mut Encoded, tau: &mut [f64], st: &mut DriverState, img: &BoundaryImage, intact: bool) {
    let buf = enc.a.local_mut().as_mut_slice();
    let mut words = img.data.as_slice();
    for r in &img.spans {
        let (head, rest) = words.split_at(r.len());
        buf[r.clone()].copy_from_slice(head);
        words = rest;
    }
    debug_assert!(
        !intact || buf.iter().zip(&img.shadow).all(|(a, b)| a.to_bits() == b.to_bits()),
        "boundary image {} (panel {}, {:?}): the restored buffer differs from the capture",
        img.id,
        img.panel_idx,
        img.phase
    );
    tau[..img.tau.len()].copy_from_slice(&img.tau);
    st.scope.clone_from(&img.scope);
    st.k = img.k;
    st.panel_idx = img.panel_idx;
    st.resume = img.resume;
}

/// Pass the fail-point boundary `(panel_idx, phase)`: read the script's
/// failures at its fail point; when there are none, commit a panel's
/// `BeforePanel` boundary and only end the detector round at the other
/// three. `Some` stops the loop right here, uncommitted, for
/// [`recover_from`], which commits the boundary once its failures are
/// repaired. A kill therefore rolls back to the start of the panel it
/// struck — distributed, possibly of the panel before (`prev`).
#[allow(clippy::too_many_arguments)] // internal plumbing of the driver loop
fn pass_boundary(
    ctx: &Ctx,
    enc: &Encoded,
    tau: &[f64],
    st: &mut DriverState,
    imgs: &mut Images,
    next: Step,
    phase: Phase,
    s: usize,
    report: &mut FtReport,
) -> Option<Halt> {
    st.resume = next;
    let victims = ctx.check_failpoint(failpoint(st.panel_idx, phase));
    if !victims.is_empty() {
        return Some(Halt::Scripted { victims, phase, s });
    }
    if phase == Phase::BeforePanel {
        commit_boundary_image(ctx, enc, tau, st, imgs, phase, s, report);
    } else {
        ctx.commit_boundary(failpoint(st.panel_idx, phase) + 1);
    }
    None
}

/// Commit the fail-point boundary `(st.panel_idx, phase)` and, when the
/// fault-tolerance machinery is live, refresh this rank's boundary image.
///
/// The barrier is what keeps every rank's image pinned to the same
/// boundary: a revocable barrier is all-or-none, survivors only observe an
/// interrupt inside communication calls, and between the completed barrier
/// and the (purely local) capture there are none. So either every rank
/// refreshes its image or — if the barrier is revoked first — none does,
/// and all roll back to the previous common boundary. The boundary's fail
/// point was read, and its failures repaired, before the commit: the commit
/// clears them from the detector round, the image holds the repaired state,
/// and a rollback to it re-arms exactly the points after it
/// ([`Ctx::rewind_failpoints`]).
#[allow(clippy::too_many_arguments)] // internal plumbing of the driver loop
fn commit_boundary_image(
    ctx: &Ctx,
    enc: &Encoded,
    tau: &[f64],
    st: &DriverState,
    imgs: &mut Images,
    phase: Phase,
    s: usize,
    report: &mut FtReport,
) {
    // Boundary ids are failpoint ids shifted by one; id 0 is the pre-loop
    // boundary right after the initial encoding.
    let id = failpoint(st.panel_idx, phase) + 1;
    if ft_live(ctx) {
        let t = Instant::now();
        ctx.barrier();
        if ctx.distributed() {
            // Keep the previous boundary too: a real SIGKILL mid-barrier can
            // leave survivors one commit apart, and the laggards' boundary
            // is the one everybody can roll back to. The image two commits
            // back is out of reach now; its buffers take the new one.
            std::mem::swap(&mut imgs.cur, &mut imgs.prev);
        }
        report.image_words += capture_image(&mut imgs.cur, enc, tau, st, phase, s, id, imgs.whole);
        report.commit_secs += t.elapsed().as_secs_f64();
    }
    ctx.commit_boundary(id);
}

/// Flat encoding of a [`BoundaryImage`]'s control state (everything but the
/// matrix buffer, which [`crate::recovery`] rebuilds from the checksums) for
/// shipping to a respawned replacement process. Layout: a 13-word header
/// followed by the full `tau` vector.
fn serialize_ctl_image(img: &BoundaryImage) -> Vec<f64> {
    let mut buf = vec![0.0; CTL_HEADER + img.tau.len()];
    buf[0] = img.id as f64;
    buf[1] = img.k as f64;
    buf[2] = img.panel_idx as f64;
    buf[3] = img.resume as u64 as f64;
    buf[4] = img.phase as u64 as f64;
    buf[5] = img.s as f64;
    if let Some(sc) = &img.scope {
        buf[6] = 1.0;
        buf[7] = sc.scope as f64;
        buf[8] = sc.start_col as f64;
        buf[9] = sc.end_col as f64;
        buf[10] = sc.holders as f64;
        buf[11] = sc.chk.panels_done as f64;
        buf[12] = if sc.chk.right_done_for_next { 1.0 } else { 0.0 };
    }
    buf[CTL_HEADER..].copy_from_slice(&img.tau);
    buf
}

const CTL_HEADER: usize = 13;

/// Rebuild a [`BoundaryImage`] into `slot` on a replacement process from
/// the control state a survivor shipped. The matrix part is this process's
/// whole current (garbage) buffer — [`crate::recovery::recover`] overwrites
/// every word of it — and the scope carries only the locally-computable
/// layout fields; snapshots, factors and panel backups are restored from
/// the live holders by [`ScopeState::repair_after_failure`].
fn deserialize_ctl_image(ctx: &Ctx, enc: &Encoded, buf: &[f64], slot: &mut Option<BoundaryImage>) {
    let scope = (buf[6] != 0.0).then(|| {
        let (start_col, end_col) = (buf[8] as usize, buf[9] as usize);
        ScopeState {
            scope: buf[7] as usize,
            start_col,
            end_col,
            holders: buf[10] as usize,
            local_cols: (enc.a.local_cols_below(start_col)..enc.a.local_cols_below(end_col)).collect(),
            chk: ChkProgress {
                panels_done: buf[11] as usize,
                right_done_for_next: buf[12] != 0.0,
            },
            ..ScopeState::empty(ctx, enc)
        }
    });
    let st = DriverState {
        scope,
        k: buf[1] as usize,
        panel_idx: buf[2] as usize,
        resume: Step::from_index(buf[3] as u64),
    };
    let (phase, s, id) = (Phase::from_index(buf[4] as u64), buf[5] as usize, buf[0] as u64);
    capture_image(slot, enc, &buf[CTL_HEADER..], &st, phase, s, id, true);
}

/// Distributed recovery, step 0: get every rank onto the **same** boundary
/// image before the rollback.
///
/// 1. World-wide min-reduction of boundary ids — victims (and any rank with
///    no image) contribute `+∞`; survivors contribute `cur.id`. The minimum
///    is the newest boundary *every* survivor holds: commits happen behind a
///    revocable barrier, so survivor images diverge by at most one commit,
///    and the laggards' boundary is held by the leaders as `prev`.
/// 2. Survivors one commit ahead demote `prev` to `cur`.
/// 3. The lowest-ranked survivor ships the control image to each victim,
///    which synthesizes a local [`BoundaryImage`] from it.
fn dist_align_boundary(ctx: &Ctx, enc: &Encoded, imgs: &mut Images, victims: &[usize], me: bool) {
    let mut bid = [if me {
        f64::INFINITY
    } else {
        imgs.cur.as_ref().map_or(f64::INFINITY, |i| i.id as f64)
    }];
    dtrace!(ctx, "align: entering boundary min-reduce (mine={})", bid[0]);
    ctx.allreduce_min_world(&mut bid, TAG_BOUNDARY_MIN);
    dtrace!(ctx, "align: agreed boundary id {}", bid[0]);
    assert!(bid[0].is_finite(), "distributed recovery: no survivor holds a boundary image");
    let common = bid[0] as u64;
    if !me && imgs.cur.as_ref().map(|i| i.id) != Some(common) {
        let prev = imgs.prev.take().expect("survivor lacks the agreed boundary image");
        assert_eq!(prev.id, common, "survivor boundary images diverged by more than one commit");
        imgs.cur = Some(prev);
    }
    let lead = (0..ctx.grid().size())
        .find(|r| !victims.contains(r))
        .expect("no survivor in the world");
    if ctx.rank() == lead {
        let buf = serialize_ctl_image(imgs.cur.as_ref().unwrap());
        for &v in victims {
            dtrace!(ctx, "align: shipping control image to replacement {v}");
            ctx.send(v, TAG_CTL_IMAGE, &buf);
        }
    }
    if me {
        let buf = ctx.recv(lead, TAG_CTL_IMAGE);
        deserialize_ctl_image(ctx, enc, &buf, &mut imgs.cur);
        dtrace!(ctx, "align: received control image from lead {lead}");
    }
    // Either way `prev` is now behind the agreed boundary (or synthesized
    // never existed); the first post-recovery commit re-seeds it.
    imgs.prev = None;
}

/// The fault-tolerant distributed Hessenberg reduction (SPMD).
///
/// Reduces the logical `N×N` part of `enc` in place; on exit the Hessenberg
/// entries and reflectors are stored exactly like [`ft_pblas::pdgehrd`]'s
/// output and `tau` is replicated. Failures scripted through the runtime's
/// [`ft_runtime::FaultScript`] at [`failpoint`] ids strike at their phase
/// boundary; the same script's kills ([`ft_runtime::ChaosKill`]) at
/// arbitrary message-op boundaries are agreed on by the runtime and rolled
/// back to the last committed boundary. One recovery path repairs both,
/// transparently, and the returned [`FtReport`] counts both. A victim set
/// beyond the redundancy level's tolerance yields
/// [`FtError::ExceededCodeDistance`] — identically on every rank.
///
/// ```
/// use ft_hess::{failpoint, ft_pdgehrd, Encoded, Phase, Variant};
/// use ft_runtime::{run_spmd, FaultScript};
///
/// // Rank 2 dies right after the second panel's factorization …
/// let script = FaultScript::one(2, failpoint(1, Phase::AfterPanel));
/// let recoveries = run_spmd(2, 2, script, |ctx| {
///     let mut enc = Encoded::from_global_fn(&ctx, 16, 2, |i, j| {
///         ft_dense::gen::uniform_entry(42, i, j)
///     });
///     let mut tau = vec![0.0; 15];
///     ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau)
///         .expect("one failure per row is within the fault model")
///         .recoveries
/// });
/// // … and every process reports exactly one transparent recovery.
/// assert_eq!(recoveries, vec![1, 1, 1, 1]);
/// ```
pub fn ft_pdgehrd(ctx: &Ctx, enc: &mut Encoded, variant: Variant, tau: &mut [f64]) -> Result<FtReport, FtError> {
    ft_solve(ctx, &Hessenberg, enc, variant, tau, DriverControl::default())
}

/// The fault-tolerant distributed Householder QR (SPMD) — the second solver
/// of the ABFT framework, running on the **identical** shared driver,
/// recovery, scrub and chaos machinery as [`ft_pdgehrd`] via the
/// [`FtSolver`] contract.
///
/// Factors the logical `N×N` part of `enc` in place: `R` in the upper
/// triangle, reflectors below the diagonal, `tau` (length ≥ N) replicated
/// on exit — exactly [`ft_pblas::pdgeqrf`]'s output. QR applies only left
/// updates, so the checksum columns stay consistent without pseudo-checksum
/// (`Ve`) machinery; everything else (scopes, bookkeeping, §5.3 recovery,
/// boundary images) is the shared code path.
///
/// ```
/// use ft_hess::{failpoint, ft_pdgeqrf, Encoded, Phase, Variant};
/// use ft_runtime::{run_spmd, FaultScript};
///
/// // Rank 1 dies right after the second QR panel's factorization …
/// let script = FaultScript::one(1, failpoint(1, Phase::AfterPanel));
/// let recoveries = run_spmd(2, 2, script, |ctx| {
///     let mut enc = Encoded::from_global_fn(&ctx, 12, 2, |i, j| {
///         ft_dense::gen::uniform_entry(7, i, j)
///     });
///     let mut tau = vec![0.0; 12];
///     ft_pdgeqrf(&ctx, &mut enc, Variant::NonDelayed, &mut tau)
///         .expect("one failure per row is within the fault model")
///         .recoveries
/// });
/// // … and every process reports exactly one transparent recovery.
/// assert_eq!(recoveries, vec![1, 1, 1, 1]);
/// ```
pub fn ft_pdgeqrf(ctx: &Ctx, enc: &mut Encoded, variant: Variant, tau: &mut [f64]) -> Result<FtReport, FtError> {
    ft_solve(ctx, &HouseholderQr, enc, variant, tau, DriverControl::default())
}

/// [`ft_pdgehrd`] with a scrub policy and an observation hook — shorthand
/// for [`ft_solve`] with [`DriverControl::scrub`] and [`DriverControl::hook`]
/// set.
pub fn ft_pdgehrd_full(
    ctx: &Ctx,
    enc: &mut Encoded,
    variant: Variant,
    tau: &mut [f64],
    policy: ScrubPolicy,
    hook: &mut PhaseHook,
) -> Result<FtReport, FtError> {
    let ctl = DriverControl { scrub: policy, hook: Some(hook), ..Default::default() };
    ft_solve(ctx, &Hessenberg, enc, variant, tau, ctl)
}

/// The QR counterpart of [`ft_pdgehrd_full`].
pub fn ft_pdgeqrf_full(
    ctx: &Ctx,
    enc: &mut Encoded,
    variant: Variant,
    tau: &mut [f64],
    policy: ScrubPolicy,
    hook: &mut PhaseHook,
) -> Result<FtReport, FtError> {
    let ctl = DriverControl { scrub: policy, hook: Some(hook), ..Default::default() };
    ft_solve(ctx, &HouseholderQr, enc, variant, tau, ctl)
}

/// Everything about a driver run beyond "which solver, which variant": the
/// scrub policy, an observation hook, checkpoint capture, restart-resume and
/// joining as a replacement. `DriverControl::default()` is the plain
/// fault-tolerant run of the paper.
///
/// ## Resume contract
///
/// `start_panel` must be a *scope entry* — a panel index whose block column
/// is a multiple of Q (the state [`crate::FtCheckpoint`] captures, because
/// the scope sink only fires at scope closes). Before calling the driver
/// with `start_panel > 0`, the caller must have restored the encoded matrix
/// and the tau prefix from such a checkpoint on **every** rank
/// ([`crate::FtCheckpoint::restore`]); the driver then skips the initial
/// encoding (the restored matrix already carries live checksums — at a
/// scope close the Theorem 1 invariant holds under both variants, the
/// delayed catch-up included) and re-enters the loop at the recorded panel.
/// Re-execution from a restored scope boundary is deterministic (DESIGN.md
/// §14), so a resumed run's result is bitwise identical to an uninterrupted
/// one.
#[derive(Default)]
pub struct DriverControl<'a> {
    /// First panel iteration to execute; 0 runs from the start. Must be a
    /// scope entry (see the resume contract above).
    pub start_panel: usize,
    /// This process is a **respawned replacement** joining an in-flight
    /// distributed run: a rank that was SIGKILLed, re-spawned and
    /// re-admitted by the transport's epoch-fenced handshake. It holds a
    /// freshly allocated (garbage) encoded matrix; the driver skips the
    /// initial encoding and the pre-loop boundary and goes straight into
    /// the recovery protocol, where the survivors' agreement names it a
    /// victim, a survivor ships it the control image of the rollback
    /// boundary, and §5.3 recovery rebuilds its matrix data. Mutually
    /// exclusive with a nonzero `start_panel`: a replacement's state comes
    /// from its peers, not from a checkpoint.
    pub replacement: bool,
    /// Called (collectively, on every rank) after each scope close except
    /// the final one, with the just-finished panel index — the exact
    /// boundary [`crate::FtCheckpoint::capture`] serializes and the resume
    /// contract re-enters at (`start_panel` = panel + 1). Under chaos a
    /// rolled-back scope can fire the sink again; re-execution is
    /// deterministic, so the re-captured image is bitwise identical.
    pub scope_sink: Option<&'a mut ScopeSink<'a>>,
    /// The online SDC scrub engine's schedule (default: disabled). At the
    /// boundaries the policy names, the engine verifies every live checksum
    /// copy, separates data from checksum corruption, localizes and
    /// corrects single-block damage in place, and escalates the rest to a
    /// verified-boundary rollback (or [`FtError::ScrubUnrecoverable`]). The
    /// per-rank statistics come back in [`FtReport::scrub`].
    pub scrub: ScrubPolicy,
    /// Observation hook called (collectively, on every process) after each
    /// phase boundary — after its scripted failures are repaired, if any —
    /// used by the test suites to check the Theorem 1 checksum invariant at
    /// every step and to inject silent corruption into the encoded matrix.
    /// The hook may run collectives and corrupt matrix *data*, but must not
    /// mutate driver bookkeeping. Chaos-mode rollbacks resume *after* a
    /// boundary, so under chaos injection a boundary's hook invocation can
    /// be skipped on re-execution — invariant-checking hooks belong to
    /// scripted runs.
    pub hook: Option<&'a mut PhaseHook<'a>>,
}

/// Callback fired at every scope close with `(ctx, enc, tau, panel)` — the
/// checkpointable boundary state (see [`DriverControl::scope_sink`]).
pub type ScopeSink<'a> = dyn FnMut(&Ctx, &Encoded, &[f64], usize) + 'a;

/// Callback fired after every phase boundary with `(ctx, enc, panel, phase)`
/// (see [`DriverControl::hook`]).
pub type PhaseHook<'a> = dyn FnMut(&Ctx, &mut Encoded, usize, Phase) + 'a;

/// The fault-tolerant driver: the whole ABFT state machine, written once
/// over the [`FtSolver`] contract. This is the only way in — [`ft_pdgehrd`],
/// [`ft_pdgeqrf`] and the `*_full` pair are one-line shorthands for it.
///
/// Factors the logical `N×N` part of `enc` in place, leaving exactly what
/// [`FtSolver::plain`] would, with `tau` (length ≥ [`FtSolver::tau_len`])
/// replicated on exit.
pub fn ft_solve(
    ctx: &Ctx,
    solver: &dyn FtSolver,
    enc: &mut Encoded,
    variant: Variant,
    tau: &mut [f64],
    ctl: DriverControl,
) -> Result<FtReport, FtError> {
    let DriverControl {
        start_panel,
        replacement,
        mut scope_sink,
        scrub: policy,
        mut hook,
    } = ctl;
    assert!(!replacement || ctx.distributed(), "a replacement only makes sense on a real transport");
    let n = enc.n();
    let nb = enc.nb();
    let q = ctx.npcol();
    // Q = 1 keeps both checksum copies on the one process column: useless
    // against fail-stop loss (check_tolerance caps the per-row budget at
    // Q − 1 = 0 and returns the typed error), but the scrub engine still
    // detects and corrects silent corruption there — each group has exactly
    // one member, so localization is trivial.
    assert!(q >= 2 || ctx.grid().size() == 1, "Q = 1 is only supported on a 1×1 grid");
    assert!(tau.len() >= solver.tau_len(n), "ft driver ({}): tau too short", solver.name());

    let mut report = FtReport::default();
    let t_total = Instant::now();

    // A resumed run re-enters at a checkpointed scope entry: walk the panel
    // widths to the matching matrix offset and verify the alignment the
    // resume contract promises.
    assert!(!(replacement && start_panel > 0), "a replacement cannot also resume from a checkpoint");
    let mut start_k = 0usize;
    for p in 0..start_panel {
        assert!(
            solver.panel_exists(start_k, n),
            "start_panel {start_panel} is beyond the final panel (stuck at {p})"
        );
        start_k += solver.panel_width(start_k, n, nb);
    }
    assert!(
        start_panel == 0 || !solver.panel_exists(start_k, n) || (start_k / nb).is_multiple_of(q),
        "resume must start at a scope entry (block column a multiple of Q)"
    );
    let resuming = start_panel > 0;

    let mut st = DriverState {
        scope: None,
        k: start_k,
        panel_idx: start_panel,
        resume: Step::Begin,
    };
    let mut imgs = Images::default();

    if !replacement && !resuming {
        let t0 = Instant::now();
        enc.compute_initial_checksums(ctx);
        report.encode_secs = t0.elapsed().as_secs_f64();
    }

    // The protection domain opens once the checksums exist — data lost
    // before that is outside the paper's fault model (§5). A replacement
    // arms immediately: its peers are already deep inside the domain.
    ctx.arm_chaos();

    let mut scrub = ScrubCtl {
        engine: ScrubEngine::new(policy),
        img: None,
        last_rollback: None,
    };
    imgs.whole = ctx.sdc_enabled() || scrub.engine.active() || hook.is_some();

    if ft_live(ctx) && !replacement {
        // Pre-loop boundary: a kill before the first panel's fail point
        // rolls back to "everything encoded, nothing factorized", where the
        // whole matrix is reconstructible from the initial checksums. A
        // resumed run's pre-loop boundary is its restored checkpoint — the
        // same shape (no scope open, every group solvable from its stored
        // checksum), just at a later panel. No scope is open: the image is
        // the whole buffer.
        let t = Instant::now();
        ctx.barrier();
        report.image_words += capture_image(&mut imgs.cur, enc, tau, &st, Phase::BeforePanel, enc.groups(), 0, true);
        ctx.commit_boundary(0);
        report.commit_secs += t.elapsed().as_secs_f64();
    }

    if scrub.engine.active() && scrub.engine.policy.rollback && !replacement {
        // The freshly encoded matrix is trusted by definition (the paper's
        // protection domain opens here): it is the first verified image.
        // A replacement's buffer is garbage; its first verified image comes
        // from its first clean boundary scan.
        report.image_words += capture_image(&mut scrub.img, enc, tau, &st, Phase::BeforePanel, enc.groups(), 0, true);
    }

    // A replacement enters the recovery protocol before running a single
    // step: the survivors' agreement is already waiting to name it a victim.
    let mut halt = replacement.then_some(Halt::Interrupted);
    loop {
        let stop = match halt.take() {
            Some(stop) => stop,
            None => match catch_interrupt(|| {
                run_loop(
                    ctx,
                    solver,
                    enc,
                    variant,
                    tau,
                    &mut hook,
                    &mut scope_sink,
                    &mut st,
                    &mut imgs,
                    &mut scrub,
                    &mut report,
                )
            }) {
                Ok(Ok(None)) => break,
                Ok(Ok(Some(scripted))) => scripted,
                Ok(Err(e)) => return Err(e),
                Err(_interrupt) => {
                    report.chaos_aborts += 1;
                    dtrace!(ctx, "driver: interrupted, entering agreement");
                    Halt::Interrupted
                }
            },
        };
        halt = recover_from(stop, ctx, solver, enc, variant, tau, &mut hook, &mut st, &mut imgs, &mut scrub, &mut report)?;
    }

    report.total_secs = t_total.elapsed().as_secs_f64();
    report.scrub = scrub.engine.report;
    Ok(report)
}

/// The scrub engine's driver-side control block: the engine itself plus the
/// rollback machinery the engine's verdicts feed. `img` is refreshed only
/// after a boundary whose scan came back clean (or fully corrected) — chaos
/// boundary images are *not* reusable here, because seeded flips land
/// between captures and an image may already carry the corruption.
struct ScrubCtl {
    engine: ScrubEngine,
    /// Last *verified* boundary image.
    img: Option<BoundaryImage>,
    /// Panel index of the last image rolled back to — the progress guard:
    /// escalating out of the same image twice means rollback cannot help
    /// (the corruption re-appears deterministically or predates the image).
    last_rollback: Option<usize>,
}

/// Resolve an escalation: roll back to the last verified image when policy
/// and the progress guard allow it (the caller then re-executes), otherwise
/// return the typed terminal error. Deterministic over replicated state —
/// every rank takes the same branch.
fn scrub_escalate(
    enc: &mut Encoded,
    tau: &mut [f64],
    st: &mut DriverState,
    scrub: &mut ScrubCtl,
    panel_idx: usize,
    esc: ScrubEscalation,
) -> Result<(), FtError> {
    let rollback_ok =
        scrub.engine.policy.rollback && scrub.img.as_ref().is_some_and(|i| scrub.last_rollback != Some(i.panel_idx));
    if !rollback_ok {
        return Err(FtError::ScrubUnrecoverable { panel: panel_idx, group: esc.group, block_col: esc.block_col });
    }
    let image = scrub.img.as_ref().unwrap();
    restore_image(enc, tau, st, image, true);
    scrub.last_rollback = Some(image.panel_idx);
    scrub.engine.report.rollbacks += 1;
    Ok(())
}

/// Apply the runtime's fired-but-pending silent bit flips to my local
/// buffer (the injector counts message ops but cannot see matrix storage).
/// Word indices wrap modulo the buffer length, so every scheduled flip
/// lands. Purely local.
fn apply_sdc_flips(ctx: &Ctx, enc: &mut Encoded) {
    for flip in ctx.take_sdc_flips() {
        let buf = enc.a.local_mut().as_mut_slice();
        if buf.is_empty() {
            continue;
        }
        let w = (flip.word % buf.len() as u64) as usize;
        buf[w] = f64::from_bits(buf[w].to_bits() ^ (1u64 << flip.bit));
    }
}

/// One pass of the driver loop from `st.resume` to completion (`Ok(None)`)
/// or to a fail point the script names victims at (`Ok(Some(..))`, the
/// state left on that boundary, uncommitted). Unwinds with an
/// [`ft_runtime::Interrupt`] on a kill (caught by the caller); returns `Err`
/// only for the scrub engine's typed verdict.
#[allow(clippy::too_many_arguments)] // internal plumbing of the driver loop
fn run_loop(
    ctx: &Ctx,
    solver: &dyn FtSolver,
    enc: &mut Encoded,
    variant: Variant,
    tau: &mut [f64],
    hook: &mut Option<&mut PhaseHook>,
    sink: &mut Option<&mut ScopeSink>,
    st: &mut DriverState,
    imgs: &mut Images,
    scrub: &mut ScrubCtl,
    report: &mut FtReport,
) -> Result<Option<Halt>, FtError> {
    let n = enc.n();
    let nb = enc.nb();
    let q = ctx.npcol();
    let include_chk = variant == Variant::NonDelayed;

    while solver.panel_exists(st.k, n) {
        let w = solver.panel_width(st.k, n, nb);
        let bc = st.k / nb;
        let s = bc / q;

        if st.resume == Step::Begin {
            if bc.is_multiple_of(q) {
                let t = Instant::now();
                st.scope = Some(ScopeState::begin(ctx, enc, s));
                report.snapshot_secs += t.elapsed().as_secs_f64();
            }
            if let Some(halt) = pass_boundary(ctx, enc, tau, st, imgs, Step::Panel, Phase::BeforePanel, s, report) {
                return Ok(Some(halt));
            }
            observe(hook, ctx, enc, st.panel_idx, Phase::BeforePanel);
        }

        // `Ve` of this panel (NonDelayed): computed once for the pseudo-
        // checksum store and handed to the right update. A run that resumes
        // at `Step::Right` — after a rollback or a recovery — recomputes it
        // from the (replicated, restored) factors: a replacement process
        // keeps nothing across its death.
        let mut ve_panel: Option<Matrix> = None;

        if st.resume == Step::Panel {
            let f = solver.factor_panel(ctx, &mut enc.a, n, st.k, w);
            debug_assert_eq!(f.v_row_offset, solver.v_row_offset(), "panel kernel/solver geometry mismatch");
            if solver.has_right_update() && variant == Variant::NonDelayed {
                let ve = ve_rows(enc, &f);
                store_ve(enc, &f, &ve);
                ve_panel = Some(ve);
            }
            {
                let t = Instant::now();
                st.scope.as_mut().unwrap().bookkeep_panel(ctx, enc, f);
                report.bookkeeping_secs += t.elapsed().as_secs_f64();
            }
            if let Some(halt) = pass_boundary(ctx, enc, tau, st, imgs, Step::Right, Phase::AfterPanel, s, report) {
                return Ok(Some(halt));
            }
            observe(hook, ctx, enc, st.panel_idx, Phase::AfterPanel);
        }

        if st.resume == Step::Right {
            // On resume after a rollback the panel's factors come from the
            // scope bookkeeping (replicated and deterministic), not from a
            // re-run of the panel kernel. A left-only solver does no work
            // here, but the step still runs its fail point so fail-point
            // ids and the rollback protocol are solver-independent.
            if solver.has_right_update() {
                let f = st.scope.as_ref().unwrap().factors.last().expect("panel factored");
                let ve = ve_panel.take().unwrap_or_else(|| ve_rows(enc, f));
                ft_right(enc, f, &ve, st.k + w, n, include_chk, s);
            }
            if let Some(halt) = pass_boundary(ctx, enc, tau, st, imgs, Step::Left, Phase::AfterRightUpdate, s, report) {
                return Ok(Some(halt));
            }
            observe(hook, ctx, enc, st.panel_idx, Phase::AfterRightUpdate);
        }

        if st.resume == Step::Left {
            let f = st.scope.as_ref().unwrap().factors.last().expect("panel factored");
            ft_left(ctx, enc, f, st.k + w, n, include_chk, s);
            if let Some(halt) = pass_boundary(ctx, enc, tau, st, imgs, Step::ScopeEnd, Phase::AfterLeftUpdate, s, report) {
                return Ok(Some(halt));
            }
            observe(hook, ctx, enc, st.panel_idx, Phase::AfterLeftUpdate);
        }

        // Step::ScopeEnd — tau write, progress marker, scope-end work.
        {
            let sc = st.scope.as_mut().unwrap();
            if include_chk {
                // Keep the progress marker meaningful for both variants.
                sc.chk.panels_done = sc.factors.len();
            }
            tau[st.k..st.k + w].copy_from_slice(&sc.factors.last().expect("panel factored").tau);
        }
        // Seeded silent corruption lands here — the quiescent boundary the
        // injector's message-op clock drains into. A re-execution after a
        // rollback does not re-flip (the runtime fires each flip once).
        if ctx.sdc_enabled() {
            apply_sdc_flips(ctx, enc);
        }
        let last_panel_overall = !solver.panel_exists(st.k + w, n);
        let scope_closing = bc % q == q - 1 || last_panel_overall;
        let scan_due = scrub.engine.due(st.panel_idx, scope_closing);
        if scope_closing {
            let t = Instant::now();
            let sc = st.scope.as_mut().unwrap();
            if variant == Variant::Delayed {
                alg3_catch_up(ctx, solver, enc, sc, s, sc.factors.len(), false);
            }
            // The scope-boundary scan runs after the catch-up (every live
            // copy satisfies Theorem 1 now, both variants) and strictly
            // before the group-s recompute below, which would absorb any
            // lingering corruption into the new checksum for good. Under
            // the delayed variant the catch-up has just been computed
            // *through* any mid-scope trailing corruption, so trailing
            // data damage is only trustworthy for rollback, not for an
            // in-place rewrite (TrailingScan::Suspect).
            if scan_due {
                let trailing = if variant == Variant::NonDelayed {
                    TrailingScan::Live
                } else {
                    TrailingScan::Suspect
                };
                let sc = st.scope.as_ref().unwrap();
                if let Err(esc) = scrub
                    .engine
                    .scrub_pass(ctx, solver, enc, sc, s, Phase::AfterLeftUpdate, trailing)
                {
                    scrub_escalate(enc, tau, st, scrub, st.panel_idx, esc)?;
                    continue; // re-execute from the restored verified boundary
                }
            }
            // Algorithm 2 line 16 analogue / §5: the finished group's
            // checksum is recomputed once and protects Area 2 forever.
            enc.compute_group_checksum(ctx, s);
            report.scope_end_secs += t.elapsed().as_secs_f64();
            // The scope is closed and every live checksum copy satisfies
            // Theorem 1 (catch-up included): the exact boundary the resume
            // contract of [`DriverControl`] re-enters at. Hand it to the
            // checkpoint sink — except after the final panel, where there
            // is nothing left to resume.
            if !last_panel_overall {
                if let Some(f) = sink.as_mut() {
                    f(ctx, enc, tau, st.panel_idx);
                }
            }
        } else if scan_due {
            // Mid-scope: under the delayed variant the trailing checksums
            // lag the data until the catch-up, so only the finished groups
            // are scanned; the trailing groups get their scan at the scope
            // boundary above.
            let sc = st.scope.as_ref().unwrap();
            let trailing = if variant == Variant::NonDelayed {
                TrailingScan::Live
            } else {
                TrailingScan::Skip
            };
            if let Err(esc) = scrub
                .engine
                .scrub_pass(ctx, solver, enc, sc, s, Phase::AfterLeftUpdate, trailing)
            {
                scrub_escalate(enc, tau, st, scrub, st.panel_idx, esc)?;
                continue;
            }
        }

        st.panel_idx += 1;
        st.k += w;
        st.resume = Step::Begin;

        // A clean (or fully corrected) scan verifies this boundary: refresh
        // the scrub rollback image. Chaos boundary images are not reused —
        // flips land between their captures, so they may carry corruption.
        // Mid-scope scans under the delayed variant skip the (stale)
        // trailing groups, so they verify nothing about Area 1 — refreshing
        // there could freeze trailing corruption into the "known-good"
        // image; only full-coverage scans move it forward.
        let full_coverage = scope_closing || variant == Variant::NonDelayed;
        if scan_due && full_coverage && scrub.engine.policy.rollback {
            let s_next = if solver.panel_exists(st.k, n) { (st.k / nb) / q } else { enc.groups() };
            // Scrub images never enter the distributed boundary agreement
            // (they are rollback-only, per rank), so their id is unused.
            report.image_words += capture_image(&mut scrub.img, enc, tau, st, Phase::BeforePanel, s_next, 0, true);
        }
    }

    if ft_live(ctx) {
        // Drain barrier: nobody leaves the protection domain while a peer
        // can still die mid-protocol (agreement needs the full world). No
        // message ops run between this barrier completing and the disarm,
        // so once it passes no kill can fire on any rank.
        ctx.barrier();
        ctx.disarm_chaos();
    }
    Ok(None)
}

#[inline]
fn observe(hook: &mut Option<&mut PhaseHook>, ctx: &Ctx, enc: &mut Encoded, panel_idx: usize, phase: Phase) {
    if let Some(h) = hook.as_mut() {
        h(ctx, enc, panel_idx, phase);
    }
}

/// Why the driver loop stopped short of the last panel.
enum Halt {
    /// The script names `victims` at the fail point of the boundary
    /// `(phase, s)` the driver state sits on, not yet committed. Every rank
    /// read the same victims there and stopped there: nothing to agree on,
    /// nothing to roll back.
    Scripted { victims: Vec<usize>, phase: Phase, s: usize },
    /// A kill unwound this rank mid-step (its own death or the revocation
    /// it caused), or the rank is a replacement joining the run: agree on
    /// the victims, roll back to the last committed boundary image.
    Interrupted,
}

/// The one recovery path (§5.3), for scripted failures and kills alike:
/// settle the victims (read from the script, or agreed after a kill) and
/// check them against the code's tolerance; roll back to the last committed
/// boundary image unless the state already sits on the failed boundary;
/// rebuild the lost data; run the scrub policy's post-recovery pass. A
/// scripted failure's boundary is then committed — which re-arms
/// protection before the next step — and shown to the hook; a rollback
/// resumes after a boundary whose hook already ran.
///
/// Returns `Ok(None)` to resume the loop and `Ok(Some(Halt::Interrupted))`
/// when a failure struck during the recovery itself, or before the repaired
/// boundary committed — the detector round is cumulative (scripted victims
/// included), so the next agreement returns the union and recovery
/// re-enters from the last committed image. `Err` is a typed verdict,
/// identical on every rank.
#[allow(clippy::too_many_arguments)] // internal plumbing of the driver loop
fn recover_from(
    halt: Halt,
    ctx: &Ctx,
    solver: &dyn FtSolver,
    enc: &mut Encoded,
    variant: Variant,
    tau: &mut [f64],
    hook: &mut Option<&mut PhaseHook>,
    st: &mut DriverState,
    imgs: &mut Images,
    scrub: &mut ScrubCtl,
    report: &mut FtReport,
) -> Result<Option<Halt>, FtError> {
    let (victims, at) = match halt {
        Halt::Scripted { victims, phase, s } => (victims, Some((phase, s))),
        Halt::Interrupted => {
            let agreed = ctx.agree_on_failures();
            dtrace!(ctx, "driver: agreed victims={:?} epoch={}", agreed.victims, agreed.epoch);
            (agreed.victims, None)
        }
    };
    let me = victims.contains(&ctx.rank());
    if let Err(tol) = recovery::check_tolerance(ctx, enc.redundancy(), &victims) {
        // Deterministic over the victim set: every rank returns this same
        // error, none panics. It names the failed boundary — after a kill
        // the last committed image's; a replacement has no image yet and
        // reports the pre-loop boundary.
        let (panel, phase) = match at {
            Some((phase, _)) => (st.panel_idx, phase),
            None => imgs.cur.as_ref().map_or((0, Phase::BeforePanel), |i| (i.panel_idx, i.phase)),
        };
        return Err(FtError::exceeded(victims, panel, phase, tol));
    }
    let t = Instant::now();
    ctx.begin_recovery();
    let outcome = catch_interrupt(|| {
        let (phase, s) = at.unwrap_or_else(|| {
            if ctx.distributed() {
                dist_align_boundary(ctx, enc, imgs, &victims, me);
            }
            let image = imgs.cur.as_ref().expect("chaos abort before the pre-loop boundary image");
            restore_image(enc, tau, st, image, !me);
            ctx.rewind_failpoints(image.id);
            dtrace!(ctx, "driver: rolled back to boundary id={} panel={}", image.id, st.panel_idx);
            (image.phase, image.s)
        });
        let sc = st.scope.get_or_insert_with(|| ScopeState::empty(ctx, enc));
        recovery::recover(ctx, solver, enc, sc, &victims, me, variant, phase, s);
        dtrace!(ctx, "driver: §5.3 recovery done");
        // Post-recovery scan: recovery rebuilt lost blocks *from* the
        // checksums, so silent corruption that predated the failure is now
        // woven into the recovered data — catch it before more updates
        // spread it. The catch-up inside recovery left every live copy
        // consistent with the data (both variants), but under the delayed
        // variant it was computed through any pre-existing trailing
        // corruption, so those verdicts are rollback-only. Escalation is
        // terminal here — there is no verified image that also reflects the
        // fail-stop repair.
        if scrub.engine.active() && scrub.engine.policy.post_recovery {
            let trailing = if variant == Variant::NonDelayed {
                TrailingScan::Live
            } else {
                TrailingScan::Suspect
            };
            if let Err(esc) = scrub.engine.scrub_pass(ctx, solver, enc, sc, s, phase, trailing) {
                return Err(FtError::ScrubUnrecoverable {
                    panel: st.panel_idx,
                    group: esc.group,
                    block_col: esc.block_col,
                });
            }
        }
        Ok((phase, s))
    });
    ctx.end_recovery();
    report.recovery_secs += t.elapsed().as_secs_f64();
    let Ok(recovered) = outcome else {
        report.chaos_aborts += 1;
        return Ok(Some(Halt::Interrupted));
    };
    let (phase, s) = recovered?;
    report.recoveries += 1;
    report.victims.extend_from_slice(&victims);
    if at.is_some() {
        let committed = catch_interrupt(|| {
            commit_boundary_image(ctx, enc, tau, st, imgs, phase, s, report);
            observe(hook, ctx, enc, st.panel_idx, phase);
        });
        if committed.is_err() {
            report.chaos_aborts += 1;
            return Ok(Some(Halt::Interrupted));
        }
    } else if ctx.distributed() {
        // Recapture the boundary from the *recovered* state on every rank: a
        // re-spawned victim's synthesized image holds a garbage matrix
        // buffer and an empty scope, and must never be rolled back to again.
        let id = imgs.cur.as_ref().expect("a distributed run commits before its first panel").id;
        report.image_words += capture_image(&mut imgs.cur, enc, tau, st, phase, s, id, imgs.whole);
        imgs.prev = None;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::panel_message;
    use crate::solver::SOLVERS;
    use ft_dense::gen::uniform_entry;
    use ft_pblas::{pdlahrd, pdlaqrf};
    use ft_runtime::{run_distributed, run_spmd, CommError, FaultScript, MpscTransport, Msg, Transport};
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// [`ve_rows`] as it was before it walked column slices: one element of
    /// `V` and one weight at a time.
    fn ve_rows_by_element(enc: &Encoded, f: &PanelFactors) -> Matrix {
        let r0 = f.v_row0();
        let mut ve = Matrix::zeros(enc.ncopies() * enc.groups() * enc.nb(), f.w);
        for copy in 0..enc.ncopies() {
            for g in 0..enc.groups() {
                for off in 0..enc.nb() {
                    let r = ve_row_index(enc, g, copy, off);
                    for c in enc.member_cols(g, off) {
                        if c >= r0 && c < f.n {
                            let w = enc.col_weight(copy, c);
                            for l in 0..f.w {
                                ve[(r, l)] += w * f.vfull[(c - r0, l)];
                            }
                        }
                    }
                }
            }
        }
        ve
    }

    /// [`store_ve`] as it was: one global-index write per element.
    fn store_ve_by_element(enc: &mut Encoded, f: &PanelFactors, ve: &Matrix) {
        if !enc.a.owns_col(f.k) {
            return;
        }
        for copy in 0..enc.ncopies() {
            for g in 0..enc.groups() {
                for off in 0..enc.nb() {
                    let r = enc.chk_row(g, copy, off);
                    if enc.a.owns_row(r) {
                        for l in 0..f.w {
                            enc.a.set(r, f.k + l, ve[(ve_row_index(enc, g, copy, off), l)]);
                        }
                    }
                }
            }
        }
    }

    /// [`stack_ve_rows`] as `ft_right` / `ft_right_chk_only` built it: one
    /// `Matrix` index per element.
    fn stack_ve_rows_by_element(enc: &Encoded, top: &Matrix, ve: &Matrix, meta: &[(usize, usize, usize)]) -> Matrix {
        Matrix::from_fn(top.rows() + meta.len(), ve.cols(), |i, l| match i.checked_sub(top.rows()) {
            None => top[(i, l)],
            Some(c) => ve[(ve_row_index(enc, meta[c].0, meta[c].1, meta[c].2), l)],
        })
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The FT panel boundary moves blocks where it moved elements; nothing
    /// it computes or sends may change by a bit — both solvers' panels,
    /// first, interior and ragged last, flat and weighted checksums.
    #[test]
    fn ft_panel_boundary_is_bitwise_the_element_loops() {
        let cases = [
            (1usize, 2usize, 24usize, 4usize, Redundancy::Single),
            (2, 2, 24, 4, Redundancy::Single),
            (2, 3, 30, 3, Redundancy::Single),
            (2, 2, 23, 4, Redundancy::Single),
            (2, 4, 34, 4, Redundancy::Coded(2)),
        ];
        for (p, q, n, nb, redundancy) in cases {
            let stacked = Arc::new(AtomicUsize::new(0));
            let counted = stacked.clone();
            run_spmd(p, q, FaultScript::none(), move |ctx| {
                let last = (n - 3) / nb * nb;
                for k in [0, nb, last] {
                    for hess in [true, false] {
                        let mut enc = Encoded::with_redundancy(&ctx, n, nb, redundancy, |i, j| uniform_entry(91, i, j));
                        let f = if hess {
                            pdlahrd(&ctx, &mut enc.a, n, k, nb.min(n - 2 - k))
                        } else {
                            pdlaqrf(&ctx, &mut enc.a, n, k, nb.min(n - k))
                        };
                        let at = format!("{p}x{q} n={n} nb={nb} {redundancy:?} k={k} hess={hess} rank {}", ctx.rank());

                        let ve = ve_rows(&enc, &f);
                        assert_eq!(bits(ve.as_slice()), bits(ve_rows_by_element(&enc, &f).as_slice()), "ve_rows, {at}");
                        assert!(ve.as_slice().iter().any(|&x| x != 0.0), "empty Ve proves nothing, {at}");

                        // The right update's operand, with and without
                        // original columns on top (`ft_right` from the
                        // panel's end, `ft_right_chk_only`), after scope 0
                        // and after the panel's own.
                        let (_, orig_g) = local_orig_cols(&enc, f.k + f.w, n);
                        for top in [f.vrows_for(&orig_g), Matrix::zeros(0, f.w)] {
                            for s in [0, f.k / nb / q] {
                                let (_, meta) = local_chk_cols_after(&enc, s);
                                let got = stack_ve_rows(&enc, &top, &ve, &meta);
                                let want = stack_ve_rows_by_element(&enc, &top, &ve, &meta);
                                assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "operand shape, {at}");
                                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "right-update operand, {at}");
                                counted.fetch_add(meta.len(), Ordering::Relaxed);
                            }
                        }

                        let mut want = enc.clone();
                        store_ve_by_element(&mut want, &f, &ve);
                        let before = bits(enc.a.local().as_slice());
                        store_ve(&mut enc, &f, &ve);
                        assert_eq!(bits(enc.a.local().as_slice()), bits(want.a.local().as_slice()), "store_ve, {at}");
                        let mine = |i: usize| enc.a.owns_row(enc.chk_row(i / enc.ncopies(), i % enc.ncopies(), 0));
                        let writes = enc.a.owns_col(f.k) && (0..enc.groups() * enc.ncopies()).any(mine);
                        assert_eq!(bits(enc.a.local().as_slice()) != before, writes, "who store_ve writes on, {at}");

                        // The bookkeeping message is the owner's rows < n
                        // of the panel's columns, element for element, and
                        // ends there: a holder keeps the message it received
                        // whole, so `lrn·w` words are all it can ever read.
                        let lrn = enc.a.local_rows_below(n);
                        let owner = enc.a.owns_col(f.k);
                        let mut piece = Vec::new();
                        for c in (f.k..f.k + f.w).filter(|_| owner) {
                            let lc = enc.a.g2l_col(c);
                            piece.extend((0..lrn).map(|lr| enc.a.local()[(lr, lc)]));
                        }
                        assert_eq!(piece.len(), if owner { lrn * f.w } else { 0 }, "piece, {at}");
                        assert_eq!(bits(&panel_message(&enc, &f)), bits(&piece), "bookkeeping message, {at}");

                        let q_pan = enc.a.col_owner(f.k);
                        let mut st = ScopeState::begin(&ctx, &enc, f.k / nb / q);
                        st.bookkeep_panel(&ctx, &enc, f.clone());
                        ctx.bcast_row(q_pan, &mut piece, 77);
                        let held: Vec<_> = st
                            .my_panel_pieces
                            .iter()
                            .map(|(_, m)| m)
                            .chain(st.panel_backups.iter().map(|(_, _, m)| m))
                            .collect();
                        let holder = (1..=st.holders).any(|d| ctx.mycol() == (q_pan + d) % q);
                        assert_eq!(held.len(), usize::from(owner) + usize::from(holder && !owner), "who holds the panel, {at}");
                        for m in held {
                            assert_eq!(bits(m), bits(&piece), "held panel piece, {at}");
                        }
                    }
                }
            });
            assert!(stacked.load(Ordering::Relaxed) > 0, "{p}x{q} n={n}: no checksum row was ever stacked");
        }
    }

    /// A boundary the cover test still watches: where, the buffer, the spans.
    type Held = (String, Vec<f64>, Vec<Range<usize>>);

    /// Words of `now` outside `spans` that differ, bit for bit, from `then`.
    fn changed_outside(then: &[f64], now: &[f64], spans: &[Range<usize>]) -> usize {
        let mut inside = vec![false; then.len()];
        for r in spans {
            inside[r.clone()].fill(true);
        }
        (0..then.len())
            .filter(|&i| !inside[i] && then[i].to_bits() != now[i].to_bits())
            .count()
    }

    /// The cover rule behind span images: no word outside what a commit's
    /// image holds is written until the next two commits — the longest a
    /// distributed image stays restorable — every boundary in between,
    /// scope-end work and the final scope's close (the solve's end)
    /// included. Commits are each panel's `BeforePanel` boundary. Both
    /// solvers, both variants, `Single` and `Coded(2)`, ragged `N`, four
    /// grid shapes.
    #[test]
    fn image_spans_cover_the_next_two_boundaries() {
        let cases = [
            (1usize, 2usize, 48usize, 4usize, Redundancy::Single),
            (2, 2, 48, 4, Redundancy::Single),
            (2, 3, 50, 4, Redundancy::Single),
            (1, 4, 46, 4, Redundancy::Coded(2)),
            (2, 4, 48, 4, Redundancy::Coded(2)),
        ];
        for (p, q, n, nb, redundancy) in cases {
            for solver in SOLVERS {
                for variant in [Variant::NonDelayed, Variant::Delayed] {
                    let at = format!("{p}x{q} n={n} nb={nb} {redundancy:?} {} {variant:?}", solver.name());
                    let outside = run_spmd(p, q, FaultScript::none(), |ctx| {
                        let mut enc = Encoded::with_redundancy(&ctx, n, nb, redundancy, |i, j| uniform_entry(5, i, j));
                        let mut tau = vec![0.0; solver.tau_len(n)];
                        // The last two commits.
                        let held: RefCell<VecDeque<Held>> = RefCell::default();
                        let check = |now: &[f64], at_now: &str| {
                            for (then_at, then, spans) in held.borrow().iter() {
                                let changed = changed_outside(then, now, spans);
                                assert_eq!(changed, 0, "{at}: {changed} words outside the {then_at} image written by {at_now}");
                            }
                        };
                        let mut outside = 0;
                        let mut hook = |_: &Ctx, enc: &mut Encoded, panel: usize, phase: Phase| {
                            let buf = enc.a.local().as_slice();
                            check(buf, &format!("panel {panel} {phase:?}"));
                            if phase != Phase::BeforePanel {
                                return;
                            }
                            let mut spans = Vec::new();
                            image_spans(enc, panel / q, false, &mut spans);
                            outside += buf.len() - spans.iter().map(|r| r.len()).sum::<usize>();
                            let mut held = held.borrow_mut();
                            held.push_back((format!("panel {panel} {phase:?}"), buf.to_vec(), spans));
                            if held.len() > 2 {
                                held.pop_front();
                            }
                        };
                        let ctl = DriverControl { hook: Some(&mut hook), ..Default::default() };
                        ft_solve(&ctx, solver, &mut enc, variant, &mut tau, ctl).expect("fault-free");
                        check(enc.a.local().as_slice(), "the solve's end");
                        outside
                    });
                    assert!(outside.iter().all(|&w| w > 0), "{at}: every image held the whole buffer, the rule tested nothing");
                }
            }
        }
    }

    /// Run `f` as every rank of a `p×q` world of distributed contexts (the
    /// message-protocol barriers and agreement a TCP fabric runs) wired over
    /// the in-process fabric.
    fn run_dist<R: Send>(p: usize, q: usize, f: impl Fn(Ctx) -> R + Sync) -> Vec<R> {
        let f = &f;
        std::thread::scope(|scope| {
            let ranks: Vec<_> = MpscTransport::fabric(p * q)
                .into_iter()
                .map(|t| scope.spawn(move || run_distributed(p, q, FaultScript::none(), Box::new(t), f).expect("clean fabric")))
                .collect();
            ranks.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// A distributed solve at the serve jobs' shape (1×2, N = 192, nb = 8)
    /// commits once a panel plus once before the loop, copies at most 0.45×
    /// the words of one whole-buffer image per commit, counts its commit
    /// time, and factors bitwise what the in-process solve does.
    #[test]
    fn distributed_commits_copy_only_live_columns() {
        let (p, q, n, nb) = (1, 2, 192, 8);
        for solver in SOLVERS {
            let solve = |ctx: Ctx| {
                let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(9, i, j));
                let mut tau = vec![0.0; solver.tau_len(n)];
                let rep = ft_solve(&ctx, solver, &mut enc, Variant::NonDelayed, &mut tau, DriverControl::default())
                    .expect("fault-free");
                (bits(enc.a.local().as_slice()), bits(&tau), rep)
            };
            let local = run_spmd(p, q, FaultScript::none(), solve);
            let dist = run_dist(p, q, solve);
            let commits = solver.panel_count(n, nb) + 1;
            for ((buf, tau, rep), (want_buf, want_tau, _)) in dist.iter().zip(&local) {
                assert_eq!((buf, tau), (want_buf, want_tau), "{}: distributed factor differs", solver.name());
                let whole = commits * buf.len();
                assert!(
                    rep.image_words * 100 <= whole * 45,
                    "{}: {} image words, {:.3} of a whole buffer per commit",
                    solver.name(),
                    rep.image_words,
                    rep.image_words as f64 / whole as f64
                );
                assert!(rep.commit_secs > 0.0, "{}: commit time not counted", solver.name());
            }
            for (_, _, rep) in &local {
                assert_eq!(
                    (rep.image_words, rep.commit_secs),
                    (0, 0.0),
                    "{}: fault-free in-process solve committed images",
                    solver.name()
                );
            }
        }
    }

    /// Distributed commits rotate two images through the same buffers: every
    /// capture after the first two lands in memory one of them allocated.
    /// Only a panel's `BeforePanel` boundary commits; the other three leave
    /// both images as they are.
    #[test]
    fn distributed_commits_reuse_two_image_buffers() {
        let (n, nb) = (48, 4);
        run_dist(1, 2, |ctx| {
            let enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(3, i, j));
            let tau = vec![0.0; n];
            let mut st = DriverState { scope: None, k: 0, panel_idx: 0, resume: Step::Begin };
            let (mut imgs, mut report) = (Images::default(), FtReport::default());
            let (mut buffers, mut last_id) = (Vec::new(), None);
            for panel in 0..n / nb {
                st.panel_idx = panel;
                for phase in Phase::ALL {
                    let (cur_id, prev_id, words) =
                        (imgs.cur.as_ref().map(|i| i.id), imgs.prev.as_ref().map(|i| i.id), report.image_words);
                    let halt = pass_boundary(&ctx, &enc, &tau, &mut st, &mut imgs, Step::Begin, phase, panel / 2, &mut report);
                    assert!(halt.is_none(), "an empty script halted the loop");
                    if phase != Phase::BeforePanel {
                        let now = (imgs.cur.as_ref().map(|i| i.id), imgs.prev.as_ref().map(|i| i.id), report.image_words);
                        assert_eq!(now, (cur_id, prev_id, words), "panel {panel} {phase:?}: a mid-panel boundary committed");
                        continue;
                    }
                    assert_eq!(imgs.prev.as_ref().map(|i| i.id), last_id, "panel {panel} {phase:?}: prev is not the last commit");
                    let cur = imgs.cur.as_ref().expect("a live commit captures");
                    assert_eq!(cur.id, failpoint(panel, phase) + 1, "panel {panel}: the commit is not the panel's start");
                    if buffers.len() < 2 {
                        buffers.push(cur.data.as_ptr());
                    }
                    assert!(buffers.contains(&cur.data.as_ptr()), "panel {panel} {phase:?}: a commit allocated a new image");
                    last_id = Some(cur.id);
                }
            }
        });
    }

    /// The boundaries a hook saw, in order, each with the rank's op clock.
    type Seen = Vec<(usize, Phase, u64)>;

    /// Solve the rollback tests' problem (N = 48, nb = 4, non-delayed) on
    /// `ctx`, recording every boundary with `clock`: the factor's and
    /// `tau`'s bits, the report and what the hook saw.
    fn solve_seen(
        ctx: &Ctx,
        solver: &dyn FtSolver,
        replacement: bool,
        clock: impl Fn(&Ctx) -> u64,
    ) -> (Vec<u64>, Vec<u64>, FtReport, Seen) {
        let n = 48;
        let mut enc = Encoded::from_global_fn(ctx, n, 4, |i, j| uniform_entry(11, i, j));
        let mut tau = vec![0.0; solver.tau_len(n)];
        let mut seen = Vec::new();
        let mut hook = |ctx: &Ctx, _: &mut Encoded, panel: usize, phase: Phase| seen.push((panel, phase, clock(ctx)));
        let ctl = DriverControl { replacement, hook: Some(&mut hook), ..Default::default() };
        let rep = ft_solve(ctx, solver, &mut enc, Variant::NonDelayed, &mut tau, ctl).expect("recovered");
        (bits(enc.a.local().as_slice()), bits(&tau), rep, seen)
    }

    /// The op, on the clock `seen` recorded, halfway between `panel`'s
    /// `AfterPanel` and `AfterLeftUpdate` boundaries.
    fn mid_panel(seen: &Seen, panel: usize) -> u64 {
        let at = |phase| {
            seen.iter()
                .find(|&&(p, ph, _)| (p, ph) == (panel, phase))
                .expect("boundary seen")
                .2
        };
        let (from, to) = (at(Phase::AfterPanel), at(Phase::AfterLeftUpdate));
        assert!(from < to, "panel {panel}: no op between AfterPanel and AfterLeftUpdate");
        (from + to) / 2
    }

    /// How often `seen` holds `(panel, phase)`.
    fn times(seen: &Seen, panel: usize, phase: Phase) -> usize {
        seen.iter().filter(|&&(p, ph, _)| (p, ph) == (panel, phase)).count()
    }

    /// The victim process died: the unwind a [`Mortal`] endpoint raises.
    struct Died;

    /// One endpoint of an mpsc fabric that outlives its process: the
    /// `die_at`-th send closes it and unwinds the rank, and a replacement
    /// takes it over under the next incarnation — what a SIGKILL and the
    /// launcher's respawn do to a TCP endpoint.
    struct Mortal {
        ep: Arc<Mutex<MpscTransport>>,
        rank: usize,
        world: usize,
        incarnations: Arc<Vec<AtomicU32>>,
        sends: Arc<AtomicU64>,
        die_at: Option<u64>,
    }

    impl Transport for Mortal {
        fn rank(&self) -> usize {
            self.rank
        }
        fn world_size(&self) -> usize {
            self.world
        }
        fn send(&self, dst: usize, msg: Msg) {
            if Some(self.sends.fetch_add(1, Ordering::Relaxed)) == self.die_at {
                self.ep.lock().unwrap().close();
                resume_unwind(Box::new(Died));
            }
            self.ep.lock().unwrap().send(dst, msg);
        }
        fn recv(&self, timeout: Duration) -> Result<Msg, CommError> {
            self.ep.lock().unwrap().recv(timeout)
        }
        fn close(&self) {
            self.ep.lock().unwrap().close();
        }
        fn reopen(&self) {
            self.ep.lock().unwrap().reopen();
        }
        fn is_peer_dead(&self, peer: usize) -> bool {
            self.ep.lock().unwrap().is_peer_dead(peer)
        }
        fn incarnation(&self) -> u32 {
            self.incarnations[self.rank].load(Ordering::Acquire)
        }
        fn peer_incarnation(&self, peer: usize) -> u32 {
            self.incarnations[peer].load(Ordering::Acquire)
        }
    }

    /// [`run_dist`] in which `victim` dies at its `die_at`-th send and is
    /// replaced: `f` gets the rank's context, whether it is the replacement,
    /// and the incarnation's send counter. The victim's slot holds its
    /// replacement's result.
    fn run_dist_with_a_death<R: Send>(
        p: usize,
        q: usize,
        victim: usize,
        die_at: Option<u64>,
        f: impl Fn(Ctx, bool, &AtomicU64) -> R + Sync,
    ) -> Vec<R> {
        let (f, world) = (&f, p * q);
        let incarnations: Arc<Vec<AtomicU32>> = Arc::new((0..world).map(|_| AtomicU32::new(0)).collect());
        std::thread::scope(|scope| {
            let ranks: Vec<_> = MpscTransport::fabric(world)
                .into_iter()
                .enumerate()
                .map(|(rank, ep)| {
                    let incarnations = Arc::clone(&incarnations);
                    scope.spawn(move || {
                        let ep = Arc::new(Mutex::new(ep));
                        let life = |die_at: Option<u64>| {
                            let sends = Arc::new(AtomicU64::new(0));
                            let t = Mortal {
                                ep: Arc::clone(&ep),
                                rank,
                                world,
                                incarnations: Arc::clone(&incarnations),
                                sends: Arc::clone(&sends),
                                die_at,
                            };
                            let replacement = incarnations[rank].load(Ordering::Acquire) > 0;
                            run_distributed(p, q, FaultScript::none(), Box::new(t), |ctx| f(ctx, replacement, &sends))
                                .expect("clean fabric")
                        };
                        match catch_unwind(AssertUnwindSafe(|| life(die_at.filter(|_| rank == victim)))) {
                            Ok(r) => r,
                            Err(death) if death.is::<Died>() => {
                                incarnations[rank].store(1, Ordering::Release);
                                ep.lock().unwrap().reopen();
                                life(None)
                            }
                            Err(other) => resume_unwind(other),
                        }
                    })
                })
                .collect();
            ranks.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// A kill between a mid-scope panel's `AfterPanel` and `AfterLeftUpdate`
    /// boundaries rolls back to that panel's `BeforePanel` image — the
    /// boundary the panel committed — and recovers there: one recovery, and
    /// a factor and `tau` bitwise those of a scripted failure of the same
    /// victim at that boundary. (The fault-free factor is no oracle: a
    /// rebuild from checksums rounds.) In process (a chaos kill) and
    /// distributed over mpsc (a process death and a replacement), both
    /// solvers, 2×2, panel 3 (the second panel of scope 1).
    #[test]
    fn a_kill_mid_panel_rolls_back_to_the_panel_start() {
        let (p, q, panel, victim) = (2, 2, 3, 1);
        for solver in SOLVERS {
            let name = solver.name();
            let at_start = FaultScript::one(victim, failpoint(panel, Phase::BeforePanel));
            let oracle = run_spmd(p, q, at_start, |ctx| solve_seen(&ctx, solver, false, |_| 0));
            let check = |leg: &str, rank: usize, (buf, tau, rep, seen): &(Vec<u64>, Vec<u64>, FtReport, Seen)| {
                let at = format!("{name} {leg} rank {rank}");
                let want = &oracle[rank];
                assert_eq!(
                    (buf, tau),
                    (&want.0, &want.1),
                    "{at}: the factor differs from a failure scripted at panel {panel}'s start"
                );
                assert_eq!((rep.recoveries, rep.victims.as_slice()), (1, &[victim][..]), "{at}: recoveries");
                // The victim had factored the panel when it died and factors
                // it again; a survivor may have been short of that boundary.
                // Nobody re-enters the panel's start: the rollback resumes
                // right after it.
                let (begun, factored) = (times(seen, panel, Phase::BeforePanel), times(seen, panel, Phase::AfterPanel));
                match (rank == victim, leg) {
                    (true, "distributed") => {
                        let first = seen.first().map(|&(p, ph, _)| (p, ph));
                        assert_eq!(first, Some((panel, Phase::AfterPanel)), "{at}: the replacement resumed elsewhere");
                    }
                    (true, _) => assert_eq!((begun, factored), (1, 2), "{at}: not re-executed from panel {panel}'s start"),
                    (false, _) => assert_eq!(begun, 1, "{at}: rolled back past panel {panel}'s start"),
                }
            };

            // In process: a chaos kill on the op clock.
            let script = |op: u64| FaultScript::parse(&format!("0:at={victim}@{op}"), p * q, 0..1).unwrap();
            let probe = run_spmd(p, q, script(u64::MAX), |ctx| solve_seen(&ctx, solver, false, Ctx::chaos_ops));
            let op = mid_panel(&probe[victim].3, panel);
            let runs = run_spmd(p, q, script(op), |ctx| solve_seen(&ctx, solver, false, Ctx::chaos_ops));
            for (rank, run) in runs.iter().enumerate() {
                check("in-process", rank, run);
            }

            // Distributed: the victim's process dies on a send and is replaced.
            let clock = |sends: &AtomicU64| sends.load(Ordering::Relaxed);
            let probe =
                run_dist_with_a_death(p, q, victim, None, |ctx, rep, sends| solve_seen(&ctx, solver, rep, |_| clock(sends)));
            let send = mid_panel(&probe[victim].3, panel);
            let runs = run_dist_with_a_death(p, q, victim, Some(send), |ctx, rep, sends| {
                solve_seen(&ctx, solver, rep, |_| clock(sends))
            });
            for (rank, run) in runs.iter().enumerate() {
                check("distributed", rank, run);
            }
        }
    }
}
