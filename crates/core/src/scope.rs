//! Panel-scope diskless checkpointing (paper §5: Algorithm 2 lines 4, 8–9).
//!
//! A *panel scope* is the group of `Q` consecutive block columns currently
//! being factorized — exactly one checksum group, and exactly one block
//! column per process column. Two protections run inside a scope:
//!
//! * **Snapshot** (line 4): at scope entry every process copies its local
//!   part of the scope columns and also sends it to its `h` right neighbors
//!   in the process row (`(p, q+d mod Q)`, `d = 1..=h`). The local copy
//!   serves the Area-4 replay on survivors; the remote copies serve the
//!   victims.
//! * **Panel bookkeeping** (lines 8–9): after each panel factorization the
//!   owning process column sends its local panel columns to the next `h`
//!   process columns. The panel copy is the Area-3 recovery source. The
//!   paper's lines 8–9 ship `Y` and `T` with it, for the Area-4 replay;
//!   here they cost no bytes: the panel kernel leaves `Y` (by process row),
//!   `T`, `τ` and `V` replicated across the whole process row, so every
//!   holder — like every other process — already has them in its
//!   [`PanelFactors`].
//!
//! The holder count `h` equals the redundancy level's failure tolerance
//! ([`crate::encode::Redundancy::max_failures_per_row`]): with at most `h`
//! failures per process row, a victim always has at least one live holder
//! among its `h` right neighbors (the other victims occupy at most `h−1` of
//! them).

use crate::encode::Encoded;
use ft_dense::Matrix;
use ft_pblas::PanelFactors;
use ft_runtime::{Ctx, Tag};
use std::sync::Arc;

// SNAP/BOOK are offset by the ring distance `d` (bounded by the tolerated
// failure count), so they get disjoint channel ranges.
const TAG_SNAP: Tag = Tag::Checkpoint(0x100);
const TAG_BOOK: Tag = Tag::Checkpoint(0x200);
const TAG_RESTORE_FACTORS: Tag = Tag::Recovery(0x20);
const TAG_RESTORE_SNAP: Tag = Tag::Recovery(0x21);
const TAG_RESTORE_PANEL: Tag = Tag::Recovery(0x22);
const TAG_REBUILD_BACKUPS: Tag = Tag::Recovery(0x23);

/// Checksum-update progress within the scope (only meaningful for the
/// delayed Algorithm 3, where checksum-column updates lag the data updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChkProgress {
    /// Panels of this scope whose right+left updates have been applied to
    /// the checksum columns.
    pub panels_done: usize,
    /// The *next* panel's right update has additionally been applied
    /// (recovery can stop between the two halves).
    pub right_done_for_next: bool,
}

/// Everything a process keeps while a panel scope is in flight.
///
/// `Clone` exists for the boundary images: the driver keeps the scope state
/// of each committed fail-point boundary so an arbitrary-point failure can
/// roll back to it. What is immutable once built — the snapshots and each
/// panel's factors — is shared, so that clone copies pointers, not data.
#[derive(Clone)]
pub struct ScopeState {
    /// Scope id = checksum group index.
    pub scope: usize,
    /// First global column of the scope.
    pub start_col: usize,
    /// One-past-last global column of the scope (clamped to `N`).
    pub end_col: usize,
    /// Number of right-neighbor backup holders (`h`).
    pub holders: usize,
    /// My local column indices inside the scope.
    pub local_cols: Vec<usize>,
    /// Snapshot of my local scope columns at scope entry
    /// (`lrn × local_cols.len()`, column-major).
    pub snapshot_own: Arc<[f64]>,
    /// Left neighbors' snapshot pieces, index `d−1` ↔ the neighbor at
    /// distance `d` to my left (I am its backup holder).
    pub snapshot_backups: Vec<Arc<[f64]>>,
    /// Factors of the panels factorized so far in this scope (replicated
    /// `V`/`T`/`tau`, row-local `Y`).
    pub factors: Vec<Arc<PanelFactors>>,
    /// Panel-column copies received from left neighbors:
    /// `(distance, panel_index_in_scope, data)` — the received message
    /// itself, shared with the sender.
    pub panel_backups: Vec<(usize, usize, Arc<[f64]>)>,
    /// My own sent panel pieces (kept so the backup chain can be rebuilt
    /// for a replacement process): `(panel_index_in_scope, data)`.
    pub my_panel_pieces: Vec<(usize, Arc<[f64]>)>,
    /// Algorithm 3 checksum lag tracking.
    pub chk: ChkProgress,
}

fn copy_local_cols(enc: &Encoded, cols: &[usize]) -> Vec<f64> {
    let lrn = enc.a.local_rows_below(enc.n());
    let ldl = enc.a.local().ld().max(1);
    let mut out = Vec::with_capacity(lrn * cols.len());
    for &lc in cols {
        out.extend_from_slice(&enc.a.local().as_slice()[lc * ldl..lc * ldl + lrn]);
    }
    out
}

/// The bookkeeping message of one panel: the owner's local rows `< n` of
/// the panel's columns and nothing else (module docs).
pub(crate) fn panel_message(enc: &Encoded, f: &PanelFactors) -> Arc<[f64]> {
    let lcs: Vec<usize> = (enc.a.local_cols_below(f.k)..enc.a.local_cols_below(f.k + f.w)).collect();
    copy_local_cols(enc, &lcs).into()
}

fn write_local_cols(enc: &mut Encoded, cols: &[usize], data: &[f64]) {
    let lrn = enc.a.local_rows_below(enc.n());
    let ldl = enc.a.local().ld().max(1);
    assert_eq!(data.len(), lrn * cols.len());
    for (i, &lc) in cols.iter().enumerate() {
        enc.a.local_mut().as_mut_slice()[lc * ldl..lc * ldl + lrn].copy_from_slice(&data[i * lrn..(i + 1) * lrn]);
    }
}

impl ScopeState {
    /// Scope `scope`'s layout — its columns, my local ones among them, the
    /// holder count — with nothing snapshotted or held yet: what [`begin`]
    /// builds before its exchange, and all that a victim rejoining with
    /// nothing can rebuild on its own. Purely local.
    ///
    /// [`begin`]: ScopeState::begin
    pub(crate) fn layout(ctx: &Ctx, enc: &Encoded, scope: usize) -> Self {
        let holders = enc.redundancy().max_failures_per_row().min(ctx.npcol().saturating_sub(1));
        let cols = enc.group_cols(scope);
        Self {
            scope,
            start_col: cols.start,
            end_col: cols.end,
            holders,
            local_cols: (enc.a.local_cols_below(cols.start)..enc.a.local_cols_below(cols.end)).collect(),
            snapshot_own: Arc::from([]),
            snapshot_backups: vec![Arc::from([]); holders],
            factors: Vec::new(),
            panel_backups: Vec::new(),
            my_panel_pieces: Vec::new(),
            chk: ChkProgress::default(),
        }
    }

    /// A sentinel "no scope active" state, used by the chaos-mode driver for
    /// the boundary image taken before the first panel scope begins. Its
    /// scope id is `enc.groups()` — past every real group — so recovery's
    /// `g == s` scope exclusion never matches and Areas 1/2 reconstruction
    /// covers the whole matrix from the initial checksums. It holds no
    /// column; the backup vectors exist but are empty.
    pub fn empty(ctx: &Ctx, enc: &Encoded) -> Self {
        Self::layout(ctx, enc, enc.groups())
    }

    /// Scope entry: take the diskless snapshot (local copy + copies on the
    /// `h` right neighbors). Collective.
    pub fn begin(ctx: &Ctx, enc: &Encoded, scope: usize) -> Self {
        let mut st = Self::layout(ctx, enc, scope);
        st.snapshot_own = copy_local_cols(enc, &st.local_cols).into();
        // Ring exchanges within the process row: send to +d, receive from −d.
        let q = ctx.npcol();
        for d in 1..=st.holders {
            let right = ctx.grid().rank_of(ctx.myrow(), (ctx.mycol() + d) % q);
            let left = ctx.grid().rank_of(ctx.myrow(), (ctx.mycol() + q - d) % q);
            ctx.send_arc(right, TAG_SNAP.offset(d as u16), Arc::clone(&st.snapshot_own));
            st.snapshot_backups[d - 1] = ctx.recv_arc(left, TAG_SNAP.offset(d as u16));
        }
        st
    }

    /// Panel bookkeeping (Algorithm 2 lines 8–9): the panel-owning process
    /// column sends its finished panel columns to the next `h` process
    /// columns; receivers keep the message. Everyone records the factors.
    /// Call right after `pdlahrd`.
    pub fn bookkeep_panel(&mut self, ctx: &Ctx, enc: &Encoded, f: PanelFactors) {
        let q = ctx.npcol();
        let q_pan = enc.a.col_owner(f.k);
        let scope_panel_idx = (f.k / enc.nb()) % q;

        if ctx.mycol() == q_pan && self.holders > 0 {
            // One message per holder keeps the communication accounting
            // faithful; the payload is built once and shared.
            let msg = panel_message(enc, &f);
            for d in 1..=self.holders {
                let dst = ctx.grid().rank_of(ctx.myrow(), (q_pan + d) % q);
                ctx.send_arc(dst, TAG_BOOK.offset(d as u16), Arc::clone(&msg));
            }
            self.my_panel_pieces.push((scope_panel_idx, msg));
        } else {
            for d in 1..=self.holders {
                if ctx.mycol() == (q_pan + d) % q {
                    let src = ctx.grid().rank_of(ctx.myrow(), q_pan);
                    let msg = ctx.recv_arc(src, TAG_BOOK.offset(d as u16));
                    self.panel_backups.push((d, scope_panel_idx, msg));
                }
            }
        }
        self.factors.push(Arc::new(f));
    }

    /// Restore the scope columns in `[from_col, end_col)` from the local
    /// snapshot (the Area-4 rollback on every process). The victim must
    /// have had its `snapshot_own` restored first.
    pub fn restore_snapshot_from(&self, enc: &mut Encoded, from_col: usize) {
        let lrn = enc.a.local_rows_below(enc.n());
        for (i, &lc) in self.local_cols.iter().enumerate() {
            let gc = enc.a.l2g_col(lc);
            if gc >= from_col && gc < self.end_col {
                let piece = &self.snapshot_own[i * lrn..(i + 1) * lrn];
                let ldl = enc.a.local().ld().max(1);
                enc.a.local_mut().as_mut_slice()[lc * ldl..lc * ldl + lrn].copy_from_slice(piece);
            }
        }
    }

    /// First live (non-victim) right neighbor of `(pv, qv)` within holder
    /// distance, as `(rank, distance)`.
    fn live_holder(&self, ctx: &Ctx, victims: &[usize], pv: usize, qv: usize) -> (usize, usize) {
        let q = ctx.npcol();
        for d in 1..=self.holders {
            let cand = ctx.grid().rank_of(pv, (qv + d) % q);
            if !victims.contains(&cand) {
                return (cand, d);
            }
        }
        panic!("no live backup holder for victim ({pv},{qv}) — fault model violated");
    }

    /// Victim-side + helper-side repair of the scope state after a failure
    /// (paper §5.3 steps 1/4/5 support). Two passes over the victim list:
    ///
    /// 1. restore every victim (factors + checksum-progress marker, its own
    ///    snapshot piece, and the Area-3 panel columns it owned), each from
    ///    a live holder;
    /// 2. rebuild every victim's *holder* role from its (now fully
    ///    restored) left neighbors, re-arming protection for the next
    ///    failure.
    ///
    /// Collective: all processes call with the same victim list.
    pub fn repair_after_failure(&mut self, ctx: &Ctx, enc: &mut Encoded, victims: &[usize]) {
        let q = ctx.npcol();
        if victims.is_empty() {
            return;
        }
        assert!(self.holders > 0, "cannot recover without backup holders (Q too small)");

        // ---- pass 1: restore each victim ---------------------------------
        for &v in victims {
            let (pv, qv) = ctx.grid().coords_of(v);
            let (helper, dist) = self.live_holder(ctx, victims, pv, qv);

            // (1a) factors + checksum-progress marker + snapshot piece.
            if ctx.rank() == helper {
                let mut buf = serialize_factors(&self.factors);
                buf.push(self.chk.panels_done as f64);
                buf.push(if self.chk.right_done_for_next { 1.0 } else { 0.0 });
                ctx.send(v, TAG_RESTORE_FACTORS, &buf);
                ctx.send_arc(v, TAG_RESTORE_SNAP, Arc::clone(&self.snapshot_backups[dist - 1]));
            }
            if ctx.rank() == v {
                let buf = ctx.recv(helper, TAG_RESTORE_FACTORS);
                let m = buf.len();
                self.chk = ChkProgress {
                    panels_done: buf[m - 2] as usize,
                    right_done_for_next: buf[m - 1] == 1.0,
                };
                self.factors = deserialize_factors(&buf[..m - 2]).into_iter().map(Arc::new).collect();
                self.snapshot_own = ctx.recv_arc(helper, TAG_RESTORE_SNAP);
            }

            // (1b) Area-3 panel pieces: backups (at the matching distance)
            //      of panels the victim owned.
            if ctx.rank() == helper {
                let mine: Vec<&(usize, usize, Arc<[f64]>)> = self.panel_backups.iter().filter(|(d, _, _)| *d == dist).collect();
                let mut header = vec![mine.len() as f64];
                for (_, idx, piece) in &mine {
                    header.push(*idx as f64);
                    header.push(piece.len() as f64);
                }
                ctx.send(v, TAG_RESTORE_PANEL, &header);
                for (_, _, piece) in &mine {
                    ctx.send_arc(v, TAG_RESTORE_PANEL, Arc::clone(piece));
                }
            }
            if ctx.rank() == v {
                let header = ctx.recv(helper, TAG_RESTORE_PANEL);
                let cnt = header[0] as usize;
                self.my_panel_pieces.clear();
                let lrn = enc.a.local_rows_below(enc.n());
                for e in 0..cnt {
                    let idx = header[1 + 2 * e] as usize;
                    let piece = ctx.recv_arc(helper, TAG_RESTORE_PANEL);
                    // The panel may be narrower than nb (ragged last panel);
                    // derive its width from the piece itself.
                    let k = self.start_col + idx * enc.nb();
                    let lc0 = enc.a.local_cols_below(k);
                    let cols_cnt = piece.len().checked_div(lrn).unwrap_or(0);
                    let cols: Vec<usize> = (lc0..lc0 + cols_cnt).collect();
                    write_local_cols(enc, &cols, &piece);
                    self.my_panel_pieces.push((idx, piece));
                }
            }
        }

        // ---- pass 2: rebuild each victim's holder role --------------------
        // All victims are restored now, so even a victim left-neighbor can
        // serve as a source.
        for &v in victims {
            let (pv, qv) = ctx.grid().coords_of(v);
            if ctx.rank() == v {
                self.snapshot_backups = Vec::with_capacity(self.holders);
                self.panel_backups.clear();
            }
            for d in 1..=self.holders {
                let left = ctx.grid().rank_of(pv, (qv + q - d) % q);
                if ctx.rank() == left {
                    ctx.send_arc(v, TAG_REBUILD_BACKUPS, Arc::clone(&self.snapshot_own));
                    let mut header = vec![self.my_panel_pieces.len() as f64];
                    for (idx, piece) in &self.my_panel_pieces {
                        header.push(*idx as f64);
                        header.push(piece.len() as f64);
                    }
                    ctx.send(v, TAG_REBUILD_BACKUPS, &header);
                    for (_, piece) in &self.my_panel_pieces {
                        ctx.send_arc(v, TAG_REBUILD_BACKUPS, Arc::clone(piece));
                    }
                }
                if ctx.rank() == v {
                    self.snapshot_backups.push(ctx.recv_arc(left, TAG_REBUILD_BACKUPS));
                    let header = ctx.recv(left, TAG_REBUILD_BACKUPS);
                    let cnt = header[0] as usize;
                    for e in 0..cnt {
                        let idx = header[1 + 2 * e] as usize;
                        let piece = ctx.recv_arc(left, TAG_REBUILD_BACKUPS);
                        self.panel_backups.push((d, idx, piece));
                    }
                }
            }
        }
    }
}

/// Flatten a factor list into one `f64` buffer (victim restoration). Each
/// factor carries a 5-word header `[k, w, n, y_rows, v_row_offset]` so the
/// receiver can rebuild the solver-specific reflector geometry.
pub fn serialize_factors(fs: &[Arc<PanelFactors>]) -> Vec<f64> {
    let mut out = vec![fs.len() as f64];
    for f in fs {
        out.push(f.k as f64);
        out.push(f.w as f64);
        out.push(f.n as f64);
        out.push(f.y_loc.rows() as f64);
        out.push(f.v_row_offset as f64);
        out.extend_from_slice(&f.tau);
        out.extend_from_slice(f.t.as_slice());
        out.extend_from_slice(f.vfull.as_slice());
        out.extend_from_slice(f.y_loc.as_slice());
    }
    out
}

/// Inverse of [`serialize_factors`].
pub fn deserialize_factors(buf: &[f64]) -> Vec<PanelFactors> {
    let mut fs = Vec::new();
    let mut p = 0;
    let cnt = buf[p] as usize;
    p += 1;
    for _ in 0..cnt {
        let k = buf[p] as usize;
        let w = buf[p + 1] as usize;
        let n = buf[p + 2] as usize;
        let yrows = buf[p + 3] as usize;
        let v_row_offset = buf[p + 4] as usize;
        p += 5;
        let tau = buf[p..p + w].to_vec();
        p += w;
        let t = Matrix::from_vec(w, w, buf[p..p + w * w].to_vec());
        p += w * w;
        let vm = n - k - v_row_offset;
        let vfull = Matrix::from_vec(vm, w, buf[p..p + vm * w].to_vec());
        p += vm * w;
        let y_loc = Matrix::from_vec(yrows, w, buf[p..p + yrows * w].to_vec());
        p += yrows * w;
        fs.push(PanelFactors { k, w, n, v_row_offset, tau, t, vfull, y_loc });
    }
    assert_eq!(p, buf.len(), "factor deserialization length mismatch");
    fs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_dense::gen::uniform_entry;
    use ft_runtime::{run_spmd, FaultScript};

    #[test]
    fn factor_serialization_roundtrip() {
        let f = PanelFactors {
            k: 4,
            w: 2,
            n: 9,
            v_row_offset: 1,
            tau: vec![0.5, 0.25],
            t: Matrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64),
            vfull: Matrix::from_fn(4, 2, |i, j| (10 * i + j) as f64),
            y_loc: Matrix::from_fn(5, 2, |i, j| (100 * i + j) as f64),
        };
        // A QR-shaped factor: reflectors start on the diagonal (offset 0,
        // one more vfull row) and there is no right update (empty Y).
        let g = PanelFactors {
            k: 4,
            w: 2,
            n: 9,
            v_row_offset: 0,
            tau: vec![0.75, 0.125],
            t: Matrix::from_fn(2, 2, |i, j| (7 * i + j) as f64),
            vfull: Matrix::from_fn(5, 2, |i, j| (20 * i + j) as f64),
            y_loc: Matrix::zeros(0, 2),
        };
        let buf = serialize_factors(&[f.clone(), g.clone(), f.clone()].map(Arc::new));
        let back = deserialize_factors(&buf);
        assert_eq!(back.len(), 3);
        assert_eq!(back[2].k, 4);
        assert_eq!(back[2].tau, f.tau);
        assert_eq!(back[0].t, f.t);
        assert_eq!(back[0].vfull, f.vfull);
        assert_eq!(back[0].y_loc, f.y_loc);
        assert_eq!(back[0].v_row_offset, 1);
        assert_eq!(back[1].v_row_offset, 0);
        assert_eq!(back[1].vfull, g.vfull);
        assert_eq!(back[1].y_loc.rows(), 0);
        assert_eq!(back[1].v_row0(), 4);
        assert_eq!(back[0].v_row0(), 5);
    }

    #[test]
    fn snapshot_restores_scope_columns() {
        let n = 12;
        let nb = 2;
        run_spmd(2, 3, FaultScript::none(), move |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(8, i, j));
            let before = enc.gather_logical(&ctx, 970);
            let st = ScopeState::begin(&ctx, &enc, 0);
            assert_eq!(st.start_col, 0);
            assert_eq!(st.end_col, 6);
            assert_eq!(st.holders, 1);
            // Trash the scope columns, then restore.
            for lc in 0..enc.a.lcols() {
                let gc = enc.a.l2g_col(lc);
                if gc < 6 {
                    let lrn = enc.a.local_rows_below(n);
                    let ldl = enc.a.local().ld().max(1);
                    enc.a.local_mut().as_mut_slice()[lc * ldl..lc * ldl + lrn].fill(-7.0);
                }
            }
            st.restore_snapshot_from(&mut enc, 0);
            let after = enc.gather_logical(&ctx, 972);
            assert_eq!(before, after);
        });
    }

    #[test]
    fn dual_redundancy_has_two_holders() {
        use crate::encode::Redundancy;
        run_spmd(1, 4, FaultScript::none(), |ctx| {
            let enc = Encoded::with_redundancy(&ctx, 8, 2, Redundancy::Coded(2), |i, j| (i + j) as f64);
            let st = ScopeState::begin(&ctx, &enc, 0);
            assert_eq!(st.holders, 2);
            assert_eq!(st.snapshot_backups.len(), 2);
        });
    }

    #[test]
    fn partial_restore_respects_from_col() {
        let n = 12;
        let nb = 2;
        run_spmd(1, 3, FaultScript::none(), move |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| (i + 2 * j) as f64);
            let st = ScopeState::begin(&ctx, &enc, 0);
            // Overwrite all scope columns, restore only from column 2.
            for lc in 0..enc.a.lcols() {
                let gc = enc.a.l2g_col(lc);
                if gc < 6 {
                    let lrn = enc.a.local_rows_below(n);
                    let ldl = enc.a.local().ld().max(1);
                    enc.a.local_mut().as_mut_slice()[lc * ldl..lc * ldl + lrn].fill(99.0);
                }
            }
            st.restore_snapshot_from(&mut enc, 2);
            let g = enc.gather_logical(&ctx, 974);
            for r in 0..n {
                assert_eq!(g[(r, 0)], 99.0);
                assert_eq!(g[(r, 1)], 99.0);
                for c in 2..6 {
                    assert_eq!(g[(r, c)], (r + 2 * c) as f64);
                }
            }
        });
    }
}
