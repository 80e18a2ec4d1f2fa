//! Checksum encoding of the input matrix (paper §4, Figure 4).
//!
//! The logical `N×N` matrix is embedded in a larger distributed matrix:
//!
//! * **Right**: `G` groups of row-checksum block columns, two identical
//!   copies each, appended at global columns `N ..`. Group `g` covers the
//!   `Q` consecutive block columns `gQ .. gQ+Q−1` ("data blocks in the same
//!   local position of different processes of the same process row"), i.e.
//!   checksum column `(g, off)` = Σ_q `A(:, (gQ+q)·nb + off)`. The two
//!   copies land on adjacent block columns and therefore on *different*
//!   process columns (§5.2) — one always survives a single failure per
//!   process row.
//! * **Bottom**: the same number of block rows, used as storage for the
//!   *pseudo column checksums* `Ve` of the reflector block `V` — the
//!   grouping pretends the grid is `Q×Q` so that `Ve`'s block structure
//!   aligns with the right-hand checksum columns (§4).
//!
//! A ragged `N` (not a multiple of `nb`) is padded up to
//! `n_pad = ⌈N/nb⌉·nb`: the padding rows/columns in `[N, n_pad)` are
//! zero-filled, never touched by the reduction (its loops are bounded by
//! the logical `N`), and simply ride along inside the last checksum group —
//! a zero member contributes zero to every weighted sum, so Theorem 1 and
//! all recovery algebra hold unchanged. Checksum storage starts at `n_pad`.

use ft_dense::Matrix;
use ft_pblas::{numroc, Desc, DistMatrix};
use ft_runtime::{Ctx, Tag};

const TAG_ENCODE: Tag = Tag::Checksum(0);
/// Most `f64`s one reduction of the initial encode carries (256 KiB). Long
/// enough to take most round trips out of the encode of a small matrix,
/// where they are the cost (Hessenberg 1×2 N=384 nb=16 over TCP: 24
/// reductions become 6), and short enough that a large one keeps moving in
/// cache-sized pieces that alternate direction copy by copy, so both ends of
/// a process row stay busy: whole-copy batches (4 MiB a message) doubled the
/// encode of N=1024 nb=32 on the in-process fabric, where one block already
/// fills a batch and nothing changes.
const ENCODE_BATCH_WORDS: usize = 1 << 15;

/// Checksum redundancy level.
///
/// [`Redundancy::Single`] is the paper's scheme: two *identical* checksum
/// copies per group on distinct process columns, tolerating one failure per
/// process row.
///
/// [`Redundancy::Coded`]`(f)` implements the paper's stated future work
/// ("exploring methods to tolerate multiple simultaneous failures", §8):
/// `2f` *Vandermonde-weighted* checksum copies per group — checksum `c` of
/// group `g` stores `Σ_q node(q)^c·A(:, member_q)` with the nodes
/// `node(q) = 1 + q/Q` (see [`Redundancy::node`] for why the nodes live in
/// `[1, 2)`) — tolerating up to `f` simultaneous failures per (process row
/// × group), data or checksum. The count is `2f`, not `f+1`: a worst-case
/// failure of `f` ranks in one process row erases up to `f` member blocks
/// *and* up to `f` checksum copies of the same group, and the `f` surviving
/// copies (any `f` rows of a Vandermonde matrix with distinct nodes are
/// independent) still determine the `f` lost members; lost checksum blocks
/// are recomputed afterwards. Requires `Q ≥ 2f` so the copies land on
/// distinct process columns ([`Redundancy::min_q`]). The CLI word `dual`
/// is a spelling of `Coded(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Redundancy {
    /// Paper §5.2: duplicated checksums; ≤ 1 failure per process row.
    #[default]
    Single,
    /// Reed–Solomon/Vandermonde checksums with `2f` copies per group;
    /// ≤ `f` simultaneous failures per process row.
    Coded(usize),
}

impl Redundancy {
    /// Number of checksum block columns per group.
    pub fn ncopies(self) -> usize {
        match self {
            Redundancy::Single => 2,
            Redundancy::Coded(f) => 2 * f,
        }
    }

    /// Maximum simultaneous failures per process row this level tolerates.
    pub fn max_failures_per_row(self) -> usize {
        match self {
            Redundancy::Single => 1,
            Redundancy::Coded(f) => f,
        }
    }

    /// Vandermonde node of group-member index `idx` (0-based) in a group of
    /// `members` blocks: `1 + idx/members ∈ [1, 2)`.
    ///
    /// The nodes are distinct and strictly positive, so the weight matrix
    /// `w_c(idx) = node(idx)^c` is strictly totally positive and **every**
    /// square submatrix is invertible — any `m` surviving copies determine
    /// any `m` lost members. Keeping the nodes inside `[1, 2)` caps the
    /// largest weight at `2^(ncopies-1)` independently of the grid width;
    /// the naive integer nodes `idx+1` reach `Q^(2f-1)` (7776 already at
    /// `Q = 6`, `f = 3`), which amplifies the checksums' accumulated
    /// rounding and the recovery solve's conditioning enough to push a
    /// recovered run past the paper's `r_t` verification threshold.
    #[inline]
    pub fn node(self, idx: usize, members: usize) -> f64 {
        match self {
            Redundancy::Single => 1.0, // flat duplicates carry no position
            Redundancy::Coded(_) => 1.0 + idx as f64 / members as f64,
        }
    }

    /// Weight of group-member index `idx` (0-based within the group, out of
    /// `members`) in checksum copy `copy`: `node(idx, members)^copy`.
    #[inline]
    pub fn weight(self, copy: usize, idx: usize, members: usize) -> f64 {
        match self {
            Redundancy::Single => 1.0, // both copies are plain duplicates
            Redundancy::Coded(_) => self.node(idx, members).powi(copy as i32),
        }
    }

    /// Whether the per-copy weights carry position information (the
    /// Vandermonde ratio signal scrub localization reads). `Single`'s flat
    /// duplicates do not.
    #[inline]
    pub fn weights_localize(self) -> bool {
        !matches!(self, Redundancy::Single)
    }

    /// Minimum grid width `Q` this level needs so every checksum copy of a
    /// group lands on a distinct process column and enough survive any
    /// in-tolerance failure — the one statement of the rule; the encoder,
    /// the CLI and the serve admission check all read it from here.
    /// `Single` answers 1: its duplicates still serve the scrub engine on a
    /// 1×1 grid, and the FT driver itself refuses `Q = 1` on any larger one.
    pub fn min_q(self) -> usize {
        match self {
            Redundancy::Single => 1,
            Redundancy::Coded(f) => 2 * f,
        }
    }
}

/// The encoded (checksum-augmented) distributed matrix.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The extended distributed matrix: logical data in `[0,n)×[0,n)`,
    /// checksum columns at `[0,n)×[n,n+2·G·nb)`, pseudo-checksum rows at
    /// `[n,n+2·G·nb)×[0,n)`.
    pub a: DistMatrix,
    /// Logical dimension `N`.
    n: usize,
    /// `N` rounded up to a whole number of blocks — where checksum storage
    /// starts. Equal to `n` unless `N % nb != 0`.
    n_pad: usize,
    /// Blocking factor.
    nb: usize,
    /// Number of checksum groups `G = ⌈⌈N/nb⌉/Q⌉`.
    groups: usize,
    /// Process-grid columns `Q` (group width).
    q: usize,
    /// Checksum redundancy level.
    redundancy: Redundancy,
}

impl Encoded {
    /// Allocate the extended matrix and fill the logical part from `f`
    /// (global-index generator; no communication). `f` is called only for
    /// the logical `N×N` block; padding, checksum columns and pseudo-checksum
    /// rows stay zero as allocated. Checksums are **not**
    /// computed yet — call [`Encoded::compute_initial_checksums`]
    /// (Algorithm 2, line 1) or let the FT driver do it.
    pub fn from_global_fn(ctx: &Ctx, n: usize, nb: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        Self::with_redundancy(ctx, n, nb, Redundancy::Single, f)
    }

    /// Like [`Encoded::from_global_fn`] with an explicit redundancy level.
    pub fn with_redundancy(ctx: &Ctx, n: usize, nb: usize, redundancy: Redundancy, f: impl Fn(usize, usize) -> f64) -> Self {
        assert!(nb > 0 && n > 0, "encoding requires N > 0 and nb > 0");
        let q = ctx.npcol();
        assert!(redundancy != Redundancy::Coded(0), "Coded redundancy needs f >= 1");
        assert!(
            q >= redundancy.min_q(),
            "{redundancy:?} redundancy needs Q >= {} distinct process columns for its checksums (got Q = {q})",
            redundancy.min_q()
        );
        let (n_pad, groups, order) = Self::geometry(n, nb, q, redundancy);
        let desc = Desc { m: order, n: order, nb };
        let a = DistMatrix::from_leading_fn(ctx, desc, n, n, f);
        Self { a, n, n_pad, nb, groups, q, redundancy }
    }

    /// `(n_pad, groups, order of the extended matrix)` of an `N = n`, `nb`
    /// encoding over `q` process columns.
    fn geometry(n: usize, nb: usize, q: usize, redundancy: Redundancy) -> (usize, usize, usize) {
        let nblocks = n.div_ceil(nb);
        let groups = nblocks.div_ceil(q);
        (nblocks * nb, groups, nblocks * nb + redundancy.ncopies() * groups * nb)
    }

    /// Words in `rank`'s local buffer of an `N = n`, `nb` encoding on a
    /// `p×q` grid — what a stored checkpoint of that rank must hold, known
    /// without a fabric.
    pub fn local_len(n: usize, nb: usize, redundancy: Redundancy, p: usize, q: usize, rank: usize) -> usize {
        let (_, _, order) = Self::geometry(n, nb, q, redundancy);
        numroc(order, nb, rank / q, p) * numroc(order, nb, rank % q, q)
    }

    /// The redundancy level of this encoding.
    #[inline]
    pub fn redundancy(&self) -> Redundancy {
        self.redundancy
    }

    /// Number of checksum copies per group.
    #[inline]
    pub fn ncopies(&self) -> usize {
        self.redundancy.ncopies()
    }

    /// Member index (0-based within its group) of logical column `c` —
    /// the index whose weight enters the weighted checksums.
    #[inline]
    pub fn member_index(&self, c: usize) -> usize {
        (c / self.nb) % self.q
    }

    /// Member blocks per checksum group (= the grid width `Q` the encoding
    /// was built on).
    #[inline]
    pub fn members_per_group(&self) -> usize {
        self.q
    }

    /// Weight of logical column `c` in checksum copy `copy` of its group.
    #[inline]
    pub fn col_weight(&self, copy: usize, c: usize) -> f64 {
        self.redundancy.weight(copy, self.member_index(c), self.q)
    }

    /// Logical dimension `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `N` rounded up to a whole number of `nb` blocks — the start of the
    /// checksum extension. Equal to [`Encoded::n`] when `N % nb == 0`.
    #[inline]
    pub fn n_pad(&self) -> usize {
        self.n_pad
    }

    /// Blocking factor.
    #[inline]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Number of checksum groups.
    #[inline]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Logical columns of group `g` (clamped to `N`).
    pub fn group_cols(&self, g: usize) -> std::ops::Range<usize> {
        let start = g * self.q * self.nb;
        let end = ((g + 1) * self.q * self.nb).min(self.n);
        start..end
    }

    /// Global column index of checksum column `(g, copy, off)`,
    /// `copy ∈ 0..ncopies()`, `off ∈ 0..nb`.
    #[inline]
    pub fn chk_col(&self, g: usize, copy: usize, off: usize) -> usize {
        let nc = self.ncopies();
        debug_assert!(g < self.groups && copy < nc && off < self.nb);
        self.n_pad + (nc * g + copy) * self.nb + off
    }

    /// Global row index of pseudo-checksum row `(g, copy, off)` (bottom
    /// storage for `Ve`).
    #[inline]
    pub fn chk_row(&self, g: usize, copy: usize, off: usize) -> usize {
        // Same extension size on rows as on columns.
        self.chk_col(g, copy, off)
    }

    /// The logical columns summed into checksum column `(g, ·, off)`:
    /// `(gQ+q)·nb + off` for `q` in `0..Q` (clamped to `N`).
    pub fn member_cols(&self, g: usize, off: usize) -> impl Iterator<Item = usize> + '_ {
        let nb = self.nb;
        let n = self.n;
        let base = g * self.q;
        (0..self.q).map(move |qq| (base + qq) * nb + off).filter(move |&c| c < n)
    }

    /// My weighted partial of checksum copy `copy` over `groups`, one block
    /// after the other — the shared loop in `areas`, so encode, recovery and
    /// scrub accumulate in the identical order.
    fn copy_partials(&self, groups: &[usize], copy: usize, lrn: usize) -> Vec<f64> {
        let mut blocks = groups
            .iter()
            .map(|&g| crate::areas::weighted_partial_block(self, g, lrn, |_| true, |c| self.col_weight(copy, c)));
        // A lone group (every scope end) is its block as computed, no copy.
        let mut partials = blocks.next().unwrap_or_default();
        partials.reserve_exact((groups.len() - 1) * lrn * self.nb);
        blocks.for_each(|block| partials.extend(block));
        partials
    }

    /// Sum the partials of `jobs` — `(copy, groups)`, each copy at most once,
    /// the groups of a job all stored on one process column — across the
    /// process row and write every block of sums on its owner. The copies'
    /// reductions are in flight together ([`Ctx::post_reduce_sum_row`]): they
    /// have different roots, so each process first sends the partials it
    /// only contributes and then collects the ones it owns, instead of one
    /// dependent round trip per copy.
    fn reduce_copies(&mut self, ctx: &Ctx, jobs: Vec<(usize, Vec<usize>)>) {
        let lrn = self.a.local_rows_below(self.n);
        let posted: Vec<_> = jobs
            .into_iter()
            .map(|(copy, groups)| {
                let partials = self.copy_partials(&groups, copy, lrn);
                let owner_q = self.a.col_owner(self.chk_col(groups[0], copy, 0));
                let pending = ctx.post_reduce_sum_row(owner_q, &partials, TAG_ENCODE.offset(copy as u16));
                (copy, groups, partials, pending)
            })
            .collect();
        for (copy, groups, mut sums, pending) in posted {
            ctx.wait_reduce_sum_row(pending, &mut sums);
            for (&g, block) in groups.iter().zip(sums.chunks_exact((lrn * self.nb).max(1))) {
                self.write_chk_block(g, copy, block);
            }
        }
    }

    /// Compute (or recompute) the right row checksums of group `g` from the
    /// current contents of its member columns, writing **every** copy.
    /// Collective: one deterministic row-reduction per copy, exactly the
    /// cost the paper's §6 model charges (`T_Q · N/(nb·Q)` at encode time).
    pub fn compute_group_checksum(&mut self, ctx: &Ctx, g: usize) {
        self.reduce_copies(ctx, (0..self.ncopies()).map(|copy| (copy, vec![g])).collect());
    }

    /// Algorithm 2/3, line 1: encode every group. Groups are taken a batch
    /// at a time (as many as fit [`ENCODE_BATCH_WORDS`]); within a batch the
    /// checksum blocks of one copy that live on the same process column
    /// travel together: their partials are laid end to end and summed in
    /// **one** row reduction instead of one dependent round trip per group.
    /// A reduction adds element by element in a tree fixed by (row, root),
    /// so every block is bitwise what [`Encoded::compute_group_checksum`]
    /// computes — same bytes on the wire, fewer messages.
    pub fn compute_initial_checksums(&mut self, ctx: &Ctx) {
        let block = (self.a.local_rows_below(self.n) * self.nb).max(1);
        let (groups, per_batch) = (self.groups, (ENCODE_BATCH_WORDS / block).max(1));
        for batch in (0..groups).step_by(per_batch).map(|g0| g0..(g0 + per_batch).min(groups)) {
            // Copy `c`'s blocks of the batch, by owning column `(shift + c) % Q`:
            // over the shifts every (copy, column) pair comes up once, and the
            // copies of one shift are reduced together.
            for shift in 0..self.q {
                let on = |copy: usize, g: usize| self.a.col_owner(self.chk_col(g, copy, 0)) == (shift + copy) % self.q;
                let jobs: Vec<(usize, Vec<usize>)> = (0..self.ncopies())
                    .map(|copy| (copy, batch.clone().filter(|&g| on(copy, g)).collect::<Vec<_>>()))
                    .filter(|(_, groups)| !groups.is_empty())
                    .collect();
                self.reduce_copies(ctx, jobs);
            }
        }
    }

    /// Gather the full **logical** `N×N` matrix on every process (tests /
    /// result extraction only).
    pub fn gather_logical(&self, ctx: &Ctx, tag: impl Into<Tag>) -> Matrix {
        let full = self.a.gather_all(ctx, tag);
        full.submatrix(0, 0, self.n, self.n)
    }

    /// Gather the logical `N×N` matrix on rank 0 only (collective; `None`
    /// elsewhere) — linear total traffic, for result extraction at scale.
    pub fn gather_logical_root(&self, ctx: &Ctx, tag: impl Into<Tag>) -> Option<Matrix> {
        self.a.gather_root_leading(ctx, tag, self.n, self.n)
    }

    /// The `(base column, weight)` of every member *block* of group `g` in
    /// checksum copy `copy` — the explicit member list the shared
    /// [`ft_pblas::pd_chk_block_residual`] scan and the recovery solvers
    /// consume. Padding blocks (ragged `N`) are included: they exist in
    /// storage, hold zeros, and contribute zero to every weighted sum.
    pub fn weighted_members(&self, g: usize, copy: usize) -> Vec<(usize, f64)> {
        (0..self.q)
            .map(|qq| ((g * self.q + qq) * self.nb, self.redundancy.weight(copy, qq, self.q)))
            .filter(|&(base, _)| base < self.n_pad)
            .collect()
    }

    /// Maximum absolute checksum violation of group `g`, copy `copy`, over
    /// logical rows `0..N`, measured against the current member columns.
    /// Collective; result replicated (NaN-safe: Inf/NaN reads as
    /// `f64::INFINITY`). This is the direct test of Theorem 1.
    pub fn checksum_violation(&self, ctx: &Ctx, g: usize, copy: usize, tag: impl Into<Tag>) -> f64 {
        let members = self.weighted_members(g, copy);
        let (max, _) = ft_pblas::pd_chk_block_residual(ctx, &self.a, self.n, self.nb, &members, self.chk_col(g, copy, 0), tag);
        max
    }

    /// Read my local rows (`0..N`) of checksum block `(g, copy)` — `Some`
    /// only on the owning process column. Layout: `nb` stacked columns of
    /// `local_rows_below(N)` entries.
    pub fn read_chk_block(&self, g: usize, copy: usize) -> Option<Vec<f64>> {
        if !self.a.owns_col(self.chk_col(g, copy, 0)) {
            return None;
        }
        let lrn = self.a.local_rows_below(self.n);
        let ldl = self.a.local().ld().max(1);
        let mut buf = Vec::with_capacity(lrn * self.nb);
        for off in 0..self.nb {
            let lc = self.a.g2l_col(self.chk_col(g, copy, off));
            buf.extend_from_slice(&self.a.local().as_slice()[lc * ldl..lc * ldl + lrn]);
        }
        Some(buf)
    }

    /// Overwrite my local rows of checksum block `(g, copy)` with `buf` (the
    /// [`Encoded::read_chk_block`] layout). No-op off the owning column.
    pub fn write_chk_block(&mut self, g: usize, copy: usize, buf: &[f64]) {
        if !self.a.owns_col(self.chk_col(g, copy, 0)) {
            return;
        }
        let lrn = self.a.local_rows_below(self.n);
        let ldl = self.a.local().ld().max(1);
        for off in 0..self.nb {
            let lc = self.a.g2l_col(self.chk_col(g, copy, off));
            self.a.local_mut().as_mut_slice()[lc * ldl..lc * ldl + lrn].copy_from_slice(&buf[off * lrn..(off + 1) * lrn]);
        }
    }

    /// Move my process row's share of checksum block `(g, copy)` from its
    /// owning process column to column `dst_q`: the shared "checksum block
    /// travels to the solver" step of recovery, duplicate restore, and
    /// scrub correction. Pure row-local P2P — callable by any subset of
    /// process rows (each row acts independently; rows not calling it do
    /// nothing). Returns `Some(block)` on ranks in column `dst_q`.
    pub fn move_chk_block_to(&self, ctx: &Ctx, g: usize, copy: usize, dst_q: usize, tag: impl Into<Tag>) -> Option<Vec<f64>> {
        let tag = tag.into();
        let owner_q = self.a.col_owner(self.chk_col(g, copy, 0));
        if owner_q == dst_q {
            return self.read_chk_block(g, copy);
        }
        if let Some(buf) = self.read_chk_block(g, copy) {
            ctx.send(ctx.grid().rank_of(ctx.myrow(), dst_q), tag, &buf);
        }
        (ctx.mycol() == dst_q).then(|| ctx.recv(ctx.grid().rank_of(ctx.myrow(), owner_q), tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_dense::gen::uniform_entry;
    use ft_runtime::{run_spmd, FaultScript, TrafficPhase};

    #[test]
    fn group_geometry() {
        run_spmd(2, 3, FaultScript::none(), |ctx| {
            let enc = Encoded::from_global_fn(&ctx, 18, 3, |i, j| (i + j) as f64);
            // 6 block columns, Q=3 → 2 groups.
            assert_eq!(enc.groups(), 2);
            assert_eq!(enc.group_cols(0), 0..9);
            assert_eq!(enc.group_cols(1), 9..18);
            // Checksum columns start at N and copies are adjacent blocks.
            assert_eq!(enc.chk_col(0, 0, 0), 18);
            assert_eq!(enc.chk_col(0, 1, 0), 21);
            assert_eq!(enc.chk_col(1, 0, 2), 26);
            // Members of (g=0, off=1): columns 1, 4, 7.
            let m: Vec<usize> = enc.member_cols(0, 1).collect();
            assert_eq!(m, vec![1, 4, 7]);
            // Extended matrix is (18+12)².
            assert_eq!(enc.a.desc().m, 30);
            assert_eq!(enc.a.desc().n, 30);
        });
    }

    #[test]
    fn duplicated_copies_on_different_process_columns() {
        run_spmd(2, 3, FaultScript::none(), |ctx| {
            let enc = Encoded::from_global_fn(&ctx, 18, 3, |_, _| 0.0);
            for g in 0..enc.groups() {
                let q0 = enc.a.col_owner(enc.chk_col(g, 0, 0));
                let q1 = enc.a.col_owner(enc.chk_col(g, 1, 0));
                assert_ne!(q0, q1, "group {g} copies share a process column");
            }
        });
    }

    #[test]
    fn initial_checksums_sum_members() {
        let n = 12;
        let nb = 2;
        run_spmd(2, 3, FaultScript::none(), move |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(3, i, j));
            enc.compute_initial_checksums(&ctx);
            let full = enc.a.gather_all(&ctx, 950);
            for g in 0..enc.groups() {
                for copy in 0..2 {
                    for off in 0..nb {
                        let cc = enc.chk_col(g, copy, off);
                        for r in 0..n {
                            let want: f64 = enc.member_cols(g, off).map(|c| full[(r, c)]).sum();
                            let got = full[(r, cc)];
                            assert!((got - want).abs() < 1e-12, "g={g} copy={copy} off={off} r={r}");
                        }
                    }
                }
            }
            // Violation metric agrees.
            for g in 0..enc.groups() {
                assert!(enc.checksum_violation(&ctx, g, 0, 955) < 1e-12);
                assert!(enc.checksum_violation(&ctx, g, 1, 957) < 1e-12);
            }
        });
    }

    /// The batched encode, and the per-group recompute with its copies in
    /// flight together, against the loop both replaced — one blocking
    /// reduction per (group, copy) — on every shape that changes who owns
    /// which checksum block: each block bitwise equal, each rank's bytes per
    /// phase equal, and only the batched encode sends fewer messages.
    #[test]
    fn batched_and_posted_checksums_are_bitwise_the_blocking_loop() {
        let cases = [
            (1, 2, 24, 2, Redundancy::Single),
            (2, 2, 16, 2, Redundancy::Single),
            (2, 3, 36, 3, Redundancy::Single),
            (2, 3, 31, 3, Redundancy::Single), // ragged N
            (2, 4, 48, 2, Redundancy::Coded(2)),
            (1, 2, 512, 16, Redundancy::Single), // 16 groups in 4 batches
        ];
        for (p, q, n, nb, redundancy) in cases {
            let sent = run_spmd(p, q, FaultScript::none(), move |ctx| {
                let fresh = || Encoded::with_redundancy(&ctx, n, nb, redundancy, |i, j| uniform_entry(29, i, j));
                let (mut batched, mut posted, mut blocking) = (fresh(), fresh(), fresh());
                let mut marks = vec![(ctx.traffic(), ctx.msgs_sent())];
                batched.compute_initial_checksums(&ctx);
                marks.push((ctx.traffic(), ctx.msgs_sent()));
                for g in 0..posted.groups() {
                    posted.compute_group_checksum(&ctx, g);
                }
                marks.push((ctx.traffic(), ctx.msgs_sent()));
                let lrn = blocking.a.local_rows_below(n);
                for g in 0..blocking.groups() {
                    for copy in 0..blocking.ncopies() {
                        let mut partial =
                            crate::areas::weighted_partial_block(&blocking, g, lrn, |_| true, |c| blocking.col_weight(copy, c));
                        let owner_q = blocking.a.col_owner(blocking.chk_col(g, copy, 0));
                        ctx.reduce_sum_row(owner_q, &mut partial, TAG_ENCODE.offset(copy as u16));
                        blocking.write_chk_block(g, copy, &partial);
                    }
                }
                marks.push((ctx.traffic(), ctx.msgs_sent()));
                assert!(batched.groups() > 1, "one group batches nothing");
                for g in 0..batched.groups() {
                    for copy in 0..batched.ncopies() {
                        let bits = |e: &Encoded| {
                            e.read_chk_block(g, copy)
                                .map(|b| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                        };
                        assert_eq!(bits(&batched), bits(&blocking), "{p}x{q} n={n} {redundancy:?}: batched block ({g}, {copy})");
                        assert_eq!(bits(&posted), bits(&blocking), "{p}x{q} n={n} {redundancy:?}: posted block ({g}, {copy})");
                    }
                }
                let spent: Vec<_> = marks
                    .windows(2)
                    .map(|w| (TrafficPhase::ALL.map(|ph| w[1].0.phase(ph).bytes - w[0].0.phase(ph).bytes), w[1].1 - w[0].1))
                    .collect();
                assert_eq!((spent[0].0, spent[1].0), (spent[2].0, spent[2].0), "{p}x{q} n={n}: bytes per phase moved");
                [spent[0].1, spent[1].1, spent[2].1]
            });
            let total = |i: usize| sent.iter().map(|s| s[i]).sum::<u64>();
            assert!(
                total(0) < total(2),
                "{p}x{q} n={n} {redundancy:?}: batched encode sent {} messages, the loop {}",
                total(0),
                total(2)
            );
            assert_eq!(total(1), total(2), "{p}x{q} n={n} {redundancy:?}: posting changed the message count");
        }
    }

    /// The generator runs once per logical entry, `N²` times summed over
    /// the grid, and every entry outside the logical block — padding,
    /// checksum columns, pseudo-checksum rows — is `0.0` as allocated, on
    /// ragged `N` and on a `Coded(2)` extension.
    #[test]
    fn with_redundancy_generates_only_the_logical_block() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for (p, q, n, nb, redundancy) in [
            (1, 2, 7, 2, Redundancy::Single),
            (2, 3, 50, 4, Redundancy::Single),
            (3, 2, 17, 3, Redundancy::Single),
            (2, 4, 30, 3, Redundancy::Coded(2)),
        ] {
            let calls = run_spmd(p, q, FaultScript::none(), move |ctx| {
                let calls = AtomicUsize::new(0);
                let enc = Encoded::with_redundancy(&ctx, n, nb, redundancy, |i, j| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    uniform_entry(9, i, j)
                });
                let a = &enc.a;
                for lc in 0..a.lcols() {
                    for lr in 0..a.lrows() {
                        let (gr, gc) = (a.l2g_row(lr), a.l2g_col(lc));
                        let want = if gr < n && gc < n { uniform_entry(9, gr, gc) } else { 0.0 };
                        assert_eq!(a.local()[(lr, lc)].to_bits(), want.to_bits(), "{p}x{q} N={n}: ({gr}, {gc})");
                    }
                }
                calls.into_inner()
            });
            assert_eq!(calls.iter().sum::<usize>(), n * n, "{p}x{q} N={n} {redundancy:?}: generator calls");
        }
    }

    #[test]
    fn violation_detects_corruption() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, 8, 2, |i, j| (i * 8 + j) as f64);
            enc.compute_initial_checksums(&ctx);
            // Corrupt one logical entry on its owner.
            if enc.a.owns_row(3) && enc.a.owns_col(1) {
                let v = enc.a.get(3, 1);
                enc.a.set(3, 1, v + 5.0);
            }
            let viol = enc.checksum_violation(&ctx, 0, 0, 960);
            assert!((viol - 5.0).abs() < 1e-12, "violation {viol}");
        });
    }

    #[test]
    fn ragged_n_pads_to_whole_blocks() {
        run_spmd(1, 2, FaultScript::none(), |ctx| {
            // N=7, nb=2 → n_pad=8, 4 blocks, Q=2 → 2 groups.
            let mut enc = Encoded::from_global_fn(&ctx, 7, 2, |i, j| uniform_entry(11, i, j));
            assert_eq!(enc.n(), 7);
            assert_eq!(enc.n_pad(), 8);
            assert_eq!(enc.groups(), 2);
            // Checksum storage starts at n_pad, not n.
            assert_eq!(enc.chk_col(0, 0, 0), 8);
            let len = Encoded::local_len(7, 2, Redundancy::Single, 1, 2, ctx.rank());
            assert_eq!(len, enc.a.local().as_slice().len(), "local_len without a fabric");
            // The last member block of group 1 is the ragged block (base 6):
            // present in the member list, zero-padded in storage.
            assert_eq!(enc.weighted_members(1, 0), vec![(4, 1.0), (6, 1.0)]);
            // member_cols clamps to the logical N.
            let m: Vec<usize> = enc.member_cols(1, 1).collect();
            assert_eq!(m, vec![5]);
            enc.compute_initial_checksums(&ctx);
            for g in 0..enc.groups() {
                for copy in 0..2 {
                    let v = enc.checksum_violation(&ctx, g, copy, 965 + 4 * g as u32 + 2 * copy as u32);
                    assert!(v < 1e-12, "g={g} copy={copy}: {v}");
                }
            }
            // The logical gather is exactly N×N.
            let full = enc.gather_logical(&ctx, 970);
            assert_eq!((full.rows(), full.cols()), (7, 7));
            for i in 0..7 {
                for j in 0..7 {
                    assert_eq!(full[(i, j)], uniform_entry(11, i, j));
                }
            }
        });
    }

    #[test]
    fn chk_block_moves_row_locally() {
        run_spmd(2, 2, FaultScript::none(), |ctx| {
            let mut enc = Encoded::from_global_fn(&ctx, 8, 2, |i, j| uniform_entry(12, i, j));
            enc.compute_initial_checksums(&ctx);
            let owner = enc.a.col_owner(enc.chk_col(0, 0, 0));
            let dst = 1 - owner; // 2 process columns
            let got = enc.move_chk_block_to(&ctx, 0, 0, dst, 975);
            assert_eq!(got.is_some(), ctx.mycol() == dst);
            if let Some(buf) = got {
                // The moved block equals what the owner reads in place.
                let lrn = enc.a.local_rows_below(enc.n());
                assert_eq!(buf.len(), lrn * enc.nb());
                let full = enc.a.gather_all(&ctx, 980);
                for off in 0..enc.nb() {
                    for lr in 0..lrn {
                        let gr = enc.a.l2g_row(lr);
                        assert_eq!(buf[off * lrn + lr], full[(gr, enc.chk_col(0, 0, off))]);
                    }
                }
            } else {
                // Everyone still participates in the gather above.
                let _ = enc.a.gather_all(&ctx, 980);
            }
        });
    }

    #[test]
    fn gather_logical_root_ships_only_the_logical_block() {
        // 1×2 is the serve worker's shape; 2×3 with N = 50, nb = 4 is ragged.
        for (p, q, n, nb) in [(1, 2, 192, 8), (2, 2, 64, 8), (2, 3, 50, 4)] {
            let out = run_spmd(p, q, FaultScript::none(), |ctx| {
                let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(5, i, j));
                enc.compute_initial_checksums(&ctx);
                // The reference assembles the whole extended buffer, then cuts.
                let whole = enc.a.gather_all(&ctx, 990).submatrix(0, 0, n, n);
                let before = ctx.bytes_sent();
                let logical = enc.gather_logical_root(&ctx, 991);
                let share = enc.a.local_rows_below(n) * enc.a.local_cols_below(n);
                (whole, logical, ctx.bytes_sent() - before, share, enc.a.lrows() * enc.a.lcols())
            });
            for (rank, (whole, logical, sent, share, extended)) in out.into_iter().enumerate() {
                if rank == 0 {
                    let logical = logical.unwrap();
                    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&logical), bits(&whole), "{p}x{q} N={n}: result differs from the whole-buffer gather");
                    assert_eq!(sent, 0);
                } else {
                    assert!(logical.is_none());
                    assert_eq!(sent, 8 * share as u64, "{p}x{q} N={n} rank {rank}: wire carries more than the logical share");
                    if (p, q, n) == (1, 2, 192) {
                        // 192 rows × 96 columns of a 384 × 192 extended share.
                        assert_eq!((share, extended), (18_432, 73_728));
                    }
                }
            }
        }
    }
}
