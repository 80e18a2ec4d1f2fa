//! Tree collectives over the grid: binomial-tree broadcast, fixed-shape tree
//! sum-reduction and a recursive-doubling all-reduce on the same tree, plus
//! the row/column/world wrappers the PBLAS layer uses.
//!
//! ## Topology
//!
//! Broadcast and rooted reduction use the classic binomial tree over the
//! member list, rooted at the caller-named root: member at *relative index*
//! `r` (position in the member list, rotated so the root is 0) is the child
//! of `r` with its lowest set bit cleared. Depth and per-node fan-out are
//! both `⌈log₂ n⌉`, so a P-wide broadcast costs the root `⌈log₂ P⌉` sends
//! instead of the `P−1` of a linear loop — the O(log P) BLACS cost model
//! the paper's overhead analysis assumes.
//!
//! ## All-reduce
//!
//! The tree rooted at `members[0]` sums, at level `mask = 1, 2, 4, …`, each
//! aligned block of `2·mask` members as `S(lower half) + S(upper half)` (a
//! block cut short by `n` keeps the halves it has). The all-reduce computes
//! exactly those block sums, but on *every* member of the block instead of
//! on its first one: in round `mask` member `r` exchanges block sums with
//! `r ^ mask` and both add `lower + upper`. After the last round every
//! member holds the root's value, bit for bit, having blocked in
//! `⌈log₂ n⌉` receives — half the `2⌈log₂ n⌉` dependent hops of reducing to
//! `members[0]` and broadcasting back.
//!
//! A *rooted* all-reduce ([`Ctx::allreduce_sum_row_from`]) is the same
//! rounds over the member list rotated to start at the root — the rotation
//! a rooted reduce applies to its relative indices — so every member ends
//! with the bits a reduce to that root would leave there. The Hessenberg
//! panel's row sums are rooted at the panel's process column this way:
//! they were a reduce to it followed by a broadcast from it.
//!
//! When `n` is not a power of two, some block's upper half holds only
//! `h < mask` members. Its lower half is full, so `mask − h` lower members
//! have no partner: upper member `hi0 + j` also hands its sum to the lower
//! members `base + j + h`, `base + j + 2h`, … (an unpaired lower member `r`
//! receives from `hi0 + (r − base) % h`). A block with no upper half at all
//! sits the round out. Nobody ever receives twice in a round.
//!
//! Messages per call: each round delivers one message to every member whose
//! block has both halves, so with `t = n mod 2·mask`
//!
//! ```text
//! msgs(n) = Σ_{mask = 1, 2, 4, … < n} (n − [0 < t ≤ mask]·t)
//! ```
//!
//! which is `n·log₂ n` for a power of two. Against reduce-then-broadcast's
//! `2(n−1)`: equal at n = 2 (2), then 5 vs 4 at n = 3, 8 vs 6 at 4, 16 vs
//! 10 at 6, 24 vs 14 at 8, 64 vs 30 at 16. Every message carries the whole
//! vector, so bytes scale the same way. The panels trade those extra
//! messages, all sent in parallel, for half the latency on the one path
//! every process column waits on.
//!
//! ## Determinism
//!
//! The tree shape depends only on `(members.len(), root position)` — never
//! on arrival order or timing — and each node adds its children's partial
//! sums in a fixed order (increasing subtree bit). Reductions are therefore
//! bit-reproducible run to run, which is what makes recovery replay and the
//! checksum-duplicate invariant (`copy₀ ≡ copy₁` bitwise) hold upstairs.
//! The *association* of the sum is the tree's, not left-to-right linear;
//! any fixed association is equally valid, it just has to be the same one
//! every time — and the all-reduce's is the tree's on every member.
//!
//! ## Zero-copy
//!
//! Broadcast payloads travel as `Arc<[f64]>`: the root allocates the shared
//! payload once and interior nodes forward `Arc` clones to their subtrees,
//! so the payload is allocated exactly once no matter how many members the
//! broadcast has.

use crate::comm::Ctx;
use crate::tag::{Leg, Tag};
use std::sync::Arc;

/// Position of `rank` in `members`, or `None` if it is not a member.
#[inline]
fn member_index(members: &[usize], rank: usize) -> Option<usize> {
    members.iter().position(|&r| r == rank)
}

/// A row sum-reduction that has been *posted* but not yet completed — the
/// split-phase half of [`Ctx::post_reduce_sum_row`].
///
/// Posting sends the partial of every member that has no subtree to wait for
/// (the leaves of the reduction tree) right away; everything else — absorbing
/// children, forwarding, the root's sum — happens in
/// [`Ctx::wait_reduce_sum_row`]. Several reductions with different roots can
/// therefore be in flight at once: each member first hands over what it only
/// has to send, then collects what it has to receive, instead of finishing one
/// dependent round trip before starting the next. Same tree, same order of
/// additions, same bits as [`Ctx::reduce_sum_row`].
///
/// Reductions in flight together need distinct tags, and every member must
/// post them, and then complete them, in one common order.
#[must_use = "a posted reduction must be completed with wait_reduce_sum_row"]
pub struct PendingReduce {
    root_q: usize,
    tag: Tag,
    /// This member was a leaf: its partial is already on its way.
    sent: bool,
}

impl Ctx {
    /// Binomial-tree broadcast of `data` from `root` over `members`.
    /// Non-members return immediately; members' `data` is overwritten with
    /// the root's payload.
    pub(crate) fn bcast_group(&self, members: &[usize], root: usize, data: &mut Vec<f64>, tag: Tag) {
        let n = members.len();
        let Some(me) = member_index(members, self.rank()) else {
            return;
        };
        if n <= 1 {
            return;
        }
        let root_idx = member_index(members, root).expect("bcast: root not in group");
        let rel = (me + n - root_idx) % n;
        let wire = tag.wire(Leg::Bcast);

        // Receive from the parent (lowest set bit of `rel` cleared), or wrap
        // the local payload once if we are the root.
        let mut mask = 1usize;
        let payload: Arc<[f64]> = if rel == 0 {
            while mask < n {
                mask <<= 1;
            }
            Arc::from(&data[..])
        } else {
            while rel & mask == 0 {
                mask <<= 1;
            }
            let parent = members[((rel ^ mask) + root_idx) % n];
            self.recv_wire(parent, wire)
        };

        // Forward to our subtree, largest half first: child `rel | m` owns
        // the members `rel+m .. rel+2m`.
        let mut m = mask >> 1;
        while m > 0 {
            let child_rel = rel | m;
            if child_rel != rel && child_rel < n {
                let child = members[(child_rel + root_idx) % n];
                self.send_wire(child, wire, tag.phase(), Arc::clone(&payload));
            }
            m >>= 1;
        }

        if rel != 0 {
            if data.len() == payload.len() {
                data.copy_from_slice(&payload);
            } else {
                *data = payload.to_vec();
            }
        }
    }

    /// Fixed-shape binomial-tree element-wise sum-reduce over `members` to
    /// `root`. Deterministic: the combine order depends only on the group
    /// shape, so results are bit-reproducible (see the module docs). Only
    /// the root's `data` holds the result afterwards; other members' `data`
    /// is clobbered with their subtree's partial sums.
    pub(crate) fn reduce_sum_group(&self, members: &[usize], root: usize, data: &mut [f64], tag: Tag) {
        let n = members.len();
        let Some(me) = member_index(members, self.rank()) else {
            return;
        };
        if n <= 1 {
            return;
        }
        let root_idx = member_index(members, root).expect("reduce: root not in group");
        let rel = (me + n - root_idx) % n;
        let wire = tag.wire(Leg::Reduce);

        let mut mask = 1usize;
        while mask < n {
            if rel & mask == 0 {
                // Absorb the child subtree rooted at `rel | mask`, if any.
                let child_rel = rel | mask;
                if child_rel < n {
                    let child = members[(child_rel + root_idx) % n];
                    let part = self.recv_wire(child, wire);
                    assert_eq!(part.len(), data.len(), "reduce: length mismatch from rank {child}");
                    for (d, s) in data.iter_mut().zip(part.iter()) {
                        *d += s;
                    }
                }
            } else {
                // Hand our partial to the parent and drop out.
                let parent = members[((rel ^ mask) + root_idx) % n];
                self.send_wire(parent, wire, tag.phase(), Arc::from(&data[..]));
                break;
            }
            mask <<= 1;
        }
    }

    /// Post a sum-reduce of `data` within the grid row to column `root_q`: a
    /// member with no children in the tree sends its partial now (sends never
    /// block); the others do nothing yet. Complete with
    /// [`Ctx::wait_reduce_sum_row`], passing the same `data`.
    pub fn post_reduce_sum_row(&self, root_q: usize, data: &[f64], tag: impl Into<Tag>) -> PendingReduce {
        let tag = tag.into();
        let members = self.row_ranks();
        let n = members.len();
        let rel = (self.mycol() + n - root_q) % n;
        // Leaf: no `rel | mask` below our lowest set bit names a member.
        let lowest = rel & rel.wrapping_neg();
        let leaf = rel != 0 && (0..lowest.trailing_zeros()).all(|b| rel | (1 << b) >= n);
        if leaf {
            let parent = members[((rel ^ lowest) + root_q) % n];
            self.send_wire(parent, tag.wire(Leg::Reduce), tag.phase(), Arc::from(data));
        }
        PendingReduce { root_q, tag, sent: leaf }
    }

    /// Complete a reduction posted with [`Ctx::post_reduce_sum_row`]. Only the
    /// root's `data` holds the sums afterwards.
    pub fn wait_reduce_sum_row(&self, pending: PendingReduce, data: &mut [f64]) {
        if !pending.sent {
            self.reduce_sum_row(pending.root_q, data, pending.tag);
        }
    }

    /// All-reduce (sum) over `members` by recursive doubling on the binomial
    /// tree's pairing (module docs): after round `mask` every member holds
    /// the tree's sum of its aligned block of `2·mask` members, so after
    /// `⌈log₂ n⌉` rounds — one blocking receive each — all hold the bits
    /// [`Ctx::reduce_sum_group`] would leave on `members[0]`. Every message
    /// rides the tag's reduce leg; a member receives from any one peer at
    /// most once per call, so back-to-back all-reduces on one tag cannot
    /// cross-talk.
    ///
    /// `root_idx` rotates the member list so that `members[root_idx]` sits
    /// at relative index 0: the bits are then those of a reduction rooted
    /// there.
    fn allreduce_sum_group(&self, members: &[usize], root_idx: usize, data: &mut [f64], tag: Tag) {
        let n = members.len();
        let Some(me) = member_index(members, self.rank()) else {
            return;
        };
        let rel = (me + n - root_idx) % n;
        let member = |r: usize| members[(r + root_idx) % n];
        let wire = tag.wire(Leg::Reduce);
        let mut mask = 1usize;
        while mask < n {
            // My block of 2·mask members is [base, base + 2·mask) cut off at
            // n; its upper half starts at `hi0` and may be short or absent.
            let base = rel & !(2 * mask - 1);
            let hi0 = base + mask;
            if hi0 < n {
                let hi_count = (n - hi0).min(mask);
                let in_upper = rel >= hi0;
                let other = if in_upper {
                    // Upper half: my sum goes to my partner and to every
                    // lower member whose own partner does not exist.
                    let mine: Arc<[f64]> = Arc::from(&data[..]);
                    for dst in (rel - mask..hi0).step_by(hi_count) {
                        self.send_wire(member(dst), wire, tag.phase(), Arc::clone(&mine));
                    }
                    member(rel - mask)
                } else {
                    let src = hi0 + (rel - base) % hi_count;
                    if src == rel + mask {
                        self.send_wire(member(src), wire, tag.phase(), Arc::from(&data[..]));
                    }
                    member(src)
                };
                let part = self.recv_wire(other, wire);
                assert_eq!(part.len(), data.len(), "allreduce: length mismatch from rank {other}");
                // Both halves add lower + upper, the tree's `parent += child`.
                if in_upper {
                    for (d, lower) in data.iter_mut().zip(part.iter()) {
                        let upper = *d;
                        *d = lower + upper;
                    }
                } else {
                    for (d, upper) in data.iter_mut().zip(part.iter()) {
                        *d += upper;
                    }
                }
            }
            mask <<= 1;
        }
    }

    // --- broadcasts ----------------------------------------------------------

    /// Broadcast within this process's grid row from the process at column
    /// `root_q`. Root passes the payload; the others' `data` is overwritten.
    pub fn bcast_row(&self, root_q: usize, data: &mut Vec<f64>, tag: impl Into<Tag>) {
        let root = self.grid().rank_of(self.myrow(), root_q);
        self.bcast_group(self.row_ranks(), root, data, tag.into());
    }

    /// Broadcast within this process's grid column from the process at row
    /// `root_p`.
    pub fn bcast_col(&self, root_p: usize, data: &mut Vec<f64>, tag: impl Into<Tag>) {
        let root = self.grid().rank_of(root_p, self.mycol());
        self.bcast_group(self.col_ranks(), root, data, tag.into());
    }

    /// Broadcast to all processes from `root` (a rank).
    pub fn bcast_world(&self, root: usize, data: &mut Vec<f64>, tag: impl Into<Tag>) {
        let members: Vec<usize> = (0..self.grid().size()).collect();
        self.bcast_group(&members, root, data, tag.into());
    }

    // --- reductions -----------------------------------------------------------

    /// Sum-reduce within the grid row to column `root_q`.
    pub fn reduce_sum_row(&self, root_q: usize, data: &mut [f64], tag: impl Into<Tag>) {
        let root = self.grid().rank_of(self.myrow(), root_q);
        self.reduce_sum_group(self.row_ranks(), root, data, tag.into());
    }

    /// Sum-reduce within the grid column to row `root_p`.
    pub fn reduce_sum_col(&self, root_p: usize, data: &mut [f64], tag: impl Into<Tag>) {
        let root = self.grid().rank_of(root_p, self.mycol());
        self.reduce_sum_group(self.col_ranks(), root, data, tag.into());
    }

    /// All-reduce (sum) within the grid row.
    pub fn allreduce_sum_row(&self, data: &mut [f64], tag: impl Into<Tag>) {
        self.allreduce_sum_group(self.row_ranks(), 0, data, tag.into());
    }

    /// All-reduce (sum) within the grid row, associated as the tree rooted
    /// at column `root_q`: every member ends with the bits
    /// [`Ctx::reduce_sum_row`]`(root_q)` leaves on the root.
    pub fn allreduce_sum_row_from(&self, root_q: usize, data: &mut [f64], tag: impl Into<Tag>) {
        self.allreduce_sum_group(self.row_ranks(), root_q, data, tag.into());
    }

    /// All-reduce (sum) within the grid column.
    pub fn allreduce_sum_col(&self, data: &mut [f64], tag: impl Into<Tag>) {
        self.allreduce_sum_group(self.col_ranks(), 0, data, tag.into());
    }

    /// All-reduce (sum) over the whole grid.
    pub fn allreduce_sum_world(&self, data: &mut [f64], tag: impl Into<Tag>) {
        let members: Vec<usize> = (0..self.grid().size()).collect();
        self.allreduce_sum_group(&members, 0, data, tag.into());
    }

    /// Element-wise minimum all-reduce over the whole grid: linear gather
    /// to rank 0, then tree broadcast of the result. Every rollback uses it,
    /// on every fabric, to settle the common boundary image — tiny payloads
    /// off the critical path, so the linear gather is fine.
    pub fn allreduce_min_world(&self, data: &mut [f64], tag: impl Into<Tag>) {
        let tag = tag.into();
        let world = self.grid().size();
        if world > 1 {
            if self.rank() == 0 {
                for src in 1..world {
                    let part = self.recv_wire(src, tag.wire(Leg::Reduce));
                    for (d, p) in data.iter_mut().zip(part.iter()) {
                        *d = d.min(*p);
                    }
                }
            } else {
                self.send_wire(0, tag.wire(Leg::Reduce), tag.phase(), Arc::from(&*data));
            }
        }
        let mut v = data.to_vec();
        self.bcast_world(0, &mut v, tag);
        data.copy_from_slice(&v);
    }
}

#[cfg(test)]
mod tests {
    use crate::{run_spmd, Ctx, FaultScript, Tag};

    #[test]
    fn row_and_col_broadcast() {
        run_spmd(2, 3, FaultScript::none(), |ctx| {
            // Row broadcast from column 1: payload identifies the row.
            let mut d = if ctx.mycol() == 1 { vec![ctx.myrow() as f64 * 10.0] } else { vec![] };
            ctx.bcast_row(1, &mut d, 5);
            assert_eq!(d, vec![ctx.myrow() as f64 * 10.0]);

            // Column broadcast from row 0.
            let mut d = if ctx.myrow() == 0 { vec![ctx.mycol() as f64] } else { vec![] };
            ctx.bcast_col(0, &mut d, 6);
            assert_eq!(d, vec![ctx.mycol() as f64]);
        });
    }

    #[test]
    fn world_broadcast() {
        run_spmd(2, 2, FaultScript::none(), |ctx| {
            let mut d = if ctx.rank() == 3 { vec![42.0] } else { vec![] };
            ctx.bcast_world(3, &mut d, 9);
            assert_eq!(d, vec![42.0]);
        });
    }

    #[test]
    fn world_broadcast_on_16_ranks_is_logarithmic_at_the_root() {
        // The acceptance bar for the tree rewrite: on a 16-process grid the
        // broadcast root performs ⌈log₂ 16⌉ = 4 sends, not the 15 of a
        // linear root loop. Total message count is still P−1 (every other
        // member receives exactly once).
        let out = run_spmd(4, 4, FaultScript::none(), |ctx| {
            let before = ctx.msgs_sent();
            let mut d = if ctx.rank() == 0 { vec![3.5; 257] } else { vec![] };
            ctx.bcast_world(0, &mut d, 11);
            assert_eq!(d, vec![3.5; 257]);
            ctx.msgs_sent() - before
        });
        assert!(out[0] <= 4, "root sent {} messages; tree broadcast should send ≤ ⌈log₂ 16⌉ = 4", out[0]);
        let total: u64 = out.iter().sum();
        assert_eq!(total, 15, "a 16-member broadcast delivers exactly 15 messages");
        let max_fanout = out.iter().max().unwrap();
        assert!(*max_fanout <= 4, "some member forwarded {max_fanout} > log₂ 16 messages");
    }

    #[test]
    fn reduce_on_16_ranks_has_logarithmic_fanin_at_the_root() {
        let out = run_spmd(4, 4, FaultScript::none(), |ctx| {
            let before = ctx.msgs_sent();
            let mut d = vec![1.0; 33];
            ctx.reduce_sum_col(0, &mut d, 12);
            ctx.reduce_sum_row(0, &mut d, 13);
            (ctx.msgs_sent() - before, d)
        });
        // Everyone but the final root sends exactly one partial per reduce
        // it participates in as a non-root.
        assert_eq!(out[0].0, 0, "reduce root must not send");
        // Root of both reductions holds the world total: 16 ones per slot.
        assert_eq!(out[0].1, vec![16.0; 33]);
    }

    #[test]
    fn deterministic_row_reduce() {
        let results = run_spmd(2, 4, FaultScript::none(), |ctx| {
            let mut d = vec![ctx.mycol() as f64 + 1.0, 1.0];
            ctx.reduce_sum_row(0, &mut d, 11);
            if ctx.mycol() == 0 {
                Some(d)
            } else {
                None
            }
        });
        // Each row root holds [1+2+3+4, 4].
        for r in results.into_iter().flatten() {
            assert_eq!(r, vec![10.0, 4.0]);
        }
    }

    #[test]
    fn allreduce_world() {
        let results = run_spmd(2, 2, FaultScript::none(), |ctx| {
            let mut d = vec![ctx.rank() as f64];
            ctx.allreduce_sum_world(&mut d, 21);
            d[0]
        });
        assert_eq!(results, vec![6.0; 4]);
    }

    #[test]
    fn col_reduce_to_row1() {
        let results = run_spmd(3, 2, FaultScript::none(), |ctx| {
            let mut d = vec![(ctx.myrow() + 1) as f64];
            ctx.reduce_sum_col(1, &mut d, 31);
            (ctx.myrow() == 1).then_some(d[0])
        });
        let sums: Vec<f64> = results.into_iter().flatten().collect();
        assert_eq!(sums, vec![6.0, 6.0]);
    }

    #[test]
    fn posted_reductions_match_the_blocking_ones_bit_for_bit() {
        // One reduction per root, all in flight at once, on grids whose row
        // trees have leaves, interior members and (Q = 3, 5) members that
        // are leaves only because their subtree falls off the end.
        for (p, q) in [(1, 2), (2, 3), (1, 4), (1, 5), (2, 8)] {
            run_spmd(p, q, FaultScript::none(), move |ctx| {
                let mine =
                    |root: usize| -> Vec<f64> { (0..7).map(|i| 1.0 / (3.0 + (ctx.rank() * 7 + i + root) as f64)).collect() };
                let posted: Vec<_> = (0..q)
                    .map(|root| {
                        let d = mine(root);
                        let pending = ctx.post_reduce_sum_row(root, &d, 50 + root as u32);
                        (root, d, pending)
                    })
                    .collect();
                for (root, mut d, pending) in posted {
                    ctx.wait_reduce_sum_row(pending, &mut d);
                    let mut want = mine(root);
                    ctx.reduce_sum_row(root, &mut want, 90);
                    if ctx.mycol() == root {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&d), bits(&want), "{p}x{q} root {root}");
                    }
                }
            });
        }
    }

    #[test]
    fn posted_reductions_send_what_the_blocking_ones_send() {
        let out = run_spmd(1, 5, FaultScript::none(), |ctx| {
            let before = (ctx.msgs_sent(), ctx.bytes_sent());
            let mut d = vec![1.0; 9];
            let pending = ctx.post_reduce_sum_row(3, &d, 61);
            let posted = ctx.msgs_sent() - before.0;
            ctx.wait_reduce_sum_row(pending, &mut d);
            (posted, ctx.msgs_sent() - before.0, ctx.bytes_sent() - before.1, d[0])
        });
        // Root at column 3 of 5: relative indices 1 and 3 are leaves (odd),
        // so is 4 (its children would be indices 5 and 6); index 2 has to
        // absorb 3 first, and 0 is the root.
        let posted: Vec<u64> = out.iter().map(|o| o.0).collect();
        assert_eq!(posted, vec![0, 1, 1, 0, 1], "who sends at post time");
        assert_eq!(out.iter().map(|o| o.1).sum::<u64>(), 4, "a 5-member reduce is 4 messages");
        assert_eq!(out.iter().map(|o| o.2).sum::<u64>(), 4 * 9 * 8);
        assert_eq!(out[3].3, 5.0, "the root holds the sum");
    }

    /// Per-rank data whose sum depends on the association: 1e16-sized terms
    /// that cancel in some orders and swallow the small ones in others, then
    /// hashed values spread over sixteen decades.
    fn touchy(rank: usize, salt: usize) -> Vec<f64> {
        let big = [1e16, 3.0, -1e16][(rank + salt) % 3];
        let mut v = vec![1.0 / (rank as f64 + 3.0), big, big + rank as f64, -0.0];
        v.extend((0..24u64).map(|i| {
            let h = crate::fault::splitmix64(((rank as u64) << 32) | ((salt as u64) << 16) | i);
            let unit = (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
            unit * 10f64.powi((h % 17) as i32 - 8)
        }));
        v
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `allreduce_sum_group` rooted at `members[root_idx]` against the
    /// definition it replaced — reduce to that member, broadcast back —
    /// twice in a row on one tag.
    fn assert_allreduce_is_the_tree(ctx: &Ctx, members: &[usize], root_idx: usize, tag: u32, what: &str) {
        let root = members[root_idx];
        for salt in 0..2 {
            let mut got = touchy(ctx.rank(), salt + root_idx);
            ctx.allreduce_sum_group(members, root_idx, &mut got, Tag::User(tag));
            let mut want = touchy(ctx.rank(), salt + root_idx);
            ctx.reduce_sum_group(members, root, &mut want, Tag::User(tag + 1));
            ctx.bcast_group(members, root, &mut want, Tag::User(tag + 1));
            assert_eq!(bits(&got), bits(&want), "{what}, call {salt}, rank {}", ctx.rank());
        }
    }

    #[test]
    fn allreduce_is_bitwise_the_tree_reduce_then_broadcast() {
        let rows = [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16].map(|n| (1, n));
        let grids = (1..=4usize).flat_map(|p| (1..=4usize).map(move |q| (p, q)));
        for (p, q) in rows.into_iter().chain(grids).chain([(2, 8), (3, 5), (6, 6)]) {
            run_spmd(p, q, FaultScript::none(), move |ctx| {
                let world: Vec<usize> = (0..p * q).collect();
                // Rows take every root (`allreduce_sum_row_from`, the
                // Hessenberg panel's row sums); columns and the world are
                // only ever rooted at their first member.
                for root in 0..q {
                    assert_allreduce_is_the_tree(&ctx, ctx.row_ranks(), root, 10, &format!("{p}x{q} row rooted at {root}"));
                }
                assert_allreduce_is_the_tree(&ctx, ctx.col_ranks(), 0, 20, &format!("{p}x{q} column"));
                assert_allreduce_is_the_tree(&ctx, &world, 0, 30, &format!("{p}x{q} world"));
            });
        }
    }

    #[test]
    fn a_rooted_allreduce_is_not_the_unrooted_one() {
        // From three members up the root changes the association: if these
        // agreed, the rooted rows above could not tell a missing rotation.
        for q in [3usize, 4, 5, 8] {
            let out = run_spmd(1, q, FaultScript::none(), |ctx| {
                let (mut at0, mut at1) = (touchy(ctx.rank(), 0), touchy(ctx.rank(), 0));
                ctx.allreduce_sum_row_from(0, &mut at0, 12);
                ctx.allreduce_sum_row_from(1, &mut at1, 13);
                (at0, at1)
            });
            assert_ne!(bits(&out[0].0), bits(&out[0].1), "q = {q}");
        }
    }

    #[test]
    fn the_equivalence_data_tells_associations_apart() {
        // Left to right is not the tree's order from four members up: if
        // these sums agreed, the test above would prove nothing.
        for n in 4..=9 {
            let linear = (1..n).fold(touchy(0, 0), |mut acc, r| {
                acc.iter_mut().zip(touchy(r, 0)).for_each(|(a, x)| *a += x);
                acc
            });
            let tree = run_spmd(1, n, FaultScript::none(), |ctx| {
                let mut v = touchy(ctx.rank(), 0);
                ctx.allreduce_sum_row(&mut v, 40);
                v
            });
            assert_ne!(bits(&linear), bits(&tree[0]), "n = {n}");
        }
    }

    #[test]
    fn back_to_back_allreduces_on_one_tag_do_not_cross_talk() {
        run_spmd(2, 2, FaultScript::none(), |ctx| {
            let mut a = vec![1.0];
            let mut b = vec![10.0];
            ctx.allreduce_sum_world(&mut a, 77);
            ctx.allreduce_sum_world(&mut b, 77);
            assert_eq!(a, vec![4.0]);
            assert_eq!(b, vec![40.0]);
        });
    }
}
