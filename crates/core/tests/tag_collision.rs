//! Guard test for the message-tag channel map (DESIGN.md §3): every
//! subsystem carves private channel sub-ranges out of its `Tag` family, and
//! nothing but convention keeps them apart. This test enumerates every
//! channel each subsystem can legally use — over the full legal parameter
//! space of `N`, `nb`, `Q`, redundancy copies and backup-holder distances —
//! and asserts the combined set is collision-free. Adding a tag that
//! overlaps an existing range fails here, not as a cross-protocol message
//! mix-up three layers deep.

use ft_runtime::Tag;
use std::collections::HashMap;

/// The per-panel offset families `TAG_A12_RED`/`TAG_A12_CHK` are offset by
/// the recovered-column/copy index, so each owns a range this wide starting
/// at its base. No legal `nb` or copy count comes anywhere near it.
const A12_RANGE: u16 = 0x1000;

/// Largest legal panel width we guard for (the drivers assert `nb ≥ 1`;
/// production runs use `nb ≤ 64`, the guard is generous).
const NB_MAX: u16 = 256;
/// Checksum copies: `Redundancy::Single`/`Dual` both keep 2; the guard
/// covers a hypothetical 4-copy extension (the issue's stated ceiling).
const NCOPIES_MAX: u16 = 4;
/// Backup-holder ring distances: `holders ≤ max_failures_per_row() ≤ 2`.
const HOLDERS_MAX: u16 = 2;

/// Every (subsystem, channel) the codebase can put on the wire, with a
/// human-readable owner for the failure message.
fn inventory() -> Vec<(&'static str, Tag)> {
    let mut tags: Vec<(&'static str, Tag)> = Vec::new();

    // pblas panel factorization: Panel(0..=13).
    for c in 0..=13 {
        tags.push(("pblas/panel", Tag::Panel(c)));
    }
    // pblas left update: Trailing(8).
    tags.push(("pblas/left-update", Tag::Trailing(8)));
    // pblas verification: the norms off User(0x170), the right-applied
    // reflectors' row all-reduce.
    tags.push(("pblas/verify", Tag::User(0x170)));
    tags.push(("pblas/verify-right", Tag::User(0x178)));

    // Initial encoding: Checksum(0) offset by the copy index.
    for copy in 0..NCOPIES_MAX {
        tags.push(("core/encode", Tag::Checksum(0).offset(copy)));
    }
    // Scrub engine: TAG_SCRUB = Checksum(0x80). The per-copy residual
    // kernels use offsets 4·copy off the base (and off base+36 for the
    // correction-path verification); the correction protocol itself uses
    // the single offsets 32 and 34. TAG_T1 = Checksum(0x90), residual
    // kernel offsets 4·copy.
    for base in [0, 36] {
        for copy in 0..NCOPIES_MAX {
            tags.push(("core/scrub-residual", Tag::Checksum(0x80).offset(base + 4 * copy)));
        }
    }
    tags.push(("core/scrub-correct-red", Tag::Checksum(0x80).offset(32)));
    tags.push(("core/scrub-correct-move", Tag::Checksum(0x80).offset(34)));
    for copy in 0..NCOPIES_MAX {
        tags.push(("core/scrub-t1", Tag::Checksum(0x90).offset(4 * copy)));
    }

    // Checkpoint/restart baseline: Checkpoint(0), Recovery(0x10..=0x11).
    tags.push(("core/ckpt", Tag::Checkpoint(0)));
    tags.push(("core/ckpt-restore", Tag::Recovery(0x10)));
    tags.push(("core/ckpt-rearm", Tag::Recovery(0x11)));

    // Scope snapshots + bookkeeping: Checkpoint(0x100/0x200) offset by the
    // ring distance d = 1..=holders.
    for d in 1..=HOLDERS_MAX {
        tags.push(("core/scope-snap", Tag::Checkpoint(0x100).offset(d)));
        tags.push(("core/scope-book", Tag::Checkpoint(0x200).offset(d)));
    }
    // Scope repair: Recovery(0x20..=0x23).
    for c in 0x20..=0x23 {
        tags.push(("core/scope-repair", Tag::Recovery(c)));
    }

    // §5.3 recovery: Recovery(0x40/0x41) plus the per-column offset
    // families at 0x1000/0x2000.
    tags.push(("core/recovery-dup", Tag::Recovery(0x40)));
    tags.push(("core/recovery-peer", Tag::Recovery(0x41)));
    for c in 0..A12_RANGE {
        tags.push(("core/recovery-a12-red", Tag::Recovery(0x1000).offset(c)));
        tags.push(("core/recovery-a12-chk", Tag::Recovery(0x2000).offset(c)));
    }

    // Distributed recovery handshake: Recovery(0x50/0x51).
    tags.push(("core/dist-ctl-image", Tag::Recovery(0x50)));
    tags.push(("core/dist-boundary-min", Tag::Recovery(0x51)));

    tags
}

#[test]
fn subsystem_tag_ranges_never_collide() {
    let mut seen: HashMap<Tag, &'static str> = HashMap::new();
    for (owner, tag) in inventory() {
        if let Some(prev) = seen.insert(tag, owner) {
            // Same owner re-listing a channel is fine (scrub's offset
            // grids overlap within the subsystem by construction); a
            // *cross*-subsystem collision is the bug this test guards.
            assert_eq!(prev, owner, "tag {tag:?} claimed by both {prev} and {owner}");
        }
    }
}

#[test]
fn a12_offset_families_hold_any_legal_panel_width() {
    // The recovered-column offsets stay inside each family's range for any
    // legal nb (and any copy count): 0x1000 + c < 0x2000 and 0x2000 + c
    // stays within u16 for every c the recovery can produce.
    let c_max = (NB_MAX * NCOPIES_MAX).max(NCOPIES_MAX);
    assert!(c_max < A12_RANGE, "A12 offset range too narrow for nb = {NB_MAX}");
    assert!(0x2000u16.checked_add(A12_RANGE - 1).is_some(), "A12_CHK family overflows u16");
}
