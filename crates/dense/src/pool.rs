//! The layer runs one thread per rank: every kernel computes on the calling
//! thread, as the paper's one process per core on single-threaded BLAS did
//! (DESIGN.md §14.3). These three calls keep older callers building.

/// Always 1: no kernel ever hands work to another thread.
pub fn active_threads() -> usize {
    1
}

/// Always 0: there are no worker threads to hand jobs to.
pub fn jobs_dispatched() -> u64 {
    0
}

/// Accepts `None` and `Some(1)`, the only thread count there is; panics on
/// any other.
pub fn set_threads_override(threads: Option<usize>) {
    assert!(matches!(threads, None | Some(1)), "one thread per rank, not {threads:?}");
}
