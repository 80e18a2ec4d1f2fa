//! # ft-hess — a solver-agnostic ABFT framework, instantiated for the
//! # fault-tolerant Hessenberg reduction and Householder QR
//!
//! The paper's contribution (Jia, Bosilca, Luszczek, Dongarra, SC '13): a
//! hybrid ABFT + diskless-checkpointing scheme that makes the distributed
//! blocked Hessenberg reduction resilient to fail-stop process failures.
//! The machinery is written once against the [`FtSolver`] contract
//! (DESIGN.md §12) with one way in, [`ft_solve`], and instantiated twice:
//! [`ft_pdgehrd`] (the paper's solver) and [`ft_pdgeqrf`] (right-looking
//! Householder QR, a left-only solver that needs none of the
//! pseudo-checksum `Ve` machinery).
//!
//! * [`solver`] — the [`FtSolver`] trait: panel geometry, reflector offset,
//!   whether a trailing right update exists, and the plain driver /
//!   residual oracle / flop coefficient every caller needs; plus the
//!   [`SOLVERS`] registry behind [`solver_by_name`].
//! * [`encode`] — checksum encoding of the input matrix (§4): duplicated
//!   row-checksum block columns on the right, pseudo-checksum rows at the
//!   bottom for `Ve`.
//! * `areas` (crate-internal) — the shared checksum-group address
//!   arithmetic and the one copy of the weighted partial-sum loop that
//!   encoding, recovery and scrub correction all use.
//! * [`algorithm`] — [`ft_solve`], Algorithm 2 (non-delayed) and
//!   Algorithm 3 (delayed checksum updates), with scripted fail points
//!   between the phases of every iteration.
//! * [`scope`] — the panel-scope diskless checkpoints: snapshots and the
//!   per-panel `(panel, Y, T)` bookkeeping on the next process column.
//! * [`recovery`] — the §5.3 recovery procedure over the four areas of
//!   Figure 5; tolerates any simultaneous failures with at most
//!   [`Redundancy::max_failures_per_row`] victims per process row (1 for
//!   the paper's `Single`, `f` for `Coded(f)`).
//! * [`model`] — the §6 flop/storage cost model (validated against runtime
//!   flop counters by the `paper` bench).
//! * [`scrub`] — the online SDC scrub engine (DESIGN.md §10): checksum
//!   residual scans at a configurable cadence, data-vs-checksum diagnosis,
//!   single-block localization, in-place correction, and escalation to a
//!   verified-boundary rollback.
//!
//! The fault-free output is element-wise identical to
//! [`ft_pblas::pdgehrd`]'s (the checksum columns ride along without
//! touching the logical computation), and a fault-injected run recovers to
//! the exact same factorization — the property the integration tests sweep
//! across every (iteration × phase × victim) combination.

pub mod algorithm;
pub(crate) mod areas;
pub mod checkpoint_restart;
pub mod encode;
pub mod model;
pub mod recovery;
pub mod scope;
pub mod scrub;
pub mod solver;

pub use algorithm::{
    failpoint, ft_pdgehrd, ft_pdgehrd_full, ft_pdgeqrf, ft_pdgeqrf_full, ft_solve, ve_rows, DriverControl, FtError, FtReport,
    Phase, PhaseHook, ScopeSink, Variant,
};
pub use checkpoint_restart::{cr_failpoint, cr_pdgehrd, CrReport, FtCheckpoint};
pub use encode::{Encoded, Redundancy};
pub use model::{asymptotic_overhead, flop_model, storage_overhead_elements, FlopModel};
pub use recovery::{check_tolerance, ToleranceCap, ToleranceExceeded};
pub use scope::ScopeState;
pub use scrub::{
    assert_theorem1, diagnose, first_theorem1_violation, local_row_span, locate_member, scan_group, Diagnosis, GroupScan,
    ScrubCadence, ScrubEngine, ScrubEscalation, ScrubPolicy, ScrubReport, TrailingScan,
};
pub use solver::{solver_by_name, FtSolver, Hessenberg, HouseholderQr, SOLVERS};
