//! # ft-serve — persistent multi-tenant solver service
//!
//! A daemon mode for the ABFT solvers: instead of one process tree per
//! reduction, a persistent pool of worker processes accepts a **stream**
//! of jobs from many tenants over the TCP transport's framing (DESIGN.md
//! §15). The serving plane reuses the fabric's 32-byte header with five
//! job frame kinds (SUBMIT / ACCEPT / RESULT / REJECT / CKPT) and leaves
//! the fabric kinds untouched, so a single wire grammar covers both.
//!
//! * [`job`] — specs, results, typed rejections, and their `f64`-word
//!   codecs (everything rides the transport's native payload type).
//! * [`scheduler`] — pure admission + placement: bounded FIFO with typed
//!   backpressure, per-tenant quotas and strict head-of-line ordering.
//! * [`daemon`] — the event-loop state machine owning processes, sockets,
//!   checkpoint persistence, and the failure policy (grid jobs recover
//!   in-fabric via ABFT; 1-rank jobs get one retry, then `WorkerLost`).
//! * [`worker`] — the per-slot process: builds each job's private fabric
//!   on its own port range and tag lane, runs one rank, streams
//!   scope-boundary checkpoints back, reports RESULT/REJECT.
//! * [`client`] — the submit-side wrapper shared by the CLI, the bench,
//!   and the tests.
//!
//! Isolation invariants: concurrent jobs never share ports (disjoint
//! per-job ranges), never share tag space ([`ft_runtime::Tag::job`]
//! lanes), and never share processes (disjoint slot subsets). A rank
//! death inside one job is invisible to every other tenant.

pub mod client;
pub mod daemon;
pub mod job;
pub mod scheduler;
pub mod worker;

pub use client::{Client, Event};
pub use daemon::{load_result, serve_main, ServeConfig};
pub use job::{Assignment, JobResult, JobSpec, RejectReason, SolverId};
pub use scheduler::{Admission, Dispatch, Limits, Scheduler};
pub use worker::worker_main;
