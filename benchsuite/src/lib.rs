//! # ft-benchsuite — the repo benchmark
//!
//! Five workloads, nine end-to-end metrics and a per-layer trace, all taken
//! from outside the crates through their public items. `BENCHMARK.json` at
//! the repo root is the contract; `README.md` beside this crate explains
//! the workloads, the metrics, how they should move together, and the
//! noise protocol.
//!
//! * [`samples`] — order statistics every timing is reported through.
//! * [`metrics`] — the metric tables (names, units, directions, bounds).
//! * [`workloads`] — the five workloads and their `--smoke` variants.
//! * [`spmd`] — one in-process leg: fabric, generate, barrier, stamp, solve.
//! * [`serve`] — the real daemon binary driven through its public client.
//! * [`e2e`] — the end-to-end run (tracing off).
//! * [`layers`] — the traced run and the isolated per-layer replays.
//! * [`spans`], [`timed`], [`loops`] — the trace's three instruments: the
//!   span recorder, the `Transport` decorator, the bench's own plain loops.
//! * [`calib`] — the speed reference in-process times are corrected by.
//! * [`compare`] — `--compare A.json B.json`.
//! * [`json`], [`report`], [`cpu`] — plumbing.

pub mod calib;
pub mod compare;
pub mod cpu;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod loops;
pub mod metrics;
pub mod report;
pub mod samples;
pub mod serve;
pub mod spans;
pub mod spmd;
pub mod timed;
pub mod workloads;
