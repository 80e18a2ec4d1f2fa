//! The benchmark's metric tables — the same names, units, directions and
//! bounds `BENCHMARK.json` declares (`tests/contract.rs` keeps the two in
//! step). Every workload reports every metric of a table: the end-to-end
//! table on a plain run, the per-layer table on a traced run.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric and the share of the parent's median by which it
/// may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// The nine end-to-end metrics. Every bound is the widest the benchmark
/// contract allows: on the shared 2-core box the baseline was taken on,
/// run-to-run medians of one commit sit 2–9 % apart (README.md, "Noise
/// protocol"), and the contract wants that spread under a third of the
/// bound.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("plain_solve_s", "s", Better::Lower, 0.25),
    e2e("ft_solve_s", "s", Better::Lower, 0.25),
    e2e("ft_overhead", "ratio", Better::Lower, 0.25),
    e2e("ft_cpu_s", "s", Better::Lower, 0.25),
    e2e("ft_delayed_solve_s", "s", Better::Lower, 0.25),
    e2e("recover_solve_s", "s", Better::Lower, 0.25),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
    e2e("job_p50_ms", "ms", Better::Lower, 0.25),
];

/// One per-layer metric (no bound: layers explain, end-to-end decides).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, named `<crate dir>.<metric>`. A metric whose
/// layer a workload does not exercise reads 0 there (the `serve.*` rows on
/// the in-process workloads, the TCP counters over mpsc, `core.coded2_*`
/// off the 2×4 grid, `pblas.par_efficiency` when ranks outnumber cores).
pub const PER_LAYER: [PerLayer; 60] = [
    layer("dense.gemm_peak_gflops", "gflop/s", Higher),
    layer("dense.gemm_right_gflops", "gflop/s", Higher),
    layer("dense.gemm_left_tn_gflops", "gflop/s", Higher),
    layer("dense.gemm_left_nn_gflops", "gflop/s", Higher),
    layer("dense.gemm_chk_gflops", "gflop/s", Higher),
    layer("dense.gemv_gbs", "GB/s", Higher),
    layer("dense.gemv_t_gbs", "GB/s", Higher),
    layer("dense.stream_gbs", "GB/s", Higher),
    layer("dense.flops_plain", "count", Lower),
    layer("dense.flops_ft", "count", Lower),
    layer("dense.gemm_calls_plain", "count", Lower),
    layer("dense.gemm_calls_ft", "count", Lower),
    layer("dense.pool_jobs", "count", Lower),
    layer("lapack.seq_solve_s", "s", Lower),
    layer("lapack.seq_gflops", "gflop/s", Higher),
    layer("pblas.panel_s", "s", Lower),
    layer("pblas.update_s", "s", Lower),
    layer("pblas.panel_share", "ratio", Lower),
    layer("pblas.par_efficiency", "ratio", Higher),
    layer("core.encode_s", "s", Lower),
    layer("core.panel_s", "s", Lower),
    layer("core.right_s", "s", Lower),
    layer("core.left_s", "s", Lower),
    layer("core.scope_s", "s", Lower),
    layer("core.snapshot_s", "s", Lower),
    layer("core.bookkeeping_s", "s", Lower),
    layer("core.scope_end_s", "s", Lower),
    layer("core.recovery_s", "s", Lower),
    layer("core.recoveries", "count", Lower),
    layer("core.flop_overhead", "ratio", Lower),
    layer("core.storage_overhead", "ratio", Lower),
    layer("core.chk_maintenance_s", "s", Lower),
    layer("core.scrub_overhead", "ratio", Lower),
    layer("core.coded2_solve_s", "s", Lower),
    layer("core.coded2_recovery_s", "s", Lower),
    layer("runtime.recv_wait_s", "s", Lower),
    layer("runtime.recv_wait_share", "ratio", Lower),
    layer("runtime.send_s", "s", Lower),
    layer("runtime.msgs", "count", Lower),
    layer("runtime.bytes", "bytes", Lower),
    layer("runtime.bytes.panel", "bytes", Lower),
    layer("runtime.bytes.trailing-update", "bytes", Lower),
    layer("runtime.bytes.checksum-update", "bytes", Lower),
    layer("runtime.bytes.checkpoint", "bytes", Lower),
    layer("runtime.bytes.recovery", "bytes", Lower),
    layer("runtime.pingpong_us", "us", Lower),
    layer("runtime.bw_gbs", "GB/s", Higher),
    layer("runtime.bcast_row_us", "us", Lower),
    layer("runtime.teardown_s", "s", Lower),
    layer("runtime.frames_tx", "count", Lower),
    layer("runtime.retransmits", "count", Lower),
    layer("runtime.hb_misses", "count", Lower),
    layer("serve.accept_ms", "ms", Lower),
    layer("serve.queue_ms", "ms", Lower),
    layer("serve.solve_ms", "ms", Lower),
    layer("serve.fabric_ms", "ms", Lower),
    layer("serve.reply_ms", "ms", Lower),
    layer("serve.rejects", "count", Lower),
    layer("serve.job_p90_ms", "ms", Lower),
    layer("trace_overhead", "ratio", Lower),
];
