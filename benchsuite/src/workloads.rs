//! The five workloads. Each names the inputs of its in-process legs and,
//! for `serve_mix`, the daemon traffic on top of them; `why` is the line
//! `BENCHMARK.json` carries.

use crate::spmd::{Fabric, Shape, Solver};

/// The closed loop `serve_mix` drives against `abft-hessenberg serve`.
#[derive(Debug, Clone, Copy)]
pub struct ServeMix {
    /// Shape of every job: a 1×2 grid, `n`, `nb`.
    pub n: usize,
    pub nb: usize,
    /// Worker slots of the daemon's pool.
    pub pool: usize,
    /// Concurrent clients, each submitting its next job when the previous
    /// one has answered.
    pub clients: usize,
    /// Daemons spawned per run (one `setup_s` sample each); the measuring
    /// time is split evenly between them.
    pub daemons: usize,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The in-process solve every leg of a rep runs.
    pub shape: Shape,
    /// The daemon loop, on `serve_mix` only.
    pub serve: Option<ServeMix>,
}

const fn shape(solver: Solver, p: usize, q: usize, n: usize, nb: usize, fabric: Fabric) -> Shape {
    Shape { solver, p, q, n, nb, fabric }
}

/// The workloads, in the order `--workload all` runs them. No grid has more
/// than two ranks per core: beyond that the walls are the scheduler's (solve
/// by solve, the 2x4 grid ISSUE 11 proposed scattered three times as wide as
/// 1x4 or 2x2, and its medians did not follow the speed probe). Sizes are set
/// so that one rep (four legs) takes between half a second and two, which
/// puts twelve to thirty reps in a run — see README.md for why the sizes of
/// ISSUE 11 were scaled down, and why not further.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "hess_dense",
        why: "Hessenberg 1x2 mpsc N=1024 nb=32: ranks = cores, few messages; dense GEMM and the GEMV-bound panel do nearly all the work",
        shape: shape(Solver::Hess, 1, 2, 1024, 32, Fabric::Mpsc),
        serve: None,
    },
    Workload {
        name: "hess_grid",
        why: "Hessenberg 1x4 mpsc N=640 nb=16 (Q=4 checksum groups, k=16 GEMMs): checksum maintenance, scope bookkeeping and row collectives take their largest share",
        shape: shape(Solver::Hess, 1, 4, 640, 16, Fabric::Mpsc),
        serve: None,
    },
    Workload {
        name: "qr_grid",
        why: "Householder QR 2x2 mpsc N=1152 nb=32: the second FtSolver, left-only updates, no Ve machinery, panel reduces across P",
        shape: shape(Solver::Qr, 2, 2, 1152, 32, Fabric::Mpsc),
        serve: None,
    },
    Workload {
        name: "hess_tcp",
        why: "Hessenberg 1x2 N=384 nb=16 over loopback TcpTransport: one long-lived fabric per solve; framing, ACKs, hand-offs between rank and socket threads and poll timers are paid on every message",
        shape: shape(Solver::Hess, 1, 2, 384, 16, Fabric::Tcp),
        serve: None,
    },
    Workload {
        name: "serve_mix",
        why: "abft-hessenberg serve --pool 4, closed loop of 2 clients, 1x2 n=192 nb=8 Hessenberg/QR jobs: queueing, placement and short-lived fabrics dominate; solver legs are QR 1x2 N=1024 in process",
        shape: shape(Solver::Qr, 1, 2, 1024, 32, Fabric::Mpsc),
        serve: Some(ServeMix { n: 192, nb: 8, pool: 4, clients: 2, daemons: 4 }),
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` variant: the same grid, solver and wire at N ≤ 192,
    /// one daemon.
    pub fn smoke(mut self) -> Workload {
        self.shape.n = self.shape.n.min(12 * self.shape.nb).min(192);
        if let Some(mix) = &mut self.serve {
            mix.n = 96;
            mix.daemons = 1;
        }
        self
    }
}
