//! Job specs, results, rejection reasons, and their `f64`-word codecs.
//!
//! Every serving-layer message body is a vector of `f64` words — the
//! transport's native payload type — so job frames ride the existing wire
//! format with zero framing changes. Small integers are exact in `f64`
//! (they stay far below 2⁵³); raw byte blobs (serialized checkpoints) are
//! packed eight bytes per word through the IEEE bit pattern, which the
//! frame codec round-trips bit-exactly.

use ft_hess::{FtSolver, Hessenberg, HouseholderQr, Redundancy, Variant};

/// Which factorization a job runs: the wire name of an [`FtSolver`]. The
/// discriminant is the wire code; [`SolverId::ft`] is the one place a
/// `SolverId` becomes a solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverId {
    /// Fault-tolerant Hessenberg reduction ([`ft_hess::ft_pdgehrd`]).
    Hessenberg = 0,
    /// Fault-tolerant Householder QR ([`ft_hess::ft_pdgeqrf`]).
    Qr = 1,
}

impl SolverId {
    /// Every id, in wire-code order.
    pub const ALL: [SolverId; 2] = [SolverId::Hessenberg, SolverId::Qr];

    /// The solver this id names — everything else (tau length, driver,
    /// residual oracle, report name) is asked of the returned object.
    pub fn ft(self) -> &'static dyn FtSolver {
        match self {
            SolverId::Hessenberg => &Hessenberg,
            SolverId::Qr => &HouseholderQr,
        }
    }

    fn code(self) -> f64 {
        self as usize as f64
    }

    fn from_code(c: f64) -> Result<Self, String> {
        Ok(Self::ALL[int_word(c, "solver code", Self::ALL.len() - 1)?])
    }

    /// The id of the solver called `name` (`--solver`), if there is one.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|id| id.name() == name)
    }

    /// CLI/report name.
    pub fn name(self) -> &'static str {
        self.ft().name()
    }
}

/// Typed rejection reasons — the backpressure and failure-containment
/// vocabulary of the daemon. Every REJECT frame's payload starts with one
/// of these codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded job queue is at capacity (global backpressure).
    QueueFull,
    /// This tenant already has its quota of queued + running jobs.
    QuotaExceeded,
    /// The spec failed validation (shape, solver/redundancy codes, grid).
    BadRequest,
    /// The job wants more ranks than the pool has slots.
    PoolTooSmall,
    /// The daemon is draining for shutdown and admits no new work.
    ShuttingDown,
    /// A 1-rank job's worker died and its one retry was already spent.
    WorkerLost,
    /// The job's ABFT run failed beyond the redundancy's code distance
    /// ([`ft_hess::FtError::ExceededCodeDistance`]).
    CodeDistance,
    /// The job's scrub engine hit unrecoverable silent corruption
    /// ([`ft_hess::FtError::ScrubUnrecoverable`]).
    Unrecoverable,
}

impl RejectReason {
    /// Every reason with its log/CLI name, in wire-code order.
    const ALL: [(RejectReason, &'static str); 8] = [
        (RejectReason::QueueFull, "queue-full"),
        (RejectReason::QuotaExceeded, "quota-exceeded"),
        (RejectReason::BadRequest, "bad-request"),
        (RejectReason::PoolTooSmall, "pool-too-small"),
        (RejectReason::ShuttingDown, "shutting-down"),
        (RejectReason::WorkerLost, "worker-lost"),
        (RejectReason::CodeDistance, "code-distance-exceeded"),
        (RejectReason::Unrecoverable, "scrub-unrecoverable"),
    ];

    /// Stable wire code (the declaration index).
    pub fn code(self) -> f64 {
        self as usize as f64
    }

    /// Inverse of [`RejectReason::code`].
    pub fn from_code(c: f64) -> Result<Self, String> {
        let k = c as i64;
        usize::try_from(k)
            .ok()
            .and_then(|i| Self::ALL.get(i))
            .map(|&(r, _)| r)
            .ok_or_else(|| format!("unknown reject reason code {k}"))
    }

    /// Human-readable name for logs and CLI output.
    pub fn name(self) -> &'static str {
        Self::ALL[self as usize].1
    }
}

/// Largest `n` a SUBMIT may name: its `n·n` matrix words must fit one
/// frame (`MAX_PAYLOAD_WORDS` = 2²⁸ in ft-runtime's `tcp.rs`).
const MAX_N: usize = 1 << 14;
/// Largest `P` or `Q` a SUBMIT may name: `P·Q` stays ≤ 2²⁰ ranks, and the
/// `2f ≤ Q` copies of `Coded(f)` stay ≤ 2¹⁰.
const MAX_GRID_SIDE: usize = 1 << 10;
/// Largest count a word may carry: every integer up to 2⁵³ is exact in `f64`.
const MAX_EXACT: usize = 1 << 53;

/// A header word as an integer in `0..=cap`. `as usize` saturates — NaN and
/// −1 to 0, 1e300 to `usize::MAX` — and truncates 4.5 to 4, so a word that
/// is not finite, integral and in range rejects the message instead.
fn int_word(x: f64, what: &str, cap: usize) -> Result<usize, String> {
    if x.is_finite() && x.fract() == 0.0 && (0.0..=cap as f64).contains(&x) {
        Ok(x as usize)
    } else {
        Err(format!("{what} word {x} is not an integer in 0..={cap}"))
    }
}

/// SUBMIT payload word 0: what the client asks for.
pub const REQ_JOB: f64 = 0.0;
/// SUBMIT payload word 0: drain the pool and exit cleanly.
pub const REQ_SHUTDOWN: f64 = 1.0;

/// One reduction job as submitted by a tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub solver: SolverId,
    pub variant: Variant,
    pub redundancy: Redundancy,
    /// Logical matrix dimension.
    pub n: usize,
    /// Blocking factor.
    pub nb: usize,
    /// Process-grid rows the job wants.
    pub p: usize,
    /// Process-grid columns.
    pub q: usize,
    /// Capture scope-boundary checkpoints so the job survives a whole-pool
    /// restart (needs the daemon's `--state-dir`).
    pub ckpt: bool,
    /// The `n×n` input matrix, row-major.
    pub matrix: Vec<f64>,
}

impl JobSpec {
    /// Ranks this job occupies (≤ 2²⁰ for any spec [`JobSpec::from_words`]
    /// admits).
    pub fn ranks(&self) -> usize {
        self.p * self.q
    }

    fn variant_code(v: Variant) -> f64 {
        match v {
            Variant::NonDelayed => 0.0,
            Variant::Delayed => 1.0,
        }
    }

    fn redundancy_code(r: Redundancy) -> (f64, f64) {
        match r {
            Redundancy::Single => (0.0, 0.0),
            Redundancy::Coded(f) => (2.0, f as f64),
        }
    }

    /// Serialize to SUBMIT payload words (after the request-kind word).
    pub fn to_words(&self) -> Vec<f64> {
        let (rk, rf) = Self::redundancy_code(self.redundancy);
        let mut w = vec![
            self.solver.code(),
            Self::variant_code(self.variant),
            rk,
            rf,
            self.n as f64,
            self.nb as f64,
            self.p as f64,
            self.q as f64,
            if self.ckpt { 1.0 } else { 0.0 },
        ];
        w.extend_from_slice(&self.matrix);
        w
    }

    /// Parse and validate SUBMIT payload words. Every header word must be an
    /// integer inside its cap (`MAX_N`, `MAX_GRID_SIDE`, the codes) and
    /// every product is checked. Every failure is a
    /// [`RejectReason::BadRequest`] — the daemon echoes it typed, it never
    /// tears down the connection.
    pub fn from_words(w: &[f64]) -> Result<JobSpec, String> {
        if w.len() < 9 {
            return Err(format!("spec header truncated: {} words", w.len()));
        }
        let solver = SolverId::from_code(w[0])?;
        let variant = match int_word(w[1], "variant code", 1)? {
            0 => Variant::NonDelayed,
            _ => Variant::Delayed,
        };
        let redundancy = match (int_word(w[2], "redundancy code", 2)?, int_word(w[3], "Coded(f)", MAX_GRID_SIDE / 2)?) {
            (0, _) => Redundancy::Single,
            // Retired `Dual` code: never emitted, still decoded so specs
            // persisted under --state-dir by older daemons resume.
            (1, _) => Redundancy::Coded(2),
            (2, f) if f >= 1 => Redundancy::Coded(f),
            (k, f) => return Err(format!("unknown redundancy code {k}/{f}")),
        };
        let n = int_word(w[4], "n", MAX_N)?;
        let nb = int_word(w[5], "nb", MAX_N)?;
        let p = int_word(w[6], "P", MAX_GRID_SIDE)?;
        let q = int_word(w[7], "Q", MAX_GRID_SIDE)?;
        let ckpt = int_word(w[8], "checkpoint flag", 1)? == 1;
        if n == 0 || nb == 0 || nb > n {
            return Err(format!("bad shape n={n} nb={nb}"));
        }
        if p == 0 || q == 0 {
            return Err(format!("bad grid {p}x{q}"));
        }
        let ranks = p.checked_mul(q).ok_or_else(|| format!("grid {p}x{q} overflows"))?;
        if q == 1 && ranks != 1 {
            return Err(format!("Q = 1 is only supported on a 1x1 grid (got {p}x{q})"));
        }
        if q < redundancy.min_q() {
            // The encoder asserts this; an admitted job would panic every
            // worker of its fabric.
            return Err(format!("{redundancy:?} needs Q >= {} process columns (got {p}x{q})", redundancy.min_q()));
        }
        let matrix = &w[9..];
        let words = n.checked_mul(n).ok_or_else(|| format!("n*n overflows at n={n}"))?;
        if matrix.len() != words {
            return Err(format!("matrix payload is {} words, spec says n*n = {words}", matrix.len()));
        }
        Ok(JobSpec {
            solver,
            variant,
            redundancy,
            n,
            nb,
            p,
            q,
            ckpt,
            matrix: matrix.to_vec(),
        })
    }
}

/// A completed job's payload: the verification residual, recovery and
/// traffic accounting, and the reduced factorization itself.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The paper's `r∞` residual of the factorization (§7.3 scale).
    pub residual: f64,
    /// Transparent ABFT recoveries the job survived.
    pub recoveries: u64,
    /// Wall-clock milliseconds inside the solver (job-fabric side).
    pub wall_ms: f64,
    /// Grid-wide payload bytes the job's fabric moved ([`ft_runtime::TrafficLedger`]).
    pub bytes: u64,
    /// Logical dimension of `factor`.
    pub n: usize,
    /// The reduced matrix (reflectors included), row-major.
    pub factor: Vec<f64>,
    /// Householder scalars.
    pub tau: Vec<f64>,
}

impl JobResult {
    /// Serialize to RESULT payload words.
    pub fn to_words(&self) -> Vec<f64> {
        let mut w = vec![
            self.residual,
            self.recoveries as f64,
            self.wall_ms,
            self.bytes as f64,
            self.n as f64,
            self.tau.len() as f64,
        ];
        w.extend_from_slice(&self.factor);
        w.extend_from_slice(&self.tau);
        w
    }

    /// Inverse of [`JobResult::to_words`]. `n` and the `tau` length are
    /// capped at `MAX_N`, as every spec's `n` is, and the size is checked.
    pub fn from_words(w: &[f64]) -> Result<JobResult, String> {
        if w.len() < 6 {
            return Err(format!("result header truncated: {} words", w.len()));
        }
        let n = int_word(w[4], "n", MAX_N)?;
        let tau_len = int_word(w[5], "tau length", MAX_N)?;
        let need = n.checked_mul(n).and_then(|nn| nn.checked_add(6 + tau_len));
        if need != Some(w.len()) {
            return Err(format!("result payload is {} words, header says n = {n}, tau length = {tau_len}", w.len()));
        }
        Ok(JobResult {
            residual: w[0],
            recoveries: w[1] as u64,
            wall_ms: w[2],
            bytes: w[3] as u64,
            n,
            factor: w[6..6 + n * n].to_vec(),
            tau: w[6 + n * n..].to_vec(),
        })
    }
}

/// Daemon → worker directive word 0: run the job that follows.
pub const ASSIGN_RUN: f64 = 0.0;
/// Daemon → worker directive word 0: exit cleanly (pool shutdown).
pub const ASSIGN_STOP: f64 = 1.0;

/// One rank's share of a dispatched job — everything a worker needs to
/// build (or rejoin) the job's private fabric and run its rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    pub spec: JobSpec,
    /// This worker's rank within the job grid.
    pub job_rank: usize,
    /// First port of the job fabric's contiguous port range (unused for
    /// 1-rank jobs, which run on an in-process fabric).
    pub port_base: u16,
    /// Fabric incarnation for this rank (respawned replacements bump it).
    pub incarnation: u32,
    /// Join as a replacement: skip encoding, enter recovery, let the
    /// survivors ship the rollback boundary (the in-flight recovery path).
    pub replacement: bool,
    /// Pool-resolved heartbeat knobs — workers never read `FT_HB_*`
    /// themselves, so daemon and clients can disagree freely.
    pub hb_interval_ms: u64,
    pub hb_miss_limit: u32,
    pub conn_timeout_ms: u64,
    /// Serialized [`ft_hess::FtCheckpoint`] to resume from (whole-pool
    /// restart), or empty for a fresh run.
    pub resume: Vec<u8>,
}

impl Assignment {
    /// Serialize to a daemon → worker SUBMIT payload (after [`ASSIGN_RUN`]).
    pub fn to_words(&self) -> Vec<f64> {
        let mut w = vec![
            self.job_rank as f64,
            self.port_base as f64,
            self.incarnation as f64,
            if self.replacement { 1.0 } else { 0.0 },
            self.hb_interval_ms as f64,
            self.hb_miss_limit as f64,
            self.conn_timeout_ms as f64,
            self.resume.len() as f64,
        ];
        w.extend_from_slice(&self.spec.to_words());
        w.extend_from_slice(&pack_bytes(&self.resume));
        w
    }

    /// Inverse of [`Assignment::to_words`]. Every header word is capped by
    /// its type, the rank by the spec's grid, and the resume length by the
    /// words that follow.
    pub fn from_words(w: &[f64]) -> Result<Assignment, String> {
        if w.len() < 8 {
            return Err(format!("assignment header truncated: {} words", w.len()));
        }
        let resume_len = int_word(w[7], "resume length", 8 * (w.len() - 8))?;
        let resume_words = resume_len.div_ceil(8);
        let spec = JobSpec::from_words(&w[8..w.len() - resume_words])?;
        Ok(Assignment {
            job_rank: int_word(w[0], "job rank", spec.ranks() - 1)?,
            port_base: int_word(w[1], "port base", u16::MAX.into())? as u16,
            incarnation: int_word(w[2], "incarnation", u32::MAX as usize)? as u32,
            replacement: int_word(w[3], "replacement flag", 1)? == 1,
            hb_interval_ms: int_word(w[4], "heartbeat interval", MAX_EXACT)? as u64,
            hb_miss_limit: int_word(w[5], "heartbeat miss limit", u32::MAX as usize)? as u32,
            conn_timeout_ms: int_word(w[6], "connect timeout", MAX_EXACT)? as u64,
            resume: unpack_bytes(&w[w.len() - resume_words..], resume_len)?,
            spec,
        })
    }
}

/// Pack raw bytes into `f64` words through the IEEE bit pattern (8 bytes
/// per word, zero-padded tail). The frame codec ships bit patterns
/// losslessly, NaN payloads included.
pub fn pack_bytes(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b[..c.len()].copy_from_slice(c);
            f64::from_bits(u64::from_le_bytes(b))
        })
        .collect()
}

/// Inverse of [`pack_bytes`]: recover exactly `len` bytes, which `words`
/// must hold.
pub fn unpack_bytes(words: &[f64], len: usize) -> Result<Vec<u8>, String> {
    if len > 8 * words.len() {
        return Err(format!("{len} bytes claimed, {} words hold {}", words.len(), 8 * words.len()));
    }
    let mut out = Vec::with_capacity(len);
    for w in words {
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    out.truncate(len);
    Ok(out)
}

/// Decode a worker's CKPT payload `[rank, panel, len, packed bytes…]` for a
/// job of `world` ranks: `(rank, panel, bytes)`. The panel index is capped
/// at `MAX_N` like every `n`, the length by the words that carry it.
pub(crate) fn ckpt_from_words(w: &[f64], world: usize) -> Result<(usize, usize, Vec<u8>), String> {
    if w.len() < 3 {
        return Err(format!("checkpoint header truncated: {} words", w.len()));
    }
    let rank = int_word(w[0], "checkpoint rank", world - 1)?;
    let panel = int_word(w[1], "checkpoint panel", MAX_N)?;
    let len = int_word(w[2], "checkpoint length", 8 * (w.len() - 3))?;
    Ok((rank, panel, unpack_bytes(&w[3..], len)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed 4×4 Hessenberg/alg2 spec on a `1×q` grid.
    fn spec_on(redundancy: Redundancy, q: usize) -> JobSpec {
        JobSpec {
            solver: SolverId::Hessenberg,
            variant: Variant::NonDelayed,
            redundancy,
            n: 4,
            nb: 2,
            p: 1,
            q,
            ckpt: false,
            matrix: (0..16).map(|i| i as f64 * 0.5).collect(),
        }
    }

    #[test]
    fn spec_words_round_trip() {
        let spec = JobSpec {
            solver: SolverId::Qr,
            variant: Variant::Delayed,
            ckpt: true,
            ..spec_on(Redundancy::Coded(2), 4)
        };
        assert_eq!(JobSpec::from_words(&spec.to_words()).unwrap(), spec);
    }

    #[test]
    fn spec_validation_rejects_malformed_requests() {
        let good = spec_on(Redundancy::Single, 2);
        let mut w = good.to_words();
        w.truncate(5);
        assert!(JobSpec::from_words(&w).is_err(), "truncated header");
        let mut w = good.to_words();
        w[0] = 9.0;
        assert!(JobSpec::from_words(&w).is_err(), "unknown solver");
        let mut w = good.to_words();
        w.pop();
        assert!(JobSpec::from_words(&w).is_err(), "short matrix");
        let mut w = good.to_words();
        w[6] = 2.0; // 2x2 wants 4 ranks but matrix checks still pass;
        w[7] = 1.0; // Q = 1 on a multi-rank grid is rejected
        assert!(JobSpec::from_words(&w).is_err(), "Q=1 multi-rank grid");
        // Under-width redundancy: Coded(f) needs Q >= 2f (the encoder would
        // assert inside every worker of the job's fabric).
        for (f, q, ok) in [(1, 2, true), (2, 2, false), (2, 3, false), (2, 4, true), (3, 4, false)] {
            let words = spec_on(Redundancy::Coded(f), q).to_words();
            assert_eq!(JobSpec::from_words(&words).is_ok(), ok, "Coded({f}) on 1x{q}");
        }
        // 1x1 Single stays admissible (scrub-only grid).
        assert!(JobSpec::from_words(&spec_on(Redundancy::Single, 1).to_words()).is_ok(), "1x1 single");
    }

    /// Each of the nine header words of a good spec, replaced by `bad`, must
    /// be rejected.
    fn assert_every_header_word_rejects(bad: impl Fn(f64) -> f64, case: &str) {
        let good = spec_on(Redundancy::Coded(1), 2).to_words();
        for i in 0..9 {
            let mut w = good.clone();
            w[i] = bad(w[i]);
            assert!(JobSpec::from_words(&w).is_err(), "{case} in header word {i} ({}) was admitted", w[i]);
        }
    }

    #[test]
    fn non_finite_spec_words_are_rejected() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_every_header_word_rejects(|_| x, "non-finite word");
        }
    }

    #[test]
    fn non_integral_spec_words_are_rejected() {
        assert_every_header_word_rejects(|x| x + 0.5, "fractional word");
    }

    #[test]
    fn negative_spec_words_are_rejected() {
        assert_every_header_word_rejects(|x| -1.0 - x, "negative word");
    }

    /// The reported reproducer: `n = 2³²`, `nb = P = Q = 1`, no matrix —
    /// `n·n` wrapped to 0 in release and matched the empty payload.
    #[test]
    fn n_past_the_cap_is_rejected_before_n_squared() {
        let mut w = JobSpec {
            n: 1,
            nb: 1,
            matrix: vec![0.5],
            ..spec_on(Redundancy::Single, 1)
        }
        .to_words();
        assert!(JobSpec::from_words(&w).is_ok(), "the 1x1 base spec");
        w.pop();
        w[4] = 2f64.powi(32);
        assert!(JobSpec::from_words(&w).is_err(), "n = 2^32 with an empty matrix");
        w[4] = (MAX_N + 1) as f64;
        assert!(JobSpec::from_words(&w).is_err(), "n = MAX_N + 1");
    }

    #[test]
    fn grid_sides_past_the_cap_are_rejected() {
        let mut w = spec_on(Redundancy::Single, MAX_GRID_SIDE).to_words();
        assert!(JobSpec::from_words(&w).is_ok(), "Q = MAX_GRID_SIDE");
        w[7] = (MAX_GRID_SIDE + 1) as f64;
        assert!(JobSpec::from_words(&w).is_err(), "Q = MAX_GRID_SIDE + 1");
        // P·Q = 2⁶⁴ would wrap to 0 ranks.
        (w[6], w[7]) = (2f64.powi(32), 2f64.powi(32));
        assert!(JobSpec::from_words(&w).is_err(), "2^32 x 2^32 grid");
    }

    /// `Coded(f)` asks for `2f` checksum copies; a huge `f` wrapped `2f`.
    #[test]
    fn coded_f_past_the_cap_is_rejected() {
        let mut w = spec_on(Redundancy::Coded(1), MAX_GRID_SIDE).to_words();
        for f in [(MAX_GRID_SIDE / 2 + 1) as f64, 2f64.powi(63), i64::MAX as f64] {
            w[3] = f;
            assert!(JobSpec::from_words(&w).is_err(), "Coded({f})");
        }
        w[3] = (MAX_GRID_SIDE / 2) as f64;
        assert_eq!(JobSpec::from_words(&w).unwrap().redundancy, Redundancy::Coded(MAX_GRID_SIDE / 2));
    }

    /// Wire code 1 (the retired `Dual`) still decodes — to `Coded(2)` — but
    /// is never emitted.
    #[test]
    fn retired_dual_code_decodes_to_coded2() {
        let spec = spec_on(Redundancy::Coded(2), 4);
        let mut w = spec.to_words();
        assert_eq!((w[2], w[3]), (2.0, 2.0), "Coded(2) is emitted as the generic code");
        (w[2], w[3]) = (1.0, 0.0);
        assert_eq!(JobSpec::from_words(&w).unwrap(), spec);
    }

    #[test]
    fn solver_ids_are_the_registry() {
        for id in SolverId::ALL {
            assert_eq!(SolverId::from_code(id.code()).unwrap(), id);
            assert_eq!(SolverId::from_name(id.name()), Some(id));
            assert_eq!(ft_hess::solver_by_name(id.name()).unwrap().name(), id.ft().name());
        }
        assert_eq!(SolverId::ALL.len(), ft_hess::SOLVERS.len(), "a registered solver has no wire id");
        assert!(SolverId::from_name("lu").is_none());
    }

    #[test]
    fn result_words_round_trip() {
        let res = JobResult {
            residual: 0.125,
            recoveries: 3,
            wall_ms: 17.5,
            bytes: 1 << 40,
            n: 3,
            factor: (0..9).map(|i| -(i as f64)).collect(),
            tau: vec![0.5, 0.25, 0.0],
        };
        assert_eq!(JobResult::from_words(&res.to_words()).unwrap(), res);
        assert!(JobResult::from_words(&res.to_words()[..5]).is_err());
    }

    #[test]
    fn assignment_words_round_trip_with_resume_blob() {
        let spec = spec_on(Redundancy::Single, 2);
        for blob_len in [0usize, 1, 7, 8, 9, 23] {
            let a = Assignment {
                spec: spec.clone(),
                job_rank: 1,
                port_base: 23000,
                incarnation: 2,
                replacement: true,
                hb_interval_ms: 50,
                hb_miss_limit: 40,
                conn_timeout_ms: 9000,
                resume: (0..blob_len).map(|i| (i * 37 % 251) as u8).collect(),
            };
            assert_eq!(Assignment::from_words(&a.to_words()).unwrap(), a, "blob_len={blob_len}");
        }
    }

    #[test]
    fn byte_packing_is_exact_for_every_tail_length() {
        for len in 0..40usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            assert_eq!(unpack_bytes(&pack_bytes(&bytes), len).unwrap(), bytes, "len={len}");
        }
    }

    /// `n = 2³²`: `n·n` wrapped to 0 in release, so `6 + tau_len` words
    /// decoded with an empty factor (and overflowed in debug).
    #[test]
    fn result_words_past_their_caps_are_rejected() {
        let res = JobResult {
            residual: 0.5,
            recoveries: 0,
            wall_ms: 1.0,
            bytes: 0,
            n: 2,
            factor: vec![1.0; 4],
            tau: vec![0.5],
        };
        let good = res.to_words();
        assert!(JobResult::from_words(&good).is_ok());
        let mut w: Vec<f64> = good[..6].iter().copied().chain([0.5]).collect();
        w[4] = 2f64.powi(32);
        assert!(JobResult::from_words(&w).is_err(), "n = 2^32 with an empty factor");
        for (i, bad) in [(4, (MAX_N + 1) as f64), (5, 1e19), (5, f64::NAN), (4, -1.0)] {
            let mut w = good.clone();
            w[i] = bad;
            assert!(JobResult::from_words(&w).is_err(), "word {i} = {bad}");
        }
    }

    #[test]
    fn assignment_words_past_their_caps_are_rejected() {
        let a = Assignment {
            spec: spec_on(Redundancy::Single, 2),
            job_rank: 1,
            port_base: 23000,
            incarnation: 2,
            replacement: false,
            hb_interval_ms: 50,
            hb_miss_limit: 40,
            conn_timeout_ms: 9000,
            resume: vec![7; 9],
        };
        let good = a.to_words();
        assert_eq!(Assignment::from_words(&good).unwrap(), a);
        for i in 0..8 {
            for bad in [1e19, 2f64.powi(60), -1.0, f64::NAN, 0.5] {
                let mut w = good.clone();
                w[i] = bad;
                assert!(Assignment::from_words(&w).is_err(), "header word {i} = {bad}");
            }
        }
        let mut w = good.clone();
        w[0] = 2.0;
        assert!(Assignment::from_words(&w).is_err(), "job rank 2 of a 1x2 grid");
        w = good.clone();
        w[7] = (8 * (w.len() - 8) + 1) as f64;
        assert!(Assignment::from_words(&w).is_err(), "resume longer than the frame");
    }

    /// A CKPT `len` of 1e19 panicked the daemon in `Vec::with_capacity`, and
    /// 2⁵⁰ aborted it on allocation.
    #[test]
    fn ckpt_words_past_their_caps_are_rejected() {
        let bytes: Vec<u8> = (0..13).collect();
        let mut good = vec![1.0, 3.0, bytes.len() as f64];
        good.extend(pack_bytes(&bytes));
        assert_eq!(ckpt_from_words(&good, 2).unwrap(), (1, 3, bytes));
        for (i, bad) in [(2, 1e19), (2, 2f64.powi(50)), (2, 17.0), (0, 2.0), (1, 1e19), (2, f64::NAN)] {
            let mut w = good.clone();
            w[i] = bad;
            assert!(ckpt_from_words(&w, 2).is_err(), "word {i} = {bad}");
        }
        assert!(ckpt_from_words(&good[..2], 2).is_err(), "truncated header");
        assert!(unpack_bytes(&[0.0], 9).is_err());
    }

    /// Seeded mutation fuzz of the four word decoders, the frame-decoder fuzz
    /// of ft-runtime's `tcp.rs` one layer up: golden payloads get words
    /// replaced by NaN, ±inf, huge, negative, fractional or small integer
    /// values (header words more often), and are truncated or extended. A
    /// decoder may reject anything; a value it accepts must re-encode to
    /// words that decode to the same value, bit for bit — and nothing may
    /// panic. `FT_FUZZ_SEED` / `FT_FUZZ_ROUNDS` explore further.
    #[test]
    fn mutated_words_are_rejected_or_round_trip() {
        let env = |name: &str, default: u64| std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default);
        let mut x = env("FT_FUZZ_SEED", 0x5EED_1DEA) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let spec = JobSpec { ckpt: true, ..spec_on(Redundancy::Coded(1), 2) };
        let result = JobResult {
            residual: 0.25,
            recoveries: 1,
            wall_ms: 3.5,
            bytes: 4096,
            n: 2,
            factor: vec![1.0, -2.0, 0.5, 4.0],
            tau: vec![0.125],
        };
        let assignment = Assignment {
            spec: spec.clone(),
            job_rank: 1,
            port_base: 23000,
            incarnation: 1,
            replacement: true,
            hb_interval_ms: 100,
            hb_miss_limit: 30,
            conn_timeout_ms: 10_000,
            resume: (0..13).collect(),
        };
        // Each decoder as words in, its value's own words out.
        type Codec = fn(&[f64]) -> Result<Vec<f64>, String>;
        let codecs: [(&str, Vec<f64>, Codec); 4] = [
            ("spec", spec.to_words(), |w| JobSpec::from_words(w).map(|v| v.to_words())),
            ("result", result.to_words(), |w| JobResult::from_words(w).map(|v| v.to_words())),
            ("assignment", assignment.to_words(), |w| Assignment::from_words(w).map(|v| v.to_words())),
            ("ckpt", [vec![1.0, 7.0, 13.0], pack_bytes(&[9; 13])].concat(), |w| {
                ckpt_from_words(w, 2).map(|(rank, panel, bytes)| {
                    let mut out = vec![rank as f64, panel as f64, bytes.len() as f64];
                    out.extend(pack_bytes(&bytes));
                    out
                })
            }),
        ];
        let odd = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            2f64.powi(53),
            2f64.powi(64),
            -1.0,
            -0.0,
            0.5,
            2.5,
        ];
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut accepted, mut rejected) = (0, 0);
        for round in 0..env("FT_FUZZ_ROUNDS", 500) {
            for (name, golden, decode) in &codecs {
                let mut w = golden.clone();
                for _ in 0..1 + next() % 3 {
                    let span = if next() % 2 == 0 { w.len().min(12) } else { w.len() };
                    let at = (next() % span.max(1) as u64) as usize;
                    match next() % 4 {
                        0 if at < w.len() => w[at] = odd[(next() % odd.len() as u64) as usize],
                        1 if at < w.len() => w[at] = (next() % 40) as f64,
                        2 => w.truncate((next() % (w.len() as u64 + 1)) as usize),
                        _ => w.extend((0..1 + next() % 9).map(|_| odd[(next() % odd.len() as u64) as usize])),
                    }
                }
                match decode(&w) {
                    Ok(own) => {
                        let again = decode(&own).unwrap_or_else(|e| panic!("{name}, round {round}: its own words rejected: {e}"));
                        assert_eq!(bits(&again), bits(&own), "{name}, round {round}: the value does not round-trip");
                        accepted += 1;
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(accepted > 0 && rejected > 0, "one arm never ran: {accepted} accepted, {rejected} rejected");
    }

    #[test]
    fn reject_reasons_round_trip() {
        for r in [
            RejectReason::QueueFull,
            RejectReason::QuotaExceeded,
            RejectReason::BadRequest,
            RejectReason::PoolTooSmall,
            RejectReason::ShuttingDown,
            RejectReason::WorkerLost,
            RejectReason::CodeDistance,
            RejectReason::Unrecoverable,
        ] {
            assert_eq!(RejectReason::from_code(r.code()).unwrap(), r);
            assert_eq!(RejectReason::ALL[r as usize].0, r, "ALL must list the reasons in wire-code order");
        }
        assert!(RejectReason::from_code(99.0).is_err());
    }
}
