//! Fault injection: one script, one grammar, every injector.
//!
//! A [`FaultScript`] is the whole fault plan of a run — the only fault value
//! [`crate::Ctx`], [`crate::TcpConfig`] and the CLI ever hold:
//!
//! * **scripted failures** ([`PlannedFailure`]) — the paper's own model
//!   (§5.3): a victim rank dies at an opaque *fail point* id the algorithm
//!   passes to [`crate::Ctx::check_failpoint`] (ft-hess packs
//!   `(iteration, phase)` into it). Every rank holds the script, so every
//!   rank reads the same victims at the same point without a message; they
//!   strike at quiescent boundaries, so recovery starts from a globally
//!   consistent state;
//! * **kills** ([`ChaosKill`]) — deaths at arbitrary *message-operation*
//!   boundaries (the Nth send/recv a rank performs: mid-collective,
//!   mid-panel, or *inside an ongoing recovery*,
//!   [`ChaosPoint::RecoveryOp`]), detected through the revoke/agree protocol
//!   in [`crate::detect`];
//! * **flips** ([`SdcFlip`]) — silent single-bit corruption of a rank's
//!   local storage, on the same op clock;
//! * **wire faults** ([`crate::NetFault`], [`crate::NetPartition`]) — drop,
//!   delay, duplicate, reorder, corrupt, reset and partition on the TCP
//!   transport's links (see [`crate::netchaos`]).
//!
//! [`FaultScript::parse`] reads all of them from one string (the CLI's
//! `--faults`):
//!
//! ```text
//! SPEC     := SEED [':' item (',' item)*]
//! item     := 'kill=' K          K seeded kills, ops uniform in the op window
//!           | 'flip=' K          K seeded bit flips, ops uniform in the window
//!           | 'at=' R '@' OP     kill rank R at its OP-th message op
//!           | 'at=' R '@r' ROUND ':' OP
//!                                kill rank R at op OP of recovery round ROUND
//!           | 'drop=' P          drop the frame's first transmission
//!           | 'delay=' P '@' MS  stall the link thread MS before writing
//!           | 'dup=' P           write the frame twice back to back
//!           | 'reorder=' P       swap the frame with the next queued one
//!           | 'corrupt=' P       flip one wire bit after CRC stamping
//!           | 'reset=' P         close the connection before writing
//!           | 'part=' A '-' B '@' S ['+' D]
//!                                blackhole the directed link A→B from
//!                                transport-relative time S ms for D ms
//!                                (no '+D' = permanent partition)
//! P        := probability in [0, 1]
//! ```
//!
//! Example: `7:kill=1,drop=0.05,corrupt=0.01,part=0-3@500+1500`. A bare seed
//! is the empty script.
//!
//! One seed drives three independent sub-streams: the kill stream
//! (SplitMix64 from `SEED`), the flip stream (SplitMix64 from
//! `SEED ^ 0x5DC5…`), and the wire stream (a pure hash of
//! `(SEED, src, dst, seq)` per frame). Same script, same schedule, every
//! run.
//!
//! Multiple victims may share one fail point (simultaneous failures). The
//! paper tolerates any set of simultaneous failures with at most one victim
//! per process *row*; enforcing that constraint is the algorithm's job, not
//! the injector's — the injector will happily kill anything it is told to.

use crate::netchaos::{NetPartition, Wire};
use std::ops::Range;

/// One planned process failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFailure {
    /// Rank of the process that dies.
    pub victim: usize,
    /// Fail-point id at which it dies (algorithm-defined encoding).
    pub point: u64,
}

/// When a [`ChaosKill`] strikes, counted in *message operations* (each
/// `send` or `recv` a rank performs counts as one op). Counting starts when
/// the algorithm arms the injector (after initial encoding — the paper's
/// protection domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPoint {
    /// The victim's `0`-based Nth message operation. Lands wherever that op
    /// happens to be: mid-broadcast, mid-reduction, between panels — no
    /// cooperation from the algorithm.
    Op(u64),
    /// The victim's Nth message operation *inside* recovery round `round`
    /// (1-based, counted across the whole run). This is how a failure
    /// strikes while a previous failure is still being repaired.
    RecoveryOp {
        /// Which recovery round (1 = the first recovery of the run).
        round: u32,
        /// 0-based op index within that round.
        op: u64,
    },
}

/// One kill at a message-op boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// Rank of the process that dies.
    pub victim: usize,
    /// Where in the victim's message-op stream it dies.
    pub at: ChaosPoint,
}

/// One scheduled silent-data-corruption event: a single bit flip in the
/// victim's local matrix storage, landing at the victim's `op`-th message
/// operation (same clock as [`ChaosPoint::Op`]).
///
/// The runtime cannot reach into the algorithm's buffers (they live on the
/// algorithm's side of the [`crate::Ctx`] boundary), so a flip is *queued*
/// when its op fires and the algorithm drains the queue with
/// [`crate::Ctx::take_sdc_flips`] at its next phase boundary and applies
/// `buf[word % buf.len()] ^= 1 << bit` itself. The observable semantics:
/// a flip materializes at the first phase boundary after its scheduled op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcFlip {
    /// Rank whose local buffer is corrupted.
    pub victim: usize,
    /// 0-based message-op index at which the flip fires (armed clock).
    pub op: u64,
    /// Word index into the victim's local buffer; the applier reduces it
    /// modulo the buffer length, so any `u64` is a valid target.
    pub word: u64,
    /// Bit position `0..=63` within the IEEE-754 word.
    pub bit: u32,
}

/// The fault plan of one run. See the module docs for the four fault kinds
/// and the grammar.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultScript {
    /// Sorted by `point` (stable: intra-point script order is preserved), so
    /// the per-fail-point lookup on the hot path is a binary search over a
    /// slice — no lock, and no allocation where nobody dies.
    failures: Vec<PlannedFailure>,
    kills: Vec<ChaosKill>,
    flips: Vec<SdcFlip>,
    pub(crate) wire: Wire,
}

const SPLITMIX_GAMMA: u64 = 0x9E3779B97F4A7C15;

/// SplitMix64's output function of the state *after* one increment — the
/// one generator behind every seeded stream of this crate (same family as
/// `ft_dense::rng`, defined here so the runtime stays dependency-free).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(SPLITMIX_GAMMA);
        z
    }

    /// `n` draws uniform in `ops`, sorted and deduplicated (so strictly
    /// increasing, and possibly fewer than `n`).
    fn ops(&mut self, n: usize, ops: &Range<u64>) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n).map(|_| ops.start + self.next() % (ops.end - ops.start)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl FaultScript {
    /// No faults — the fault-free baseline.
    pub fn none() -> Self {
        Self::default()
    }

    /// Script the given fail-point failures.
    pub fn new(failures: Vec<PlannedFailure>) -> Self {
        Self::none().with_failures(failures)
    }

    /// Single failure of `victim` at `point`.
    pub fn one(victim: usize, point: u64) -> Self {
        Self::new(vec![PlannedFailure { victim, point }])
    }

    /// Parse `SEED[:item,…]` (grammar in the module docs) for a world of
    /// `world` ranks. `ops` is the message-op window seeded kills and flips
    /// are drawn from. Every rank an item names must lie in `0..world`.
    /// Errors name the offending item.
    pub fn parse(spec: &str, world: usize, ops: Range<u64>) -> Result<FaultScript, String> {
        let (seed_s, items) = match spec.split_once(':') {
            Some((a, b)) => (a, Some(b)),
            None => (spec, None),
        };
        let seed: u64 = seed_s
            .trim()
            .parse()
            .map_err(|_| format!("seed '{seed_s}' is not an unsigned integer"))?;
        let mut sc = FaultScript::none();
        sc.wire.seed = seed;
        let Some(items) = items else {
            return Ok(sc);
        };
        if items.trim().is_empty() {
            return Err("empty spec after ':'".into());
        }
        let (mut n_kills, mut n_flips) = (0usize, 0usize);
        let mut at: Vec<ChaosKill> = Vec::new();
        for item in items.split(',') {
            let item = item.trim();
            let err = |why: String| format!("item '{item}': {why}");
            let (key, val) = item.split_once('=').ok_or_else(|| err("not key=value".into()))?;
            let count = || val.parse::<usize>().map_err(|_| err("count is not an unsigned integer".into()));
            let prob = |p: &str| match p.parse::<f64>() {
                Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
                Ok(_) => Err(err("probability outside [0, 1]".into())),
                Err(_) => Err(err("probability is not a number".into())),
            };
            match key {
                "kill" => n_kills = count()?,
                "flip" => n_flips = count()?,
                "at" => at.push(parse_at(val, world).map_err(err)?),
                "drop" => sc.wire.drop_p = prob(val)?,
                "dup" => sc.wire.dup_p = prob(val)?,
                "reorder" => sc.wire.reorder_p = prob(val)?,
                "corrupt" => sc.wire.corrupt_p = prob(val)?,
                "reset" => sc.wire.reset_p = prob(val)?,
                "delay" => {
                    let (p, ms) = val.split_once('@').ok_or_else(|| err("use delay=P@MS".into()))?;
                    sc.wire.delay_p = prob(p)?;
                    sc.wire.delay_ms = match ms.parse::<u64>() {
                        Ok(n) if n > 0 => n,
                        _ => return Err(err("MS is not a positive integer".into())),
                    };
                }
                "part" => sc.wire.parts.push(parse_part(val, world).map_err(err)?),
                _ => return Err(err("unknown key (know kill/flip/at/drop/delay/dup/reorder/corrupt/reset/part)".into())),
            }
        }
        // Bounds the draws below by the window before anything is allocated.
        let span = ops.end.saturating_sub(ops.start);
        if n_kills.max(n_flips) as u64 > span || (n_kills + n_flips > 0 && world == 0) {
            return Err(format!(
                "kill=/flip= need ranks to strike and at most one event per op of the window (got {world} ranks, {span} ops)"
            ));
        }
        // Seeded kills first, explicit `at=` kills after them in spec order:
        // kill indices are part of the launcher protocol (`FT_CHAOS_KILL`).
        let mut rng = SplitMix(seed);
        for op in rng.ops(n_kills, &ops) {
            let victim = (rng.next() % world as u64) as usize;
            sc.kills.push(ChaosKill { victim, at: ChaosPoint::Op(op) });
        }
        sc.kills.extend(at);
        // Flips draw bit positions from the *detectable* range {32..=61, 63}:
        // high mantissa, exponent (minus the top exponent bit, whose flip on
        // a normal value produces Inf and would test NaN plumbing rather than
        // localization), and sign. Flips of low-order mantissa bits sit below
        // any detection threshold that tolerates accumulated update roundoff
        // (the classic ABFT detectability floor — see DESIGN.md §10); tests
        // that want them build [`SdcFlip`] values explicitly.
        let mut rng = SplitMix(seed ^ 0x5DC5DC5DC5DC5DC5);
        for op in rng.ops(n_flips, &ops) {
            let victim = (rng.next() % world as u64) as usize;
            let word = rng.next();
            let bit = match rng.next() % 31 {
                30 => 63,
                b => 32 + b as u32,
            };
            sc.flips.push(SdcFlip { victim, op, word, bit });
        }
        Ok(sc)
    }

    /// This script with its fail-point failures replaced by `failures`.
    pub fn with_failures(mut self, mut failures: Vec<PlannedFailure>) -> Self {
        failures.sort_by_key(|f| f.point);
        self.failures = failures;
        self
    }

    /// This script with its kills replaced by `kills`.
    pub fn with_kills(mut self, kills: Vec<ChaosKill>) -> Self {
        self.kills = kills;
        self
    }

    /// This script with its bit flips replaced by `flips`.
    pub fn with_flips(mut self, flips: Vec<SdcFlip>) -> Self {
        self.flips = flips;
        self
    }

    /// The ranks scripted to die at `point`, sorted and deduplicated — the
    /// same list on every rank that holds this script. A binary search over
    /// the sorted failures; a point nobody dies at allocates nothing.
    pub fn victims_at(&self, point: u64) -> Vec<usize> {
        let lo = self.failures.partition_point(|f| f.point < point);
        let mut victims: Vec<usize> = self.failures[lo..]
            .iter()
            .take_while(|f| f.point == point)
            .map(|f| f.victim)
            .collect();
        victims.sort_unstable();
        victims.dedup();
        victims
    }

    /// `true` if nothing at all is scripted.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty() && self.kills.is_empty() && self.flips.is_empty() && self.net_is_empty()
    }

    /// All planned fail-point failures (sorted by fail point).
    pub fn failures(&self) -> &[PlannedFailure] {
        &self.failures
    }

    /// All scheduled kills: seeded ones first, then `at=` items in order.
    pub fn kills(&self) -> &[ChaosKill] {
        &self.kills
    }

    /// All scheduled bit flips.
    pub fn flips(&self) -> &[SdcFlip] {
        &self.flips
    }

    /// Index of the kill that strikes `rank` at normal-op `op` /
    /// recovery-op `rec` (`(round, op)` when inside a recovery round).
    /// The caller tracks which indices already fired.
    pub(crate) fn kill_index(&self, rank: usize, op: u64, rec: Option<(u32, u64)>) -> Option<usize> {
        self.kills.iter().position(|k| {
            k.victim == rank
                && match k.at {
                    ChaosPoint::Op(o) => o == op,
                    ChaosPoint::RecoveryOp { round, op: o } => rec == Some((round, o)),
                }
        })
    }

    /// Indices of flips striking `rank` at op `op`. The caller tracks which
    /// indices already fired (re-executed ops after a rollback must not
    /// re-flip).
    pub(crate) fn flip_indices(&self, rank: usize, op: u64) -> impl Iterator<Item = usize> + '_ {
        self.flips
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.victim == rank && f.op == op)
            .map(|(i, _)| i)
    }
}

/// A rank reference of an item: a number inside the grid.
fn rank_in(s: &str, world: usize, usage: impl Fn() -> String) -> Result<usize, String> {
    let r: usize = s.parse().map_err(|_| usage())?;
    if r >= world {
        return Err(format!("rank {r} is outside the {world}-rank grid"));
    }
    Ok(r)
}

/// `R@OP` or `R@rROUND:OP`.
fn parse_at(v: &str, world: usize) -> Result<ChaosKill, String> {
    let usage = || "use at=RANK@OP or at=RANK@rROUND:OP".to_string();
    let (rank, at) = v.split_once('@').ok_or_else(usage)?;
    let victim = rank_in(rank, world, usage)?;
    let at = match at.strip_prefix('r') {
        Some(rest) => {
            let (round, op) = rest.split_once(':').ok_or_else(usage)?;
            let round: u32 = round.parse().map_err(|_| usage())?;
            if round == 0 {
                return Err("recovery rounds are 1-based".into());
            }
            ChaosPoint::RecoveryOp { round, op: op.parse().map_err(|_| usage())? }
        }
        None => ChaosPoint::Op(at.parse().map_err(|_| usage())?),
    };
    Ok(ChaosKill { victim, at })
}

/// `A-B@START[+DUR]`.
fn parse_part(v: &str, world: usize) -> Result<NetPartition, String> {
    let usage = || "use part=A-B@START[+DUR]".to_string();
    let (link, when) = v.split_once('@').ok_or_else(usage)?;
    let (a, b) = link.split_once('-').ok_or_else(usage)?;
    let (a, b) = (rank_in(a, world, usage)?, rank_in(b, world, usage)?);
    if a == b {
        return Err("a self-link cannot be partitioned".into());
    }
    let (start, dur_ms) = match when.split_once('+') {
        Some((s, d)) => match d.parse::<u64>() {
            Ok(d) if d > 0 => (s, Some(d)),
            Ok(_) => return Err("duration must be positive (omit +DUR for permanent)".into()),
            Err(_) => return Err(usage()),
        },
        None => (when, None),
    };
    let start_ms: u64 = start.parse().map_err(|_| usage())?;
    Ok(NetPartition { a, b, start_ms, dur_ms })
}

/// Generate a realistic fail-stop schedule: exponential (Poisson-process)
/// inter-arrival times over a run of `n_points` fail points, with a mean of
/// `mtti_points` points between failures and victims drawn uniformly from
/// `world` ranks.
///
/// This is the paper's §1 motivation made concrete: Jaguar averaged 2.33
/// failures/day over 537 days, i.e. an exponential failure process at the
/// machine level. Scale `mtti_points` so that
/// `n_points / mtti_points ≈ expected failures per run`.
///
/// At most one victim per fail point is emitted (repeated draws on the same
/// point are dropped), so any schedule this produces is tolerable by the
/// single-redundancy scheme as long as victims land in distinct rows —
/// which single-victim events always satisfy.
pub fn poisson_failures(n_points: u64, mtti_points: f64, world: usize, seed: u64) -> Vec<PlannedFailure> {
    assert!(mtti_points > 0.0 && world > 0);
    let mut rng = SplitMix(seed);
    let mut out: Vec<PlannedFailure> = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival: −MTTI·ln(U), U ∈ (0, 1].
        let u = ((rng.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -mtti_points * u.ln();
        if t >= n_points as f64 {
            break;
        }
        let point = t as u64;
        if out.last().is_some_and(|f| f.point == point) {
            continue; // one victim per point
        }
        out.push(PlannedFailure { victim: (rng.next() % world as u64) as usize, point });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetFault;

    #[test]
    fn script_lookup() {
        let s = FaultScript::new(vec![
            PlannedFailure { victim: 1, point: 99 },
            PlannedFailure { victim: 3, point: 17 },
            PlannedFailure { victim: 5, point: 17 },
        ]);
        assert_eq!(s.victims_at(17), vec![3, 5]);
        assert_eq!(s.victims_at(99), vec![1]);
        assert!(s.victims_at(0).is_empty());
        assert!(s.victims_at(18).is_empty());
        assert_eq!(s.failures().iter().map(|f| f.point).collect::<Vec<_>>(), vec![17, 17, 99]);
        assert!(!s.is_empty());
        assert!(FaultScript::none().is_empty());
    }

    #[test]
    fn script_preserves_intra_point_order() {
        // Two victims at the same point keep script order after sorting by
        // point; the fail point itself reports them sorted, and a victim
        // scripted twice at one point dies once.
        let s = FaultScript::new(vec![
            PlannedFailure { victim: 9, point: 5 },
            PlannedFailure { victim: 2, point: 5 },
            PlannedFailure { victim: 9, point: 5 },
        ]);
        assert_eq!(s.failures().iter().map(|f| f.victim).collect::<Vec<_>>(), vec![9, 2, 9]);
        assert_eq!(s.victims_at(5), vec![2, 9]);
    }

    #[test]
    fn chaos_lookup_and_fire_points() {
        let c = FaultScript::parse("0:at=2@100,at=0@r1:7", 3, 0..1).unwrap();
        assert_eq!(
            c.kills(),
            [
                ChaosKill { victim: 2, at: ChaosPoint::Op(100) },
                ChaosKill { victim: 0, at: ChaosPoint::RecoveryOp { round: 1, op: 7 } },
            ]
        );
        assert_eq!(c.kill_index(2, 100, None), Some(0));
        assert_eq!(c.kill_index(2, 99, None), None);
        assert_eq!(c.kill_index(1, 100, None), None);
        // Recovery kills only strike inside the named round.
        assert_eq!(c.kill_index(0, 555, Some((1, 7))), Some(1));
        assert_eq!(c.kill_index(0, 555, Some((2, 7))), None);
        assert_eq!(c.kill_index(0, 555, None), None);
        assert!(!c.is_empty());
        assert!(c.clone().with_kills(Vec::new()).is_empty());
    }

    /// Stream pin: the kills `42:kill=3` schedules on a 6-rank world with
    /// ops in [50, 500) are the ones the standalone chaos generator produced
    /// for seed 42 before the injectors were folded into one script. A change
    /// here moves every kill soak.
    #[test]
    fn seeded_chaos_is_deterministic_and_in_range() {
        let a = FaultScript::parse("42:kill=3", 6, 50..500).unwrap();
        assert_eq!(a, FaultScript::parse("42:kill=3", 6, 50..500).unwrap());
        assert_eq!(
            a.kills(),
            [
                ChaosKill { victim: 0, at: ChaosPoint::Op(141) },
                ChaosKill { victim: 4, at: ChaosPoint::Op(158) },
                ChaosKill { victim: 0, at: ChaosPoint::Op(213) },
            ]
        );
        // Different seed, different schedule (overwhelmingly likely).
        assert_ne!(a.kills(), FaultScript::parse("43:kill=3", 6, 50..500).unwrap().kills());
        // Seeded kills come first; explicit ones follow in spec order.
        let mixed = FaultScript::parse("42:at=5@9,kill=3,at=1@r2:0", 6, 50..500).unwrap();
        assert_eq!(mixed.kills()[..3], a.kills()[..]);
        assert_eq!(mixed.kills()[3], ChaosKill { victim: 5, at: ChaosPoint::Op(9) });
        assert_eq!(mixed.kills()[4], ChaosKill { victim: 1, at: ChaosPoint::RecoveryOp { round: 2, op: 0 } });
    }

    #[test]
    fn sdc_lookup() {
        let s = FaultScript::none().with_flips(vec![
            SdcFlip { victim: 1, op: 10, word: 3, bit: 40 },
            SdcFlip { victim: 1, op: 10, word: 9, bit: 63 },
            SdcFlip { victim: 0, op: 20, word: 0, bit: 52 },
        ]);
        assert_eq!(s.flip_indices(1, 10).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(s.flip_indices(0, 20).collect::<Vec<_>>(), vec![2]);
        assert_eq!(s.flip_indices(0, 10).count(), 0);
        assert!(!s.is_empty());
    }

    /// Stream pin, as above, for the flip sub-stream (`seed ^ 0x5DC5…`).
    #[test]
    fn seeded_sdc_is_deterministic_and_detectable() {
        let a = FaultScript::parse("42:flip=4", 6, 50..500).unwrap();
        assert_eq!(
            a.flips(),
            [
                SdcFlip { victim: 1, op: 215, word: 16639019469400129922, bit: 46 },
                SdcFlip { victim: 0, op: 219, word: 13038570546301879672, bit: 55 },
                SdcFlip { victim: 3, op: 240, word: 15444944393554498273, bit: 34 },
                SdcFlip { victim: 3, op: 432, word: 16082184404614104912, bit: 35 },
            ]
        );
        // Only detectable bits, over many draws: high mantissa / exponent /
        // sign, never the top exponent bit (Inf-producing) or low mantissa.
        let many = FaultScript::parse("7:flip=400", 6, 0..100_000).unwrap();
        assert!(many.flips().windows(2).all(|w| w[0].op < w[1].op), "ops must be strictly increasing");
        for f in many.flips() {
            assert!(f.victim < 6 && ((32..=61).contains(&f.bit) || f.bit == 63), "{f:?}");
        }
        assert!(many.flips().iter().any(|f| f.bit == 63) && many.flips().iter().any(|f| f.bit == 61));
        // A distinct stream from the kill generator: the same seed must not
        // yield kills and flips at identical op indices.
        let both = FaultScript::parse("42:kill=4,flip=4", 6, 50..500).unwrap();
        let kill_ops: Vec<u64> = both
            .kills()
            .iter()
            .map(|k| match k.at {
                ChaosPoint::Op(op) => op,
                ChaosPoint::RecoveryOp { .. } => unreachable!("seeded kills are Op kills"),
            })
            .collect();
        assert_eq!(both.flips(), a.flips(), "composing kill= must not move the flip stream");
        assert_ne!(kill_ops, both.flips().iter().map(|f| f.op).collect::<Vec<_>>());
    }

    #[test]
    fn grammar_round_trips_every_item_in_one_script() {
        let sc = FaultScript::parse(
            "9:kill=2,flip=1,at=3@77,at=0@r2:5,drop=1.0,delay=0.5@30,dup=0.25,reorder=0.125,corrupt=0,reset=0,part=1-2@10+5",
            4,
            50..500,
        )
        .unwrap();
        assert_eq!(sc.kills().len(), 4);
        assert_eq!(sc.kills()[2..], FaultScript::parse("0:at=3@77,at=0@r2:5", 4, 0..1).unwrap().kills()[..]);
        assert_eq!(sc.flips().len(), 1);
        assert_eq!(sc.decide(0, 1, 3), Some(NetFault::Drop));
        assert!(sc.blackholed(1, 2, 12) && !sc.blackholed(1, 2, 15));
        assert!(sc.failures().is_empty(), "fail points come from the algorithm's encoding, not the grammar");
        // Whitespace around items is ignored; item order does not matter.
        assert_eq!(
            FaultScript::parse("9: drop=0.5 , kill=2", 4, 50..500).unwrap(),
            FaultScript::parse("9:kill=2,drop=0.5", 4, 50..500).unwrap()
        );
        // A bare seed is the empty script.
        assert!(FaultScript::parse("9", 4, 50..500).unwrap().is_empty());
    }

    #[test]
    fn malformed_specs_name_the_offending_item() {
        // No item to name: the seed, or nothing after the colon.
        for bad in ["x", "bogus", "-1:kill=1", "1:", "9: "] {
            assert!(FaultScript::parse(bad, 4, 50..500).is_err(), "'{bad}' parsed");
        }
        // Everything else names the item that failed.
        for item in [
            "drop",
            "drop=2.0",
            "drop=-0.1",
            "drop=abc",
            "drop=minus-one",
            "drop=0.5@3",
            "delay=0.5",
            "delay=0.5@0",
            "delay=0.5@soon",
            "warp=0.5",
            "part=0@5",
            "part=0-0@5",
            "part=1-1@0",
            "part=0-1@5+0",
            "part=0-1@0+0",
            "part=0-1",
            "part=0-9@0",
            "part=9-0@0+10",
            "kill=x",
            "kill=-1",
            "flip=1.5",
            "at=0",
            "at=0@",
            "at=x@5",
            "at=0@r1",
            "at=0@r0:1",
            "at=4@10",
            "at=9@r1:0",
        ] {
            let err = FaultScript::parse(&format!("1:drop=0.1,{item}"), 4, 50..500).expect_err(item);
            assert!(err.contains(&format!("'{item}'")), "'{item}': error does not name it: {err}");
        }
        let err = FaultScript::parse("1:at=4@10", 4, 0..1).unwrap_err();
        assert!(err.contains("rank 4 is outside the 4-rank grid"), "{err}");
        // Seeded events need somewhere to land.
        assert!(FaultScript::parse("1:kill=1", 4, 5..5).is_err());
        assert!(FaultScript::parse("1:kill=1000000000000", 4, 50..500).is_err());
        assert!(FaultScript::parse("1:flip=1", 0, 0..9).is_err());
        assert!(FaultScript::parse("1:kill=0,drop=0.1", 4, 5..5).is_ok());
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn poisson_schedule_statistics() {
        let fails = poisson_failures(100_000, 1000.0, 16, 7);
        // Expect ~100 failures; allow wide slack.
        assert!(fails.len() > 50 && fails.len() < 200, "{}", fails.len());
        // Points strictly increasing, victims in range.
        for w in fails.windows(2) {
            assert!(w[0].point < w[1].point);
        }
        assert!(fails.iter().all(|f| f.victim < 16));
        // Reproducible.
        assert_eq!(fails, poisson_failures(100_000, 1000.0, 16, 7));
    }

    #[test]
    fn poisson_empty_when_mtti_huge() {
        let fails = poisson_failures(10, 1e12, 4, 1);
        assert!(fails.is_empty());
    }
}
