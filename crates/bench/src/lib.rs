//! Shared harness utilities for the paper-reproduction benchmarks.
//!
//! Every figure/table of the paper's evaluation (§7) has a bench target
//! that prints the same rows the paper reports (see DESIGN.md §4):
//!
//! * `fig6a` — FT-Hess (Algorithm 2) vs ScaLAPACK-Hess, no failures;
//! * `fig6b` — same with one injected failure + recovery;
//! * `fig7`  — FT-Hess (Algorithm 3, delayed);
//! * `table1` — residual comparison after failure + recovery;
//! * `model_validation` — §6 flop/storage model vs hardware counters;
//! * `ablations` — NB sweep, grid-shape sweep, variant head-to-head,
//!   recovery-cost breakdown;
//! * `kernels` — microbenchmarks of the dense substrates (plain
//!   `Instant`-timed mains; no criterion, the workspace builds offline).
//!
//! The paper runs N = 1000·g on g×g grids (N up to 96,000 on 96×96). On
//! this simulated machine the default is N = `FT_BENCH_SCALE`·g (scale
//! defaults to 192) on g×g for g ∈ `FT_BENCH_GRIDS` (default `2,3,4,6,8`),
//! with `FT_BENCH_REPS` repetitions (default 2, minimum taken).
//!
//! Benches that feed plots additionally write machine-readable
//! `BENCH_<name>.json` artifacts at the repo root (see [`json`] and
//! EXPERIMENTS.md for the schema).

use ft_dense::counters;
use ft_dense::gen::uniform_entry;
use ft_hess::{failpoint, ft_pdgehrd, Encoded, FtReport, Phase, Variant};
use ft_pblas::{pdgehrd, Desc, DistMatrix};
use ft_runtime::{run_spmd, FaultScript};
use std::time::Instant;

/// One benchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Process rows.
    pub p: usize,
    /// Process columns.
    pub q: usize,
    /// Matrix dimension.
    pub n: usize,
    /// Blocking factor / panel width.
    pub nb: usize,
}

impl Config {
    /// `P·Q`.
    pub fn procs(&self) -> usize {
        self.p * self.q
    }

    /// `"PxQ"`.
    pub fn grid_label(&self) -> String {
        format!("{}x{}", self.p, self.q)
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Repetitions per measurement (`FT_BENCH_REPS`, default 2).
pub fn reps() -> usize {
    env_usize("FT_BENCH_REPS", 2).max(1)
}

/// Default blocking factor (`FT_BENCH_NB`, default 16; the paper uses
/// NB = 80 at its much larger N).
pub fn default_nb() -> usize {
    env_usize("FT_BENCH_NB", 16)
}

/// The grid sweep mimicking the paper's Figure 6/7 x-axis: square grids
/// with N proportional to the grid dimension.
pub fn paper_sweep() -> Vec<Config> {
    let scale = env_usize("FT_BENCH_SCALE", 192);
    let nb = default_nb();
    let grids: Vec<usize> = std::env::var("FT_BENCH_GRIDS")
        .unwrap_or_else(|_| "2,3,4,6,8".into())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    grids
        .into_iter()
        .map(|g| {
            // Round N to a multiple of nb (the encoder requires it).
            let n = (scale * g).div_ceil(nb) * nb;
            Config { p: g, q: g, n, nb }
        })
        .collect()
}

/// Flops of the reduction, `10/3·N³` (the count the paper's GFLOPS use).
pub fn hess_flops(n: usize) -> f64 {
    10.0 / 3.0 * (n as f64).powi(3)
}

/// One fault-*intolerant* `pdgehrd` run: `(seconds, counted flops)`.
pub fn time_plain(cfg: Config, seed: u64) -> (f64, u64) {
    let Config { p, q, n, nb } = cfg;
    counters::reset_flops();
    let t = Instant::now();
    run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        pdgehrd(&ctx, &mut a, &mut tau);
    });
    (t.elapsed().as_secs_f64(), counters::flops())
}

/// One fault-tolerant run: `(seconds, counted flops, rank-0 report)`.
/// `fail` injects a single failure at `(panel, phase, victim)`.
pub fn time_ft(cfg: Config, seed: u64, variant: Variant, fail: Option<(usize, Phase, usize)>) -> (f64, u64, FtReport) {
    let Config { p, q, n, nb } = cfg;
    let script = match fail {
        Some((panel, phase, victim)) => FaultScript::one(victim, failpoint(panel, phase)),
        None => FaultScript::none(),
    };
    counters::reset_flops();
    let t = Instant::now();
    let reports = run_spmd(p, q, script, move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        ft_pdgehrd(&ctx, &mut enc, variant, &mut tau).expect("within the fault model")
    });
    (t.elapsed().as_secs_f64(), counters::flops(), reports.into_iter().next().unwrap())
}

/// Minimum over `runs` evaluations of `f` — the usual noise filter on a
/// shared machine.
pub fn best_of(runs: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    (0..runs).map(&mut f).fold(f64::INFINITY, f64::min)
}

/// Number of panel iterations of an `n`/`nb` reduction (for placing
/// failures mid-run).
pub fn panel_count(n: usize, nb: usize) -> usize {
    let mut c = 0;
    let mut k = 0;
    while k + 2 < n {
        k += nb.min(n - 2 - k);
        c += 1;
    }
    c
}

/// Print one Figure 6/7-style row: effective GFLOP/s on both sides, the
/// wall-clock penalty (noisy on the oversubscribed simulator) and the
/// counted-flop penalty (deterministic — the clean trend signal).
pub fn print_overhead_row(cfg: Config, t_plain: f64, t_ft: f64, f_plain: u64, f_ft: u64) {
    let gf_plain = hess_flops(cfg.n) / t_plain / 1e9;
    let gf_ft = hess_flops(cfg.n) / t_ft / 1e9;
    let penalty = (t_ft - t_plain) / t_plain * 100.0;
    let fpenalty = (f_ft as f64 - f_plain as f64) / f_plain as f64 * 100.0;
    println!(
        "{:>6}  {:>7}  {:>10.3}  {:>10.3}  {:>11.2}  {:>11.2}",
        cfg.grid_label(),
        cfg.n,
        gf_plain,
        gf_ft,
        penalty,
        fpenalty
    );
}

/// Header matching [`print_overhead_row`].
pub fn print_overhead_header(ft_name: &str) {
    println!(
        "{:>6}  {:>7}  {:>10}  {:>10}  {:>11}  {:>11}",
        "grid",
        "N",
        "Hess GF/s",
        format!("{ft_name} GF/s"),
        "wall pen %",
        "flop pen %"
    );
}

/// One overhead row as a JSON object (the machine-readable twin of
/// [`print_overhead_row`]).
pub fn overhead_row_json(cfg: Config, t_plain: f64, t_ft: f64, f_plain: u64, f_ft: u64) -> String {
    json::Obj::new()
        .str("grid", &cfg.grid_label())
        .int("n", cfg.n as u64)
        .int("nb", cfg.nb as u64)
        .num("gflops_plain", hess_flops(cfg.n) / t_plain / 1e9)
        .num("gflops_ft", hess_flops(cfg.n) / t_ft / 1e9)
        .num("seconds_plain", t_plain)
        .num("seconds_ft", t_ft)
        .int("flops_plain", f_plain)
        .int("flops_ft", f_ft)
        .num("wall_penalty_pct", (t_ft - t_plain) / t_plain * 100.0)
        .num("flop_penalty_pct", (f_ft as f64 - f_plain as f64) / f_plain as f64 * 100.0)
        .finish()
}

/// Minimal JSON serialization for the `BENCH_*.json` artifacts. The
/// workspace builds offline with zero external crates, so no serde; the
/// schema is flat enough that a string builder is all we need.
pub mod json {
    use std::io::Write as _;
    use std::path::PathBuf;

    /// Incremental JSON object builder. Keys must be plain identifiers
    /// (no escaping is performed on keys); string *values* are escaped.
    #[derive(Debug, Default)]
    pub struct Obj {
        buf: String,
    }

    impl Obj {
        /// Start an empty object.
        pub fn new() -> Self {
            Self::default()
        }

        fn key(&mut self, k: &str) {
            if !self.buf.is_empty() {
                self.buf.push(',');
            }
            self.buf.push('"');
            self.buf.push_str(k);
            self.buf.push_str("\":");
        }

        /// Append a float field (`null` if non-finite — JSON has no NaN).
        pub fn num(mut self, k: &str, v: f64) -> Self {
            self.key(k);
            if v.is_finite() {
                self.buf.push_str(&format!("{v}"));
            } else {
                self.buf.push_str("null");
            }
            self
        }

        /// Append an integer field.
        pub fn int(mut self, k: &str, v: u64) -> Self {
            self.key(k);
            self.buf.push_str(&v.to_string());
            self
        }

        /// Append a string field (value is escaped).
        pub fn str(mut self, k: &str, v: &str) -> Self {
            self.key(k);
            self.buf.push('"');
            for c in v.chars() {
                match c {
                    '"' => self.buf.push_str("\\\""),
                    '\\' => self.buf.push_str("\\\\"),
                    '\n' => self.buf.push_str("\\n"),
                    c if (c as u32) < 0x20 => self.buf.push_str(&format!("\\u{:04x}", c as u32)),
                    c => self.buf.push(c),
                }
            }
            self.buf.push('"');
            self
        }

        /// Append an already-serialized JSON value (nested object/array).
        pub fn raw(mut self, k: &str, v: &str) -> Self {
            self.key(k);
            self.buf.push_str(v);
            self
        }

        /// Close the object.
        pub fn finish(self) -> String {
            format!("{{{}}}", self.buf)
        }
    }

    /// Serialize already-serialized items as a JSON array.
    pub fn array(items: &[String]) -> String {
        format!("[{}]", items.join(","))
    }

    /// Repo-root path of a `BENCH_*.json` artifact (resolved relative to
    /// this crate, so it lands at the root regardless of the bench
    /// binary's working directory).
    pub fn artifact_path(file: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(file)
    }

    /// Write `content` (one serialized JSON value) to the repo-root
    /// artifact `file`, with a trailing newline. A bench's trimmed `smoke`
    /// run is not the committed measurement: its JSON lands in the cargo
    /// target directory instead.
    pub fn write_artifact(file: &str, content: &str, smoke: bool) -> std::io::Result<PathBuf> {
        let path = if smoke {
            let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
            let dir = artifact_path("").join(target);
            std::fs::create_dir_all(&dir)?;
            dir.join(file)
        } else {
            artifact_path(file)
        };
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{content}")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_nonempty_and_divisible() {
        for cfg in paper_sweep() {
            assert!(cfg.n % cfg.nb == 0);
            assert!(cfg.p >= 2 && cfg.q >= 2);
        }
    }

    #[test]
    fn panel_count_matches_loop() {
        assert_eq!(panel_count(12, 2), 5);
        assert_eq!(panel_count(16, 4), 4); // panels at 0, 4, 8 and ragged 12
    }

    #[test]
    fn json_builder_escapes_and_nests() {
        let row = json::Obj::new().str("k", "a\"b\\c").num("x", 1.5).int("n", 7).finish();
        assert_eq!(row, "{\"k\":\"a\\\"b\\\\c\",\"x\":1.5,\"n\":7}");
        let top = json::Obj::new().raw("rows", &json::array(&[row])).num("bad", f64::NAN).finish();
        assert!(top.contains("\"bad\":null"));
        assert!(top.starts_with("{\"rows\":[{"));
    }

    #[test]
    fn artifact_path_is_repo_root() {
        let p = json::artifact_path("BENCH_kernels.json");
        assert!(p.ends_with("../../BENCH_kernels.json"));
    }
}
