//! What the benches share: the one smoke switch, the shapes they run on the
//! repo benchmark's legs, and their rows — printed, then written as an
//! artifact. Each bench uses its own subset.
#![allow(dead_code)]

use ft_benchsuite::e2e::{self, RunCfg};
use ft_benchsuite::json::Value;
use ft_benchsuite::report::Report;
use ft_benchsuite::samples::Samples;
use ft_benchsuite::spmd::{Fabric, Shape, Solver};
use ft_benchsuite::workloads::Workload;
use std::path::PathBuf;

/// `FT_BENCH_SMOKE=1`: the trimmed CI run of a bench, whose JSON lands under
/// the cargo target directory instead of over the committed artifact.
pub fn smoke() -> bool {
    std::env::var("FT_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A Hessenberg reduction on the in-process mpsc fabric.
pub const fn hess(p: usize, q: usize, n: usize, nb: usize) -> Shape {
    Shape { solver: Solver::Hess, p, q, n, nb, fabric: Fabric::Mpsc }
}

/// `e2e::run` on a workload of `shape`: the verified warm-up, then reps of
/// the plain, ft, delayed and recover legs.
pub fn e2e(shape: Shape, cfg: &RunCfg) -> Report {
    let workload = Workload { name: "ft-bench", why: "", shape, serve: None };
    e2e::run(&workload, cfg).expect("in-process legs need no daemon")
}

/// `{n, q1, median, q3}` of a series.
pub fn series(s: &Samples) -> Value {
    Value::obj([("n", s.n() as f64), ("q1", s.q1()), ("median", s.median()), ("q3", s.q3())].map(|(k, v)| (k, Value::Num(v))))
}

/// Print `rows` under `title`, a row a line with each series by its median,
/// and hand them back as one JSON array.
pub fn section(title: &str, rows: Vec<Value>) -> Value {
    println!("\n# {title}");
    let cell = |v: &Value| match v.get("median").unwrap_or(v) {
        Value::Num(x) if x.fract() == 0.0 => Some(x.to_string()),
        Value::Num(x) => Some(format!("{x:.4}")),
        other => other.as_str().map(str::to_string),
    };
    for row in &rows {
        let cells: Vec<String> = row
            .members()
            .iter()
            .filter_map(|(k, v)| Some(format!("{k} {}", cell(v)?)))
            .collect();
        println!("  {}", cells.join("  "));
    }
    Value::Arr(rows)
}

/// Write `doc` as `file` at the repo root — under the target directory on a
/// smoke run — and say where.
pub fn write_artifact(file: &str, doc: &Value, smoke: bool) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = if smoke { root.join(target) } else { root };
    let path = dir.join(file);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_json() + "\n"));
    if let Err(e) = written {
        eprintln!("FAIL: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("# wrote {}", path.display());
}
