//! `suite`: the benchmark's one command.
//!
//! ```text
//! suite --workload <name|all> [--seed <u64>] [--seconds <n>] [--trace [0|1]]
//!       [--smoke] [--out <json>] [--trace-out <jsonl>]
//! suite --compare <A.json> <B.json>
//! ```
//!
//! Prints every metric of the run by name with its unit, then — as the last
//! line of stdout — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 0 when every check passed, 1 on a failed check or
//! failed operation (the result line is still printed), 2 on bad usage or a
//! harness that could not run (no result line).

use ft_benchsuite::e2e::RunCfg;
use ft_benchsuite::json::Value;
use ft_benchsuite::report::Report;
use ft_benchsuite::serve::build_daemon_binary;
use ft_benchsuite::workloads::{find, Workload, WORKLOADS};
use ft_benchsuite::{compare, e2e, layers};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: suite --workload <name|all> [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--smoke] \
                     [--out <json>] [--trace-out <jsonl>]\n       suite --compare <A.json> <B.json>";

struct Args {
    workloads: Vec<Workload>,
    cfg: RunCfg,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        cfg: RunCfg { seed: 1, seconds: 22.0, smoke: false, daemon: None },
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workloads = match name.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    one => vec![find(one).ok_or_else(|| format!("unknown workload '{one}'"))?],
                };
            }
            "--seed" => parsed.cfg.seed = value("--seed")?.parse().map_err(|_| "--seed: not a u64".to_string())?,
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|_| "--seconds: not a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds: must be in (0, 600]".into());
                }
                parsed.cfg.seconds = s;
            }
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` / `--trace 1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => parsed.cfg.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if parsed.trace_out.is_some() && parsed.workloads.len() > 1 {
        return Err("--trace-out names one file: use it with one workload".into());
    }
    Ok(parsed)
}

fn run(mut args: Args) -> Result<bool, String> {
    if args.workloads.iter().any(|w| w.serve.is_some()) {
        args.cfg.daemon = Some(build_daemon_binary()?);
    }
    // One OS thread per rank and nothing else: in-rank GEMM threading off.
    ft_dense::pool::set_threads_override(Some(1));
    let mut reports: Vec<Report> = Vec::new();
    for w in &args.workloads {
        let w = if args.cfg.smoke { w.smoke() } else { *w };
        let report = if args.trace {
            let path = args.trace_out.clone().unwrap_or_else(|| layers::default_trace_path(w.name));
            layers::run(&w, &args.cfg, &path)?
        } else {
            e2e::run(&w, &args.cfg)?
        };
        report.print();
        println!("{}", report.result_line());
        reports.push(report);
    }
    if let Some(path) = &args.out {
        let doc = Value::obj([
            ("machine", layers::machine_json()),
            ("trace", Value::Bool(args.trace)),
            ("workloads", Value::obj(reports.iter().map(|r| (r.workload, r.to_json())))),
        ]);
        std::fs::write(path, doc.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(reports.iter().all(Report::correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [flag, a, b] if flag == "--compare" => compare::run(a, b),
        _ => parse_args(&args).map_err(|e| format!("{e}\n{USAGE}")).and_then(run),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(2)
        }
    }
}
