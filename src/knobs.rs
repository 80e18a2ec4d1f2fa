//! The one table of `abft-hessenberg`'s knobs: every flag of its four verbs
//! and every `FT_*` environment variable the crates read. Parsing, every
//! usage error (exit 2), the environment check at startup and each verb's
//! `--help` read [`KNOBS`]; no other place declares a knob.
//!
//! Liveness is configured once a job, by the environment (`FT_HB_*`), as
//! the paper leaves failure detection to the run-time system: launcher
//! children, adopted ranks and serve workers inherit it.

use crate::dense::simd::isa_env;
use crate::hess::{failpoint, solver_by_name, FtSolver, Phase, Redundancy, Variant};
use crate::runtime::{recv_timeout_env, PlannedFailure, TcpConfig};
use std::str::FromStr;

/// A verb of the binary. `run`, the one-shot driver, is the one without a
/// verb word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Run,
    Serve,
    Submit,
    Worker,
}

impl Verb {
    pub const ALL: [Verb; 4] = [Verb::Run, Verb::Serve, Verb::Submit, Verb::Worker];

    pub fn name(self) -> &'static str {
        ["run", "serve", "submit", "serve-worker"][self as usize]
    }

    const fn bit(self) -> u8 {
        1 << self as u8
    }
}

const RUN: u8 = Verb::Run.bit();
const SERVE: u8 = Verb::Serve.bit();
const SUBMIT: u8 = Verb::Submit.bit();
const WORKER: u8 = Verb::Worker.bit();
/// Every verb that runs a solver or a fabric, so reads the environment.
const RANKS: u8 = RUN | SERVE | WORKER;

/// The driver's `--variant`: an ABFT variant or one of the two baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Plain,
    Alg2,
    Alg3,
    Cr,
}

impl Mode {
    /// The ABFT variant this mode runs, if it is one.
    pub fn variant(self) -> Option<Variant> {
        match self {
            Mode::Alg2 => Some(Variant::NonDelayed),
            Mode::Alg3 => Some(Variant::Delayed),
            Mode::Plain | Mode::Cr => None,
        }
    }
}

/// What a knob's value is: its placeholder in `--help` — empty for a flag
/// without a value, and for a variable whose presence is its value — and
/// its check. A flag's check runs while parsing; a variable's is its
/// owner's parser, which reads the environment itself, run at startup.
#[derive(Clone, Copy)]
pub struct Kind {
    pub metavar: &'static str,
    check: fn(&str) -> Result<(), String>,
}

const SWITCH: Kind = Kind { metavar: "", check: |_| Ok(()) };
const COUNT: Kind = Kind { metavar: " <N>", check: |v| count(v).map(drop) };
const INT: Kind = Kind { metavar: " <N>", check: |v| num::<u64>(v).map(drop) };
const PORT: Kind = Kind { metavar: " <PORT>", check: |v| num::<u16>(v).map(drop) };
const FLOAT: Kind = Kind { metavar: " <X>", check: |v| num::<f64>(v).map(drop) };
const GRID: Kind = Kind { metavar: " <PxQ>", check: |v| grid(v).map(drop) };
const SOLVER: Kind = Kind { metavar: " <NAME>", check: |v| solver(v).map(drop) };
const VARIANT: Kind = Kind { metavar: " <NAME>", check: |v| mode(v).map(drop) };
const REDUNDANCY: Kind = Kind { metavar: " <NAME>", check: |v| redundancy(v).map(drop) };
const FAIL: Kind = Kind { metavar: " <P:PH:R>", check: |v| fail_point(v).map(drop) };
/// Its grammar needs the grid: `FaultScript::parse` checks it once the
/// shape is known.
const FAULTS: Kind = Kind { metavar: " <SEED[:ITEM,...]>", check: |_| Ok(()) };
const LIST: Kind = Kind { metavar: " <I,J,...>", check: |v| list(v).map(drop) };
/// A directory, created if it is missing.
pub const DIR: Kind = Kind {
    metavar: " <DIR>",
    check: |v| if v.is_empty() { Err("names no directory".into()) } else { Ok(()) },
};
const TCP_ENV: Kind = Kind {
    metavar: "=<N>",
    check: |_| {
        let mut cfg = TcpConfig::new(0, 2);
        cfg.apply_env()?;
        cfg.validate()
    },
};
const RECV_ENV: Kind = Kind { metavar: "=<MS>", check: |_| recv_timeout_env().map(drop) };
const ISA_ENV: Kind = Kind { metavar: "=<NAME>", check: |_| isa_env().map(drop) };

/// One knob: a flag of one or more verbs, or an `FT_*` variable.
pub struct Knob {
    pub name: &'static str,
    verbs: u8,
    pub kind: Kind,
    /// `"512"`, or per verb where they differ: `"512, submit 64"`; empty
    /// when the knob has none.
    default: &'static str,
    pub help: &'static str,
    /// A flag this one is meaningless without.
    pub needs: Option<&'static str>,
    /// Set by the launcher or the daemon, not by hand.
    pub internal: bool,
}

const fn knob(name: &'static str, verbs: u8, kind: Kind, default: &'static str, help: &'static str) -> Knob {
    Knob {
        name,
        verbs,
        kind,
        default,
        help,
        needs: None,
        internal: false,
    }
}

impl Knob {
    const fn needs(self, flag: &'static str) -> Knob {
        Knob { needs: Some(flag), ..self }
    }

    const fn internal(self) -> Knob {
        Knob { internal: true, ..self }
    }

    pub fn on(&self, verb: Verb) -> bool {
        self.verbs & verb.bit() != 0
    }

    pub fn is_env(&self) -> bool {
        self.name.starts_with("FT_")
    }

    /// The default under `verb`, if there is one.
    pub fn default_for(&self, verb: Verb) -> Option<&'static str> {
        let mut parts = self.default.split(", ");
        let first = parts.next().filter(|d| !d.is_empty());
        parts.find_map(|d| d.strip_prefix(verb.name())?.strip_prefix(' ')).or(first)
    }
}

#[rustfmt::skip]
pub static KNOBS: &[Knob] = &[
    knob("--n", RUN | SUBMIT, COUNT, "512, submit 64", "matrix dimension"),
    knob("--nb", RUN | SUBMIT, COUNT, "16, submit 8", "blocking factor (panel width)"),
    knob("--grid", RUN | SUBMIT, GRID, "2x2, submit 1x2", "process grid"),
    knob("--solver", RUN | SUBMIT, SOLVER, "hessenberg", "hessenberg | qr (qr: no cr, no --print-eigs)"),
    knob("--variant", RUN | SUBMIT, VARIANT, "alg2", "plain | alg2 | alg3 | cr (checkpoint/restart); submit: alg2 | alg3"),
    knob("--redundancy", RUN | SUBMIT, REDUNDANCY, "single", "single | F: 2F weighted checksums, F failures a row, Q >= 2F"),
    knob("--seed", RUN | SUBMIT, INT, "2013", "matrix and fault-script seed (submit: job k uses seed + k)"),
    knob("--fail", RUN, FAIL, "", "scripted failure at panel : phase 0-3 : rank (repeatable)"),
    knob("--mtti", RUN, FLOAT, "", "Poisson failures with this MTTI in panels"),
    knob("--faults", RUN, FAULTS, "", "fault script (DESIGN.md §17); items kill=K at=R@OP flip=K, and with --distributed \
        drop=P dup=P reorder=P corrupt=P reset=P delay=P@MS part=A-B@S[+D]"),
    knob("--scrub-every", RUN, COUNT, "", "scrub pass every K panels and scope boundaries (default off; 1 under flip=)"),
    knob("--cr-interval", RUN, COUNT, "8", "checkpoint interval in panels of --variant cr"),
    knob("--verify", RUN, SWITCH, "", "compute the distributed residual afterwards"),
    knob("--distributed", RUN, SWITCH, "", "one OS process per rank over localhost TCP; kills are real SIGKILLs"),
    knob("--print-eigs", RUN, SWITCH, "", "rank 0 prints the eigenvalues of H").needs("--distributed"),
    knob("--port-base", RUN, PORT, "", "listen ports B..B+P*Q-1 (default: probed)").needs("--distributed"),
    knob("--shrink", RUN, SWITCH, "", "a survivor adopts a killed rank instead of a re-spawn").needs("--distributed"),
    knob("--rank", RUN, INT, "", "run as the child process of rank R").needs("--port-base").internal(),
    knob("--respawn", RUN, INT, "0", "the incarnation of a re-spawned rank").needs("--rank").internal(),
    knob("--chaos-fired", RUN, LIST, "", "the scripted kills that already struck").needs("--rank").internal(),
    knob("--pool", SERVE, COUNT, "4", "worker slots (processes) in the pool"),
    knob("--port", SERVE, PORT, "0", "control-plane port; 0 binds an ephemeral one, announced as FT_SERVE_LISTEN"),
    knob("--queue-depth", SERVE, INT, "16", "jobs queued across all tenants before a queue-full reject"),
    knob("--tenant-quota", SERVE, INT, "4", "queued + running jobs per tenant before a quota-exceeded reject"),
    knob("--job-ports", SERVE, PORT, "23000", "base of the 2048-port window job fabrics draw from"),
    knob("--state-dir", SERVE, DIR, "", "persist jobs and checkpoints; on start, unfinished jobs resume"),
    knob("--port", SUBMIT, PORT, "", "the daemon's control port"),
    knob("--tenant", SUBMIT, INT, "0", "tenant id for quota accounting"),
    knob("--count", SUBMIT, INT, "1", "submit K jobs, pipelined on one connection"),
    knob("--ckpt", SUBMIT, SWITCH, "", "checkpoint the job so it survives a whole-pool restart"),
    knob("--shutdown", SUBMIT, SWITCH, "", "drain the pool and exit the daemon"),
    knob("--connect-port", WORKER, PORT, "", "the daemon's control port").internal(),
    knob("--slot", WORKER, INT, "", "this worker's pool slot").internal(),
    knob("FT_HB_INTERVAL_MS", RANKS, TCP_ENV, "100", "TCP heartbeat period in ms"),
    knob("FT_HB_MISS_LIMIT", RANKS, TCP_ENV, "30", "beats of silence before a peer is declared dead"),
    knob("FT_HB_GRACE_BEATS", RANKS, TCP_ENV, "4", "beats of grace after an EOF before a peer is dead, not resuming"),
    knob("FT_RECV_TIMEOUT_MS", RANKS, RECV_ENV, "120000", "deadline of every blocking call: a wedge ends typed, exit 3"),
    knob("FT_GEMM_ISA", RANKS, ISA_ENV, "auto", "scalar | avx2 | avx512 | neon | auto: the GEMM microkernel"),
    knob("FT_DIST_TRACE", RANKS, SWITCH, "", "when set, each rank traces the driver's milestones on stderr"),
];

/// Parse `v` as a `T`.
pub fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad value '{v}'"))
}

fn count(v: &str) -> Result<usize, String> {
    match num(v)? {
        0 => Err("must be at least 1".into()),
        k => Ok(k),
    }
}

/// `PxQ`, both at least 1.
pub fn grid(v: &str) -> Result<(usize, usize), String> {
    let (p, q) = v.split_once(['x', 'X']).ok_or("use PxQ")?;
    match (num(p)?, num(q)?) {
        (0, _) | (_, 0) => Err("P and Q must be at least 1".into()),
        pq => Ok(pq),
    }
}

pub fn solver(v: &str) -> Result<&'static dyn FtSolver, String> {
    solver_by_name(v).ok_or_else(|| format!("unknown '{v}'"))
}

pub fn mode(v: &str) -> Result<Mode, String> {
    match v {
        "plain" => Ok(Mode::Plain),
        "alg2" => Ok(Mode::Alg2),
        "alg3" => Ok(Mode::Alg3),
        "cr" => Ok(Mode::Cr),
        other => Err(format!("unknown '{other}'")),
    }
}

pub fn redundancy(v: &str) -> Result<Redundancy, String> {
    match v {
        "single" => Ok(Redundancy::Single),
        "dual" => Ok(Redundancy::Coded(2)),
        other => match other.parse::<usize>() {
            Ok(f) if f >= 1 => Ok(Redundancy::Coded(f)),
            _ => Err(format!("unknown '{other}' (single | f ≥ 1)")),
        },
    }
}

pub fn fail_point(v: &str) -> Result<PlannedFailure, String> {
    let &[panel, phase, rank] = v.split(':').collect::<Vec<_>>().as_slice() else {
        return Err("use PANEL:PHASE:RANK".into());
    };
    let phase = *Phase::ALL.get(num::<usize>(phase)?).ok_or("phase is 0..=3")?;
    Ok(PlannedFailure { victim: num(rank)?, point: failpoint(num(panel)?, phase) })
}

pub fn list(v: &str) -> Result<Vec<usize>, String> {
    v.split(',').filter(|s| !s.is_empty()).map(num).collect()
}

/// One verb's command line, checked against [`KNOBS`].
pub struct Args {
    pub verb: Verb,
    /// `--help` or `-h` was given: the rest of the line was not read.
    pub help: bool,
    given: Vec<(&'static Knob, String)>,
}

/// Parse `argv` (the words after the verb) for `verb`. Every `Err` is a
/// usage error that names the knob.
pub fn parse(verb: Verb, argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { verb, help: false, given: Vec::new() };
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            args.help = true;
            return Ok(args);
        }
        let named = || KNOBS.iter().filter(|k| k.name == arg && !k.is_env());
        let Some(k) = named().find(|k| k.on(verb)) else {
            return Err(match named().next() {
                Some(_) => format!("{arg} is not a {} flag (see {} --help)", verb.name(), verb.name()),
                None => format!("unknown argument '{arg}'"),
            });
        };
        let v = match k.kind.metavar {
            "" => String::new(),
            _ => argv.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        (k.kind.check)(&v).map_err(|e| format!("{arg}: {e}"))?;
        args.given.push((k, v));
    }
    for (k, _) in &args.given {
        if let Some(flag) = k.needs.filter(|&f| !args.has(f)) {
            return Err(format!("{} needs {flag}", k.name));
        }
    }
    Ok(args)
}

impl Args {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// Every value given for `name`, in order.
    pub fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.given.iter().filter(move |(k, _)| k.name == name).map(|(_, v)| v.as_str())
    }

    /// The last value given for `name`, else its default under this verb,
    /// through `parse`; `None` when there is neither.
    pub fn opt<T>(&self, name: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<Option<T>, String> {
        let default = || KNOBS.iter().find(|k| k.name == name && k.on(self.verb))?.default_for(self.verb);
        let Some(v) = self.all(name).last().or_else(default) else {
            return Ok(None);
        };
        parse(v).map(Some).map_err(|e| format!("{name}: {e}"))
    }

    /// [`Args::opt`] of a knob that must have a value.
    pub fn get<T>(&self, name: &str, parse: impl Fn(&str) -> Result<T, String>) -> Result<T, String> {
        self.opt(name, parse)?.ok_or_else(|| format!("{name} is required"))
    }
}

/// Run every environment parser `verb` reads: a set-but-malformed variable
/// is a usage error before any rank starts.
pub fn check_env(verb: Verb) -> Result<(), String> {
    KNOBS
        .iter()
        .filter(|k| k.on(verb) && k.is_env())
        .try_for_each(|k| (k.kind.check)(""))
}

/// `verb`'s `--help`: its flags, then the environment it reads.
pub fn help(verb: Verb) -> String {
    let word = if verb == Verb::Run { String::new() } else { format!(" {}", verb.name()) };
    let mut out = format!("usage: abft-hessenberg{word} [OPTIONS]\n");
    for env in [false, true] {
        out += if env { "\nenvironment (checked at startup):\n" } else { "\noptions:\n" };
        for k in KNOBS.iter().filter(|k| k.on(verb) && k.is_env() == env) {
            let tag = if k.internal { "internal: " } else { "" };
            let default = k.default_for(verb).map(|d| format!(" (default {d})")).unwrap_or_default();
            // Wrapped at 100 columns, under a 30-column head.
            let mut line = format!("  {:<27} ", format!("{}{}", k.name, k.kind.metavar));
            for word in format!("{tag}{}{default}", k.help).split(' ') {
                if line.len() + word.len() > 100 && line.len() > 30 {
                    out += line.trim_end();
                    line = format!("\n{:30}", "");
                }
                line += word;
                line += " ";
            }
            out += line.trim_end();
            out += "\n";
        }
    }
    out + "\nexit codes: 0 ok, 1 residual above the paper threshold, 2 usage or config, 3 typed rejection\n"
}
