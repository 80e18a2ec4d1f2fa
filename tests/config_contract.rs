//! Configuration-contract battery: every malformed knob — a flag of any
//! verb or an `FT_*` environment variable, each a row of the one knob table
//! — must die as a *usage error* (exit 2) with a diagnostic naming the
//! offending knob, before any socket work starts and without ever
//! panicking. The launcher checks the environment precisely so these
//! failures happen once, in the parent, instead of as four cryptic child
//! crashes.

use abft_hessenberg::knobs::{Verb, DIR, KNOBS};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_abft-hessenberg");

struct Out {
    status: i32,
    stdout: String,
    stderr: String,
}

/// Run the binary with `args` and extra environment, capturing exit
/// status and stderr. All cases here must fail during argument/config
/// resolution, so no wall-clock guard beyond the harness default is
/// needed — a hang would itself be the bug.
fn run(args: &[&str], envs: &[(&str, &str)]) -> Out {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn binary");
    Out {
        status: out.status.code().unwrap_or(-1),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

const DIST: &[&str] = &["--distributed", "--grid", "2x2", "--n", "32", "--nb", "8"];

/// Assert the exit-2 contract: usage error, diagnostic names the knob,
/// and the process never panicked its way out.
fn assert_usage_error(o: &Out, needle: &str, what: &str) {
    assert_eq!(o.status, 2, "{what}: expected exit 2, got {} — stderr:\n{}", o.status, o.stderr);
    assert!(o.stderr.contains(needle), "{what}: diagnostic should mention '{needle}' — stderr:\n{}", o.stderr);
    assert!(!o.stderr.contains("panicked"), "{what}: config errors must not panic — stderr:\n{}", o.stderr);
}

#[test]
fn zero_heartbeat_interval_env_is_a_usage_error() {
    let o = run(DIST, &[("FT_HB_INTERVAL_MS", "0")]);
    assert_usage_error(&o, "FT_HB_INTERVAL_MS", "zero hb interval");
}

#[test]
fn garbage_heartbeat_interval_env_is_a_usage_error() {
    let o = run(DIST, &[("FT_HB_INTERVAL_MS", "fast")]);
    assert_usage_error(&o, "FT_HB_INTERVAL_MS", "non-numeric hb interval");
}

#[test]
fn zero_grace_beats_env_is_a_usage_error() {
    let o = run(DIST, &[("FT_HB_GRACE_BEATS", "0")]);
    assert_usage_error(&o, "FT_HB_GRACE_BEATS", "zero grace beats");
}

/// One grammar, one parser: a malformed `--faults` is an exit-2 usage
/// error naming the flag and the item, and the in-process driver and the
/// `--distributed` launcher print the identical message.
#[test]
fn malformed_chaos_flag_is_a_usage_error() {
    for (spec, what) in [
        ("bogus", "spec without a numeric seed"),
        ("9:", "spec empty after seed"),
        ("9:drop=2.0", "drop probability above 1"),
        ("9:drop=minus-one", "non-numeric probability"),
        ("9:warp=0.5", "unknown fault kind"),
        ("9:part=1-1@0", "self-link partition"),
        ("9:part=0-1@0+0", "zero-duration partition"),
        ("9:kill=many", "non-numeric kill count"),
        ("9:at=1@r0:3", "recovery round 0"),
    ] {
        let mut args = DIST.to_vec();
        args.extend_from_slice(&["--faults", spec]);
        let launcher = run(&args, &[]);
        assert_usage_error(&launcher, "--faults", what);
        let driver = run(&["--grid", "2x2", "--n", "32", "--nb", "8", "--faults", spec], &[]);
        assert_usage_error(&driver, "--faults", what);
        assert_eq!(driver.stderr, launcher.stderr, "{what}: driver and launcher word the error differently");
    }
}

/// The one parser knows the world size: a rank outside the grid is a usage
/// error wherever it is named — decided in the launcher, before any child
/// is spawned. (`--net-chaos 7:part=0-9@0` used to run clean, the
/// partition silently inert.)
#[test]
fn out_of_grid_rank_references_are_usage_errors() {
    for item in ["at=9@10", "at=4@r1:0", "part=0-9@0", "part=9-0@0+100"] {
        let spec = format!("7:{item}");
        let mut args = DIST.to_vec();
        args.extend_from_slice(&["--faults", &spec]);
        let o = run(&args, &[]);
        assert_usage_error(&o, item, &format!("out-of-grid {item}"));
        assert!(o.stderr.contains("outside the 4-rank grid"), "{item}: {}", o.stderr);
        assert!(!o.stdout.contains("FT_RANK_SPAWN"), "{item}: a rank was spawned — stdout:\n{}", o.stdout);
    }
}

/// `--faults` is the only injector knob: the four flags it replaced are
/// unknown arguments, and the retired wire-fault environment variable
/// (spelled in two pieces here so a grep for it over the tree stays empty)
/// is read by nothing — a malformed value used to stop the launcher with
/// exit 2. Heartbeats are set by `FT_HB_*` alone, the connect budget is the
/// transport's default and `serve` has no batch width: their flags are
/// unknown arguments of the driver and of `serve` alike.
#[test]
fn removed_injector_flags_and_env_are_gone() {
    for (flag, val) in [
        ("--chaos", "5:2"),
        ("--sdc", "7:1"),
        ("--kill-at", "3@120"),
        ("--net-chaos", "9:drop=0.1"),
        ("--hb-interval-ms", "50"),
        ("--hb-miss-limit", "20"),
        ("--conn-timeout-ms", "10000"),
    ] {
        let mut args = DIST.to_vec();
        args.extend_from_slice(&[flag, val]);
        let o = run(&args, &[]);
        assert_usage_error(&o, &format!("unknown argument '{flag}'"), flag);
    }
    for (flag, val) in [
        ("--batch-max", "4"),
        ("--hb-interval-ms", "50"),
        ("--hb-miss-limit", "20"),
        ("--conn-timeout-ms", "10000"),
    ] {
        let o = run(&["serve", "--pool", "1", flag, val], &[]);
        assert_usage_error(&o, &format!("unknown argument '{flag}'"), &format!("serve {flag}"));
    }
    let retired = concat!("FT_NET", "_CHAOS");
    let o = run(
        &["--distributed", "--grid", "1x2", "--n", "32", "--nb", "8", "--verify"],
        &[(retired, "9:warp=0.5")],
    );
    assert_eq!(o.status, 0, "{retired} must have no effect — stderr:\n{}", o.stderr);
    assert!(o.stdout.contains("verification passed"), "{}", o.stdout);
}

#[test]
fn chaos_flag_without_distributed_is_a_usage_error() {
    let o = run(&["--n", "32", "--faults", "9:drop=0.1"], &[]);
    assert_usage_error(&o, "--distributed", "wire faults without --distributed");
}

/// The cross-checks between `--faults` items and the run's mode keep their
/// exit-2 contract.
#[test]
fn fault_items_are_checked_against_the_run_mode() {
    let o = run(&["--n", "32", "--variant", "plain", "--faults", "1:kill=1"], &[]);
    assert_usage_error(&o, "--variant alg2 or alg3", "kill= without an ABFT variant");
    let o = run(&["--n", "32", "--variant", "cr", "--faults", "1:flip=1"], &[]);
    assert_usage_error(&o, "--variant alg2 or alg3", "flip= without an ABFT variant");
    let mut args = DIST.to_vec();
    args.extend_from_slice(&["--faults", "1:flip=1"]);
    let o = run(&args, &[]);
    assert_usage_error(&o, "flip=", "flip= with --distributed");
}

/// The environment overlay must hit the *launcher* before any child is
/// spawned: a bad config produces exactly one diagnostic, not one per
/// rank, and no `FT_RANK_SPAWN` marker ever appears.
#[test]
fn bad_config_dies_in_the_launcher_before_spawning_ranks() {
    let o = run(DIST, &[("FT_HB_GRACE_BEATS", "0")]);
    assert_eq!(o.status, 2);
    assert!(
        !o.stdout.contains("FT_RANK_SPAWN"),
        "no rank may be spawned under a rejected config — stdout:\n{}",
        o.stdout
    );
}

/// `FT_RECV_TIMEOUT_MS` is a positive number of milliseconds. Garbage used
/// to fall back to 120 s silently, and `0` timed out the first empty poll of
/// a fault-free run ("SPMD protocol deadlock"). Now both are the same exit-2
/// usage error from the in-process driver, the launcher (before any rank is
/// spawned) and `serve`.
#[test]
fn bad_recv_timeout_env_is_a_usage_error_everywhere() {
    for bad in ["abc", "0"] {
        let env = [("FT_RECV_TIMEOUT_MS", bad)];
        let driver = run(&["--grid", "1x2", "--n", "32", "--nb", "8"], &env);
        assert_usage_error(&driver, "FT_RECV_TIMEOUT_MS", &format!("driver, {bad}"));
        let launcher = run(DIST, &env);
        assert_usage_error(&launcher, "FT_RECV_TIMEOUT_MS", &format!("launcher, {bad}"));
        assert!(
            !launcher.stdout.contains("FT_RANK_SPAWN"),
            "{bad}: a rank was spawned — stdout:\n{}",
            launcher.stdout
        );
        assert_eq!(driver.stderr, launcher.stderr, "{bad}: driver and launcher word the error differently");
        let serve = run(&["serve", "--pool", "1"], &env);
        assert_usage_error(&serve, "FT_RECV_TIMEOUT_MS", &format!("serve, {bad}"));
    }
    let ok = run(&["--grid", "1x2", "--n", "32", "--nb", "8", "--verify"], &[("FT_RECV_TIMEOUT_MS", "60000")]);
    assert_eq!(ok.status, 0, "a valid value must run as before — stderr:\n{}", ok.stderr);
    assert!(ok.stdout.contains("verification passed"), "{}", ok.stdout);
}

/// The shape flags (`--n/--nb/--grid/--solver/--variant/--redundancy/
/// --seed`) go through one parser for the driver and for `submit`: the
/// same malformed value is the same exit-2 usage error from either verb,
/// decided locally — `submit` never ships a spec the daemon (or, worse,
/// its workers) would have to refuse.
#[test]
fn submit_and_driver_reject_the_same_shape_flags() {
    for (bad, needle, what) in [
        (&["--redundancy", "0"][..], "--redundancy", "zero redundancy"),
        (&["--redundancy", "lots"][..], "--redundancy", "non-numeric redundancy"),
        (&["--grid", "4"][..], "--grid", "grid without x"),
        (&["--grid", "0x2"][..], "--grid", "empty grid"),
        (&["--solver", "lu"][..], "--solver", "unknown solver"),
        (&["--variant", "alg9"][..], "--variant", "unknown variant"),
        (&["--n", "many"][..], "--n", "non-numeric n"),
        (&["--nb", "0"][..], "--nb", "zero nb"),
        (&["--seed"][..], "--seed", "missing value"),
    ] {
        let driver = run(bad, &[]);
        assert_usage_error(&driver, needle, &format!("driver: {what}"));
        // No daemon listens on the port: a usage error must win before any
        // connect is attempted (a connect failure would be exit 3).
        let mut args = vec!["submit", "--port", "1"];
        args.extend_from_slice(bad);
        let submit = run(&args, &[]);
        assert_usage_error(&submit, needle, &format!("submit: {what}"));
        assert_eq!(driver.stderr, submit.stderr, "{what}: the two verbs word the error differently");
    }
}

/// The driver refuses a grid too narrow for the redundancy before running
/// anything (`Redundancy::min_q`); `dual` is a spelling of `2`. (`submit`
/// leaves this cross-field check to the daemon's admission control —
/// `bad-request`, see `tests/serve_storm.rs`.)
#[test]
fn under_width_redundancy_is_a_driver_usage_error() {
    for red in ["2", "dual"] {
        let o = run(&["--grid", "1x2", "--redundancy", red], &[]);
        assert_usage_error(&o, "Q >= 4", &format!("--grid 1x2 --redundancy {red}"));
    }
    let o = run(&["--grid", "1x5", "--redundancy", "3"], &[]);
    assert_usage_error(&o, "Q >= 6", "--grid 1x5 --redundancy 3");
}

/// `submit` runs ABFT jobs only: the driver's non-ABFT variants parse (one
/// parser) but are a usage error for this verb.
#[test]
fn submit_rejects_non_abft_variants_as_usage_errors() {
    for variant in ["plain", "cr"] {
        let o = run(&["submit", "--port", "1", "--variant", variant], &[]);
        assert_usage_error(&o, "--variant", &format!("submit --variant {variant}"));
    }
}

/// A command line on which `verb` gets as far as its checks: the driver's
/// smallest run, a one-slot pool, a worker of a daemon nobody runs.
fn verb_line(verb: Verb) -> Vec<&'static str> {
    match verb {
        Verb::Run => vec!["--grid", "1x2", "--n", "32", "--nb", "8"],
        Verb::Serve => vec!["serve", "--pool", "1"],
        Verb::Submit => vec!["submit", "--port", "1"],
        Verb::Worker => vec!["serve-worker", "--connect-port", "1", "--slot", "0"],
    }
}

/// The table drives every check: each row that takes a value, given a
/// malformed one on each verb it belongs to — a flag on the command line,
/// a variable in the environment — is the exit-2 usage error naming it,
/// decided before any rank, socket or daemon exists. (`FT_GEMM_ISA=bogus`
/// used to panic in the first GEMM, exit 101.)
#[test]
fn every_knob_rejects_a_malformed_value_on_each_of_its_verbs() {
    let mut checked = 0;
    for k in KNOBS {
        for verb in Verb::ALL.into_iter().filter(|&v| k.on(v)) {
            let mut args = verb_line(verb);
            let bad = if k.kind.metavar == DIR.metavar { "" } else { "bogus" };
            let o = match (k.kind.metavar, k.is_env()) {
                ("", _) => continue,
                (_, true) => run(&args, &[(k.name, bad)]),
                (_, false) => {
                    args.extend_from_slice(&[k.name, bad]);
                    run(&args, &[])
                }
            };
            assert_usage_error(&o, k.name, &format!("{} {}", verb.name(), k.name));
            assert!(!o.stdout.contains("FT_RANK_SPAWN"), "{}: a rank was spawned", k.name);
            checked += 1;
        }
    }
    assert!(checked >= 40, "only {checked} (row, verb) pairs take a value");
}

/// A flag given to a verb it does not belong to is a usage error naming
/// that verb, for every flag of the table.
#[test]
fn a_flag_of_another_verb_is_a_usage_error() {
    for k in KNOBS.iter().filter(|k| !k.is_env()) {
        let taken = |v: Verb| KNOBS.iter().any(|o| o.name == k.name && o.on(v));
        for verb in Verb::ALL.into_iter().filter(|&v| !taken(v)) {
            let mut args = verb_line(verb);
            args.extend_from_slice(&[k.name, "1"]);
            let o = run(&args, &[]);
            let needle = format!("{} is not a {} flag", k.name, verb.name());
            assert_usage_error(&o, &needle, &format!("{} {}", verb.name(), k.name));
        }
    }
}

/// Each verb's `--help` is its rows of the table, and exits 0.
#[test]
fn every_verb_prints_its_rows_as_help() {
    for verb in Verb::ALL {
        let mut args = verb_line(verb)[..usize::from(verb != Verb::Run)].to_vec();
        args.push("--help");
        let o = run(&args, &[]);
        assert_eq!(o.status, 0, "{} --help: {}", verb.name(), o.stderr);
        for k in KNOBS.iter().filter(|k| k.on(verb)) {
            assert!(o.stdout.contains(k.name), "{} --help lacks {}:\n{}", verb.name(), k.name, o.stdout);
        }
    }
}

/// README's run, environment, `serve` and `submit` tables list exactly the
/// table's public rows, one knob a row.
#[test]
fn readme_tables_list_exactly_the_public_rows() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    for (header, verb, env) in [
        ("| flag | meaning |", Verb::Run, false),
        ("| env var | meaning |", Verb::Run, true),
        ("| `serve` flag | meaning |", Verb::Serve, false),
        ("| `submit` flag | meaning |", Verb::Submit, false),
    ] {
        let at = readme.find(header).unwrap_or_else(|| panic!("README has no '{header}' table"));
        let mut listed: Vec<&str> = readme[at..]
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.trim_start_matches("| `").split([' ', '`']).next().unwrap())
            .collect();
        let mut public: Vec<&str> = KNOBS
            .iter()
            .filter(|k| k.on(verb) && !k.internal && k.is_env() == env)
            .map(|k| k.name)
            .collect();
        listed.sort_unstable();
        public.sort_unstable();
        assert_eq!(listed, public, "README table '{header}'");
    }
}
