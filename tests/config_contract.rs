//! Configuration-contract battery: every malformed transport knob or fault
//! script — CLI flag or `FT_*` environment variable — must die as a *usage
//! error*
//! (exit 2) with a diagnostic naming the offending knob, before any
//! socket work starts and without ever panicking. The launcher dry-runs
//! the resolved config precisely so these failures happen once, in the
//! parent, instead of as four cryptic child crashes.

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
/// exit 2.
#[test]
fn removed_injector_flags_and_env_are_gone() {
    for (flag, val) in [
        ("--chaos", "5:2"),
        ("--sdc", "7:1"),
        ("--kill-at", "3@120"),
        ("--net-chaos", "9:drop=0.1"),
    ] {
        let mut args = DIST.to_vec();
        args.extend_from_slice(&[flag, val]);
        let o = run(&args, &[]);
        assert_usage_error(&o, &format!("unknown argument '{flag}'"), flag);
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

#[test]
fn zero_cli_heartbeat_interval_is_a_usage_error() {
    let mut args = DIST.to_vec();
    args.extend_from_slice(&["--hb-interval-ms", "0"]);
    let o = run(&args, &[]);
    assert_usage_error(&o, "--hb-interval-ms", "zero CLI hb interval");
}

#[test]
fn zero_cli_miss_limit_is_a_usage_error() {
    let mut args = DIST.to_vec();
    args.extend_from_slice(&["--hb-miss-limit", "0"]);
    let o = run(&args, &[]);
    assert_usage_error(&o, "--hb-miss-limit", "zero CLI miss limit");
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

/// `serve` resolves its pool's heartbeat knobs through the driver's own
/// `--hb-*` overlay: the same flags, the same floor, the same exit code.
#[test]
fn serve_and_driver_share_the_heartbeat_flag_overlay() {
    for flag in ["--hb-interval-ms", "--hb-miss-limit", "--conn-timeout-ms"] {
        let mut args = DIST.to_vec();
        args.extend_from_slice(&[flag, "0"]);
        let driver = run(&args, &[]);
        assert_usage_error(&driver, flag, &format!("driver {flag} 0"));
        let serve = run(&["serve", "--pool", "1", flag, "0"], &[]);
        assert_usage_error(&serve, flag, &format!("serve {flag} 0"));
        assert_eq!(driver.stderr, serve.stderr, "{flag}: the two verbs word the error differently");
    }
    let serve = run(&["serve", "--pool", "1"], &[("FT_HB_GRACE_BEATS", "0")]);
    assert_usage_error(&serve, "FT_HB_GRACE_BEATS", "serve: zero grace beats from the environment");
}
