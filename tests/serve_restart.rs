//! Whole-pool crash and restart: the `FtCheckpoint` round trip through the
//! daemon. A checkpointing job is interrupted by SIGKILLing the ENTIRE
//! pool — daemon and every worker, the scenario in-fabric replacement
//! cannot cover — then a fresh daemon over the same `--state-dir` must
//! re-admit the job under its original id, resume from the newest complete
//! checkpoint set, and persist a result **bitwise identical** to an
//! uninterrupted run (the resumable driver's determinism contract).

mod serve_util;

use abft_hessenberg::serve::{load_result, Client, SolverId};
use serve_util::{field, join_within, spec, Daemon};
use std::time::{Duration, Instant};

#[test]
fn pool_restart_resumes_bitwise_identical() {
    // Uninterrupted reference through a daemon of its own. The checkpoint
    // sink is active here too (same spec), so both runs take the exact
    // same code path — only the kill differs.
    let job_spec = spec(SolverId::Hessenberg, 640, 16, 2, 77, true);
    let reference = {
        let d = Daemon::spawn(2, &["--job-ports", "29000"]);
        let port = d.port;
        let s = job_spec.clone();
        let h = std::thread::spawn(move || {
            let mut c = Client::connect(port, 0).expect("reference connect");
            c.run(&s).expect("reference io")
        });
        let r = join_within(h, "reference job", &d).expect("reference completes");
        d.shutdown();
        r
    };

    let state = std::env::temp_dir().join(format!("ft-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let state_str = state.to_str().expect("utf-8 temp path").to_string();

    // Victim run: same spec, persistent state dir. Kill the whole pool as
    // soon as the first complete checkpoint set hits disk — the job is
    // then mid-factorization with most panels still ahead of it.
    let mut d = Daemon::spawn(2, &["--job-ports", "30000", "--state-dir", &state_str]);
    let port = d.port;
    let s = job_spec.clone();
    // This client's connection dies with the daemon; the thread just
    // reports the error and is joined for hygiene.
    let h = std::thread::spawn(move || {
        let mut c = Client::connect(port, 0).expect("victim connect");
        c.run(&s)
    });
    let ckpt_path = state.join("job-1.ckpt");
    let deadline = Instant::now() + serve_util::WALL_LIMIT;
    while !ckpt_path.exists() {
        assert!(Instant::now() < deadline, "no checkpoint ever persisted:\n{}", d.dump());
        std::thread::sleep(Duration::from_millis(5));
    }
    d.massacre();
    assert!(
        join_within(h, "victim client", &d).is_err(),
        "client survived a whole-pool SIGKILL — the kill landed too late"
    );
    assert!(state.join("job-1.spec").exists(), "spec must survive the crash");

    // Restart over the same state dir: the job is re-admitted under its
    // original id with no client attached, resumes from the persisted
    // panel, and the orphan result lands on disk.
    let d2 = Daemon::spawn(2, &["--job-ports", "28000", "--state-dir", &state_str]);
    let resume = d2.wait_marker("FT_SERVE_RESUME job=1 ");
    let panel: usize = field(&resume, "panel=").parse().expect("resume panel");
    assert!(panel >= 1, "resume must start from a real checkpoint, got panel {panel}");
    d2.wait_marker("FT_SERVE_RESULT job=1 status=ok");
    let result_path = state.join("result-1.bin");
    let deadline = Instant::now() + serve_util::WALL_LIMIT;
    while !result_path.exists() {
        assert!(Instant::now() < deadline, "orphan result never persisted:\n{}", d2.dump());
        std::thread::sleep(Duration::from_millis(5));
    }
    let resumed = load_result(&result_path).expect("parse persisted result");
    // Spec and checkpoint are consumed by the finished job; only the
    // orphan result remains.
    assert!(!state.join("job-1.spec").exists(), "finished job must clean its spec");
    assert!(!ckpt_path.exists(), "finished job must clean its checkpoint");
    d2.shutdown();

    // The determinism contract: resuming from the checkpoint reproduces
    // the uninterrupted factorization EXACTLY — no drift, not even in the
    // last bit — so a restarted service is indistinguishable to tenants.
    assert_eq!(resumed.n, reference.n);
    assert!(
        resumed
            .factor
            .iter()
            .zip(&reference.factor)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "resumed factor is not bitwise identical to the uninterrupted run"
    );
    assert!(
        resumed.tau.iter().zip(&reference.tau).all(|(a, b)| a.to_bits() == b.to_bits()),
        "resumed tau is not bitwise identical to the uninterrupted run"
    );
    assert_eq!(resumed.tau.len(), reference.tau.len());
    assert_eq!(
        resumed.residual.to_bits(),
        reference.residual.to_bits(),
        "resumed residual {} vs reference {}",
        resumed.residual,
        reference.residual
    );

    let _ = std::fs::remove_dir_all(&state);
}

/// A restarted daemon must not trust its state dir: a checkpoint set whose
/// blob has one flipped header byte (it decodes, but as a different `N`),
/// and one whose blob length word is `u64::MAX` (an overflow in the reader
/// before the fix), are each dropped at load. Both jobs run again from the
/// start, finish with a residual under the paper's threshold and with the
/// same bits — and no process of the pool panics.
#[test]
fn damaged_checkpoint_sets_restart_from_scratch() {
    use abft_hessenberg::hess::{Encoded, FtCheckpoint};
    use abft_hessenberg::runtime::{run_spmd, FaultScript};

    let job_spec = spec(SolverId::Hessenberg, 64, 8, 2, 79, true);
    let state = std::env::temp_dir().join(format!("ft-serve-damaged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    std::fs::create_dir_all(&state).expect("state dir");

    // Well-formed per-rank blobs of this spec at a scope close (panel 1).
    let blobs = run_spmd(1, 2, FaultScript::none(), |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, 64, 8, |i, j| job_spec.matrix[i * 64 + j]);
        enc.compute_initial_checksums(&ctx);
        FtCheckpoint::capture(&enc, &[], 1).to_bytes()
    });
    let set = |blobs: &[Vec<u8>], lens: &[u64]| {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&(blobs.len() as u64).to_le_bytes());
        for (b, len) in blobs.iter().zip(lens) {
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(b);
        }
        buf
    };
    let lens: Vec<u64> = blobs.iter().map(|b| b.len() as u64).collect();
    let mut flipped = blobs.clone();
    flipped[1][8] ^= 1; // the low byte of the `N` word: 64 reads as 65
    let files = [set(&flipped, &lens), set(&blobs, &[u64::MAX, lens[1]])];
    let words = job_spec.to_words();
    for (job, ckpt) in [1u64, 2].into_iter().zip(files) {
        let mut spec_file = Vec::new();
        spec_file.extend_from_slice(&0u64.to_le_bytes());
        spec_file.extend_from_slice(&(words.len() as u64).to_le_bytes());
        for w in &words {
            spec_file.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        std::fs::write(state.join(format!("job-{job}.spec")), spec_file).expect("write spec");
        std::fs::write(state.join(format!("job-{job}.ckpt")), ckpt).expect("write checkpoint");
    }

    let d = Daemon::spawn(
        2,
        &[
            "--job-ports",
            "27000",
            "--state-dir",
            state.to_str().expect("utf-8 temp path"),
        ],
    );
    let mut results = Vec::new();
    for job in [1, 2] {
        d.wait_marker(&format!("FT_SERVE_RESULT job={job} status=ok"));
        let path = state.join(format!("result-{job}.bin"));
        let deadline = Instant::now() + serve_util::WALL_LIMIT;
        while !path.exists() {
            assert!(Instant::now() < deadline, "job {job}: orphan result never persisted:\n{}", d.dump());
            std::thread::sleep(Duration::from_millis(5));
        }
        let r = load_result(&path).expect("parse persisted result");
        assert!(r.residual < 3.0, "job {job}: residual {}", r.residual);
        results.push(r);
    }
    assert!(!d.dump().contains("FT_SERVE_RESUME"), "a damaged set was resumed from:\n{}", d.dump());
    let errs = d.stderr();
    assert!(!errs.contains("panicked"), "a pool process panicked:\n{errs}");
    for job in [1, 2] {
        assert!(
            errs.contains(&format!("job {job}: persisted checkpoint unusable")),
            "job {job}'s set was not refused:\n{errs}"
        );
    }
    d.shutdown();
    let bits = |r: &abft_hessenberg::serve::JobResult| r.factor.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&results[0]), bits(&results[1]), "two fresh runs of one spec differ");
    let _ = std::fs::remove_dir_all(&state);
}
