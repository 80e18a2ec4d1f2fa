#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite, the kernel fuzz
# loop, the bench compile gate, a perf smoke with hard floors, the paper
# sweep's smoke, the repo benchmark's tests and smoke, and the fault soaks. Runs entirely offline —
# the workspace (benches included) has zero external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# One wait in Ctx (DESIGN.md §7): at most one inbox receive and one condvar
# wait in these files, both in `Ctx::wait`.
# Why: a seeded delivery baton (ROADMAP 1(b)) deadlocks on any block it cannot see.
echo "== one wait in Ctx"
seam=(crates/runtime/src/{comm,dist,detect,collectives}.rs)
for call in 'transport.recv(' 'wait_timeout('; do
    if [ "$(cat "${seam[@]}" | grep -oF "$call" | wc -l)" -gt 1 ]; then
        echo "more than one '$call' in the runtime's wait seam; block only in Ctx::wait:"
        grep -nF "$call" "${seam[@]}"
        exit 1
    fi
done

# Every knob declared once (src/knobs.rs): each `FT_*` name in the non-test
# part of a file that reads the environment must be a row of the knob table,
# which `--help` prints; and each verb's `--help` exits 0.
# Why: a variable read outside the table escapes the startup check and the docs.
echo "== every knob declared once"
cargo build --release -q --bin abft-hessenberg
help=$(./target/release/abft-hessenberg --help)
for f in $(grep -rlE 'env::var(_os)?\(' --include='*.rs' crates/*/src src); do
    for name in $(awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f" | grep -oE '"FT_[A-Z0-9_]+"' | tr -d '"' | sort -u); do
        if ! grep -qw "$name" <<<"$help"; then
            echo "$f reads $name, which is not a row of the knob table (src/knobs.rs)"
            exit 1
        fi
    done
done
for verb in "" serve submit serve-worker; do
    ./target/release/abft-hessenberg $verb --help >/dev/null || { echo "abft-hessenberg $verb --help failed"; exit 1; }
done

# The full suite runs twice: once pinned to the scalar microkernel (the
# pre-SIMD reference semantics) and once on the best detected ISA
# (DESIGN.md §14). A determinism bug that only manifests under one
# contraction class cannot hide behind the other.
echo "== cargo test -q (FT_GEMM_ISA=scalar)"
FT_GEMM_ISA=scalar cargo test -q

echo "== cargo test -q (FT_GEMM_ISA=auto)"
FT_GEMM_ISA=auto cargo test -q

# Kernel-equivalence fuzz loop at a pinned seed: the packed/pre-packed GEMM
# paths against the naive oracle over adversarial fringe shapes, under every
# detected ISA. FT_REQUIRE_ISAS is computed from the host's
# cpuinfo so a build/detection regression that silently exercises only the
# scalar path is a hard failure, not a quiet skip. The seed is fixed so a CI
# failure reproduces exactly; bump FT_FUZZ_ROUNDS locally to sweep wider.
echo "== kernel fuzz (pinned seed, cross-ISA battery)"
require_isas="scalar"
if [ -r /proc/cpuinfo ]; then
    if grep -qm1 avx2 /proc/cpuinfo && grep -qm1 fma /proc/cpuinfo; then
        require_isas="$require_isas,avx2"
    fi
    if grep -qm1 avx512f /proc/cpuinfo && grep -qm1 fma /proc/cpuinfo; then
        require_isas="$require_isas,avx512"
    fi
fi
echo "  requiring ISAs: $require_isas"
FT_REQUIRE_ISAS=$require_isas FT_FUZZ_SEED=20130926 FT_FUZZ_ROUNDS=600 \
    cargo test -q -p ft-dense --test kernel_fuzz

echo "== cargo bench --no-run (compile gate)"
cargo bench --no-run -q

# Perf smoke: fails if the packed kernel is slower than the naive triple loop
# at 256×256 or below 3× naive at 512×512, or if any detected vector ISA's
# packed kernel is below 42× naive at 512×512 — a floor the forced-scalar
# tile does not reach, both readings printed — or if the wire's CRC32 over
# 1 MiB is below 3× the byte-at-a-time loop of the same run (20× where the
# pclmulqdq fold is dispatched): built with the repo's own flags, that is the
# gate a CRC compiled to gathers fails — or if gemv(Trans::No) at hess_grid's
# 640x160 panel shape is below 1.25x the one-column-per-pass loop of the
# same run, or if a reflector kernel at qr_grid's shapes falls below its
# floor against the loop it replaced, timed in the same run: trmm Left
# 32x1100 (2.5x one trmv a column), larft 1152x32 (2x one gemv a
# reflector), gemv(Trans::Yes) 576x31 (1.25x one running sum at a time).
# The gates live inside the bench binary; its `# wire CRC` line names the
# path this host took, its `# panel gemv` and `# trmm_left_lanes` /
# `# larft_lanes` / `# gemv_t_sweep` lines print both readings. Smoke runs
# write their JSON under target/, never over the committed
# BENCH_kernels.json.
echo "== kernels perf smoke"
FT_BENCH_SMOKE=1 cargo bench -q --bench kernels

# The paper's shape on every change: the three smallest grids of the
# Figure 6-7 sweep at their real N (384 on 2x2, 576 on 3x3, 768 on 4x4)
# through the repo benchmark's legs, two reps each; 4x4 drives 16 rank
# threads through the receive wait on however few cores the host has. The
# bench exits 1 on a failed operation or check (ft bitwise equal to plain,
# one recovery on the recover leg), a residual >= 3, or an Algorithm-2 flop
# penalty that does not fall 2x2 -> 3x3 -> 4x4 (deterministic: the counters,
# not the clock). JSON under target/.
echo "== paper smoke (2x2, 3x3 and 4x4 of the Figure 6-7 sweep)"
FT_BENCH_SMOKE=1 cargo bench -q --bench paper

# The repo benchmark (BENCHMARK.json) is a package of its own outside the
# workspace, so nothing above builds or tests it. Its own tests (the traced
# loops and the decorated transport are bitwise the library's) and five
# smoke workloads through the whole command — one on the mpsc fabric, one on
# the real wire, qr_grid, the only workload whose process columns have two
# members, so the only one where a column all-reduce sends anything, and
# hess_grid, the only one whose process row has more than two, so the only
# one where the Hessenberg panel's rooted row all-reduce rotates its member
# list and its association differs from the unrooted one (and the only one
# under Coded(2)), and serve_mix, the only one whose solves start through
# run_distributed, so the only one that runs the boundary commit (barrier
# and image) end to end; every check of every leg (bitwise ft == plain, one
# recovery, residuals), the result line, exit 0 — keep a crate change from
# breaking the measurement.
echo "== benchsuite (tests, hess_dense + hess_tcp + qr_grid + hess_grid + serve_mix smoke, hess_tcp traced)"
cargo test --release -q --manifest-path benchsuite/Cargo.toml
for w in hess_dense hess_tcp qr_grid hess_grid serve_mix; do
    cargo run --release -q --manifest-path benchsuite/Cargo.toml --bin suite -- \
        --workload "$w" --smoke >/dev/null
done
# The wire once more, traced: a receive-poll or accept change that quietly
# provokes session resumes or starves the beats can still look fine on
# wall time, so a clean loopback run must count none of either. The same
# run replays the update GEMMs at the workload's shapes (k = nb = 16): each
# must reach $gemm_floor of the 512³ rate measured beside it — a ratio, so it
# means the same on any host. The floor sits between what a tile that spills
# its accumulators or a packed `W = Vᵀ·C` reads (0.51-0.55) and the slowest
# shape without either (right, 0.62-0.74; NN 0.69+, TN 0.89+). Best of three:
# a replay is a few milliseconds on a shared machine.
gemm_floor=0.58
gemm_floor_ok=0
for try in 1 2 3; do
    traced=$(cargo run --release -q --manifest-path benchsuite/Cargo.toml --bin suite -- \
        --workload hess_tcp --smoke --trace 1)
    for counter in runtime.retransmits runtime.hb_misses; do
        if ! grep -Eq "^$counter +0(\.0+)? " <<<"$traced"; then
            echo "hess_tcp traced smoke: $counter is not 0 on a clean wire"
            grep "^$counter" <<<"$traced" || echo "  ($counter was not reported)"
            exit 1
        fi
    done
    if awk -v floor="$gemm_floor" '
        $1 == "dense.gemm_peak_gflops" { peak = $2 }
        $1 ~ /^dense\.gemm_(right|left_nn|left_tn)_gflops$/ { rate[$1] = $2 }
        END {
            if (peak <= 0 || length(rate) != 3) { print "  (update-GEMM rates were not reported)"; exit 1 }
            for (r in rate) if (rate[r] < floor * peak) { printf "  try: %s %.1f < %s x %.1f\n", r, rate[r], floor, peak; bad = 1 }
            exit bad
        }' <<<"$traced"; then
        gemm_floor_ok=1
        break
    fi
done
if [ "$gemm_floor_ok" -ne 1 ]; then
    echo "hess_tcp traced smoke: an update GEMM ran below $gemm_floor of the kernel peak in all three tries"
    exit 1
fi

# Every soak below is a loop of legs through the release CLI, and every leg
# has the same skeleton: run, keep the exit code, fail the gate unless the
# code is one the leg allows. soak_leg <want-codes> <cmd...> is that
# skeleton: <want-codes> is a |-separated list ("0", "3", "0|3"); stdout and
# stderr land in $out, the exit code in $rc; any other code (a panic, a
# silent verification failure, a hang's watchdog) prints the command and
# the tail of its output and fails CI. count_leg / need_runs keep one run
# counter per (family, solver), so a silently skipped battery is a hard fail.
soak_leg() {
    local want=$1
    shift
    set +e
    out=$("$@" 2>&1)
    rc=$?
    set -e
    case "|$want|" in
        *"|$rc|"*) ;;
        *)
            echo "  FAILED (exit $rc, want $want): $*"
            echo "$out" | tail -5
            exit 1
            ;;
    esac
}
declare -A runs
count_leg() { runs[$1.$solver]=$((${runs[$1.$solver]:-0} + 1)); }
# need_runs <family> <solvers> [n]: each solver ran legs of the family
# (exactly n of them, if given).
need_runs() {
    local s got
    for s in $2; do
        got=${runs[$1.$s]:-0}
        if [ "$got" -eq 0 ] || { [ -n "${3:-}" ] && [ "$got" -ne "$3" ]; }; then
            echo "$1 soak: legs skipped ($s ran $got, want ${3:-at least 1})"
            exit 1
        fi
    done
}
BIN=./target/release/abft-hessenberg
cargo build --release -q

# Concurrent-k-kill soak: the Coded(f) distance measured from both sides
# (EXPERIMENTS.md "Multi-kill soak methodology"), for BOTH solvers. Every
# k <= f simultaneous same-row failure set must recover and verify
# (exit 0); k = f+1 must produce the typed ExceededCodeDistance rejection
# (exit 3) — anything else, including a verification failure after a
# "successful" recovery, fails the gate. Grid 1x6 keeps Q >= 2f through
# f = 3 with every rank in one process row; N = 96 keeps the r-inf scale
# honest (see the methodology note on tiny-N thresholds).
#
# Victim sets stride by 2 (ranks 0,2,4,1 for k = 1..4): the paper-residual
# gate demands near-eps recovery, and ADJACENT victim sets pick the
# closest-spaced Vandermonde nodes (gap 1/Q), whose recovery accuracy is
# the intrinsic ||A_S^-1||*drift — within the 1e-10 parity acceptance but
# above the stricter r-inf scale (DESIGN.md §13.1). Adjacent sets get
# their own recovery leg below, parity-gated in-process by
# ft_coded_redundancy::coded3_adjacent_victims_parity_at_scale.
echo "== multi-kill soak (Coded(f), k<=f recover / k=f+1 typed, both solvers)"
for solver in hessenberg qr; do
    for f in 1 2 3; do
        # Stride-2 victim prefixes: k <= f recover, k = f+1 rejects.
        for k in $(seq 1 $((f + 1))); do
            fails=""
            for i in $(seq 0 $((k - 1))); do
                fails="$fails --fail 2:1:$(((2 * i) % 5))"
            done
            if [ "$k" -le "$f" ]; then want=0; label="recovered, verified"; else want=3; label="beyond distance, typed rejection"; fi
            # shellcheck disable=SC2086
            soak_leg "$want" $BIN --n 96 --nb 8 --grid 1x6 --solver "$solver" --redundancy "$f" $fails --verify
            echo "  $solver f=$f k=$k: $label"
            count_leg mk
        done
    done
    # Worst-conditioned leg: three ADJACENT victims must still recover and
    # complete (exit 0) through the CLI; the 1e-10 parity bound for this
    # set is asserted by the in-process test named above, because the
    # r-inf gate is stricter than the code's intrinsic accuracy here.
    soak_leg 0 $BIN --n 96 --nb 8 --grid 1x6 --solver "$solver" --redundancy 3 \
        --fail 2:1:0 --fail 2:1:1 --fail 2:1:2
    echo "  $solver adjacent k=3: recovered (parity gated in-process)"
    count_leg mk
    # One two-row leg: f failures in EACH of two process rows of a 2x6
    # grid recover independently (per-row distance, not global).
    soak_leg 0 $BIN --n 96 --nb 8 --grid 2x6 --solver "$solver" --redundancy 3 \
        --fail 2:1:0 --fail 2:1:2 --fail 2:1:4 --fail 2:1:7 --fail 2:1:9 --fail 2:1:11 --verify
    echo "  $solver 2x6 3+3 two-row: recovered, verified"
    count_leg mk
    # Algorithm 3 two-row legs: Coded(2) victims in both process rows of a
    # 2x4 grid. The recovery's checksum catch-up spreads each victim's loss
    # into every row's copies on its process column, so Areas 1/2 solve only
    # from copies on victim-free columns: {0,5} keeps enough and recovers,
    # {0,1,6,7} spans every column and is the typed rejection. A wrong
    # answer fails --verify (exit 1).
    for set in "0 5:0" "0 1 6 7:3"; do
        fails=""
        for v in ${set%:*}; do fails="$fails --fail 1:0:$v"; done
        # shellcheck disable=SC2086
        soak_leg "${set#*:}" $BIN --n 48 --nb 4 --grid 2x4 --solver "$solver" --redundancy 2 --variant alg3 $fails --verify
        echo "  $solver alg3 2x4 {${set%:*}}: exit $rc"
        count_leg mk
    done
done
need_runs mk "hessenberg qr" 13

# Distributed smoke: the real multi-process TCP transport on localhost —
# one OS process per rank, wired by the launcher's probed ports. Both ABFT
# variants must finish fault-free and pass verification. The shortened
# receive timeout turns any protocol wedge into a typed abort instead of a
# CI hang (the launcher's own 600 s watchdog is the backstop). One ragged
# 2x3 leg per solver (N = 70 is no multiple of nb = 8) runs the residuals'
# reflector applications across real processes: the right-hand row
# all-reduce over Q = 3, not a power of two, and the left-hand column
# reduce over P = 2.
echo "== distributed smoke (localhost TCP, 2x2 and ragged 2x3, both solvers)"
DIST="env FT_RECV_TIMEOUT_MS=60000 $BIN --distributed --grid 2x2 --n 64 --nb 8"
for solver in hessenberg qr; do
    for variant in alg2 alg3; do
        soak_leg 0 $DIST --solver "$solver" --variant "$variant" --verify
        echo "  $solver $variant: fault-free, verified"
    done
    soak_leg 0 env FT_RECV_TIMEOUT_MS=60000 $BIN --distributed --grid 2x3 --n 70 --nb 8 --solver "$solver" --verify
    echo "  $solver 2x3 N=70: fault-free, verified"
done

# The fault soaks: every injected-fault family is a row of one table, run
# through the one --faults flag (DESIGN.md "Fault injection"). A row is
#   family ; solvers ; seeds ; variants ; want ; command ; spec ({s} = seed)
# and expands to solvers x seeds x variants legs. Same seeds, same
# schedules, every run; a leg whose one kill fires replays exactly, but a
# multi-kill leg can land its later kills elsewhere with thread timing (a
# recovery or a typed rejection) until delivery order is seeded (ROADMAP
# 1(a), the baton). The contracts:
#   chaos   seeded kills at arbitrary message-op boundaries, in process:
#           recover and pass verification (exit 0) or reject a
#           beyond-tolerance victim set with the typed error (exit 3)
#   sdc     seeded silent bit flips, scrub at cadence 1: correct or roll
#           back every detectable flip (0) or reject uncorrectable
#           corruption typed (3) — a silent verification failure (exit 1)
#           fails the gate like a panic
#   kill    seeded real SIGKILLs over TCP: the launcher re-spawns each
#           victim, survivors re-admit it through the epoch-fenced
#           reconnect handshake before §5.3 recovery; 0 or 3 as for chaos
#   nc      wire noise (DESIGN.md §16) — loss + duplication + reordering,
#           bit flips, a transient one-link partition: must complete CLEAN,
#           exit 0 with zero §5.3 recoveries (wire noise is never a rank
#           death). The partition opens at 0 ms and the leg must outlast
#           it (`time:` >= the heal time), so a faster solve cannot finish
#           before the fault exists. The permanent partition of rank 3
#           must be the typed Partitioned verdict on every survivor — exit
#           3 inside a short receive timeout, never a hang
#   combo   a SIGKILL *and* wire noise from one script (ROADMAP 4b, first
#           step): recovery itself runs over the lossy links; 0 or 3
echo "== fault soaks (one --faults table: chaos, sdc, kill, nc, combo)"
CHAOS_SEEDS=${CHAOS_SEEDS:-"1 2 3 5 8 13 21 34"}
SDC_SEEDS=${SDC_SEEDS:-"1 2 3 5 8 13 21 34"}
KILL_SEEDS=${KILL_SEEDS:-"1 2 3 5"}
NET_CHAOS_SEEDS=${NET_CHAOS_SEEDS:-"1 2 3 5 8 13 21 34"}
BOTH="hessenberg qr"
INPROC="$BIN --n 96 --nb 8 --verify"
CUT3="part=3-0@0,part=3-1@0,part=3-2@0,part=0-3@0,part=1-3@0,part=2-3@0"
# QR sends fewer messages than Hessenberg: a fault-free QR rank at the kill
# row's shape counts 216 ops on the chaos clock (`Ctx::chaos_ops`; Hessenberg
# 784), while seeded kills draw from the CLI's window [50, 416). Seeds 1 2 3
# draw ops 259-336 and never fire; QR's row uses seeds 5 8 11 14, which draw
# ops 114-197 (victims 0, 1, 1, 2).
fault_soaks() {
    cat <<EOF
chaos;$BOTH;$CHAOS_SEEDS;alg2 alg3;0|3;$INPROC --grid 2x3;{s}:kill=3
sdc;$BOTH;$SDC_SEEDS;alg2 alg3;0|3;$INPROC --grid 2x4 --redundancy dual;{s}:flip=1
sdc;$BOTH;$SDC_SEEDS;alg2 alg3;0|3;$INPROC --grid 2x4 --redundancy dual;{s}:flip=2
kill;hessenberg;$KILL_SEEDS;alg2 alg3;0|3;$DIST --verify;{s}:kill=1
kill;qr;5 8 11 14;alg2 alg3;0|3;$DIST --verify;{s}:kill=1
nc;$BOTH;$NET_CHAOS_SEEDS;alg2;0;$DIST --verify;{s}:drop=0.05,dup=0.05,reorder=0.05
nc;$BOTH;$NET_CHAOS_SEEDS;alg2;0;$DIST --verify;{s}:corrupt=0.03
nc;$BOTH;$NET_CHAOS_SEEDS;alg2;0;$DIST --verify;{s}:part=1-2@0+500,part=2-1@0+500
nc;$BOTH;7;alg2;3;env FT_RECV_TIMEOUT_MS=6000 $BIN --distributed --grid 2x2 --n 32 --nb 8;{s}:$CUT3
combo;$BOTH;$KILL_SEEDS;alg2;0|3;$DIST --verify;{s}:kill=1,drop=0.05,dup=0.05,reorder=0.05
EOF
}
while IFS=';' read -r family solvers seeds variants want cmd spec; do
    for solver in $solvers; do
        for seed in $seeds; do
            for variant in $variants; do
                faults=${spec//\{s\}/$seed}
                # shellcheck disable=SC2086
                soak_leg "$want" $cmd --solver "$solver" --variant "$variant" --faults "$faults"
                if [ "$want" = 0 ] && ! grep -q "recoveries: 0" <<<"$out"; then
                    echo "  $family $solver $variant $faults: FAILED (wire noise triggered a spurious recovery)"
                    exit 1
                fi
                if [[ $faults =~ part=[0-9]+-[0-9]+@([0-9]+)\+([0-9]+) ]]; then
                    heal_ms=$((BASH_REMATCH[1] + BASH_REMATCH[2]))
                    if ! awk -v ms="$heal_ms" '$1 == "time:" { ran = 1; if ($2 * 1000 < ms) exit 1 } END { if (!ran) exit 1 }' <<<"$out"; then
                        echo "  $family $solver $variant $faults: FAILED (the run ended before the partition healed at $heal_ms ms: it tested nothing)"
                        exit 1
                    fi
                fi
                if [ "$rc" -eq 0 ]; then verdict="survived, verified"; else verdict="typed rejection"; fi
                echo "  $family $solver $variant $faults: $verdict"
                count_leg "$family"
                # A composed leg whose kill never fired composes nothing.
                if grep -q "recoveries: [1-9]" <<<"$out"; then count_leg "$family-recovered"; fi
            done
        done
    done
done < <(fault_soaks)
for family in chaos sdc kill combo combo-recovered; do need_runs "$family" "$BOTH"; done
# Every kill leg's SIGKILL lands: each solver's distributed rollback runs.
for s in $BOTH; do need_runs kill-recovered "$s" "${runs[kill.$s]}"; done
need_runs nc "$BOTH" 25
# Bitwise determinism spot-check: the hardened transport's reference
# acceptance — a chaos run's eigenvalues must match the fault-free run's
# bit for bit (the distributed test battery sweeps this wider).
soak_leg 0 $DIST --variant alg2 --print-eigs
clean_eigs=$(echo "$out" | grep '^eig ')
soak_leg 0 $DIST --variant alg2 --print-eigs --faults "9:drop=0.08,dup=0.1,reorder=0.1,corrupt=0.04"
chaos_eigs=$(echo "$out" | grep '^eig ')
if [ -z "$clean_eigs" ] || [ "$clean_eigs" != "$chaos_eigs" ]; then
    echo "network-chaos soak: chaos run is not bitwise identical to the clean run"; exit 1
fi
echo "  bitwise spot-check: chaos eigenvalues identical to fault-free run"

# Shrink soak: a real SIGKILL with re-spawn disabled (--shrink) must
# complete through survivor-side rank adoption (EXPERIMENTS.md "Shrink
# soak methodology"): exit 0, verification passed, AND the shrink report
# naming the killed rank present in the traffic summary — a run that
# "passes" without the report means the kill never fired or adoption was
# bypassed, and fails the gate. Killing rank 0 is its own leg (the
# FT_SHRINK_CODE marker path). Both solvers; skip counters as above.
echo "== shrink soak (SIGKILL without re-spawn, survivor adoption)"
for solver in hessenberg qr; do
    for victim in 3 0; do
        soak_leg 0 $DIST --shrink --solver "$solver" --faults "0:at=$victim@100" --verify
        if ! echo "$out" | grep -q "shrink (survivor-adopted ranks):"; then
            echo "  $solver kill rank $victim: FAILED (no shrink report in summary)"; exit 1
        fi
        if ! echo "$out" | grep -q "adopted ranks *\[$victim\]"; then
            echo "  $solver kill rank $victim: FAILED (rank $victim not in shrink report)"; exit 1
        fi
        echo "  $solver kill rank $victim: adopted, verified"
        count_leg shrink
    done
done
need_runs shrink "hessenberg qr" 2

# Daemon soak: the persistent multi-tenant serving plane through the real
# CLI verbs — spawn a pool, stream pipelined jobs from two tenants across
# both solvers, drain, and require a clean daemon exit. Exit 0 from each
# submit asserts every job's residual passed the paper threshold; exit 0
# from the daemon asserts the pool drained quiescent (no leaked jobs).
echo "== daemon soak (serve/submit verbs, both solvers, drain)"
SERVE_PORT=24567
$BIN serve --pool 4 --port "$SERVE_PORT" --job-ports 24600 &
SERVE_PID=$!
ready=0
for _ in $(seq 1 100); do
    if $BIN submit --port "$SERVE_PORT" \
        --n 32 --nb 8 --grid 1x1 >/dev/null 2>&1; then
        ready=1; break
    fi
    sleep 0.1
done
if [ "$ready" -ne 1 ]; then
    echo "daemon soak: pool never came up"; kill -9 "$SERVE_PID" 2>/dev/null || true; exit 1
fi
$BIN submit --port "$SERVE_PORT" \
    --n 64 --nb 8 --grid 1x2 --count 4 --tenant 1 >/dev/null
$BIN submit --port "$SERVE_PORT" \
    --solver qr --n 64 --nb 8 --grid 1x2 --count 2 --tenant 2 >/dev/null
$BIN submit --port "$SERVE_PORT" --shutdown >/dev/null
if ! wait "$SERVE_PID"; then
    echo "daemon soak: daemon did not drain cleanly"; exit 1
fi
echo "  pool of 4: 7 jobs across 2 tenants + both solvers, drained clean"

echo "CI OK"
