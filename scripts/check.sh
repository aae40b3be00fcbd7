#!/usr/bin/env sh
# Repository checks: formatting, lints, and the tier-1 build + test gate.
# Usage: scripts/check.sh [--offline]
# Pass --offline (default in the sandboxed build environment) to forbid
# registry access; the workspace is dependency-free so this always works.
set -eu

cd "$(dirname "$0")/.."

OFFLINE="--offline"
if [ "${1:-}" = "--online" ]; then
    OFFLINE=""
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets $OFFLINE -- -D warnings

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release --workspace $OFFLINE
cargo test --release --workspace $OFFLINE -q

echo "==> guard rails: no panic!/bare assert! on the simulator execution path"
# The execution path must fail through SimError, not panics. Strip test
# modules (everything from the #[cfg(test)] marker on) before grepping;
# debug_assert! stays allowed (compiled out of release).
for f in crates/sim/src/sm.rs crates/sim/src/alu.rs crates/sim/src/mem.rs crates/sim/src/warp.rs \
         crates/sim/src/lib.rs crates/sim/src/cache.rs crates/sim/src/profile.rs \
         crates/sim/src/sanitize.rs crates/verify/src/lib.rs \
         crates/verify/src/generate.rs crates/verify/src/oracle.rs \
         crates/verify/src/shrink.rs crates/verify/src/corpus.rs \
         crates/verify/src/frontfuzz.rs \
         crates/core/src/swizzle.rs crates/tune/src/lib.rs \
         crates/frontend/src/lexer.rs crates/frontend/src/parser.rs \
         crates/frontend/src/lib.rs crates/diag/src/lib.rs \
         crates/diag/src/span.rs crates/diag/src/codes.rs; do
    [ -f "$f" ] || continue
    if sed -n '1,/#\[cfg(test)\]/p' "$f" | grep -vE '^[[:space:]]*//' \
        | grep -nE '(^|[^_a-zA-Z])(panic!|assert!|assert_eq!|assert_ne!|unreachable!|todo!|unimplemented!)\(' ; then
        echo "error: panic/assert on the execution path in $f (use SimError)" >&2
        exit 1
    fi
done

echo "==> parallel-SM equivalence: default (parallel) environment"
# The suite pins both execution modes through explicit GpuConfig fields,
# so it is env-proof; the two passes additionally exercise the env knob
# parsing and the sequential fallback across the sim suites.
cargo test --release -p catt-sim $OFFLINE -q --test parallel_sm

echo "==> parallel-SM equivalence: sequential-fallback environment"
CATT_SIM_SM_PARALLEL=off CATT_SIM_SM_THREADS=1 CATT_SIM_STEAL=off \
    cargo test --release -p catt-sim $OFFLINE -q \
    --test parallel_sm --test determinism

echo "==> fault injection: sweep + cache survive an armed CATT_FAULT_PLAN"
CATT_ENGINE_WORKERS=1 CATT_FAULT_PLAN="panic-job=2,corrupt-cache" \
    cargo test --release -p catt-core $OFFLINE -q --test fault_env

echo "==> fuzz smoke: fixed-seed differential campaign + corpus replay"
# Legal-mode translation validation must find nothing, the recorded
# counterexample corpus must replay clean (the --corpus pass does both),
# and the report must be byte-identical across runs (determinism).
FUZZ_OUT_A="${FUZZ_OUT_A:-target/fuzz-smoke-a.txt}"
FUZZ_OUT_B="${FUZZ_OUT_B:-target/fuzz-smoke-b.txt}"
target/release/catt fuzz --seed 1 --iters 200 --corpus tests/corpus > "$FUZZ_OUT_A"
grep -q "violations .............. 0" "$FUZZ_OUT_A" || {
    echo "error: catt fuzz found violations (see $FUZZ_OUT_A)" >&2
    exit 1
}
grep -q "corpus replay:" "$FUZZ_OUT_A" || {
    echo "error: catt fuzz skipped the corpus replay" >&2
    exit 1
}
target/release/catt fuzz --seed 1 --iters 200 > "$FUZZ_OUT_B"
# Second run omits the replay lines; compare the report body only.
if ! [ "$(grep -v '^corpus replay' "$FUZZ_OUT_A")" = "$(cat "$FUZZ_OUT_B")" ]; then
    echo "error: catt fuzz report is not deterministic" >&2
    diff "$FUZZ_OUT_A" "$FUZZ_OUT_B" >&2 || true
    exit 1
fi

echo "==> frontend-fuzz smoke: fixed-seed mutational lexer/parser campaign"
# The frontend contract on arbitrary input: no panics, every rejection
# carries an error diagnostic, every span in bounds. Deterministic:
# same seed ⇒ byte-identical report.
FRONT_OUT="${FRONT_OUT:-target/frontfuzz-smoke.txt}"
target/release/catt fuzz --frontend --seed 1 --iters 300 > "$FRONT_OUT"
grep -q "violations .............. 0" "$FRONT_OUT" || {
    echo "error: catt fuzz --frontend found violations (see $FRONT_OUT)" >&2
    exit 1
}
grep -q "rejected with errors" "$FRONT_OUT" || {
    echo "error: catt fuzz --frontend produced no report" >&2
    exit 1
}

echo "==> profile smoke: catt profile emits reports + a valid Chrome trace"
# The CLI validates the trace JSON and re-checks the stall-sum /
# L1-counter reconciliation itself, exiting non-zero on any violation;
# this pass just has to run it and check the artifact exists.
PROFILE_TRACE="${PROFILE_TRACE:-target/profile-smoke-trace.json}"
target/release/catt profile ATAX --trace-out "$PROFILE_TRACE" > /dev/null
[ -s "$PROFILE_TRACE" ] || {
    echo "error: catt profile wrote no trace at $PROFILE_TRACE" >&2
    exit 1
}

echo "==> tune smoke: fixed-seed autotune run with self-check invariants"
# The CLI re-runs TuneReport::self_check on every report (tuned is the
# argmin of the selectable trace, never slower than baseline or static
# CATT, iteration bound respected, swizzle selection backed by the L2
# gain) and exits non-zero on violation. DM must tune to the tile-major
# CTA swizzle that pure throttling cannot find.
TUNE_OUT="${TUNE_OUT:-target/tune-smoke.json}"
TUNE_TXT="${TUNE_TXT:-target/tune-smoke.txt}"
target/release/catt tune DM,ATAX --out "$TUNE_OUT" > "$TUNE_TXT"
grep -q "tile=" "$TUNE_TXT" || {
    echo "error: catt tune did not select the CTA swizzle on DM (see $TUNE_TXT)" >&2
    exit 1
}
[ -s "$TUNE_OUT" ] || {
    echo "error: catt tune wrote no summary at $TUNE_OUT" >&2
    exit 1
}

echo "==> serve smoke: NDJSON daemon answers every line and drains clean"
# A checked-in request batch (good submit, malformed line, unknown kernel,
# zero grid, zero deadline, probes, shutdown) piped through the stdio
# daemon under an armed chaos plan. The contract: one typed response per
# request line, at least one success and one typed error, clean exit.
SERVE_OUT="${SERVE_OUT:-target/serve-smoke-out.jsonl}"
CATT_FAULT_PLAN="delay-job=2" CATT_SERVE_WORKERS=2 \
    target/release/catt serve --stdio < scripts/serve-smoke.jsonl > "$SERVE_OUT"
REQ_LINES=$(grep -c . scripts/serve-smoke.jsonl)
RESP_LINES=$(grep -c . "$SERVE_OUT")
if [ "$REQ_LINES" != "$RESP_LINES" ]; then
    echo "error: catt serve answered $RESP_LINES of $REQ_LINES request lines" >&2
    cat "$SERVE_OUT" >&2
    exit 1
fi
grep -q '"id":"ok-1","ok":true' "$SERVE_OUT" || {
    echo "error: catt serve smoke: the valid submit did not succeed" >&2
    cat "$SERVE_OUT" >&2
    exit 1
}
grep -q '"id":"bad-1","ok":false' "$SERVE_OUT" || {
    echo "error: catt serve smoke: malformed line not answered as bad-request" >&2
    cat "$SERVE_OUT" >&2
    exit 1
}

echo "==> all checks passed"
