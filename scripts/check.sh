#!/usr/bin/env bash
# The repo's gate: tier-1 build + tests, then lints. CI runs exactly this.
# Only workspace crates (crates/* + the facade) are linted/formatted; the
# vendored stand-ins under vendor/ are plain dependencies and stay exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests (root package + the unit tests inside crates/*) =="
# One run: `--workspace` includes the root package's tests/*.rs, which
# is all that plain `cargo test -q` runs.
cargo test --workspace -q

echo "== examples build =="
cargo build --release --examples

echo "== benchmark crate: build against this tree + schema smoke =="
# benchmark/ is a package of its own that reaches into crates/* through
# public items (frame::read_frame, TcpBackend, ...). The driver builds
# it from the committed tree; build and smoke it here so a changed
# signature fails now, not there. Rows go to benchmark/out/.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --smoke >/dev/null

echo "== pipelined-offloads smoke (writes BENCH_pipelined.json) =="
cargo bench -q -p aurora-bench --bench pipelined_offloads -- --smoke

echo "== batching gate: depth-64 batched must beat unbatched =="
# The bench records the depth-64 comparison in BENCH_pipelined.json and
# already asserts the bound internally; this re-checks the artifact so a
# stale or hand-edited file cannot pass the gate.
grep -q '"batch_faster": true' BENCH_pipelined.json || {
    echo "FAIL: BENCH_pipelined.json does not show batch_faster=true" >&2
    cat BENCH_pipelined.json >&2 || true
    exit 1
}

echo "== scheduler-scaling smoke (writes BENCH_sched.json) =="
cargo bench -q -p aurora-bench --bench scheduler_scaling -- --smoke

echo "== scheduler gate: 4-target pool must be >=3x a single target =="
grep -q '"pool_faster_3x": true' BENCH_sched.json || {
    echo "FAIL: BENCH_sched.json does not show pool_faster_3x=true" >&2
    cat BENCH_sched.json >&2 || true
    exit 1
}

echo "== device-lanes smoke (writes BENCH_lanes.json) =="
cargo bench -q -p aurora-bench --bench device_lanes -- --smoke

echo "== lane gate: 8 worker lanes must be >=2x the serial engine =="
grep -q '"lanes8_faster_2x": true' BENCH_lanes.json || {
    echo "FAIL: BENCH_lanes.json does not show lanes8_faster_2x=true" >&2
    cat BENCH_lanes.json >&2 || true
    exit 1
}

echo "== mixed-traffic smoke (writes BENCH_adaptive.json) =="
cargo bench -q -p aurora-bench --bench mixed_traffic -- --smoke

echo "== adaptive gate: probe p99 >=2x better than static depth-64, frame cut kept =="
grep -q '"adaptive_p99_2x": true' BENCH_adaptive.json || {
    echo "FAIL: BENCH_adaptive.json does not show adaptive_p99_2x=true" >&2
    cat BENCH_adaptive.json >&2 || true
    exit 1
}
grep -q '"frame_cut_3x": true' BENCH_adaptive.json || {
    echo "FAIL: BENCH_adaptive.json does not show frame_cut_3x=true" >&2
    cat BENCH_adaptive.json >&2 || true
    exit 1
}

echo "== telemetry-overhead smoke (writes BENCH_telemetry.json) =="
cargo bench -q -p aurora-bench --bench telemetry_overhead -- --smoke

echo "== telemetry gate: always-on histogram path must cost <5% of an offload =="
grep -q '"hist_overhead_lt_5pct": true' BENCH_telemetry.json || {
    echo "FAIL: BENCH_telemetry.json does not show hist_overhead_lt_5pct=true" >&2
    cat BENCH_telemetry.json >&2 || true
    exit 1
}
grep -q '"ctrl_overhead_lt_5pct": true' BENCH_telemetry.json || {
    echo "FAIL: BENCH_telemetry.json does not show ctrl_overhead_lt_5pct=true" >&2
    cat BENCH_telemetry.json >&2 || true
    exit 1
}

echo "== fault matrix (8 seeds x {veo,dma,tcp}, hang = failure) =="
./scripts/fault_matrix.sh

echo "== soak gate (scaled down: all backends x 4 seeds, SLO-checked) =="
./scripts/soak.sh

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --check

echo "All checks passed."
