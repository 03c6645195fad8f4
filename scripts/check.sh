#!/usr/bin/env bash
# The repo's gate; CI runs exactly this: release build, the dependency
# direction of the bottom crates, `cargo test --workspace` (which holds
# every virtual-time bound), examples, the Fig. 9/10 and Table IV repro
# goldens, the benchmark crate's `hotpath all --smoke`, the
# telemetry-overhead bench, the fault matrix, the soak, the pub audit,
# clippy, rustdoc and rustfmt.
# The one offline stand-in under vendor/ (proptest) is a path
# dependency inside the workspace root, so cargo makes it a member: it
# is tested, linted and formatted like crates/*.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
# --locked: a stale root Cargo.lock fails here instead of being rewritten.
cargo build --release --locked

echo "== dependency direction: ham, then aurora-telemetry, sit at the bottom =="
# ham (wire header, codec, registry) and aurora-telemetry (every
# observability type) depend on no crate of the workspace; the model
# (aurora-sim-core) and everything above depend on them. A normal
# dependency edge out of either fails here.
for bottom in ham aurora-telemetry; do
    edges="$(cargo tree --offline --locked -e normal -p "$bottom" --prefix none | tail -n +2)"
    if [ -n "$edges" ]; then
        echo "$bottom must depend on no workspace crate, but depends on:" >&2
        echo "$edges" >&2
        exit 1
    fi
done

echo "== tier-1: tests (root package + the unit tests inside crates/*) =="
# One run: `--workspace` includes the root package's tests/*.rs, which
# is all that plain `cargo test -q` runs.
cargo test --workspace -q

echo "== examples build =="
cargo build --release --examples

echo "== repro goldens: Fig. 9, Fig. 10 and Table IV stdout, byte for byte =="
# The simulator is deterministic, so these three figures' stdout must
# match the committed goldens exactly; a diff means virtual-time math
# moved. repro_all is left out: its pipelined-ablation rows vary run to
# run. Re-bless a deliberate change with
#   cargo run --release -q -p aurora-bench --bin repro_X > tests/golden/repro_X.txt
for fig in repro_fig9 repro_fig10 repro_table4; do
    cargo run --release --locked -q -p aurora-bench --bin "$fig" \
        | diff -u "tests/golden/$fig.txt" - \
        || { echo "$fig stdout differs from tests/golden/$fig.txt" >&2; exit 1; }
done

echo "== benchmark crate: build against this tree + schema smoke =="
# benchmark/ is a package of its own that reaches into crates/* through
# public items (frame::read_frame, TcpBackend, ...). The driver builds
# it from the committed tree; build and smoke it here so a changed
# signature fails now, not there. Rows go to benchmark/out/. The build
# rewrites benchmark/Cargo.lock whenever a crate's dependency list moved;
# put the file back as found, pass or fail, so no gate run dirties it.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all --smoke >/dev/null

echo "== telemetry gate: disabled record <50 ns, histogram and controller paths <5% of an offload =="
# The only bench target in crates/bench; its own asserts are the gate.
# Virtual-time bounds are tests in tests/ and ran above.
cargo bench -q -p aurora-bench --bench telemetry_overhead -- --smoke

echo "== fault matrix (8 seeds x {veo,dma,tcp}, hang = failure) =="
./scripts/fault_matrix.sh

echo "== soak gate (scaled down: all backends x 4 seeds, SLO-checked) =="
./scripts/soak.sh

echo "== pub audit: every pub item is named outside its crate or listed in scripts/pub_kept.txt =="
./scripts/pub_audit.sh --check

echo "== clippy (warnings are errors, unreachable_pub included) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors: broken, private or redundant links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== rustfmt =="
cargo fmt --check

echo "All checks passed."
