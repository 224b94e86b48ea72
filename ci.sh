#!/usr/bin/env bash
# Repo CI gate: formatting, lints, release build, tests.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# neurfill-runtime, neurfill (core), neurfill-obs, neurfill-tensor,
# neurfill-nn, neurfill-cmpsim, neurfill-serve, neurfill-chip and
# neurfill-data deny clippy::unwrap_used / clippy::expect_used at the
# crate level (lib + bins, tests exempt); this run enforces it.
echo "== cargo clippy (no unwrap/expect in lib+bins)"
cargo clippy -p neurfill-runtime -p neurfill -p neurfill-obs \
    -p neurfill-tensor -p neurfill-nn -p neurfill-cmpsim \
    -p neurfill-serve -p neurfill-chip -p neurfill-data \
    --lib --bins -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo bench --no-run (compile-only)"
cargo bench --workspace --no-run

echo "== cargo test -q"
cargo test -q

echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== fault-injection suite"
cargo test -p neurfill-runtime --test fault_injection -q

echo "== telemetry suite"
cargo test -p neurfill-obs -q
cargo test -p neurfill-runtime --test telemetry -q

echo "== kernel-equivalence suite (bitwise determinism)"
cargo test -p neurfill-tensor --test gemm_equivalence -q
cargo test -p neurfill-cmpsim --test kernel_equivalence -q
cargo test -p neurfill-nn --test determinism -q

echo "== kernel bench (compile-only)"
cargo bench -p neurfill-bench --bench kernels --no-run

echo "== quantized-backend certification suite (seam, calibration, downstream, serve canary)"
cargo test -p neurfill-tensor -q quant
cargo test -p neurfill-nn -q quant
cargo test -p neurfill --test downstream_equivalence -q
cargo test -p neurfill-serve --test quant_canary -q

echo "== infer bench (compile-only)"
cargo bench -p neurfill-bench --bench infer --no-run

echo "== serve service suite"
cargo test -p neurfill-serve --test service -q
cargo test -p neurfill-serve --test http_hardening -q

echo "== serve bench (compile-only)"
cargo bench -p neurfill-bench --bench serve --no-run

echo "== chip bit-identity suite (sharded == monolithic, any tiling)"
cargo test -p neurfill-chip --test bit_identity -q
cargo test -p neurfill-layout --test tiling_props -q

echo "== fullchip bench (compile-only)"
cargo bench -p neurfill-bench --bench fullchip --no-run

echo "== durability suite (append log, shard finalize, training checkpoints)"
cargo test -p neurfill-data -q

echo "== chaos/recovery suite (wait_first under faults, kill-at-every-ordinal, bit-identical resume)"
cargo test -p neurfill-runtime --test wait_first -q
cargo test -p neurfill-chip --test checkpoint_resume -q
cargo test -p neurfill-serve --test recovery -q

echo "== recovery bench (compile-only)"
cargo bench -p neurfill-bench --bench recovery --no-run

echo "== end-to-end benchmark (build only)"
cargo build --release --locked --manifest-path e2ebench/Cargo.toml --target-dir target/e2ebench

echo "CI OK"
