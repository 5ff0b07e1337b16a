#!/bin/bash
# Runs the workspace tests and benches, keeping their full output in
# test_output.txt and bench_output.txt at the workspace root.
cd "$(dirname "$0")"
cargo test --workspace 2>&1 | tee test_output.txt | tail -3
cargo bench --workspace 2>&1 | tee bench_output.txt | tail -3
echo FINAL-TEE-DONE
