#!/bin/bash
# Regenerates all paper experiments and captures outputs.
set -x
cd "$(dirname "$0")"
cargo build --release -p macro3d-bench 2>&1 | tail -1
./target/release/repro_table1 --scale 8 --obs full > results_table1.txt 2>&1
./target/release/repro_table2 --scale 8 > results_table2.txt 2>&1
./target/release/repro_table3 --scale 8 > results_table3.txt 2>&1
./target/release/repro_figs --scale 12 > results_figs.txt 2>&1
./target/release/ablations --scale 12 > results_ablations.txt 2>&1
echo ALL-EXPERIMENTS-DONE
