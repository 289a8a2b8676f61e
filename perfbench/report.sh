#!/usr/bin/env bash
# Print every end-to-end and per-layer metric of all three workloads: an
# untraced and a traced run of each, one after the other.
#
# Usage: perfbench/report.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-15}"
for workload in medical_paper zipf_mixed durable_cycle; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
