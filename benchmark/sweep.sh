#!/usr/bin/env bash
# Write one result set: every workload <runs> times, each run with its
# own seed, one process per run, appended to <file> as JSON lines.
#
#   bash benchmark/sweep.sh benchmark/out/A.json [runs=10] [first-seed=1]
#   bash benchmark/run.sh compare benchmark/out/A.json benchmark/out/B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
file="${1:?usage: sweep.sh <file> [runs] [first-seed]}"
runs="${2:-10}"
seed="${3:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
for w in fwd-small edit-bulk churn paced sim-suite; do
	for ((i = 0; i < runs; i++)); do
		bash "$here/run.sh" --workload "$w" --seed "$((seed + i))" --seconds "$seconds" --trace 0 --out "$file" | tail -n 1 | cut -c1-160
	done
done
