#!/usr/bin/env bash
# Runs the benchmark on seeds 1..N of each workload and keeps every run's
# output as OUTDIR/<workload>-<seed>.out, the layout compare reads:
#   bash vifbench/runs.sh OUTDIR N [WORKLOAD...]
# Run it from the repository root. The workloads default to those
# BENCHMARK.json lists; the run length is always its run_seconds.
set -uo pipefail
out=$1
n=$2
shift 2
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	read -ra workloads <<<"$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p "$out"
status=0
for seed in $(seq 1 "$n"); do
	for w in "${workloads[@]}"; do
		if ! bash vifbench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 >"$out/$w-$seed.out"; then
			echo "runs: $w seed $seed failed (see $out/$w-$seed.out)" >&2
			status=1
		fi
	done
done
exit $status
