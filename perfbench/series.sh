#!/usr/bin/env bash
# Runs the benchmark once per seed and keeps each run's output, for the
# comparison mode. Run from the repository root:
#
#   bash perfbench/series.sh <out-dir> <workload> <seconds> <seed>...
#   bash perfbench/run.sh -compare <base-out-dir> <new-out-dir>
set -uo pipefail
out=$1 workload=$2 seconds=$3
shift 3
mkdir -p "$out"
status=0
for seed in "$@"; do
	if ! bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
		>"$out/$workload-$seed.out" 2>"$out/$workload-$seed.err"; then
		echo "series: $workload seed $seed failed; see $out/$workload-$seed.err" >&2
		status=1
	fi
done
exit $status
