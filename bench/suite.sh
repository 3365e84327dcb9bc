#!/usr/bin/env bash
# Runs every workload once per seed and appends the results to a
# JSON-lines file for `run.sh -compare`: <runs> seeds untraced (the
# end-to-end metrics and their spread) and the first <traced> of them
# traced (the per-layer metrics; the exact ones compare by seed).
#
#   bash bench/suite.sh results.jsonl [first-seed [runs [traced]]]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:?usage: suite.sh <out.jsonl> [first-seed [runs [traced]]]}"
first="${2:-1}" runs="${3:-10}" traced="${4:-3}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
for workload in hot.L2 hot.L3 cold.translate soc.4c.seq soc.4c.par serve.mixed; do
	for ((i = 0; i < runs; i++)); do
		for trace in 0 1; do
			if ((trace == 1 && i >= traced)); then continue; fi
			bash "$here/run.sh" --workload "$workload" --seed $((first + i)) --seconds "$seconds" --trace "$trace" -out "$out" >/dev/null
		done
	done
done
