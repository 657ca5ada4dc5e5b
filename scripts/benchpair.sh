#!/usr/bin/env sh
# benchpair.sh — paired parent/change benchmark runs (ROADMAP standing
# rule: commits are compared only by interleaved pairs).
#
#   scripts/benchpair.sh <ref> [pairs=10] [first-seed=1] [workload ...]
#
# Extracts <ref> under .benchpair/parent (git-ignored; `git archive`, so
# nothing is registered in .git and the measured tree is exactly the
# committed one), then for every workload of BENCHMARK.json (or the ones
# named) runs <pairs> pairs of
#   sh benchmark/run.sh --workload W --seed i --seconds 30 --trace 0
# — seed i = first-seed … first-seed+pairs-1, once in the parent tree and
# once in this one, alternating which side goes first — and keeps each
# run's out/W.result.json under .benchpair/runs. Then it prints, per
# workload and metric, both sides' medians and quartiles, the median
# delta, pairs won, and a verdict by the choosing-metrics guide (§8,
# §6.5); see scripts/benchpair/main.go. Nothing under benchmark/ is
# touched: each side builds and runs its own copy. A full default run is
# 3 workloads x 10 pairs x 2 sides x ~50 s, about 50 minutes.
#
# BENCHPAIR_JSON=<file> also writes the paired medians as JSON (the
# BENCH_<n>.json a performance PR checks in).
set -eu
cd "$(dirname "$0")/.."
ROOT="$PWD"
[ $# -ge 1 ] || { echo "usage: scripts/benchpair.sh <ref> [pairs=10] [first-seed=1] [workload ...]" >&2; exit 2; }
REF="$1"
PAIRS="${2:-10}"
FIRST="${3:-1}"
[ $# -le 3 ] && shift $# || shift 3
WORKLOADS="$*"
[ -n "$WORKLOADS" ] || WORKLOADS="$(go run ./scripts/benchpair -contract BENCHMARK.json -workloads)"

COMMIT="$(git rev-parse --short "$REF^{commit}")"
OUT="$ROOT/.benchpair"
rm -rf "$OUT/parent" "$OUT/runs"
mkdir -p "$OUT/parent" "$OUT/runs"
git archive "$COMMIT" | tar -x -C "$OUT/parent"

# run <side> <dir> <workload> <seed>: one benchmark run in <dir>.
run() {
	if (cd "$2" && sh benchmark/run.sh --workload "$3" --seed "$4" --seconds 30 --trace 0) >"$OUT/runs/$3.$4.$1.log" 2>&1; then
		cp "$2/benchmark/out/$3.result.json" "$OUT/runs/$3.$4.$1.json"
	else
		echo "benchpair: $1 run failed: workload $3 seed $4 (see $OUT/runs/$3.$4.$1.log)" >&2
	fi
}

for W in $WORKLOADS; do
	I=0
	while [ "$I" -lt "$PAIRS" ]; do
		SEED=$((FIRST + I))
		if [ $((I % 2)) -eq 0 ]; then
			run parent "$OUT/parent" "$W" "$SEED"
			run change "$ROOT" "$W" "$SEED"
		else
			run change "$ROOT" "$W" "$SEED"
			run parent "$OUT/parent" "$W" "$SEED"
		fi
		I=$((I + 1))
		echo "benchpair: $W pair $I/$PAIRS done (seed $SEED)" >&2
	done
done

go run ./scripts/benchpair -contract BENCHMARK.json -runs "$OUT/runs" -ref "$COMMIT" ${BENCHPAIR_JSON:+-json "$BENCHPAIR_JSON"}
