#!/usr/bin/env bash
# traffic.sh: what the programs execute, as a ratchet.
#
# Builds icgbench, the five examples and the benchmark with statement
# coverage over every package of the module and runs them: -list, the quick
# paper run (the figures and the claim ledger) and the other quick
# experiments, a checked and traced fault study, failover (plain and
# traced), overload, quick capacity, a 12-seed hunt, a planted 2-seed hunt
# and the replay of one repro it archives, the examples, and the five
# benchmark workloads (end to end and traced). It writes to OUT (default: a
# fresh temporary directory):
#
#   traffic.txt  every function with the share of its statements that ran
#   profile.txt  per-block execution counts
#   TRAFFIC.txt  the functions outside benchmark/ that never ran, one
#                file:function per line, sorted
#
# and compares the last with the checked-in TRAFFIC.txt. A function that
# newly never runs fails: give it traffic, delete it, or add its line. A
# listed function that now runs fails too, until its line is deleted.
#
# Usage, from anywhere (about 2 minutes on 2 cores):
#
#   bash traffic.sh [OUT]
set -euo pipefail

root=$(cd "$(dirname "$0")" && pwd)
out=${1:-$(mktemp -d)}
mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -rf "$out/cov" "$out/run"
mkdir -p "$out/bin" "$out/cov" "$out/run"

cd "$root"
go build -cover -coverpkg=./... -o "$out/bin/icgbench" ./cmd/icgbench
examples="quickstart tickets blockchain adserver newsreader"
for ex in $examples; do
	go build -cover -coverpkg=./... -o "$out/bin/$ex" "./examples/$ex"
done
go build -C benchmark -cover -coverpkg=correctables/... -o "$out/bin/benchmark" .
# The benchmark's traced run writes out/ next to BENCHMARK.json, so it runs
# one level below a copy of it rather than inside benchmark/.
cp BENCHMARK.json "$out/"

export GOCOVERDIR="$out/cov"
(
	cd "$out/run"
	b="$out/bin/icgbench"
	$b -list >/dev/null
	$b -exp paper -quick >/dev/null
	$b -exp ablations,sweep -quick >/dev/null
	$b -exp faultstudy -quick -trace faultstudy-trace.json >/dev/null
	$b -exp failover -quick >/dev/null
	$b -exp failover -quick -trace failover-trace.json >/dev/null
	$b -exp overload -quick >/dev/null
	$b -exp capacity -quick >/dev/null
	$b -exp hunt -quick -hunt-seeds 12 >/dev/null
	# The planted bug must be found: the hunt shrinks and archives its
	# repros and exits 3, and one archived repro must replay identically.
	status=0
	$b -exp hunt -quick -hunt-seeds 2 -hunt-plant -repro-dir repros >/dev/null 2>&1 || status=$?
	if [ "$status" -ne 3 ]; then
		echo "traffic: the planted hunt exited $status, want 3" >&2
		exit 1
	fi
	repro=$(ls repros/*.json | head -n 1)
	$b -repro "$repro" >/dev/null
	for ex in $examples; do
		"$out/bin/$ex" >/dev/null
	done
	for w in ads_spec_closed sessions_rw_checked sharded_open_ramp zk_queue_failover worlds_faults_parallel; do
		"$out/bin/benchmark" --workload "$w" --seed 101 --trace 0 >/dev/null
		"$out/bin/benchmark" --workload "$w" --seed 101 --trace 1 >/dev/null
	done
)
go tool covdata func -i="$GOCOVERDIR" >"$out/traffic.txt"
go tool covdata textfmt -i="$GOCOVERDIR" -o "$out/profile.txt"

# "correctables/internal/core/level.go:49:	String	0.0%" -> "internal/core/level.go:String"
awk '$NF == "0.0%" && $1 !~ /^correctables\/benchmark\// {
	split($1, at, ":"); sub(/^correctables\//, "", at[1]); print at[1] ":" $2
}' "$out/traffic.txt" | LC_ALL=C sort >"$out/TRAFFIC.txt"
echo "traffic: $(wc -l <"$out/TRAFFIC.txt") functions outside benchmark/ never ran; see $out"

fresh=$(LC_ALL=C comm -13 TRAFFIC.txt "$out/TRAFFIC.txt")
ran=$(LC_ALL=C comm -23 TRAFFIC.txt "$out/TRAFFIC.txt")
for f in $fresh; do
	echo "traffic: $f never ran; give it traffic, delete it, or add it to TRAFFIC.txt" >&2
done
for f in $ran; do
	echo "TRAFFIC.txt: $f now runs; delete this line" >&2
done
[ -z "$fresh$ran" ]
