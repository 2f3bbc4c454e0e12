#!/usr/bin/env bash
# Paired benchmark gate. Runs the repository benchmark (perfbench, declared in
# BENCHMARK.json) on this checkout and on BASE, alternating which side runs
# first, and fails when the change is worse than BASE. Run from the
# repository root:
#
#   bash .github/bench-gate.sh BASE
#
# It fails when any run is not correct, when the change fails a larger share
# of its operations, when the change's output lacks a BENCHMARK.json
# workload, or when any end-to-end median on any workload is worse than
# BASE's by more than its bound. A bound is a fraction of BASE's median:
# setup_s's 0.25 on a metric of a few milliseconds cannot mean seconds.
#
# BASE is checked out by a local git clone, not a worktree, because
# perfbench/run.sh stamps the revision only when .git is a directory. The
# gate document (.bench_gate/gate.json: per workload and metric BASE's median
# and quartiles, the change's median, the relative change, the bound and the
# verdict, plus both sides' fingerprints) and each run's raw output are left
# in .bench_gate/.
set -euo pipefail

# Fixed so that every gate measures the same way: 4 pairs of 4-second
# windows per workload take about 3 minutes on a 2-CPU host.
pairs=4
seconds=4

[ $# -eq 1 ] || { echo "usage: bash .github/bench-gate.sh BASE" >&2; exit 2; }
out="$PWD/.bench_gate"
rm -rf "$out"
mkdir -p "$out"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git clone -q --no-checkout "$PWD" "$tmp/base"
git -C "$tmp/base" checkout -q --detach "$1"

run() { # side dir pair
	(cd "$2" && bash perfbench/run.sh --workload all --seconds "$seconds") >"$out/$1-$3.txt"
	grep '^{' "$out/$1-$3.txt" | jq -c -s --arg side "$1" \
		'range(0; length; 2) as $k | {side: $side, fingerprint: .[$k].fingerprint, result: .[$k + 1]}' \
		>>"$out/runs.jsonl"
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) = 1 ]; then
		run base "$tmp/base" "$i"
		run change "$PWD" "$i"
	else
		run change "$PWD" "$i"
		run base "$tmp/base" "$i"
	fi
done

jq -n --slurpfile runs "$out/runs.jsonl" --slurpfile bench BENCHMARK.json \
	--argjson pairs "$pairs" --argjson seconds "$seconds" '
	def q($p): sort as $s | ((($s | length) - 1) * $p) as $i | ($i | floor) as $lo
		| if $s == [] then null elif $lo == $i then $s[$lo]
		  else $s[$lo] + ($i - $lo) * ($s[$lo + 1] - $s[$lo]) end;
	def side($s): [$runs[] | select(.side == $s)]
		| {fingerprints: (map(.fingerprint) | unique),
		   attempted: (map(.result.attempted) | add), failed: (map(.result.failed) | add)};
	def share: if .attempted > 0 then .failed / .attempted else 1 end;
	def values($s; $w; $m): [$runs[] | select(.side == $s and .fingerprint.workload == $w)
		| .result.metrics[$m].value // empty];
	side("base") as $base | side("change") as $change
	| [$bench[0].workloads[].name as $w | $bench[0].end_to_end[] as $m
	   | values("base"; $w; $m.name) as $b | values("change"; $w; $m.name) as $c
	   | {workload: $w, metric: $m.name, unit: $m.unit, better: $m.better, bound: $m.bound,
	      base_median: ($b | q(0.5)), base_q1: ($b | q(0.25)), base_q3: ($b | q(0.75)),
	      change_median: ($c | q(0.5))}
	   | .change = (if .base_median and .change_median
		then (.change_median - .base_median) / .base_median else null end)
	   | .verdict = if .change_median == null then "missing"
		elif .change == null then "no base"
		elif (if .better == "lower" then .change else -.change end) > .bound then "worse"
		else "ok" end] as $rows
	| {pairs: $pairs, seconds: $seconds, base: $base, change: $change, metrics: $rows,
	   failures: ([$runs[] | select(.result.correct != true)
			| "\(.side) \(.fingerprint.workload): not correct"]
		+ (if ($change | share) > ($base | share)
			then ["change fails \($change.failed) of \($change.attempted) operations, base \($base.failed) of \($base.attempted)"]
			else [] end)
		+ [$rows[] | select(.verdict == "missing") | "change lacks \(.workload) \(.metric)"]
		+ [$rows[] | select(.verdict == "worse")
			| "\(.workload) \(.metric): \(.change * 1000 | round / 10)% against a bound of \(.bound * 100 | round)%"])}
	| .pass = (.failures == [])' >"$out/gate.json"

jq -r '.metrics[] | [.workload, .metric, .base_median, .base_q1, .base_q3, .change_median,
	(.change // 0) * 100, .bound * 100, .verdict] | @tsv' "$out/gate.json" |
	awk -F'\t' 'BEGIN { printf "%-17s %-12s %10s %21s %10s %8s %6s  %s\n",
		"workload", "metric", "base", "base q1-q3", "change", "delta", "bound", "verdict" }
		{ printf "%-17s %-12s %10.4g %10.4g-%-10.4g %10.4g %+7.1f%% %5.0f%%  %s\n",
		$1, $2, $3, $4, $5, $6, $7, $8, $9 }'
jq -r '.failures[] | "FAIL: " + .' "$out/gate.json"
if ! jq -e '.pass' "$out/gate.json" >/dev/null; then
	echo "bench gate: FAIL"
	exit 1
fi
echo "bench gate: PASS ($pairs pairs, --seconds $seconds)"
