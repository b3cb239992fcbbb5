#!/usr/bin/env bash
# make perf-gate: a same-session A/B of the repository benchmark. The
# base commit is checked out into a throw-away worktree; bench/run.sh
# runs base, candidate, candidate, base, and bench's own -compare
# applies BENCHMARK.json's bounds to each pair. The gate fails only
# when the same (workload, metric) is `regressed` in both pairs, or a
# candidate run had failed operations: on a shared box one regressed
# pair is weather. Results and tables stay in .perf_gate/pair*/.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
out="$PWD/.perf_gate" wt="$PWD/.perf_gate/base"
skip() { echo "perf-gate: skipped: $*"; exit 0; }

# The base is the first of (merge-base with origin/main, HEAD~1) that
# is not HEAD and measures with the same instrument as the candidate.
base=
for c in "$(git merge-base HEAD origin/main 2>/dev/null)" "$(git rev-parse -q --verify 'HEAD~1^{commit}')"; do
	[ -n "$c" ] && [ "$c" != "$(git rev-parse HEAD)" ] &&
		git diff --quiet "$c" -- bench BENCHMARK.json && { base=$c; break; }
done
[ -n "$base" ] || skip "no base commit with the same bench/ and BENCHMARK.json (tried the origin/main merge-base and HEAD~1)"

[ -d .bench_build ] && had_build=1
cleanup() {
	git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
	git worktree prune
	[ -n "${had_build:-}" ] || rm -rf .bench_build
}
trap cleanup EXIT
rm -rf "$out" && mkdir -p "$out"/pair{1,2}
git worktree prune # a killed run leaves a registration behind
git worktree add --quiet --detach "$wt" "$base"

run() { # run <checkout> <pair>/<side>: exit status of the bench run
	local t0=$SECONDS rc=0
	(cd "$1" && bash bench/run.sh --seconds 1 -out "$out/$2") >"$out/$2.log" 2>&1 || rc=$?
	echo "perf-gate: $2 (exit $rc) took $((SECONDS - t0)) s"
	return $rc
}
failed=0
run "$wt" pair1/base || true
run . pair1/cand || failed=1
run . pair2/cand || failed=1
run "$wt" pair2/base || true
[ "$failed" = 0 ] || echo "perf-gate: FAIL: a candidate run had failed operations (see $out/pair*/cand.log)"

for p in pair1 pair2; do
	rc=0
	bash bench/run.sh -compare "$out/$p/base/result.json" "$out/$p/cand/result.json" >"$out/$p/compare.txt" || rc=$?
	[ "$rc" -le 1 ] || { echo "perf-gate: $p: bench -compare refused the two runs"; exit "$rc"; }
	awk '$NF == "regressed" { print $1, $2 }' "$out/$p/compare.txt" | sort >"$out/$p/regressed.txt"
	awk -v p="$p" '{ n[$NF]++ } END { printf "perf-gate: %s: %d pass, %d unresolved, %d regressed\n", p, n["pass"], n["unresolved"], n["regressed"] }' "$out/$p/compare.txt"
done
both="$(comm -12 "$out/pair1/regressed.txt" "$out/pair2/regressed.txt")"
if [ -n "$both" ]; then
	echo "perf-gate: FAIL: regressed beyond its bound in both pairs against ${base:0:12}:"
	echo "$both" | sed 's/^/  /'
	failed=1
fi
exit "$failed"
