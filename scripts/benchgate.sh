#!/usr/bin/env sh
# benchgate.sh — same-host simulator-throughput gate. Builds the root
# test binary from the work tree and from its base commit, runs
# BenchmarkSimulatorThroughput (one Config A baseline cell, 300k
# instructions) for 5 interleaved pairs of 1 s each under
# GOMAXPROCS=1 GOGC=off, and fails if the work tree's best ns/op is
# more than 10 % above the base's. Both sides run on the same host in
# the same minute, so the ratio means something on any machine; one
# proc pins the trace pipe to its synchronous shape and, with the GC
# off, keeps scheduler and collector noise out of the timing.
#
# The base is `git merge-base HEAD main` (origin/main when there is no
# local main, as in a CI pull-request checkout). When that is HEAD
# itself and the tree is clean, as on a push to main, the base is
# HEAD^. Allocation bounds live in TestRunAllocBounds
# (internal/cpusim), not here; end-to-end performance claims are made
# with perfbench/, not with this gate.
set -eu
cd "$(dirname "$0")/.."
bench=BenchmarkSimulatorThroughput
pairs=5
maxpct=10

fail() {
	echo "benchgate: FAIL — $*" >&2
	exit 1
}

main=main
git rev-parse -q --verify refs/heads/main > /dev/null || main=origin/main
base=$(git merge-base HEAD "$main") || fail "cannot resolve the merge-base of HEAD and $main"
if [ "$base" = "$(git rev-parse HEAD)" ] && [ -z "$(git status --porcelain)" ]; then
	base=$(git rev-parse -q --verify 'HEAD^') || fail "HEAD is a root commit; no base to compare against"
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base" || fail "cannot extract base $base"
go test -c -o "$tmp/new.test" . || fail "cannot build the work tree's test binary"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" .) || fail "cannot build base $base"
for side in new base; do
	"$tmp/$side.test" -test.list "^$bench\$" | grep -qx "$bench" ||
		fail "$bench is missing from the $side test binary"
done

# ns <side>: one run's ns/op for the benchmark, run from that side's tree.
ns() {
	dir=.
	[ "$1" = base ] && dir="$tmp/base"
	(cd "$dir" && GOMAXPROCS=1 GOGC=off "$tmp/$1.test" -test.run '^$' \
		-test.bench "^$bench\$" -test.benchtime 1s) |
		awk -v b="$bench" '$1 == b { for (i = 2; i < NF; i++) if ($(i+1) == "ns/op") print $i }'
}

echo "benchgate: $bench, work tree vs $base, $pairs interleaved pairs"
i=1
while [ "$i" -le "$pairs" ]; do
	# Alternate which side runs first so drift favours neither.
	if [ $((i % 2)) -eq 1 ]; then
		b=$(ns base)
		n=$(ns new)
	else
		n=$(ns new)
		b=$(ns base)
	fi
	[ -n "$b" ] && [ -n "$n" ] || fail "pair $i produced no ns/op figure"
	echo "benchgate: pair $i: base $b ns/op, work tree $n ns/op"
	echo "$b" >> "$tmp/base.ns"
	echo "$n" >> "$tmp/new.ns"
	i=$((i + 1))
done

best_base=$(sort -n "$tmp/base.ns" | head -1)
best_new=$(sort -n "$tmp/new.ns" | head -1)
awk -v b="$best_base" -v n="$best_new" -v pct="$maxpct" 'BEGIN {
	r = n / b
	printf "benchgate: best-of base %d ns/op, work tree %d ns/op, ratio %.3f\n", b, n, r
	if (r > 1 + pct / 100) {
		printf "benchgate: FAIL — work tree more than %d%% slower than its base\n", pct
		exit 1
	}
	print "benchgate: OK"
}'
