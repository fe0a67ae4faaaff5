#!/usr/bin/env sh
# benchgate.sh — simulator-throughput regression gate. Re-runs the
# root BenchmarkSimulatorThroughput at steady state (best of GATECOUNT
# runs of GATETIME each) and compares against the best figures recorded
# for it in the newest steady-state BENCH_*.json snapshot; exits non-zero
# if the fresh run is more than GATEPCT percent slower in ns/op, or
# more than MEMPCT percent heavier in B/op or allocs/op (snapshots
# predating -benchmem carry no memory figures, in which case the memory
# gate is skipped). Best-of on both sides keeps the gate usable on
# shared, noisy machines; the snapshot being compared against should
# itself be a steady-state run (see bench.sh BENCHTIME/BENCHCOUNT), not
# a 1x smoke capture. The baseline is therefore the newest snapshot by
# file name (BENCH_<date>.json, then .2, .3, … the same day) whose
# bench_meta line records a benchtime other than 1x; snapshots without
# a bench_meta line are not considered. File modification times are not
# used: a checkout sets them all to the same moment.
set -eu
cd "$(dirname "$0")/.."
GATETIME=${GATETIME:-2s}
GATECOUNT=${GATECOUNT:-3}
GATEPCT=${GATEPCT:-10}
MEMPCT=${MEMPCT:-20}

snap=
for f in $(ls BENCH_*.json 2>/dev/null | sort -t. -k1,1r -k2,2nr); do
	bt=$(head -1 "$f" | sed -n 's/.*"bench_meta":{"benchtime":"\([^"]*\)".*/\1/p')
	if [ -n "$bt" ] && [ "$bt" != 1x ]; then
		snap=$f
		break
	fi
done
if [ -z "$snap" ]; then
	echo "benchgate: no steady-state BENCH_*.json snapshot to gate against; skipping"
	exit 0
fi

# best <unit>: lowest "<number> <unit>" figure on the benchmark's lines.
best() {
	awk -v unit="$1" '
		/BenchmarkSimulatorThroughput/ {
			if (!match($0, "[0-9][0-9.]* " unit)) next
			v = substr($0, RSTART, RLENGTH)
			sub(" " unit, "", v)
			v = v + 0
			if (best == 0 || v < best) best = v
		}
		END { if (best > 0) printf "%.0f", best }'
}

base_ns=$(best 'ns/op' < "$snap")
if [ -z "$base_ns" ]; then
	echo "benchgate: $snap has no SimulatorThroughput entry; skipping"
	exit 0
fi
base_bytes=$(best 'B/op' < "$snap")
base_allocs=$(best 'allocs/op' < "$snap")

echo "benchgate: running BenchmarkSimulatorThroughput ($GATECOUNT x $GATETIME)..."
out=$(go test -run '^$' -bench 'BenchmarkSimulatorThroughput$' \
	-benchtime "$GATETIME" -count "$GATECOUNT" -benchmem .)
new_ns=$(printf '%s\n' "$out" | best 'ns/op')
new_bytes=$(printf '%s\n' "$out" | best 'B/op')
new_allocs=$(printf '%s\n' "$out" | best 'allocs/op')
if [ -z "$new_ns" ]; then
	echo "benchgate: benchmark produced no ns/op figure" >&2
	exit 1
fi

# gate <label> <base> <new> <pct>: fail if new exceeds base by > pct %.
gate() {
	awk -v label="$1" -v base="$2" -v new="$3" -v pct="$4" -v snap="$snap" 'BEGIN {
		delta = (new / base - 1) * 100
		printf "benchgate: snapshot %s best %.0f %s, fresh best %.0f (%+.1f%%)\n", snap, base, label, new, delta
		if (delta > pct) {
			printf "benchgate: FAIL — %s more than %d%% worse than the committed snapshot\n", label, pct
			exit 1
		}
	}'
}

gate 'ns/op' "$base_ns" "$new_ns" "$GATEPCT"
if [ -n "$base_bytes" ] && [ -n "$new_bytes" ]; then
	gate 'B/op' "$base_bytes" "$new_bytes" "$MEMPCT"
else
	echo "benchgate: no B/op figures in $snap; memory gate skipped"
fi
if [ -n "$base_allocs" ] && [ -n "$new_allocs" ]; then
	gate 'allocs/op' "$base_allocs" "$new_allocs" "$MEMPCT"
fi
echo "benchgate: OK"
