#!/usr/bin/env sh
# Golden-reproduction gate: the checked-in golden outputs must
# reproduce byte-identically, and a warm re-run against the
# content-addressed result cache must be served entirely from cache
# while still emitting byte-identical tables. Progress and summary
# lines go to stderr by design, so stdout comparison is exact.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

echo "goldens: analytical"
go run ./cmd/pcs analytical -fig2 -fig3a -fig3b -fig3c -fig3d -area -vdd > "$tmp/analytical.txt"
cmp analytical_output.txt "$tmp/analytical.txt"

echo "goldens: fig4 (cold, cached)"
go run ./cmd/pcs sim -q -spec examples/fig4.json -cache "$tmp/cache" > "$tmp/fig4.txt"
cmp fig4_output.txt "$tmp/fig4.txt"

echo "goldens: sweep (cold, cached)"
go run ./cmd/pcs sweep -spec examples/sweep.json -cache "$tmp/cache" > "$tmp/sweep1.txt" 2> "$tmp/sweep1.err"
cmp sweep_output.txt "$tmp/sweep1.txt"

echo "goldens: sweep (warm re-run must hit 100%)"
go run ./cmd/pcs sweep -spec examples/sweep.json -cache "$tmp/cache" > "$tmp/sweep2.txt" 2> "$tmp/sweep2.err"
cmp "$tmp/sweep1.txt" "$tmp/sweep2.txt"
if ! grep -q ' 0 computed' "$tmp/sweep2.err"; then
	echo "warm sweep re-ran cells instead of hitting the cache:" >&2
	tail -1 "$tmp/sweep2.err" >&2
	exit 1
fi

echo "goldens: multicore"
go run ./cmd/pcs multicore -spec examples/multicore.toml > "$tmp/multicore.txt"
cmp multicore_output.txt "$tmp/multicore.txt"

echo "goldens: OK"
