#!/bin/sh
# native_smoke.sh — end-to-end check of the native substrate through the CLIs.
#
# Runs every protocol on the native backend via consensus-sim with the online
# audit monitor escalated (the monitor is the correctness oracle natively —
# there is no replay), asserting a decision and zero probe firings, then runs
# one native consensus-load workload and asserts the report is stamped with
# the native substrate. Exits nonzero on any violation, error, or missing
# surface.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/consensus-sim" ./cmd/consensus-sim
go build -o "$TMP/consensus-load" ./cmd/consensus-load

for alg in bounded aspnes-herlihy local-coin strong-coin abrahamson anonymous; do
	"$TMP/consensus-sim" -alg "$alg" -inputs 0,1,1,0 -substrate native \
		-seed 42 -audit -audit-sample 1 >"$TMP/sim_out" ||
		{ echo "native_smoke: $alg failed on the native substrate" >&2; cat "$TMP/sim_out" >&2; exit 1; }
	grep -q 'substrate : native' "$TMP/sim_out" ||
		{ echo "native_smoke: $alg output missing native substrate line" >&2; cat "$TMP/sim_out" >&2; exit 1; }
	grep -q '^decision' "$TMP/sim_out" ||
		{ echo "native_smoke: $alg printed no decision" >&2; cat "$TMP/sim_out" >&2; exit 1; }
done

"$TMP/consensus-load" -instances 50 -seed 7 -substrate native -json >"$TMP/load.json" ||
	{ echo "native_smoke: consensus-load -substrate native failed" >&2; exit 1; }
grep -q '"substrate": *"native"' "$TMP/load.json" ||
	{ echo "native_smoke: load report missing substrate stamp" >&2; cat "$TMP/load.json" >&2; exit 1; }
grep -q '"errors": *0' "$TMP/load.json" ||
	{ echo "native_smoke: native load reported instance errors" >&2; cat "$TMP/load.json" >&2; exit 1; }

echo "native_smoke: ok (6 protocols + load batch on native)"
