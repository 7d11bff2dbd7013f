#!/bin/sh
# tail_smoke.sh — end-to-end check of the tail-latency observability layer.
#
# Runs a metered batch with a straggler digest and replay (-stragglers 3
# -straggler-replay), asserts the bench report carries the latency block, the
# straggler digests and the environment stamp, that every forensic bundle is
# complete and parses through traceview -tail, and that each replay line
# carries its blame cell. Exits nonzero on any missing surface.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT INT TERM

go build -o "$TMP/consensus-load" ./cmd/consensus-load
go build -o "$TMP/traceview" ./cmd/traceview

# 1. Metered batch with digest + replay: the report carries the tail blocks.
"$TMP/consensus-load" -instances 80 -seed 7 -stragglers 3 -straggler-replay \
	-straggler-dir "$TMP/bundles" -json >"$TMP/report.json" 2>"$TMP/stderr"

for want in '"latency"' '"p99_ns"' '"stragglers"' '"env"' '"go_version"'; do
	grep -qF "$want" "$TMP/report.json" ||
		{ echo "tail_smoke: report missing $want" >&2; cat "$TMP/report.json" >&2; exit 1; }
done

# 2. Every bundle is complete, and its summary parses through traceview -tail.
BUNDLES=0
for dir in "$TMP"/bundles/*/; do
	BUNDLES=$((BUNDLES + 1))
	for f in trace.jsonl profile.json perfetto.json summary.json; do
		[ -s "$dir$f" ] || { echo "tail_smoke: bundle $dir missing $f" >&2; exit 1; }
	done
	"$TMP/traceview" -tail "${dir}summary.json" | grep -q 'straggler replay' ||
		{ echo "tail_smoke: traceview -tail rejected ${dir}summary.json" >&2; exit 1; }
done
[ "$BUNDLES" -eq 3 ] || { echo "tail_smoke: expected 3 bundles, found $BUNDLES" >&2; exit 1; }

# 3. The bench artifact renders through the tail view.
"$TMP/traceview" -tail "$TMP/report.json" >"$TMP/tailview"
grep -q 'wall-clock latency per workload' "$TMP/tailview" &&
	grep -q 'straggler digests' "$TMP/tailview" ||
	{ echo "tail_smoke: traceview -tail output incomplete" >&2; cat "$TMP/tailview" >&2; exit 1; }

# 4. A text-mode run replays and attributes in one shot: each replay line
# carries the straggler's blame cell.
"$TMP/consensus-load" -instances 60 -stragglers 2 -seed 3 -straggler-replay \
	-straggler-dir "$TMP/forensics" >/dev/null 2>"$TMP/stragout"
[ "$(grep -c 'prod .* retry .* coin ' "$TMP/stragout")" -eq 2 ] ||
	{ echo "tail_smoke: replay lines lack blame cells" >&2; cat "$TMP/stragout" >&2; exit 1; }

echo "tail_smoke: ok (3 bundles replayed)"
