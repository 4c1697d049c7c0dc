#!/bin/sh
# bench_check.sh — regression gate on the sequential decision hot path.
#
# Compares the decide/stochastic and decide/argmax ns/op of a fresh
# cmd/bench run against the committed BENCH_inference.json baseline and
# fails when either regresses by more than 25%. Scale-harness numbers
# (BENCH_scale.json) are recorded but deliberately not gated: episode
# throughput varies too much across runner hardware for a meaningful
# cross-machine threshold, while the per-decision hot path is stable
# enough to bound.
#
# Usage: scripts/bench_check.sh [baseline.json] [fresh.json] [scale.json] [rpc.json] [rpc_fresh.json]
#   baseline.json  defaults to the committed BENCH_inference.json
#   fresh.json     defaults to running `go run ./cmd/bench` to a temp file
#   scale.json     defaults to BENCH_scale.json; its flows/sec series is
#                  summarized and sanity-checked for parseability
#   rpc.json       defaults to BENCH_rpc.json; its RTT p50 must be finite
#                  and > 0 for every record and no record may carry
#                  "equal_metrics":false
#   rpc_fresh.json optional: a freshly measured rpc JSONL (make bench-rpc
#                  to another path). When given, each mode's RTT p50 is
#                  gated at +5% of the committed rpc.json baseline — the
#                  tracing-plumbed decide path must not tax the untraced
#                  round trip. Omitted by default because a fresh RPC
#                  measurement needs a spun-up fleet.
#
# Pass "-" for baseline.json, scale.json, or rpc.json to skip that gate
# explicitly. A missing or unparsable gate input is NOT a skip:
#
# Exit codes:
#   0  every gate passed
#   1  REGRESSED: a gated number regressed or an oracle recorded an
#      inconsistency
#   2  NO BASELINE: a gate input is missing or unparsable — a setup
#      problem, never a clean pass (previously these paths passed
#      vacuously and a deleted baseline disabled the gate silently)
set -eu

cd "$(dirname "$0")/.."

BASELINE=${1:-BENCH_inference.json}
FRESH=${2:-}
SCALE=${3:-BENCH_scale.json}
RPC=${4:-BENCH_rpc.json}
RPC_FRESH=${5:-}
LIMIT=125     # fresh ns/op may be at most this percent of baseline
RPC_LIMIT=105 # fresh rpc p50 may be at most this percent of baseline

fail=0
missing=0
no_baseline() {
	echo "bench_check: NO BASELINE: $*" >&2
	missing=1
}

# Extracts ns_per_op of the decide record with the given variant from a
# JSONL benchmark file.
ns_per_op() {
	awk -v want="$2" '
		/"record":"bench"/ && /"bench":"decide"/ {
			if (index($0, "\"variant\":\"" want "\"") == 0) next
			if (match($0, /"ns_per_op":[0-9.eE+-]+/)) {
				print substr($0, RSTART + 12, RLENGTH - 12)
				exit
			}
		}' "$1"
}

# --- decide hot-path gate -------------------------------------------------
if [ "$BASELINE" = "-" ]; then
	echo "bench_check: decide gate skipped explicitly (baseline '-')"
elif [ ! -f "$BASELINE" ]; then
	no_baseline "$BASELINE not found (regenerate with 'make bench' and commit it, or pass '-' to skip the decide gate deliberately)"
else
	if [ -z "$FRESH" ]; then
		FRESH=$(mktemp /tmp/bench_check.XXXXXX.json)
		trap 'rm -f "$FRESH"' EXIT
		echo "bench_check: measuring fresh decide hot path..."
		go run ./cmd/bench -out "$FRESH" >/dev/null
	fi
	for variant in stochastic argmax; do
		base=$(ns_per_op "$BASELINE" "$variant")
		cur=$(ns_per_op "$FRESH" "$variant")
		if [ -z "$base" ]; then
			no_baseline "$BASELINE has no decide/$variant record (corrupt or truncated baseline?)"
			continue
		fi
		if [ -z "$cur" ]; then
			echo "bench_check: fresh run $FRESH produced no decide/$variant record" >&2
			fail=1
			continue
		fi
		pct=$(awk -v b="$base" -v c="$cur" 'BEGIN { printf "%+.1f", (c - b) / b * 100 }')
		if [ "$(awk -v b="$base" -v c="$cur" -v lim="$LIMIT" 'BEGIN { print (c <= b * lim / 100) ? 1 : 0 }')" = 1 ]; then
			echo "bench_check: decide/$variant ok: $cur ns/op vs baseline $base ($pct%)"
		else
			echo "bench_check: decide/$variant REGRESSED: $cur ns/op vs baseline $base ($pct%, limit +25%)" >&2
			fail=1
		fi
	done
fi

# --- scale series ---------------------------------------------------------
# Summarized for the log, not regression-gated (episode throughput is
# too machine-dependent for a cross-runner threshold) — but a missing or
# unparseable file is an error.
if [ "$SCALE" = "-" ]; then
	echo "bench_check: scale gate skipped explicitly (scale '-')"
elif [ ! -f "$SCALE" ]; then
	no_baseline "$SCALE not found (regenerate with 'make bench-scale' and commit it, or pass '-' to skip the scale gate deliberately)"
else
	rows=$(awk '
		/"record":"scale"/ {
			n = b = f = sp = ""
			if (match($0, /"nodes":[0-9]+/)) n = substr($0, RSTART + 8, RLENGTH - 8)
			if (match($0, /"batch":[0-9]+/)) b = substr($0, RSTART + 8, RLENGTH - 8)
			if (match($0, /"flows_per_sec":[0-9.eE+-]+/)) f = substr($0, RSTART + 16, RLENGTH - 16)
			if (match($0, /"speedup":[0-9.eE+-]+/)) sp = substr($0, RSTART + 10, RLENGTH - 10)
			if (n != "" && b != "" && f != "")
				printf "bench_check: scale nodes=%-5s batch=%-3s %10.0f flows/sec %6.2fx\n", n, b, f, sp
		}' "$SCALE")
	if [ -z "$rows" ]; then
		no_baseline "$SCALE has no parseable scale records"
	else
		echo "$rows"
	fi
fi

# --- decision-RTT sanity gates --------------------------------------------
# Every rpc record's p50 must be a finite, strictly positive number (a
# zero or NaN p50 means the histogram never saw a sample), and the
# in-run equivalence oracle must not have recorded a divergence.
if [ "$RPC" = "-" ]; then
	echo "bench_check: rpc gate skipped explicitly (rpc '-')"
elif [ ! -f "$RPC" ]; then
	no_baseline "$RPC not found (regenerate with 'make bench-rpc' and commit it, or pass '-' to skip the rpc gate deliberately)"
else
	rpc_rows=$(awk '
		/"record":"rpc"/ {
			mode = p50 = ""
			if (match($0, /"mode":"[a-z]+"/)) mode = substr($0, RSTART + 8, RLENGTH - 9)
			if (match($0, /"rtt_p50_us":[0-9.eE+-]+/)) p50 = substr($0, RSTART + 13, RLENGTH - 13)
			print mode, p50
		}' "$RPC")
	if [ -z "$rpc_rows" ]; then
		no_baseline "$RPC has no parseable rpc records"
	fi
	echo "$rpc_rows" | while read -r mode p50; do
		[ -z "$mode" ] && continue
		if [ -z "$p50" ] || [ "$(awk -v v="$p50" 'BEGIN { print (v > 0 && v < 1e12) ? 1 : 0 }')" != 1 ]; then
			echo "bench_check: $RPC rpc/$mode p50 '$p50' is not finite and > 0" >&2
			exit 1
		fi
		echo "bench_check: rpc $mode decision RTT p50 $p50 us ok"
	done || fail=1
	if grep -q '"equal_metrics":false' "$RPC"; then
		echo "bench_check: $RPC records a remote run that diverged from the in-process run" >&2
		fail=1
	fi
fi

# --- decision-RTT regression gate -----------------------------------------
# Only with an explicit fresh measurement: per-mode p50 vs the committed
# baseline, bounded at +5% so trace-context plumbing (always-on span
# stamping and server-side timing) cannot silently tax the untraced
# decide round trip.
rpc_p50() {
	awk -v want="$2" '
		/"record":"rpc"/ {
			if (index($0, "\"mode\":\"" want "\"") == 0) next
			if (match($0, /"rtt_p50_us":[0-9.eE+-]+/)) {
				print substr($0, RSTART + 13, RLENGTH - 13)
				exit
			}
		}' "$1"
}

if [ -z "$RPC_FRESH" ] || [ "$RPC_FRESH" = "-" ]; then
	: # gate not requested
elif [ ! -f "$RPC_FRESH" ]; then
	no_baseline "$RPC_FRESH not found (regenerate with 'make bench-rpc' to that path)"
elif [ "$RPC" = "-" ] || [ ! -f "$RPC" ]; then
	no_baseline "rpc p50 gate needs the committed $RPC baseline alongside $RPC_FRESH"
else
	gated=0
	for mode in inproc socket; do
		base=$(rpc_p50 "$RPC" "$mode")
		cur=$(rpc_p50 "$RPC_FRESH" "$mode")
		if [ -z "$base" ]; then
			no_baseline "$RPC has no rpc/$mode p50 record"
			continue
		fi
		if [ -z "$cur" ]; then
			echo "bench_check: $RPC_FRESH has no rpc/$mode p50 record" >&2
			fail=1
			continue
		fi
		gated=$((gated + 1))
		pct=$(awk -v b="$base" -v c="$cur" 'BEGIN { printf "%+.1f", (c - b) / b * 100 }')
		if [ "$(awk -v b="$base" -v c="$cur" -v lim="$RPC_LIMIT" 'BEGIN { print (c <= b * lim / 100) ? 1 : 0 }')" = 1 ]; then
			echo "bench_check: rpc/$mode p50 ok: $cur us vs baseline $base ($pct%)"
		else
			echo "bench_check: rpc/$mode p50 REGRESSED: $cur us vs baseline $base ($pct%, limit +5%)" >&2
			fail=1
		fi
	done
	if [ "$gated" -eq 0 ] && [ "$missing" -eq 0 ]; then
		no_baseline "rpc p50 gate matched no modes between $RPC and $RPC_FRESH"
	fi
fi

if [ "$fail" -ne 0 ]; then
	echo "bench_check: FAILED: REGRESSED (exit 1)" >&2
	exit 1
fi
if [ "$missing" -ne 0 ]; then
	echo "bench_check: FAILED: NO BASELINE (exit 2) — fix the baseline files; an absent baseline is not a passing gate" >&2
	exit 2
fi
echo "bench_check: all gates passed"
