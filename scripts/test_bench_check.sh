#!/bin/sh
# test_bench_check.sh — tests for bench_check.sh's gate semantics,
# pinned against fixture benchmark files (no benchmarks are run).
#
# The regression this guards: bench_check.sh used to pass vacuously
# when a committed BENCH_*.json baseline was missing — deleting a
# baseline silently disabled the gate. The gate now distinguishes
# REGRESSED (exit 1) from NO BASELINE (exit 2), and only an explicit
# "-" argument skips a gate.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Fixtures: a healthy baseline, a matching fresh run, a 2x-regressed
# fresh run, and healthy scale/rpc files.
cat >"$tmp/base.json" <<'EOF'
{"record":"bench","bench":"decide","variant":"stochastic","ns_per_op":100}
{"record":"bench","bench":"decide","variant":"argmax","ns_per_op":100}
EOF
cp "$tmp/base.json" "$tmp/fresh_ok.json"
cat >"$tmp/fresh_bad.json" <<'EOF'
{"record":"bench","bench":"decide","variant":"stochastic","ns_per_op":200}
{"record":"bench","bench":"decide","variant":"argmax","ns_per_op":100}
EOF
cat >"$tmp/scale.json" <<'EOF'
{"record":"scale","nodes":100,"batch":0,"flows_per_sec":1000,"speedup":1.00,"arrived":500}
{"record":"scale","nodes":100,"batch":8,"flows_per_sec":1500,"speedup":1.50,"arrived":500}
EOF
cat >"$tmp/rpc.json" <<'EOF'
{"record":"rpc","mode":"inproc","rtt_p50_us":60.0,"equal_metrics":true}
{"record":"rpc","mode":"socket","rtt_p50_us":120.5,"equal_metrics":true}
EOF
cat >"$tmp/rpc_diverged.json" <<'EOF'
{"record":"rpc","mode":"socket","rtt_p50_us":120.5,"equal_metrics":false}
EOF
cat >"$tmp/rpc_fresh_ok.json" <<'EOF'
{"record":"rpc","mode":"inproc","rtt_p50_us":61.0,"equal_metrics":true}
{"record":"rpc","mode":"socket","rtt_p50_us":123.0,"equal_metrics":true}
EOF
cat >"$tmp/rpc_fresh_slow.json" <<'EOF'
{"record":"rpc","mode":"inproc","rtt_p50_us":61.0,"equal_metrics":true}
{"record":"rpc","mode":"socket","rtt_p50_us":140.0,"equal_metrics":true}
EOF
: >"$tmp/empty.json"

# check NAME WANT_EXIT WANT_SUBSTR ARGS... runs bench_check.sh with
# ARGS and asserts its exit code and that its output mentions
# WANT_SUBSTR.
check() {
	name=$1 want=$2 substr=$3
	shift 3
	set +e
	out=$(sh scripts/bench_check.sh "$@" 2>&1)
	got=$?
	set -e
	if [ "$got" -ne "$want" ]; then
		echo "test_bench_check: $name: exit $got, want $want" >&2
		echo "$out" >&2
		exit 1
	fi
	case $out in
	*"$substr"*) ;;
	*)
		echo "test_bench_check: $name: output lacks '$substr':" >&2
		echo "$out" >&2
		exit 1
		;;
	esac
	echo "test_bench_check: $name ok (exit $got)"
}

check "all gates pass" 0 "all gates passed" \
	"$tmp/base.json" "$tmp/fresh_ok.json" "$tmp/scale.json" "$tmp/rpc.json"

check "decide regression is exit 1" 1 "REGRESSED" \
	"$tmp/base.json" "$tmp/fresh_bad.json" "$tmp/scale.json" "$tmp/rpc.json"

check "missing decide baseline is exit 2, not a pass" 2 "NO BASELINE" \
	"$tmp/nonexistent.json" "$tmp/fresh_ok.json" "$tmp/scale.json" "$tmp/rpc.json"

check "unparsable decide baseline is exit 2" 2 "NO BASELINE" \
	"$tmp/empty.json" "$tmp/fresh_ok.json" "$tmp/scale.json" "$tmp/rpc.json"

check "missing scale baseline is exit 2, not a silent skip" 2 "NO BASELINE" \
	"$tmp/base.json" "$tmp/fresh_ok.json" "$tmp/nonexistent.json" "$tmp/rpc.json"

check "missing rpc baseline is exit 2, not a silent skip" 2 "NO BASELINE" \
	"$tmp/base.json" "$tmp/fresh_ok.json" "$tmp/scale.json" "$tmp/nonexistent.json"

check "unparsable scale baseline is exit 2" 2 "NO BASELINE" \
	"$tmp/base.json" "$tmp/fresh_ok.json" "$tmp/empty.json" "$tmp/rpc.json"

check "explicit '-' skips gates deliberately" 0 "skipped explicitly" \
	"-" "$tmp/fresh_ok.json" "-" "-"

check "regression outranks missing baseline" 1 "REGRESSED" \
	"$tmp/base.json" "$tmp/fresh_bad.json" "$tmp/nonexistent.json" "$tmp/rpc.json"

check "rpc equivalence divergence is exit 1" 1 "diverged" \
	"$tmp/base.json" "$tmp/fresh_ok.json" "$tmp/scale.json" "$tmp/rpc_diverged.json"

check "fresh rpc within +5% passes" 0 "rpc/socket p50 ok" \
	"$tmp/base.json" "$tmp/fresh_ok.json" "$tmp/scale.json" "$tmp/rpc.json" "$tmp/rpc_fresh_ok.json"

check "fresh rpc p50 beyond +5% is exit 1" 1 "rpc/socket p50 REGRESSED" \
	"$tmp/base.json" "$tmp/fresh_ok.json" "$tmp/scale.json" "$tmp/rpc.json" "$tmp/rpc_fresh_slow.json"

check "missing fresh rpc file is exit 2" 2 "NO BASELINE" \
	"$tmp/base.json" "$tmp/fresh_ok.json" "$tmp/scale.json" "$tmp/rpc.json" "$tmp/nonexistent.json"

check "fresh rpc gate needs the committed baseline" 2 "NO BASELINE" \
	"$tmp/base.json" "$tmp/fresh_ok.json" "$tmp/scale.json" "-" "$tmp/rpc_fresh_ok.json"

echo "test_bench_check: OK"
