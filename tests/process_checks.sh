#!/usr/bin/env bash
# Process-level checks: `bipareto solve` and `verify` run as processes on
# generated instances, each under an address-space cap, so that a failure
# shows as the documented exit code (0 ok, 1 verification failure, 2 usage,
# 3 state budget) and never as a traceback or an out-of-memory kill.
#
# Run from any checkout:  bash tests/process_checks.sh
# It uses the package under src/ and writes instances and fronts to
# $RUNNER_TEMP, or to a temporary directory it removes when it ends.  It
# prints each command's output and one result line per case, and exits 1
# if any case failed.

set -u
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
if [ -n "${RUNNER_TEMP:-}" ]; then
    work=$RUNNER_TEMP
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
cases=0
failed=0

# check EXIT CAP_KB "GEN ARGS" "FLAGS" EPS...: generate an instance, then
# run `solve --algo dp --schedules` once and `verify --epsilon EPS` once per
# EPS, each with FLAGS, under `ulimit -v CAP_KB` unless CAP_KB is 0.  The
# case fails unless every command exits EXIT, no stdout line starts with
# FAIL, and a non-zero exit leaves an `error:` line and no traceback on
# stderr.
check() {
    local want=$1 cap=$2 gen=$3 flags=$4
    shift 4
    cases=$((cases + 1))
    local name=case$cases eps problems="" start=$SECONDS
    local inst=$work/$name.txt
    echo "== $name: gen $gen, flags '$flags', ulimit -v $cap, expecting exit $want"
    if python -m bipareto gen $gen --out-path "$inst"; then
        expect solve --input-path "$inst" --algo dp --schedules --out-path "$work/$name.csv" $flags
        for eps in "$@"; do
            expect verify --input-path "$inst" --epsilon "$eps" $flags
        done
    else
        problems="; gen failed"
    fi
    if [ -z "$problems" ]; then
        echo "ok     $name ($((SECONDS - start)) s)"
    else
        echo "FAILED $name (${problems#; })"
        failed=$((failed + 1))
    fi
}

# expect COMMAND ARGS...: one bipareto command of the case `check` is
# working through, under its cap; adds what went wrong to its `problems`
expect() {
    local out=$work/$name.$1.out err=$work/$name.$1.err code
    (
        if [ "$cap" != 0 ]; then ulimit -v "$cap"; fi
        exec python -m bipareto "$@"
    ) >"$out" 2>"$err"
    code=$?
    cat "$out" "$err"
    if [ "$code" != "$want" ]; then
        problems+="; $1 exited $code"
    fi
    if grep -q '^FAIL' "$out"; then
        problems+="; $1 printed FAIL"
    fi
    if grep -q 'Traceback' "$err"; then
        problems+="; $1 left a traceback"
    elif [ "$code" != 0 ] && ! grep -q '^error:' "$err"; then
        problems+="; $1 exited $code without an error line"
    fi
}

# dense n=200, P about 1e5: solve_exact takes the dense table, and verify's
# drift check reads its 200 folds in place.  At eps 1/1000, delta1 is about
# 0.255: the windows stay at most 50 loads wide, the narrowest the fold
# check meets, and the trimmed run keeps every exact state.
check 0 0 "--n 200 --p 1:1000 --q 1:1000 --seed 404" "" 3/10 1/1000
# the same loads with q 2^31..2^32-1 (P 101,976, q_max 4,271,075,250):
# P + q_max passes int32, so the table runs on int64 cells
check 0 0 "--n 200 --p 1:1000 --q 2147483648:4294967295 --seed 404" "" 3/10
# p 1:10000 (P 976,976): its 9.7e7 cells pass the default budget of 5e7,
# but the sorted engine's peak (about 4.8e7 states) fits it, so both
# commands take the dense table
check 0 0 "--n 200 --p 1:10000 --q 1:1000 --seed 404" "" 3/10
# p 1:100000 (P 10,106,976): the sorted engine would need 50,846,046 live
# states at layer 68, over the default budget, so both commands exit 3
check 3 4000000 "--n 200 --p 1:100000 --q 1:1000 --seed 404" "" 3/10
# sparse n=16 (P about 8.7e12) under a budget of 1e14 states: the route
# count is bounded by the states the sorted engine could keep, so both
# commands take the sorted engine without a bitset as wide as the loads
check 0 4000000 "--n 16 --p 1:1000000000000 --q 1:1000000 --seed 1" "--budget 100000000000000" 3/10
# 60 loads of 2^31 under a budget of 1e13: the route count works in units
# of the loads' common factor, so it sees 960 states, not 1.3e11 cells
check 0 2000000 "--n 60 --p 2147483648:2147483648 --q 5:5 --seed 1" "--budget 10000000000000" 3/10

echo "$((cases - failed)) of $cases cases ok"
[ "$failed" = 0 ]
