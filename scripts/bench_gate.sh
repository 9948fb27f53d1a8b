#!/usr/bin/env bash
# Regression gate on the bench rows that guard an algorithm: every row of
# a freshly generated BENCH_micro.json whose name starts with one of
# GATED_PREFIXES — the model checker's `check/` rows and the runner's
# `engine/end_to_end/` rows — must have a median within
# FTSS_BENCH_GATE_FACTOR (default 2.0) of the committed baseline's. The
# factor is deliberately loose — wall-clock medians drift across
# machines and CI runners — so what this catches is *algorithmic*
# regression: a lost dedup, a broken canonicalization, a widened search
# space, or a round walk gone dense again shows up as a 3×–100× blowup,
# far past any noise.
#
# usage: bench_gate.sh <baseline.json> <fresh.json>
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <baseline.json> <fresh.json>" >&2
    exit 2
fi
baseline="$1"
fresh="$2"
factor="${FTSS_BENCH_GATE_FACTOR:-2.0}"

for f in "$baseline" "$fresh"; do
    if [ ! -s "$f" ]; then
        echo "bench gate: $f is missing or empty" >&2
        exit 2
    fi
done

GATED_PREFIXES="check/ engine/end_to_end/"

# BENCH_micro.json is one row per line: `"name": {"median_ns": N, ...}`.
# Emit `name median_ns` for every gated row.
gated_rows() {
    awk -F'"' -v prefixes="$GATED_PREFIXES" '
    BEGIN { count = split(prefixes, prefix, " ") }
    {
        name = $2
        gated = 0
        for (i = 1; i <= count; i++) {
            if (index(name, prefix[i]) == 1) gated = 1
        }
        if (gated && match($0, /"median_ns": *[0-9]+/)) {
            v = substr($0, RSTART, RLENGTH)
            gsub(/[^0-9]/, "", v)
            print name, v
        }
    }' "$1"
}

base_rows="$(gated_rows "$baseline")"
for prefix in $GATED_PREFIXES; do
    if ! printf '%s\n' "$base_rows" | grep -q "^$prefix"; then
        echo "bench gate: no $prefix rows in baseline $baseline" >&2
        exit 2
    fi
done

fail=0
while read -r name base_ns; do
    fresh_ns="$(gated_rows "$fresh" | awk -v n="$name" '$1 == n { print $2 }')"
    if [ -z "$fresh_ns" ]; then
        echo "bench gate: row $name missing from $fresh" >&2
        fail=1
        continue
    fi
    if awk -v b="$base_ns" -v f="$fresh_ns" -v k="$factor" \
        'BEGIN { exit !(f <= b * k) }'; then
        echo "bench gate: $name ${fresh_ns}ns vs baseline ${base_ns}ns (<= ${factor}x) OK"
    else
        echo "bench gate: REGRESSION in $name: ${fresh_ns}ns vs baseline ${base_ns}ns (> ${factor}x)" >&2
        fail=1
    fi
done <<< "$base_rows"

exit "$fail"
