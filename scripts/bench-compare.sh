#!/usr/bin/env sh
# Compare two BENCH_sim.json files written by bench_summary.
# Usage: scripts/bench-compare.sh old.json new.json
#
# Prints, per app present in both files, the median ns per simulated
# warp-instruction (sequential mode) before and after, their ratio
# new/old, and the noise spread: the larger of the two files' recorded
# min-max range for that app. An app whose median rose by more than that
# spread is flagged REGRESSION, and the script then exits 1; otherwise it
# exits 0. The last line is the geomean ratio over the common apps.
# Compare files measured on the same host: each records its own in "host".
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 old.json new.json" >&2
    exit 2
fi
for f in "$1" "$2"; do
    [ -r "$f" ] || { echo "bench-compare: cannot read $f" >&2; exit 2; }
    grep -q '"ns_per_warp_inst"' "$f" || {
        echo "bench-compare: $f has no ns_per_warp_inst (regenerate it with scripts/bench.sh)" >&2
        exit 2
    }
done

awk '
# Value of numeric field `key` on the current line, or "" when absent.
function num(key,    m) {
    if (!match($0, "\"" key "\": [-0-9.eE+]+")) return ""
    m = substr($0, RSTART, RLENGTH)
    sub(/^"[^"]*": /, "", m)
    return m + 0
}
function app(    m) {
    if (!match($0, /"app": "[^"]*"/)) return ""
    m = substr($0, RSTART + 8, RLENGTH - 9)
    return m
}
FNR == 1 { file++ }
/"app": / {
    a = app()
    if (file == 1) {
        old[a] = num("ns_per_warp_inst"); oldspread[a] = num("ns_max") - num("ns_min")
    } else {
        order[++n] = a
        new[a] = num("ns_per_warp_inst"); newspread[a] = num("ns_max") - num("ns_min")
    }
}
END {
    printf "%-8s %12s %12s %8s %10s\n", "app", "old ns/wi", "new ns/wi", "ratio", "spread"
    bad = 0; common = 0; logsum = 0
    for (i = 1; i <= n; i++) {
        a = order[i]
        if (!(a in old)) { printf "%-8s %12s %12.2f %8s %10s  (new app)\n", a, "-", new[a], "-", "-"; continue }
        spread = oldspread[a] > newspread[a] ? oldspread[a] : newspread[a]
        ratio = new[a] / old[a]
        flag = ""
        if (new[a] - old[a] > spread) { flag = "  REGRESSION"; bad++ }
        printf "%-8s %12.2f %12.2f %8.3f %10.2f%s\n", a, old[a], new[a], ratio, spread, flag
        common++; logsum += log(ratio)
    }
    if (common > 0) printf "geomean ratio over %d apps: %.3f\n", common, exp(logsum / common)
    if (bad > 0) { printf "%d app(s) regressed beyond the recorded spread\n", bad; exit 1 }
}
' "$1" "$2"
