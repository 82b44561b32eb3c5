#!/usr/bin/env bash
# The ten-pair rule of benchmark/README.md as one command.
#
#   scripts/bench-pairs.sh <parent-binary> <change-binary> <workload> [pairs=10] [seconds=15]
#
# Both binaries are `symple-benchmark` builds of the two commits, each from
# its own target directory (see .claude/skills/verify/SKILL.md).
# `<workload>` is one name, a comma list of names, or `all` for the five of
# BENCHMARK.json; each gets its own runs and its own table. Every pair
# runs both sides on one seed (FIRST_SEED, default 101, plus the pair's
# number), `--trace 0`; odd pairs run the parent first, even pairs the
# change. Every run's result line is printed as it arrives, then for each
# end-to-end metric both sides' median and quartiles, change ÷ parent, and
# how many pairs the change won (ties count for neither side). A run that
# is not `correct` or has failed jobs makes the exit status 1.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,15p' "$0" >&2
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
workloads=$3
pairs=${4:-10}
seconds=${5:-15}
first_seed=${FIRST_SEED:-101}
if [ "$workloads" = all ]; then
    workloads=parse_bound.B1,explore_bound.R3,shuffle_bound.T1,cache_cold.B2,cache_warm.B2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" # the benchmark writes its out/ files under the current directory

status=0
run() { # side binary seed
    local line
    line=$("$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
    echo "$1 seed=$3 $line"
    case $line in
        '{"correct": true,'*'"failed": 0,'*) ;;
        *) status=1 ;;
    esac
    echo "$1 $3 $line" >>runs.txt
}

for workload in ${workloads//,/ }; do
    rm -f runs.txt
    for ((pair = 1; pair <= pairs; pair++)); do
        seed=$((first_seed + pair - 1))
        if ((pair % 2)); then
            run parent "$parent" "$seed"
            run change "$change" "$seed"
        else
            run change "$change" "$seed"
            run parent "$parent" "$seed"
        fi
    done

    echo
    echo "$workload: $pairs pairs, $seconds s each, seeds $first_seed..$((first_seed + pairs - 1))"
    printf '%-16s %34s %34s %8s %s\n' metric 'parent median [q1, q3]' 'change median [q1, q3]' 'chg/par' 'pairs won'
    for metric in job_wall_ms job_wall_p75_ms records_per_s job_cpu_ms shuffle_bytes peak_rss_mb setup_s; do
        awk -v metric="$metric" '
            function sort(v, n,    i, j, x) { # insertion sort: n is a pair count
                for (i = 2; i <= n; i++) {
                    x = v[i]
                    for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
                    v[j + 1] = x
                }
            }
            function quantile(v, n, p,    at, lo) { # of a sorted v, interpolated
                at = p * (n - 1) + 1; lo = int(at)
                return lo >= n ? v[n] : v[lo] + (at - lo) * (v[lo + 1] - v[lo])
            }
            function summary(v, n) {
                return sprintf("%.6g [%.6g, %.6g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
            }
            {
                if (!match($0, "\"" metric "\": [{]\"value\": [-0-9.e+]+")) next
                value = substr($0, RSTART, RLENGTH); sub(/.*: /, "", value)
                by_seed[$1, $2] = value + 0; seeds[$2] = 1
            }
            END {
                higher_is_better = (metric == "records_per_s")
                for (seed in seeds) {
                    p = by_seed["parent", seed]; c = by_seed["change", seed]
                    parent[++n] = p; change[n] = c
                    if (c != p) { decided++; if ((c > p) == higher_is_better) won++ }
                }
                sort(parent, n); sort(change, n)
                printf "%-16s %34s %34s %8.3f %d of %d (%d tied)\n", metric, summary(parent, n), summary(change, n),
                    quantile(change, n, 0.5) / quantile(parent, n, 0.5), won, n, n - decided
            }
        ' runs.txt
    done
    echo
done
exit $status
