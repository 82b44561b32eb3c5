#!/usr/bin/env bash
# The two line counts every simplicity entry in CHANGES.md quotes.
#
#   scripts/loc.sh <path>…
#
# For each path (a directory, searched for *.rs, or one file): total Rust
# lines, and non-test lines — each file up to its first `#[cfg(test)]`
# (that line counted), the whole file where it has none. More than one
# path adds a total row.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,9p' "$0" >&2
    exit 2
fi

printf '%8s %9s  %s\n' total non-test path
sum_total=0
sum_code=0
for path in "$@"; do
    read -r total code < <(
        find "$path" -name '*.rs' -type f -print0 |
            xargs -0 -r awk '
                FNR == 1 { in_tests = 0 }
                { total++; if (!in_tests) code++ }
                /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
                END { print total + 0, code + 0 }'
    )
    printf '%8d %9d  %s\n' "$total" "$code" "$path"
    sum_total=$((sum_total + total))
    sum_code=$((sum_code + code))
done
if [ $# -gt 1 ]; then
    printf '%8d %9d  %s\n' "$sum_total" "$sum_code" total
fi
