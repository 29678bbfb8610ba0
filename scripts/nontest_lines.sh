#!/usr/bin/env bash
# Count the non-test lines of Rust sources: for each `.rs` file under the
# given paths, the lines before its first `#[cfg(test)]` (every line when
# it has none), then the total. A size report only; it gates nothing.
#
# Usage: scripts/nontest_lines.sh [PATH...]    (default: crates src)
set -euo pipefail

[ $# -gt 0 ] || set -- crates src
find "$@" -name target -prune -o -name '*.rs' -type f -print | LC_ALL=C sort |
    while IFS= read -r file; do
        awk -v file="$file" '
            /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            { n++ }
            END { printf "%6d %s\n", n, file }
        ' "$file"
    done |
    awk '{ print; total += $1 } END { printf "%6d total\n", total }'
