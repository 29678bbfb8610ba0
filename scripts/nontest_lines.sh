#!/usr/bin/env bash
# Count the non-test lines of Rust sources: for each `.rs` file under the
# given paths, every line outside the items marked `#[cfg(test)]`, then the
# total. A size report only; it gates nothing.
#
# rustfmt puts an item's closing line at its attribute's indentation, so a
# `#[cfg(test)]` item ends at the first later line at exactly that
# indentation that ends in `}` or `;` (`mod tests { ... }`, `fn f() {...}`,
# `use x;`). A `#[cfg(test)] mod x;` declaration makes the file `x.rs` (or
# `x/mod.rs`) test-only: it is listed with 0 lines.
#
# Usage: scripts/nontest_lines.sh [PATH...]    (default: crates src)
set -euo pipefail

[ $# -gt 0 ] || set -- crates src

# Shared awk: `skip` is set on a `#[cfg(test)]` line, and the item it
# marks runs to its closing line at the attribute's indentation.
ITEM='
    function closes(line) {
        if (index(line, ind) != 1) return 0
        c = substr(line, length(ind) + 1, 1)
        return c !~ /[ \t\/#]/ && c != "" && line ~ /[;}][ \t]*$/
    }
    /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && !skip {
        match($0, /^[ \t]*/); ind = substr($0, 1, RLENGTH); skip = 1; first = 1; next
    }
'

files=$(find "$@" -name target -prune -o -name '*.rs' -type f -print | LC_ALL=C sort)

# Pass 1: the module files a `#[cfg(test)] mod x;` declares.
excluded=$(printf '%s\n' "$files" | while IFS= read -r file; do
    [ -n "$file" ] || continue
    awk -v file="$file" "$ITEM"'
        skip {
            if (first && match($0, /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/)) {
                name = $0; sub(/;.*/, "", name); sub(/.*mod /, "", name)
                dir = file; sub(/\/[^\/]*$/, "", dir)
                base = file; sub(/.*\//, "", base); sub(/\.rs$/, "", base)
                if (base != "lib" && base != "main" && base != "mod") dir = dir "/" base
                print dir "/" name ".rs"; print dir "/" name "/mod.rs"
            }
            first = 0
            if (closes($0)) skip = 0
        }
    ' "$file"
done)

# Pass 2: count each file's lines outside its test items.
printf '%s\n' "$files" | while IFS= read -r file; do
    [ -n "$file" ] || continue
    if printf '%s\n' "$excluded" | grep -qxF -- "$file"; then
        printf '%6d %s\n' 0 "$file"
        continue
    fi
    awk -v file="$file" "$ITEM"'
        skip { if (closes($0)) skip = 0; next }
        { n++ }
        END { printf "%6d %s\n", n, file }
    ' "$file"
done |
    awk '{ print; total += $1 } END { printf "%6d total\n", total }'
