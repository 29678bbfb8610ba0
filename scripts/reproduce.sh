#!/usr/bin/env bash
# Regenerate every table and figure of the paper into results/.
# Usage: scripts/reproduce.sh [cases_per_group] [failures]
set -euo pipefail
cd "$(dirname "$0")/.."
CASES="${1:-10}"
FAILURES="${2:-105}"
mkdir -p results
# the banner goes to stderr: stdout is the result file
run() { echo ">> $1" >&2; shift; cargo run --release -p rapminer-bench --bin "$@" ; }
run "Table I"            table1                      > results/table1.txt
run "Table IV"           table4                      > results/table4.txt
run "Fig 8(a)"           fig8a  "$CASES"             > results/fig8a.txt
run "Fig 9(a)"           fig9a  "$CASES"             > results/fig9a.txt
run "Fig 8(b)"           fig8b  "$FAILURES"          > results/fig8b.txt
run "Fig 9(b)"           fig9b  "$FAILURES"          > results/fig9b.txt
run "Fig 10(a)"          fig10a "$FAILURES"          > results/fig10a.txt
run "Fig 10(b)"          fig10b "$FAILURES"          > results/fig10b.txt
run "Table VI"           table6 "$FAILURES"          > results/table6.txt
run "breakdown (ext.)"   breakdown "$FAILURES"       > results/breakdown.txt
run "noise abl. (ext.)"  noise_ablation "$CASES"     > results/noise_ablation.txt
echo "all artifacts written to results/"
