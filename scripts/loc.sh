#!/usr/bin/env bash
# Rust line counts per crate and per top-level Rust tree, counted one way:
# every *.rs file under the directory (build output excluded), through
# `find ... | xargs cat | wc -l`. Prints only; gates nothing.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  echo "usage: scripts/loc.sh (takes no arguments)" >&2
  exit 2
fi

total=0
for dir in crates/* src tests examples vendor m3_benchmark; do
  n=$(find "$dir" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l)
  total=$((total + n))
  printf '%-16s %6d\n' "$dir" "$n"
done
printf '%-16s %6d\n' total "$total"
