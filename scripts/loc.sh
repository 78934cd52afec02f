#!/usr/bin/env bash
# Rust line counts per crate and per top-level Rust tree, counted one way:
# every *.rs file under the directory (build output excluded). The
# non-test column counts, of each file outside a `tests/` tree, the lines
# before its first `#[cfg(test)]` line; files in a `tests/` tree count as
# test lines only. Code placed after a file's first test module therefore
# counts as test code. A last line counts the settable options: the `pub`
# fields of each `pub struct *Config` under crates/, and their total.
# Prints only; gates nothing.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  echo "usage: scripts/loc.sh (takes no arguments)" >&2
  exit 2
fi

# Prints "<all lines> <non-test lines>" of the *.rs files under $1.
count() {
  find "$1" -name '*.rs' -not -path '*/target/*' -print0 |
    xargs -0 -r awk '
      FNR == 1 { test = (FILENAME ~ /(^|\/)tests\//) }
      /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
      { all++; if (!test) non++ }
      END { print all + 0, non + 0 }' |
    awk '{ all += $1; non += $2 } END { print all + 0, non + 0 }'
}

total=0
total_non=0
printf '%-16s %6s %9s\n' dir all non-test
for dir in crates/* src tests examples vendor m3_benchmark; do
  read -r n non < <(count "$dir")
  total=$((total + n))
  total_non=$((total_non + non))
  printf '%-16s %6d %9d\n' "$dir" "$n" "$non"
done
printf '%-16s %6d %9d\n' total "$total" "$total_non"

# "<name> <pub fields>" per `pub struct *Config { ... }` under crates/.
find crates -name '*.rs' -not -path '*/target/*' -print0 |
  xargs -0 -r awk '
    /^[[:space:]]*pub struct [A-Za-z0-9_]*Config[[:space:]]*\{/ {
      name = $3; sub(/\{.*/, "", name); n = 0; inside = 1; next
    }
    inside && /^[[:space:]]*\}/ { print name, n; inside = 0; next }
    inside && /^[[:space:]]*pub [a-z_0-9]+[[:space:]]*:/ { n++ }' |
  sort |
  awk '{ list = list sep $1 " " $2; sep = ", "; sum += $2 }
       END { printf "config fields: %s; total %d\n", list, sum }'
