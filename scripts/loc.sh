#!/usr/bin/env bash
# Non-test, non-blank, non-comment Go lines per internal/* package: the
# measure behind LOC-based acceptance criteria ("planner + engine drop by N").
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for d in internal/*; do
  n=$(ls "$d"/*.go | grep -v _test | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)
  printf '%-22s %6d\n' "$d" "$n"
  total=$((total + n))
done
printf '%-22s %6d\n' total "$total"
