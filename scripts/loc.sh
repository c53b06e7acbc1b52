#!/usr/bin/env bash
# Non-test, non-blank, non-comment Go lines per internal/* package, then per
# cmd/* command under a separate subtotal: the measure behind LOC-based
# acceptance criteria ("planner + engine drop by N").
set -euo pipefail
cd "$(dirname "$0")/.."
# count LABEL DIR... prints one row per directory, then LABEL and their sum.
count() {
  local label=$1 sum=0 n d
  shift
  for d in "$@"; do
    n=$(ls "$d"/*.go | grep -v _test | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l)
    printf '%-22s %6d\n' "$d" "$n"
    sum=$((sum + n))
  done
  printf '%-22s %6d\n' "$label" "$sum"
}
count total internal/*
count 'cmd total' cmd/*
