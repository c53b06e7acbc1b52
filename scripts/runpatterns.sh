#!/usr/bin/env bash
# Checks every `go test -run` pattern in .github/workflows/ci.yml: each
# |-separated alternative must match at least one test or fuzz target of the
# packages its step names (as `go test -list` prints them), so a renamed or
# deleted test fails CI instead of silently dropping out of its step.
# -run=NONE, the deliberate empty selection of the benchmark and fuzz steps,
# is exempt.
#
# Usage: scripts/runpatterns.sh
set -euo pipefail
cd "$(dirname "$0")/.."
status=0
while IFS= read -r line; do
  pattern=$(sed -nE "s/.*-run[= ]'([^']*)'.*/\1/p" <<<"$line")
  [[ -z $pattern ]] && pattern=$(sed -nE 's/.*-run[= ]([^ ]+).*/\1/p' <<<"$line")
  [[ $pattern == NONE ]] && continue
  mapfile -t pkgs < <(grep -oE '\./[^ ]+' <<<"$line")
  names=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Fuzz)' || true)
  IFS='|' read -ra alts <<<"$pattern"
  for alt in "${alts[@]}"; do
    if ! grep -qE -- "$alt" <<<"$names"; then
      echo "ci.yml: -run alternative '$alt' matches no test in ${pkgs[*]}"
      status=1
    fi
  done
done < <(grep -E 'go test .*-run' .github/workflows/ci.yml)
exit $status
