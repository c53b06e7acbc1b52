#!/usr/bin/env bash
# Lists the exported package-level functions under internal/ that no non-test
# code calls — code that belongs in a _test.go file — and exits 1 if any is
# not on the allowlist of helpers that tests of several packages share (a
# _test.go file cannot export them): the fault-injection schedule, the parser,
# context and collector shortcuts, and the plan-shape probes. Methods are not
# checked, and neither is internal/enginetest, the shared test harness. A
# caller is a non-comment line of a non-test Go file anywhere in the
# repository (bench/ included) naming the function: bare inside its own
# package, package-qualified elsewhere.
#
# Usage: scripts/testonly.sh
set -euo pipefail
cd "$(dirname "$0")/.."

allow=" Activate MustParse NewCtx CollectBatches CountOps OrderLabel "

# code prints the non-comment lines of the given files.
code() { grep -hv '^[[:space:]]*//' "$@" || true; }

mapfile -t all < <(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*')
status=0
for dir in internal/*/; do
  pkg=$(basename "$dir")
  [[ $pkg == enginetest ]] && continue
  mapfile -t own < <(ls "$dir"*.go | grep -v '_test\.go$')
  for name in $(grep -hoE '^func [A-Z][A-Za-z0-9_]*' "${own[@]}" | cut -d' ' -f2 | sort -u); do
    [[ $allow == *" $name "* ]] && continue
    inside=$(code "${own[@]}" | grep -v "^func $name\b" | grep -cE "(^|[^A-Za-z0-9_.])$name\b" || true)
    outside=$(code "${all[@]}" | grep -cE "\b$pkg\.$name\b" || true)
    if [[ $inside -eq 0 && $outside -eq 0 ]]; then
      echo "$pkg.$name: no non-test caller"
      status=1
    fi
  done
done
exit $status
