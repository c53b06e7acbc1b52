#!/usr/bin/env bash
# Lists the exported package-level functions and exported methods under
# internal/ that no non-test code calls — code that belongs in a _test.go
# file — and exits 1 if any is not on its allowlist. internal/enginetest, the
# shared test harness, is not checked.
#
# A function's caller is a non-comment line of a non-test Go file anywhere in
# the repository (bench/ included) naming it: bare inside its own package,
# package-qualified elsewhere. A method's caller is any such line selecting a
# method of that name (".Name"), whatever the receiver, other than the
# method's own signature line: a name shared by two types hides both, so the
# check errs towards silence.
#
# Usage: scripts/testonly.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Functions that tests of several packages share (a _test.go file cannot
# export them): the fault-injection schedule, the parser, context and
# collector shortcuts, and the plan-shape probes.
allow=" Activate MustParse NewCtx CollectBatches CountOps OrderLabel "

# Methods kept without a non-test caller, one per line: package.Type.Method,
# then why.
allow_methods='
engine.AbortError.Unwrap      errors.Is and errors.As call it
value.Value.MarshalJSON       encoding/json calls it
value.Value.UnmarshalJSON     encoding/json calls it
engine.Engine.DeleteValue     public API (tmdb.Engine): the value form of Delete
engine.Engine.DropTable       public API (tmdb.Engine): drops an extension
engine.Engine.PlanCandidates  public API (tmdb.Engine): the candidate table as data; the conformance harness pins each alternative by it
engine.Prepared.Source        public API (tmdb.Prepared): the statement text
server.Client.CloseSession    public API (tmdb.Client): ends a server session
server.Client.Health          public API (tmdb.Client): the liveness probe
storage.Table.Unseal          tests of several packages reopen a sealed table for bulk loading
'

# code prints the non-comment lines of the given files.
code() { grep -hv '^[[:space:]]*//' "$@" || true; }

mapfile -t all < <(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*')
allcode=$(code "${all[@]}")
status=0
for dir in internal/*/; do
  pkg=$(basename "$dir")
  [[ $pkg == enginetest ]] && continue
  mapfile -t own < <(ls "$dir"*.go | grep -v '_test\.go$')
  for name in $(grep -hoE '^func [A-Z][A-Za-z0-9_]*' "${own[@]}" | cut -d' ' -f2 | sort -u); do
    [[ $allow == *" $name "* ]] && continue
    inside=$(code "${own[@]}" | grep -v "^func $name\b" | grep -cE "(^|[^A-Za-z0-9_.])$name\b" || true)
    outside=$(grep -cE "\b$pkg\.$name\b" <<<"$allcode" || true)
    if [[ $inside -eq 0 && $outside -eq 0 ]]; then
      echo "$pkg.$name: no non-test caller"
      status=1
    fi
  done
  while read -r typ name; do
    grep -qE "^$pkg\.$typ\.$name " <<<"$allow_methods" && continue
    calls=$(grep -vE "^func \([^)]*\) $name\(" <<<"$allcode" | grep -cE "\.$name\b" || true)
    if [[ $calls -eq 0 ]]; then
      echo "$pkg.$typ.$name: no non-test caller"
      status=1
    fi
  done < <(grep -hoE '^func \([A-Za-z0-9_]+ \*?[A-Za-z0-9_]+(\[[^]]*\])?\) [A-Z][A-Za-z0-9_]*' "${own[@]}" |
    sed -E 's/^func \([A-Za-z0-9_]+ \*?([A-Za-z0-9_]+)(\[[^]]*\])?\) /\1 /' | sort -u)
done
exit $status
