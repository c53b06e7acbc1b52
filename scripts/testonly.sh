#!/usr/bin/env bash
# Lists the functions and methods under internal/ that no non-test code uses
# — code that belongs in a _test.go file, or nowhere — and exits 1 if any is
# not on its allowlist. The check type-checks the repository with go/types
# and resolves every use to its declaration, so a method counts as used only
# where it is selected on its own receiver type or reached through an
# interface it implements, and a use counts only from live code, iterated to
# a fixpoint so a whole dead chain shows up in one run; see
# scripts/testonly/main.go for the rules and
# the allowlist. internal/enginetest, the shared test harness, is not checked.
#
# Usage: scripts/testonly.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./scripts/testonly
