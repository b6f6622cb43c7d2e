#!/usr/bin/env bash
# Guard for CI steps that select tests by name. `go test -run` (and -bench,
# -fuzz) exits 0 when its pattern matches nothing, so renaming a test would
# silently turn the step that gates on it into a no-op.
#
#   select-tests.sh '<regex>' <packages...>
#
# fails unless every top-level alternative of the regex names at least one
# test, benchmark or fuzz target of the given packages. Call it with the
# same pattern and packages right before the `go test` it guards.
set -euo pipefail
pattern=$1
shift
IFS='|' read -ra alternatives <<<"$pattern"
for alt in "${alternatives[@]}"; do
  listed=$(go test -list "$alt" "$@")
  if ! grep -qE '^(Test|Benchmark|Fuzz)' <<<"$listed"; then
    echo "select-tests: '$alt' (of '$pattern') matches no test in $*" >&2
    exit 1
  fi
done
