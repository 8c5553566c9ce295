#!/usr/bin/env bash
# go-test-run.sh PATTERN PKG [GO TEST FLAGS...]
#
# Runs `go test FLAGS -run PATTERN PKG`, but first fails unless every
# |-separated alternative of PATTERN names at least one test in PKG.
# A -run pattern that matches nothing only warns and passes, so without
# this check a renamed or deleted test would turn a CI step into a no-op.
set -euo pipefail
pattern=$1
pkg=$2
shift 2
IFS='|' read -ra alts <<< "$pattern"
for alt in "${alts[@]}"; do
  listed=$(go test -list "$alt" "$pkg")
  if ! grep -qE '^(Test|Fuzz|Example)' <<< "$listed"; then
    echo "go-test-run: no test in $pkg matches -run '$alt'" >&2
    exit 1
  fi
done
exec go test "$@" -run "$pattern" "$pkg"
