#!/usr/bin/env bash
# Builds the access-path benchmark from the checkout it is run in and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload mem_zero --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
# The commit stamps the result; a checkout that is not a git repository
# reports none (git may not look above the checkout for one).
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git rev-parse --short=12 HEAD 2>/dev/null || echo none)
exec "$build/perfbench" --commit "$commit" "$@"
