#!/usr/bin/env bash
# Builds the repository benchmark from source in this checkout and runs it.
#
#   bash perfbench/run.sh --workload daemon-192 --seed 1 --seconds 25 --trace 0
#
# Every build product, cache and run artifact stays under .bench_build/ at
# the checkout root; nothing outside the checkout is read or written apart
# from the Go toolchain itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" ]]; then
	echo "perfbench: $root is not a full cfaopc checkout (no go.mod or internal/server)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" "$@"
