#!/usr/bin/env bash
# Builds the benchmark and fluxserve from this checkout into .bench_build
# at the checkout root, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload xmark-stream --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/cache"
export GOCACHE="$out/cache/go-build" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
(cd "$root" && go build -o "$out/fluxserve" ./cmd/fluxserve)
cd "$root"
exec "$out/perfbench" -workdir "$out" -fluxserve "$out/fluxserve" "$@"
