#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload motifs-k5 --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary, generated inputs,
# trace files) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
