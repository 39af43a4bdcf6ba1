#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout, then runs it.
# Run from the checkout root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload paper-star --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the go command's own config and
# telemetry directory stay inside the checkout, under .bench_build/perfbench.
# The module needs nothing from the network, so the go command may not use it.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
fresh=false
[ -d "$out/gocache" ] || fresh=true
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	GOPROXY=off GOSUMDB=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --fresh-build="$fresh" "$@"
