#!/usr/bin/env bash
# Builds the ddpmd end-to-end benchmark from this checkout and runs it.
# Arguments pass through, e.g.
#   bash perfbench/run.sh --workload flood --seed 1 --seconds 12 --trace 0
# Build output and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
cd "$root"
exec "$out/perfbench" "$@"
