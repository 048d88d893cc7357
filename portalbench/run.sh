#!/usr/bin/env bash
# Builds the portal benchmark from this checkout's sources and runs it from
# the checkout's root. Every file the build and the run write goes under
# .bench_build at the root.
#
#   bash portalbench/run.sh --workload classroom --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$root/portalbench" -o "$out/portalbench" .
cd "$root"
exec "$out/portalbench" "$@"
