#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload c8_fill --seed 1 --seconds 20 --trace 0
#
# Every build artefact and Go cache stays under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
