#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload sampled --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. The build and its Go cache stay inside
# .bench_build/ (or $CARGO_TARGET_DIR when set), the toolchain is the local
# one, and module downloads are off: the benchmark needs only the standard
# library and the repository itself.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/internal" ] || {
	echo "bench/run.sh: run from the repository root (no go.mod/internal here)" >&2
	exit 2
}
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

# GOPATH and XDG_CONFIG_HOME keep the go command's module cache and local
# telemetry counters inside $out as well.
(cd "$root/bench" &&
	GOCACHE=$out/go-cache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off go build -o "$out/pageseer-bench" .)
exec "$out/pageseer-bench" "$@"
