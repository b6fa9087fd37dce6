#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write — the benchmark binary, the
# gocheck/gocheckd binaries it builds from the tree, the Go build cache,
# scratch corpora and caches, traces — stays under .bench_build/ in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
