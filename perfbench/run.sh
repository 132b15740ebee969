#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, run
# records and spans) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go/cache" "$out/go/path" "$out/go/tmp" "$out/go/config"
export GOCACHE=$out/go/cache GOPATH=$out/go/path GOTMPDIR=$out/go/tmp XDG_CONFIG_HOME=$out/go/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -buildvcs=false -o "$out/perfbench" .

# The record names the code it measured: the commit when the checkout
# is a git work tree, and always a digest of the Go sources.
commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
source=$( (cat go.mod && find internal cmd -name '*.go' -type f | LC_ALL=C sort | xargs cat) | sha256sum | cut -c1-16)

PERFBENCH_COMMIT=$commit PERFBENCH_SOURCE=$source exec "$out/perfbench" --out "$out/records" "$@"
