#!/usr/bin/env bash
# Builds the served-path benchmark and the secureview-serve binary from this
# checkout, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload exact-search --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, temporary
# files, span dumps) stays under .bench_build/ in the checkout. Outside a full
# checkout the build fails, so the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" . >&2
go -C perfbench build -o "$out/secureview-serve" secureview/cmd/secureview-serve >&2
exec "$out/perfbench" -serve "$out/secureview-serve" -out "$out" "$@"
