#!/usr/bin/env bash
# Builds bgperf, bgperfd and perfbench from the checkout in the current
# directory, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cli-solve --seed 1 --seconds 30 --trace 0
#
# Every build artefact and Go cache lives under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/bgperf" ]; then
	echo "perfbench: run from the root of a bgperf checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$out/bin/" ./cmd/bgperf ./cmd/bgperfd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
