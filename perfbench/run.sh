#!/usr/bin/env bash
# Builds the benchmark and the daemon binaries of the checkout it runs
# in, then runs one workload:
#
#	bash perfbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory, the Go build cache too.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and usage counters under the user
# config directory; point that into the build directory as well.
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/" ./cmd/ehnad ./cmd/ehnad-mkstore
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
