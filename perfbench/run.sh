#!/usr/bin/env bash
# Builds tssserve and the benchmark from the checkout this script sits in,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-scan --seed 1 --seconds 45 --trace 0
#
# Build outputs, the Go build cache and run-time data directories all stay
# under .bench_build/ at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry and settings under the user config dir.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tssserve" ]; then
	echo "perfbench: $root is not a checkout of the skyline server (no go.mod or cmd/tssserve)" >&2
	exit 2
fi
(cd "$root" && go build -o "$out/tssserve" ./cmd/tssserve)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/tssserve" -work "$out" "$@"
