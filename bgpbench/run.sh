#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it. Run it from
# the repository root:
#
#   bash bgpbench/run.sh --workload paper-figures --seed 1 --seconds 25 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bgpbench" && go build -o "$out/bgpbench" .)
if [ -z "${BGPBENCH_COMMIT:-}" ]; then
	BGPBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null ||
		find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16 | sed 's/^/source-/')
	export BGPBENCH_COMMIT
fi
exec "$out/bgpbench" "$@"
