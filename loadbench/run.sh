#!/usr/bin/env bash
# Builds damctl and the loadbench program from the checkout this is run
# in, then runs loadbench with the given arguments, e.g.
#
#   bash loadbench/run.sh --workload refresh --seed 7 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it writes — the Go
# build cache, binaries, fixtures, run data and traces — goes under
# .bench_build in that checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/damctl || ! -f loadbench/go.mod ]]; then
	echo "loadbench: run from the root of a dpspatial checkout (go.mod, cmd/damctl and loadbench/ not found here)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/damctl" ./cmd/damctl
(cd loadbench && go build -o "$out/bin/loadbench" .)
exec "$out/bin/loadbench" --damctl "$out/bin/damctl" --work "$out" "$@"
