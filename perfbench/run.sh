#!/usr/bin/env bash
# Builds caped and the benchmark from this checkout into .bench_build,
# then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
(cd "$root" && go build -o "$out/caped" ./cmd/caped)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -caped "$out/caped" -out "$out/runs" "$@"
