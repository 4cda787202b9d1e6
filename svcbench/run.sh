#!/usr/bin/env bash
# Builds the bsimd service benchmark from the checkout it is run in, then runs
# it with the given arguments. Run it from the repository root:
#
#   bash svcbench/run.sh --workload serve-warm --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gotmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

commit=unknown
if [ -e "$root/.git" ]; then
  commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/svcbench" .)
exec "$out/svcbench" -out "$out" "$@"
