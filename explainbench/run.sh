#!/usr/bin/env bash
# Builds the explaind benchmark from this checkout's source and runs it,
# passing every argument through:
#
#   bash explainbench/run.sh --workload hot-cached --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and traced-run spans go under
# $CARGO_TARGET_DIR (default .bench_build) at the checkout root, so the
# benchmark writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/explainbench" && go build -o "$out/explainbench" .)
exec "$out/explainbench" --out-dir "$out/spans" "$@"
