#!/usr/bin/env bash
# Builds the perfbench driver from this checkout's sources and runs it
# with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload figures-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache,
# module cache, temporary files) stays under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"

export TMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -root "$root" "$@"
