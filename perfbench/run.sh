#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# one workload, e.g.
#
#   bash perfbench/run.sh --workload shared-writes --seed 1 --seconds 10 --trace 0
#
# Build cache, binary, WAL directories and span dumps all stay under
# .bench_build at the root of the checkout; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	XDG_CONFIG_HOME="$out/config"
# Relink only when a source changed: writing the 11 MB binary before every
# run leaves dirty pages whose writeback slows the WAL's fsyncs during the
# measured phase. After a build, the filesystem holding the build cache and
# binary is synced, so their writeback is over before anything is timed.
stamp="$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -d' ' -f1)"
if [[ ! -x "$out/perfbench" || "$(cat "$out/perfbench.stamp" 2>/dev/null)" != "$stamp" ]]; then
	go -C "$root/perfbench" build -o "$out/perfbench" .
	echo "$stamp" >"$out/perfbench.stamp"
	sync -f "$out"
fi
cd "$root"
exec "$out/perfbench" -dir "$out" "$@"
