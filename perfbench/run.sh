#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root, forwarding every argument:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 16 --trace 0
#
# Build outputs, the Go build cache and scratch files stay in .bench_build/
# under the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# The module has no dependencies to fetch: keep the toolchain offline, and
# keep its caches and telemetry inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
unset GOFLAGS
# Record the commit when the checkout is a git work tree of its own; the
# build itself does not consult version control.
PERFBENCH_COMMIT=unknown
if [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_COMMIT
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
