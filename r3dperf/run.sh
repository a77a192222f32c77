#!/usr/bin/env bash
# Builds the r3d benchmark from the enclosing checkout and runs one
# workload. Run it from the checkout root:
#
#   bash r3dperf/run.sh --workload windows --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, temporary journals and span files all
# live under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout. Without the simulator's sources next to this directory the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac

if [ ! -f "$root/go.mod" ]; then
	echo "r3dperf: no simulator sources at $root (go.mod missing)" >&2
	exit 2
fi
out="$out/r3dperf"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOENV=off GOFLAGS=
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -buildvcs=false -o "$out/r3dperf" .)
exec "$out/r3dperf" -root "$root" -out "$out" "$@"
