#!/usr/bin/env bash
# Builds and runs the imemexd stack benchmark. Run it from the
# repository root:
#
#   bash stackbench/run.sh --workload search --seed 1 --seconds 30 --trace 0
#
# With no flags it runs every workload at the default seed. The Go
# build cache, the binary, the daemon data, the results and the span
# files all stay under .stackbench_work/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
work="$(pwd)/.stackbench_work"
mkdir -p "$work/tmp" "$work/bin"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$work/bin/stackbench" .)
exec "$work/bin/stackbench" -work "$work" "$@"
