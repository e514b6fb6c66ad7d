#!/usr/bin/env bash
# run.sh - build eccserve and the serving benchmark from the tree it
# sits in, then run one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload gateway-verify --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binaries, logs,
# traces) stays under .bench_build/ in the repository root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/eccserve ] || [ ! -d perfbench ]; then
    echo "perfbench: run from the repository root (needs go.mod, cmd/eccserve and perfbench/)" >&2
    exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d .git ]; then
    PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || true)
fi
export PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-unknown}"

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[$i]}" in
    --trace | -trace) trace="${args[$((i + 1))]:-0}" ;;
    --trace=* | -trace=*) trace="${args[$i]#*=}" ;;
    esac
done

go build -o "$out/bin/eccserve" ./cmd/eccserve
go -C perfbench build -o "$out/bin/perfbench" .
if [ "$trace" = 1 ]; then
    go -C perfbench build -o "$out/bin/perfbench-layers" ./layers
fi

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
