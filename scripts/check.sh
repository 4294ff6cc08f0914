#!/usr/bin/env bash
# Repo-wide check: vet + build + tier-1 tests + the benchmark's
# self-check + race audit of the concurrent packages. Run from the repo
# root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test (tier 1) =="
go test ./...

echo "== perfbench self-check (pinned campaign digest, planted-fault gates) =="
(cd perfbench && go test -count=1 ./...)

echo "== go test -race (concurrent packages + kernels) =="
go test -race -count=1 \
    ./internal/gf256 \
    ./internal/erasure/... \
    ./internal/cluster \
    ./internal/experiments \
    ./internal/core \
    ./internal/parallel \
    ./internal/tuner \
    ./internal/simclock \
    ./internal/simnet \
    ./internal/blockdev \
    ./internal/bluestore

echo "== go build/test (purego: portable word kernels, no asm) =="
go build -tags purego ./...
go test -tags purego -count=1 ./internal/gf256 ./internal/erasure/...

echo "OK"
