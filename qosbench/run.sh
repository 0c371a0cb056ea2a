#!/usr/bin/env bash
# Builds the benchmark and the qosserved daemon from the checkout in the
# current directory, then runs one workload:
#
#   bash qosbench/run.sh --workload paper_direct --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "${root}/qosbench" && go build -o "${build}/qosbench" .)
go build -o "${build}/qosserved" ./cmd/qosserved
exec "${build}/qosbench" -daemon "${build}/qosserved" -out "${build}/run" "$@"
