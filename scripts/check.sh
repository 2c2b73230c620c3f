#!/usr/bin/env bash
# check.sh — the full local gate, mirroring what CI runs: tier-1
# (build + tests), the lint wall (gofmt, go vet, an arm64 cross-build,
# nfvlint, the orphan-package check, and staticcheck/govulncheck when
# installed), the golden replies at GOMAXPROCS 1 and 2, and
# a short fuzz smoke over the four hostile-input surfaces. Every step
# that names its tests with -run or -fuzz goes through scripts/gotest.sh,
# which fails when a named test no longer exists. Run it from anywhere
# inside the repo before pushing.
#
#   ./scripts/check.sh            # everything: ~5.5 min on 2 vCPUs with a
#                                 # cold test cache
#   FUZZTIME=0 ./scripts/check.sh # skip the fuzz smoke (40 s less)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

step() { printf '\n== %s ==\n' "$*"; }

step gofmt
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "gofmt needed on:" && echo "$out" && exit 1
fi

step "go vet"
go vet ./...

# The MLP's AVX2 kernel has a non-amd64 side that an amd64 build never
# compiles; arm64 builds it, and vet's asmdecl checks the amd64 side.
step "cross-build (arm64)"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/ml/...

step nfvlint
go run ./cmd/nfvlint ./...

# Every internal package must be linked by a cmd, an example or
# explainbench; only the three test-only packages are exempt.
step "orphan packages"
orphans=$(comm -23 <(go list ./internal/... | sort) \
  <({ go list -deps ./cmd/... ./examples/...; cd explainbench && go list -deps .; } | sort -u) |
  grep -vxE 'nfvxai/internal/(chaos|testutil/leakcheck|analysis/analysistest)' || true)
if [ -n "$orphans" ]; then
  echo "packages that no cmd, example or explainbench links:" && echo "$orphans" && exit 1
fi

# Optional linters: CI installs pinned versions (see
# .github/workflows/ci.yml); locally they run only when already on PATH
# so the script works in offline containers.
if command -v staticcheck >/dev/null 2>&1; then
  step staticcheck
  staticcheck ./...
else
  echo "skipping staticcheck (not installed)"
fi
if command -v govulncheck >/dev/null 2>&1; then
  step govulncheck
  govulncheck ./...
else
  echo "skipping govulncheck (not installed)"
fi

step build
go build ./...

step test
go test ./...

step "test (shuffled order)"
go test -shuffle=on ./...

step "batch parity at 1 and 4 cores (inline and sched-dispatched chunks)"
scripts/gotest.sh -cpu 1,4 -run 'Parity|Scaled' ./internal/ml/... ./internal/core/ ./internal/xai/shap/ ./internal/xai/lime/ ./internal/xai/treeshap/

# The sched pool is sized once per process, so -cpu 1,4 never dispatches
# at 4 once the 1-CPU pass has sized it; each GOMAXPROCS needs its own run.
step "golden replies at GOMAXPROCS 1 and 2"
GOMAXPROCS=1 scripts/gotest.sh -count=1 -run 'TestGoldenReplies' ./internal/serve/
GOMAXPROCS=2 scripts/gotest.sh -count=1 -run 'TestGoldenReplies' ./internal/serve/

step "leak-checked packages at GOMAXPROCS 1 and 4"
leakpkgs="./cmd/explaind/ ./internal/serve/ ./internal/experiment/ ./internal/feed/ ./internal/registry/ ./internal/chaos/ ./internal/cluster/ ./internal/sched/ ./internal/xai/xcache/"
GOMAXPROCS=1 go test -count=1 $leakpkgs
GOMAXPROCS=4 go test -count=1 $leakpkgs

step "race (batch inference + scheduler + scaled wrapper + explainers + serving/jobs + feeds + experiments + registry + cluster + explaind's flags)"
go test -race ./internal/ml/... ./internal/sched/ ./internal/xai/... ./internal/serve/... ./internal/feed/... ./internal/experiment/... ./internal/registry/... ./internal/cluster/... ./cmd/explaind/
scripts/gotest.sh -race -run 'TestScaledModelPredictBatch|TestScaledTransformParity' ./internal/core/

step "explainbench module (nested; root go test ./... skips it)"
(cd explainbench && go vet ./... && go test ./...)

step "chaos smoke (fault-injected store + feeds + cluster node-down under -race)"
go test -race -timeout 5m ./internal/chaos

step "cluster e2e smoke (3-node fleet under -race)"
scripts/gotest.sh -race -run 'TestCluster' -timeout 5m ./internal/cluster

step "cold-start → warm-start smoke (train, kill, restart from store, predict parity)"
scripts/gotest.sh -race -run 'TestColdWarmRestartPredictParity' -timeout 5m ./internal/serve
scripts/gotest.sh -run 'TestWarmStartRestoresModelsScenariosAndDefault|TestTier2AcrossRestartOnDisk|TestPipelineSaveLoadParityAllKinds' -timeout 5m ./internal/registry ./internal/core

step "experiment runner smoke (2-cell spec under -race)"
scripts/gotest.sh -race -run 'TestRunTwoCellSpec' -timeout 5m ./internal/experiment

step "streaming smoke (feed → ingest → drift → retrain → SSE)"
scripts/gotest.sh -race -run 'TestStreamingEndToEnd' -timeout 2m ./internal/serve

# One iteration of every benchmark: the test steps compile benchmarks but
# never run them, so only this step catches one that fails at run time.
step "bench smoke (one iteration of every benchmark, 1-hour training sets)"
NFVXAI_BENCH_HOURS=1 go test -run '^$' -bench . -benchtime 1x ./...

step "bench-regression gate (BENCH_*.json history)"
go run ./cmd/benchdiff -history .

if [ "$FUZZTIME" != "0" ]; then
  step "fuzz smoke ($FUZZTIME per target)"
  scripts/gotest.sh -fuzz 'FuzzDecodeModel' -fuzztime "$FUZZTIME" -run '^$' ./internal/ml
  scripts/gotest.sh -fuzz 'FuzzReadWire' -fuzztime "$FUZZTIME" -run '^$' ./internal/dataset
  scripts/gotest.sh -fuzz 'FuzzParseSpec' -fuzztime "$FUZZTIME" -run '^$' ./internal/experiment
  scripts/gotest.sh -fuzz 'FuzzServeAPI' -fuzztime "$FUZZTIME" -run '^$' ./internal/serve
fi

printf '\nall checks passed\n'
