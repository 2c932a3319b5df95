GO ?= go

.PHONY: all build test race vet fmt-check lint lint-report lint-diff check chaos chaos-crash chaos-cluster chaos-partition chaos-trace bench fuzz

all: check

## build: compile every package and command
build:
	$(GO) build ./...

## test: run the full test suite
test:
	$(GO) test ./...

## race: run the test suite under the race detector
race:
	$(GO) test -race ./...

## vet: the stock go vet checks
vet:
	$(GO) vet ./...

## fmt-check: fail when any file is not gofmt-clean (prints the offenders)
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

## lint: sflint, the project-specific determinism and concurrency analyzers
lint:
	$(GO) run ./cmd/sflint ./...

## lint-diff: sflint restricted to packages changed vs origin/main (or REF=...)
## — the fast inner-loop variant of `make lint`
REF ?= origin/main
lint-diff:
	$(GO) run ./cmd/sflint -diff $(REF) ./...

## lint-report: machine-readable sflint report (schema v1) for CI artifacts.
## Written even when findings exist; the lint target is what gates.
lint-report:
	$(GO) run ./cmd/sflint -json ./... > sflint-report.json || true
	@wc -c sflint-report.json

## chaos: the fault-injection suite under the race detector — seeded
## error/disconnect/latency injection through pipeline, store and transport,
## asserting bit-identical results and leak-free churn (DESIGN.md §10).
## The root suite's causal spans + decision events land in chaos-spans.jsonl
## (several runs share the stream; sftrace's last-wins duplicate handling
## absorbs the ID reuse).
chaos:
	rm -f chaos-spans.jsonl
	SMARTFLUX_CHAOS_SPAN_OUT=$(CURDIR)/chaos-spans.jsonl $(GO) test -race -run 'TestChaos' -v ./...

## chaos-crash: the crash-durability suite under the race detector — seeded
## crashes mid-WAL, at wave boundaries, during snapshots and with torn final
## records, asserting bit-identical recovery (DESIGN.md §11)
chaos-crash:
	$(GO) test -race -run 'TestCrashChaos' -v .

## chaos-cluster: the shard-kill chaos suite under the race detector — a
## seeded kill partitions one primary of a 3-shard replicated cluster mid-run,
## the replica is promoted, the dead node rejoins and catches up, and the
## merged cluster dump must stay bit-identical to a single-store run
## (DESIGN.md §14). Failover spans land in cluster-spans.jsonl (CI artifact).
chaos-cluster:
	rm -f cluster-spans.jsonl
	SMARTFLUX_CHAOS_SPAN_OUT=$(CURDIR)/cluster-spans.jsonl $(GO) test -race -run 'TestClusterChaos' -v .

## chaos-partition: the partition chaos suite under the race detector —
## seeded symmetric and asymmetric (one-way link) partitions cut primaries
## off mid-run, replicas are promoted under bumped epochs, stale-timeline
## primaries fence themselves and ack nothing until Reset + rejoin, and the
## healed merged dump must stay bit-identical to a single-store run with
## deterministic fencing/breaker counters across reruns (DESIGN.md §15).
## Fencing and breaker spans land in partition-spans.jsonl (CI artifact).
chaos-partition:
	rm -f partition-spans.jsonl
	SMARTFLUX_CHAOS_SPAN_OUT=$(CURDIR)/partition-spans.jsonl $(GO) test -race -run 'TestPartitionChaos' -v .

## chaos-trace: sftrace's offline analysis of the chaos suite's span stream
## into sftrace-report.txt (CI uploads both as artifacts). Reuses the
## chaos-spans.jsonl a `make chaos` (or `make check`) run left behind, and
## runs the chaos suite first only when there is none.
chaos-trace:
	@[ -s chaos-spans.jsonl ] || $(MAKE) --no-print-directory chaos
	$(GO) run ./cmd/sftrace -waves 6 chaos-spans.jsonl > sftrace-report.txt
	@head -n 40 sftrace-report.txt

## fuzz: run the fuzzers for 30s each (nightly CI job; crashers land in the
## package's testdata/fuzz directory and are uploaded as artifacts) — the
## wire-protocol readers, the metric DSL parser and the workflow spec builder.
## Separate invocations: `go test -fuzz` accepts only one target at a time.
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadFrame -fuzztime 30s ./internal/kvstore/wire
	$(GO) test -run xxx -fuzz 'FuzzReader$$' -fuzztime 30s ./internal/kvstore/wire
	$(GO) test -run xxx -fuzz FuzzParseDSL -fuzztime 30s ./internal/metric
	$(GO) test -run xxx -fuzz FuzzSpecBuild -fuzztime 30s ./internal/workflow

## check: the pre-PR gate — build, vet, gofmt, lint, tests, race, chaos,
## chaos-crash, chaos-cluster and chaos-partition
check: build vet fmt-check lint test race chaos chaos-crash chaos-cluster chaos-partition

## bench: overhead microbenchmarks (§5.3 + instrumentation overhead) and the
## serial-vs-parallel wave and forest-fit comparison. End-to-end and
## per-layer numbers come from `bash pipebench/run.sh --workload W --trace 0|1`.
bench:
	$(GO) test -run xxx -bench 'BenchmarkOverhead' -benchtime 1000x .
	$(GO) test -run xxx -bench 'BenchmarkRunWave|BenchmarkForestFit' -benchtime 10x .
