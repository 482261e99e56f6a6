# Convenience targets; repro.sh is the full reproduction pipeline.

.PHONY: build test race bench vet chaos recover repro loc

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# race runs the whole test suite under the race detector, including the
# concurrent register/optimize and search/insert stress tests.
race:
	go test -race ./...

# bench runs the repository's benchmark (bench/README.md): four seeded
# workloads through the real handler, untraced then traced, every answer
# checked against the reference evaluator. The layer micro-benchmarks are
# `go test -run '^$' -bench . -benchmem ./...` (EXEC_BENCH_SF shrinks the
# BenchmarkExec* TPC-H scale factor for quick passes).
bench:
	bash bench/run.sh

# chaos runs the fault-injected correctness suite (full-length) under the
# race detector: concurrent query + DML traffic with faults at every site.
chaos:
	go test -race -run 'Chaos' -count=1 -v ./internal/server

# recover runs the durability suite under the race detector: WAL framing,
# the crash kill matrix, torn tails, fsync poisoning, checkpoint faults,
# the fallback past a corrupt newest checkpoint
# (TestCorruptNewestCheckpointFallsBack), the refusal to start over
# checkpoints none of which verifies (TestUnverifiedCheckpointsRefused),
# and server-level recovery gating.
recover:
	go test -race -count=1 -v ./internal/wal
	go test -race -run 'Recovering|Durable|InMemoryServerHasNoWAL' -count=1 -v ./internal/server

repro:
	./repro.sh

# loc prints the non-test Go lines of every package and, last, of the whole
# tree (bench/ and the benchmark's build directory excluded): the count each
# CHANGES.md entry reports.
GOSRC = find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*'
loc:
	@for d in $$($(GOSRC) | xargs -n1 dirname | sort -u); do \
		printf '%7d %s\n' $$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%7d total\n' $$($(GOSRC) | xargs cat | wc -l)
