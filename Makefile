# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet lint race fuzz faults chaos chaos-replica store-torture bench-all cover experiments examples clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-wide lint gate: gofmt must be clean and go vet must pass. Fails
# with the offending file list when any source file is unformatted.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# Full suite under the race detector: the concurrent pipeline (profio
# streaming, the RunConcurrent pool, experiment pool) must be data-race
# free.
race: vet
	$(GO) test -race ./...

# Short smoke run of every native fuzz target (seed corpora live in
# testdata/fuzz/). Lengthen FUZZTIME for a real fuzzing session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/vm
	$(GO) test -run xxx -fuzz FuzzReadTrace -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run xxx -fuzz FuzzReadText -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run xxx -fuzz FuzzReadProfiles -fuzztime $(FUZZTIME) ./internal/profio
	$(GO) test -run xxx -fuzz FuzzProfileNaive -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzResumeCheckpoint -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzCheckpointLog -fuzztime $(FUZZTIME) ./internal/profio
	$(GO) test -run xxx -fuzz FuzzEffects -fuzztime $(FUZZTIME) ./internal/vm/analysis
	$(GO) test -run xxx -fuzz FuzzPackDecode -fuzztime $(FUZZTIME) ./internal/repo
	$(GO) test -run xxx -fuzz FuzzIndexDecode -fuzztime $(FUZZTIME) ./internal/repo

# Robustness suite: fault-injection seed sweeps, corrupt-frame recovery
# with exact loss accounting, and kill-at-every-batch checkpoint/resume
# determinism.
faults:
	$(GO) test ./internal/faultio/
	$(GO) test -run 'Fault|Retry|Resume|Kill|Lenient|Corrupt|Checkpoint' \
		./internal/trace ./internal/core ./internal/profio ./cmd/aprof

# Network chaos suite, under the race detector with a hard timeout (a
# drain/backpressure deadlock must fail the run, not hang it): chaos-conn
# reconnect sweeps, randomized daemon kills with checkpoint resume,
# graceful-drain handover, overload shedding, torn-checkpoint sweeps, and
# the daemon/client end-to-end binary test.
chaos:
	$(GO) test -race -timeout 300s -count=1 \
		./internal/faultio ./internal/server/... ./cmd/aprofd
	$(GO) test -race -timeout 300s -count=1 \
		-run 'Torn|CorruptCheckpoint|TrailingGarbage|Interrupt' \
		./internal/profio ./cmd/aprof

# Cluster chaos suite, each run bounded at 90s under the race detector.
# Nodes share no disk: node kills at every batch index WITH full data-dir
# wipes (checkpoint store and profile store lost) recovered purely from
# the APRR replica set, a restarted owner resuming from its own checkpoint
# store, an unusable checkpoint dropped from the replica set, a reused
# session id whose stale copy is dropped, torn replication-link sweeps,
# seed-swept client link chaos and half-open links, busy-shed rerouting,
# health-based routing around dead nodes, the fan-out view of a migrated
# session, partition-interrupted store sync with idempotent re-sync, the
# replication and client failover leak audits, the APRR wire unit sweeps,
# the checkpoint-store sweeps (stale puts, reload of torn logs and stray
# temp files, one session's held append not blocking another's put), the
# ring, health and fan-out unit tests, and the three-binary cluster
# end-to-end test with the refused flag combinations.
chaos-replica:
	$(GO) test -race -timeout 90s -count=1 \
		-run 'TestReplica|TestNewNode|TestPeerBackend|TestRoundTrip' \
		./internal/replica
	$(GO) test -race -timeout 90s -count=1 -run 'TestCkptStore' ./internal/profio
	$(GO) test -race -timeout 90s -count=1 ./internal/replica/wire
	$(GO) test -race -timeout 90s -count=1 ./internal/cluster
	$(GO) test -race -timeout 90s -count=1 -run 'TestSync' ./internal/repo
	$(GO) test -race -timeout 90s -count=1 -run 'LeakAudit' ./internal/server/client
	$(GO) test -race -timeout 90s -count=1 -run 'TestCluster' ./cmd/aprofd

# Profile-repository torture suite, bounded at 90s under the race
# detector: decoder fuzz smoke over the committed corpora, the
# kill-at-every-step crash-consistency sweeps (every backend op, every
# crash mode, plus the GC-focused sweep), the random-ops differential
# test against the model store, the whole-document dedup assertion
# (identical profiles stored once), and the killed-write result-file
# regression.
store-torture:
	$(GO) test -race -timeout 90s -count=1 ./internal/repo/... ./internal/faultio
	$(GO) test -race -timeout 90s -count=1 -run 'TestStore' ./internal/server ./cmd/aprofd

# Every Go benchmark in the repo, including the end-to-end experiment ones:
# diagnostics only. Performance claims are measured with perfbench/run.sh
# and recorded in BENCH_RECORD.md.
bench-all:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Regenerate every table and figure of the paper into results/.
experiments:
	$(GO) run ./cmd/experiments -scale full -out results all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/producerconsumer
	$(GO) run ./examples/streaming
	$(GO) run ./examples/dbscan
	$(GO) run ./examples/contexts

clean:
	rm -f cover.out test_output.txt bench_output.txt
