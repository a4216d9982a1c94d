GO ?= go

# Packages raced in CI: every concurrency-heavy layer, stats (whose Flatten
# reads counters while they are incremented), and all of core — the whole
# package, soaks included, so no test is skipped by a name filter.
RACE_PKGS = ./internal/fifo ./internal/lru ./internal/manifest ./internal/memtable ./internal/mpi ./internal/scrub ./internal/sstable ./internal/stats ./internal/wal
RACE_CORE = ./internal/core

.PHONY: all build vet test race chaos overload crash scrub fuzz bench-smoke bench-check ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# The second line races the WAL's buffer swap against its writes, commits
# and rotations twenty times over; the third races the scanners' and
# writers' pooled windows and buffers, shared by concurrent merges, ten
# times over; the fourth races a checkpoint copy and a get against
# compaction's table churn ten times over. Their interleavings differ run to
# run.
race:
	$(GO) test -race -count=1 -timeout 600s $(RACE_PKGS) $(RACE_CORE)
	$(GO) test -race -count=20 -run 'Commit|Append|Rotate' ./internal/wal
	$(GO) test -race -count=10 -run 'TestScanner|TestMerge|TestWriter' ./internal/sstable
	$(GO) test -race -count=10 -run 'TestCompactionRunsDuringCheckpointCopy|TestCheckpointPinReleasedBeforeWaitReturns|TestGetRacesTableChurn' ./internal/core

# The seeded soaks by name, for local use; `race` (and so `ci`) already runs
# each of them as part of the whole core package.
#   chaos:    a periodic fault rule kills a rank over and over while every
#             rank loads; the victim Recovers in place, no acked put is lost.
#   overload: sustained put pressure while one rank's device churns in and
#             out of ENOSPC; the degradation ladder end to end.
#   crash:    a rank killed at every injection point in the flush / compact /
#             checkpoint / manifest ladder, reopened over the same device.
#   scrub:    rounds of load, checkpoint and scrub under periodic bit rot.
SOAK = $(GO) test -race -count=1 -timeout 300s $(RACE_CORE) -run
chaos:
	$(SOAK) 'TestChaos'
overload:
	$(SOAK) 'TestOverloadSoak'
crash:
	$(SOAK) 'TestCrash'
scrub:
	$(SOAK) 'TestSoakScrub'

# Short coverage-guided runs of the WAL and manifest replay decoders, the
# SSIndex decoder, the SSData block walk, the bounded table scan, the bloom
# file parser, the
# cross-rank wire decoders and the entry-batch decoder on top of their
# committed seed corpora
# (internal/{wal,manifest,sstable,bloom,core,memtable}/testdata/fuzz). The
# index, block, scan and wire targets bound minimisation: the index, block
# and scan targets repair each input's checksums, so nearly every byte of an input
# matters, and the wire target runs every decoder on each input —
# minimising one that adds coverage would spend the default 60 s budget,
# the whole run, executing nothing new.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzManifestDecode -fuzztime 10s ./internal/manifest
	$(GO) test -run '^$$' -fuzz FuzzIndexDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/sstable
	$(GO) test -run '^$$' -fuzz FuzzSearchBlock -fuzztime 10s -fuzzminimizetime 1s ./internal/sstable
	$(GO) test -run '^$$' -fuzz FuzzScanTable -fuzztime 10s -fuzzminimizetime 1s ./internal/sstable
	$(GO) test -run '^$$' -fuzz FuzzBloomLoad -fuzztime 10s ./internal/bloom
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeEntries -fuzztime 10s ./internal/memtable

# One-iteration benchmark runs: catches benchmarks that no longer compile
# or error out, without paying for real measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkSSTableGet -benchtime 1x ./internal/sstable
	$(GO) test -run '^$$' -bench BenchmarkConcurrentRemoteGet -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkScan -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkCompactReadAmp -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkScrubOverhead -benchtime 1x ./internal/core

# bench/ is a Go module of its own (it reaches internal/ packages through a
# replace directive), so the root build, vet and test never see it: a change
# to a type its probes link against would otherwise break it silently.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The one spelling of the gate: ci.sh and .github/workflows/ci.yml run this.
ci: build vet test race fuzz bench-smoke bench-check

clean:
	$(GO) clean ./...
