# Convenience targets for the iGuard reproduction.

.PHONY: build test bench bench-e2e bench-diff bench-parallel bench-serve bench-batch bench-mp bench-rules bench-ctrl bench-decode bench-fold bench-fed eval eval-quick examples fmt vet vet-hotpath lint fix sarif race race-batch race-mp race-fed fuzz-fed fuzz-rules p4lint

build:
	go build ./...

test:
	go test ./...

# Benchmarks regenerating every table and figure (single iteration each).
bench:
	go test -bench=. -benchmem -benchtime=1x .

# The repo benchmark (BENCHMARK.json, bench/README.md): every workload's
# end-to-end metrics, built from this checkout into .bench_build/.
# Results land in bench/out/.
bench-e2e:
	bash bench/run.sh --workload all --seed 1 --trace 0

# Compare two sets of benchmark results (directories or globs, quoted
# so benchdiff expands them), e.g.
#   make bench-diff OLD=old/ NEW='new/*trace0.json'
# Each side needs at least two runs of every workload it shares.
bench-diff:
	go run ./bench/cmd/benchdiff '$(OLD)' '$(NEW)'

# Training-throughput scaling across worker counts (the model is
# byte-identical at every P; only wall-clock changes).
bench-parallel:
	go test -bench=BenchmarkTrainParallelism -benchtime=1x -run '^$$' .

# Serving-runtime throughput: single-switch hot path plus end-to-end
# sharded ingest rate at 1/2/4/8 shards (pps metric per sub-benchmark).
bench-serve:
	go test -bench 'BenchmarkProcessPacket|BenchmarkServeThroughput' -benchmem -run '^$$' ./internal/serve

# Batch-path benchmarks: the switch batch pass (ProcessPacket in a
# loop over precomputed keys and folds), and end-to-end serve
# throughput at batch 64 on dense and sparse (capture-like) trace
# timing and at batch 1 (every packet its own hand-off), with the mean
# batch fill (pkts/batch) beside pps.
bench-batch:
	go test -bench 'BenchmarkProcessBatch|BenchmarkServeThroughput' -benchmem -run '^$$' ./internal/serve

# Multi-producer fan-in scaling: P concurrent lanes (1/2/4/8) driving
# a 4-shard batched server, swept across GOMAXPROCS so the pps metric
# shows the machine's actual scaling curve (on one core, extra lanes
# measure contention overhead only).
bench-mp:
	go test -bench 'BenchmarkServeThroughputMP' -benchmem -cpu 1,4 -run '^$$' ./internal/serve

# Whitelist microbenchmarks, each match case over a stream of 64k
# seeded probe vectors: bit-vector index vs the linear reference scan
# at 16/128/1024 rules; the float match and compile cost at 12
# bits (direct code tables) and 20 bits (float thresholds, the library
# default width), plus whitelisted (hit) and non-whitelisted (miss)
# streams at the benchmark model's PL and FL shapes; and the adjacent-cell
# merge of rule generation on a 13-dimension grid of about 2.4k cells.
bench-rules:
	go test -bench 'BenchmarkMatch|BenchmarkCompile|BenchmarkMergeAdjacent' -benchmem -run '^$$' ./internal/rules

# Blacklist-plane churn: one malicious digest of a new flow per op
# through an LRU controller at capacity 8192 and a real switch (one
# install plus one eviction each), with allocs per op.
bench-ctrl:
	go test -bench 'BenchmarkControllerChurn' -benchmem -run '^$$' ./internal/controller

# Pcap decode: PcapReader.NextValidBatch over an in-memory capture of
# header-only frames and of frames with a 256 B payload, with ns and
# allocations per decoded packet.
bench-decode:
	go test -bench 'BenchmarkPcapDecode' -benchmem -run '^$$' ./internal/netpkt

# Flow-key fold: a packet's canonical key and fold into batch slots,
# once through CanonicalFoldOf (key returned by value, then copied) and
# once in place (PacketFold + CanonicalInto, the ingest path), in ns
# per packet.
bench-fold:
	go test -bench 'BenchmarkCanonicalFold' -benchmem -run '^$$' ./internal/features

# Federation propagation: b.N announces from one node through a
# loopback hub to another, with ns and socket writes per propagated
# frame (per-frame I/O would read 2 writes/frame over the two hops).
bench-fed:
	go test -bench 'BenchmarkFedPropagate' -benchmem -run '^$$' ./internal/fed

# Full-size evaluation (several minutes).
eval:
	go run ./cmd/iguard-eval -exp all

# Down-scaled evaluation (~2 minutes).
eval-quick:
	go run ./cmd/iguard-eval -exp all -quick

examples:
	go run ./examples/quickstart
	go run ./examples/ddos-mitigation
	go run ./examples/adversarial-robustness
	go run ./examples/iot-monitor

fmt:
	gofmt -w .

vet:
	go vet ./...

# Interprocedural hot-path gate alone: allocation-freedom of every
# //iguard:hotpath call tree plus shard-ownership of //iguard:ownedby
# state. Faster than the full suite when iterating on the data plane.
vet-hotpath:
	go run ./cmd/iguard-vet -only hotpath,shardown ./...

# Full static gate: build, go vet, gofmt (fail on unformatted files),
# and the project's own iguard-vet analyzers.
lint: build vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	go run ./cmd/iguard-vet ./...

# Apply iguard-vet's suggested fixes (dead-store deletions, stale
# suppression removals) to the tree; re-runs until findings converge.
fix:
	go run ./cmd/iguard-vet -fix ./...

# Emit the findings as a SARIF 2.1.0 log for code-scanning upload.
sarif:
	go run ./cmd/iguard-vet -sarif ./... > iguard-vet.sarif || true

# Generate a P4 bundle from a small synthetic model and verify it with
# the artefact analyzers (nameres, widths, tables, quantizer, fit).
p4lint:
	go run ./cmd/iguard-p4gen -train-synthetic 60 -out /tmp/iguard-p4lint-bundle -check
	go run ./cmd/iguard-p4lint /tmp/iguard-p4lint-bundle

# Race-detector pass over the whole module (slow: experiments re-run
# the evaluation pipeline under the detector).
race:
	go test -race ./...

# Focused race pass over the batch hand-off machinery (producer-side
# batching, flush deadlines, lane-owned buffer rings, batch
# equivalence).
race-batch:
	go test -race -run 'Batch|Flush' ./internal/serve ./internal/switchsim

# Focused race pass over the multi-producer ingest machinery: lane
# contract, concurrent drop conservation, the decode pipeline behind
# every Replay, and single-lane byte-identity under the detector.
race-mp:
	go test -race -run 'MultiProducer|ConcurrentLane|ParallelBatchSource|Replay|ProducerErrors|StatsLane' ./internal/serve

# Focused race pass over the federation subsystem: the frame codec,
# hub broadcast/dedup/join-replay, and the agent's reconnect + bounded
# outbox machinery, plus the two root-level end-to-end tests.
race-fed:
	go test -race ./internal/fed
	go test -race -run 'TestFederation' .

# Coverage-guided fuzz smoke over the federation frame codec: decode →
# re-encode identity, the error taxonomy (truncated/oversize/unknown
# type), and stream-reader agreement with the in-place decoder.
fuzz-fed:
	go test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime=10s ./internal/fed

# Float-matcher fuzz smoke: Match on raw values against MatchCodes on
# the quantised vector, at widths 4-24 and fuzzed quantiser ranges.
fuzz-rules:
	go test -run '^$$' -fuzz '^FuzzMatchFloat$$' -fuzztime=10s ./internal/rules
