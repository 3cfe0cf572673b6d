# Verification entry points. `make verify` is the gate a change must
# pass before merging; the finer-grained targets exist for focused runs.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet fmt-check fuzz bench bench-shard bench-gate bench-registry bench-registry-gate scenarios benchmark-check verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector: the sim.Realtime driver and
# the daemons are the only concurrent components, but everything runs.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Native fuzz targets, each for $(FUZZTIME): codec round-trip
# stability and no-panic over the packet parsers, and the word-wise
# checksum against its two-byte reference.
fuzz:
	$(GO) test ./internal/ip -fuzz FuzzIPParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ip -fuzz FuzzChecksum -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tcp -fuzz FuzzTCPParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/filter -fuzz FuzzFilterParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/filter -fuzz FuzzSteerKey -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataplane -fuzz FuzzSteer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/classifier -fuzz FuzzClassifierParity -fuzztime $(FUZZTIME)
	$(GO) test ./internal/migrate -fuzz FuzzMigrationSnapshotDecode -fuzztime $(FUZZTIME)

# Hot-path micro-benchmarks, benchstat-ready (10 samples each).
bench:
	./bench.sh

# Sharded data-plane scaling curve: BenchmarkShardedIntercept sizes its
# shard count from GOMAXPROCS, so sweeping -cpu 1,2,4,8 measures the
# aggregate interception rate at 1/2/4/8 shards through the batched
# pipeline. The curve — plus the host CPU count it was measured on, the
# batch size, the 8-vs-1 scaling ratio, and the regression floor
# bench-gate enforces — lands in BENCH_shard.json.
bench-shard:
	$(GO) test ./internal/perf -run '^$$' -bench 'BenchmarkShardedIntercept$$' \
		-benchmem -cpu 1,2,4,8 -count=1 | tee /tmp/bench_shard.txt
	@awk -v cpus=$$(nproc 2>/dev/null || echo 1) -v batch=64 \
	'BEGIN { split("1 2 4 8", order, " ") } \
	$$1 ~ /^BenchmarkShardedIntercept(-[0-9]+)?$$/ { \
		n = split($$1, name, "-"); sc = (n > 1) ? name[n] : 1; \
		for (i = 2; i <= NF; i++) if ($$i == "pkts/s") rate[sc] = $$(i-1); \
	} \
	END { \
		printf "{\n  \"benchmark\": \"BenchmarkShardedIntercept\",\n  \"metric\": \"pkts/s\",\n"; \
		printf "  \"host_cpus\": %d,\n  \"batch\": %d,\n  \"shards\": {", cpus, batch; \
		sep = ""; \
		for (j = 1; j <= 4; j++) if (order[j] in rate) { \
			printf "%s\n    \"%s\": %d", sep, order[j], rate[order[j]]; sep = ","; \
		} \
		printf "\n  }"; \
		if (("1" in rate) && ("8" in rate) && rate["1"] > 0) { \
			printf ",\n  \"scale_8v1\": %.2f,\n  \"floor_8shard\": %d", \
				rate["8"] / rate["1"], rate["8"] * 0.7; \
		} \
		printf "\n}\n"; \
	}' /tmp/bench_shard.txt > BENCH_shard.json
	@cat BENCH_shard.json

# Registry-classifier curve: ns/lookup against 1/64/1000/8000-rule
# registries (min of 3 runs per size, so scheduler noise at ~17ns/op
# cannot skew the record) plus the short-flow churn lifecycle cost.
# The curve, the host CPU count, the 8k-vs-1 flatness ratio, and the
# churn allocation cost land in BENCH_registry.json.
bench-registry:
	$(GO) test ./internal/perf -run '^$$' \
		-bench 'BenchmarkRegistryLookup$$|BenchmarkRegistryChurn$$' \
		-benchmem -count=3 | tee /tmp/bench_registry.txt
	@awk -v cpus=$$(nproc 2>/dev/null || echo 1) \
	'$$1 ~ /^BenchmarkRegistryLookup\/rules-/ { \
		split($$1, name, "-"); size = name[2]; \
		for (i = 2; i <= NF; i++) \
			if ($$i == "ns/lookup" && (!(size in ns) || $$(i-1) < ns[size])) ns[size] = $$(i-1); \
	} \
	$$1 ~ /^BenchmarkRegistryChurn(-[0-9]+)?$$/ { \
		for (i = 2; i <= NF; i++) { \
			if ($$i == "bytes/flow" && (bpf == "" || $$(i-1) < bpf)) bpf = $$(i-1); \
			if ($$i == "pkts/s" && $$(i-1) > pps) pps = $$(i-1); \
		} \
	} \
	END { \
		printf "{\n  \"benchmark\": \"BenchmarkRegistryLookup\",\n  \"metric\": \"ns/lookup (min of 3)\",\n"; \
		printf "  \"host_cpus\": %d,\n  \"rules\": {", cpus; \
		n = split("1 64 1000 8000", order, " "); sep = ""; \
		for (j = 1; j <= n; j++) if (order[j] in ns) { \
			printf "%s\n    \"%s\": %.2f", sep, order[j], ns[order[j]]; sep = ","; \
		} \
		printf "\n  }"; \
		if (("1" in ns) && ("8000" in ns) && ns["1"] > 0) \
			printf ",\n  \"ratio_8kv1\": %.2f", ns["8000"] / ns["1"]; \
		if (bpf != "") printf ",\n  \"churn_bytes_per_flow\": %d", bpf; \
		if (pps > 0) printf ",\n  \"churn_pkts_per_s\": %d", pps; \
		printf "\n}\n"; \
	}' /tmp/bench_registry.txt > BENCH_registry.json
	@cat BENCH_registry.json

# Flat-lookup regression gate: a fresh run of the classifier benchmark
# checked for zero allocations at every registry size and for O(1)
# scaling (8000-rule lookups within 1.25x of 1-rule).
bench-registry-gate:
	./scripts/bench_registry_gate.sh

# Throughput regression gate: a fresh short run of the batched
# benchmark checked against hard invariants (no shard collapse; linear
# scaling on hosts with the cores for it) and against the committed
# BENCH_shard.json floor when the host matches the one that recorded it.
bench-gate:
	./scripts/bench_gate.sh

# The scripted-scenario gate: every row of experiments.Scenarios runs
# twice at its gate seed under the race detector; the two outputs must
# be byte-identical and hash to the digest committed in
# internal/experiments/testdata/scenarios.sha256. The digest was cut by
# another process on another commit, so it covers what a run-twice-and-
# cmp of two `wsim` processes did, plus what that could not see: a
# change that moves the output at all. Re-cut a digest only with
# `go test ./internal/experiments -run TestScenarios -update`.
scenarios:
	$(GO) test -race -count=1 -run TestScenarios ./internal/experiments

# The repository benchmark is a module of its own, so `go build ./...`
# and `go test ./...` never compile it: an internal rename could break
# the yardstick unnoticed. Vet and test it, then run the two closed-loop
# packet workloads for 2 s each — exit 0 means the 2^16-packet
# verification pass and the counter checks held (edit-bulk: every
# checksum, payload, remapped sequence number and translated ACK).
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh --workload edit-bulk --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload fwd-small --seed 1 --seconds 2 --trace 0

verify: build race vet fmt-check scenarios benchmark-check
	@echo "verify: OK"
