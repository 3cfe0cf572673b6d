# Verification entry points. `make verify` is the gate a change must
# pass before merging; the finer-grained targets exist for focused runs.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet fmt-check fuzz examples benchmark-check verify loc deadcode

build:
	$(GO) build ./...

# The plain run is the one that enforces every performance invariant:
# the ratio gates of internal/perf, and the allocation gates over large
# working sets, skip under the race detector.
test:
	$(GO) test ./...

# The whole suite under the race detector; the ring plane's tests in
# internal/dataplane (shard goroutines fed through SPSC rings, control
# at batch boundaries) are the bulk of what it can catch. The race
# build also poisons every datagram buffer netsim recycles (0xDB), so
# each digest, sweep and relay test here fails on bytes kept past
# their datagram's death. The second line repeats the ring's
# scheduling-sensitive tests (control against live traffic, the idle
# worker's park handshake), so a flake shows up here, not in somebody's
# unrelated PR.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run 'VsTrafficRace|NoStrandedPacket' ./internal/dataplane

# The simulator runs one proxy per Site; the concurrent plane is the
# benchmark's and the stress tests'. So no non-test package but
# internal/dataplane itself may import internal/dataplane.
vet:
	$(GO) vet ./...
	@! $(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -v '^repro/internal/dataplane:' | grep -w 'repro/internal/dataplane'

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Every native fuzz target, each for $(FUZZTIME), found by `go test
# -list` in each package so that a new one is never skipped: codec
# round-trip stability and no-panic over the packet parsers, the
# word-wise checksum against its two-byte reference, the strconv key
# renderer against its fmt reference, the recycled scheduler against
# its container/heap reference, the control-port line session against
# its line-by-line model under any split of the stream, TCP delivery
# of Writes split at any sizes and virtual times against their
# concatenation, with every written slice left untouched, the EEM
# client fed arbitrary server bytes under any split, with no panic and
# no request answered twice, the EEM wire codec's round trip (any
# message decodes from its line to itself; a line cut short or run
# into another is rejected), and the migration frame splitter, whose
# frames under any split match the whole stream's and which rejects an
# oversized header before buffering its payload.
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		names=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for name in $$(echo "$$names" | grep '^Fuzz'); do \
			echo "$$pkg $$name"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) || exit 1; \
		done; \
	done

# `go build ./...` compiles the examples but nothing executes them, and
# they are the first thing a reader runs against the public API. Each
# finishes in well under a second; exit 0 means every proxy command it
# issued was accepted (MustCommand panics otherwise) and no transfer
# failed to start.
examples:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# The repository benchmark is a module of its own, so `go build ./...`
# and `go test ./...` never compile it: an internal rename could break
# the yardstick unnoticed. Vet and test it, then run every workload for
# 2 s — the two closed-loop packet workloads, the flow-lifecycle
# workload, the open-loop paced workload and the simulator suite. Exit
# 0 means the 2^16-packet verification pass and the counter checks
# held (edit-bulk: every checksum, payload, remapped sequence number
# and translated ACK; churn: every flow closed in the flow log and no
# queue left after the last clock advance, on recycled queues and
# instances; paced: the same verification pass, then every add/delete
# control pair accepted beside open-loop traffic on the ring plane;
# sim-suite: every iteration's output hashed as the first did and no
# scenario failed, on recycled scheduler events). sim-suite runs at
# seed 1 and again at 7 and 11, the seeds a benchmark comparison
# measures, since the digests and the sweep pin other seeds.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh --workload edit-bulk --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload fwd-small --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload churn --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload paced --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload sim-suite --seed 1 --seconds 2 --trace 0
	bash benchmark/run.sh --workload sim-suite --seed 7 --seconds 2 --trace 0
	bash benchmark/run.sh --workload sim-suite --seed 11 --seconds 2 --trace 0

# The same steps as CI, in its order; fuzz runs each target for 2 s
# there as here.
verify: FUZZTIME = 2s
verify: build vet test race fmt-check fuzz examples benchmark-check
	@echo "verify: OK"

# Non-test Go lines in internal/, cmd/ and examples/: the size figure
# the change log quotes. Not a gate.
loc:
	@find internal cmd examples -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l

# Non-test functions of internal/ that no program links, one a line
# with its file. Every cmd/*, every examples/* and the benchmark are
# built without inlining (-gcflags=all=-l), so every function a program
# can reach keeps a text symbol of its own; `go tool nm` lists them,
# and the declarations are read from the source. Symbols are reduced
# to package, receiver type and name: type arguments ([go.shape...]),
# pointer receivers, closures (.func1, .gowrap1, .deferwrap1) and
# method values (-fm) fold into the function they belong to. What it
# prints is reached by tests alone or by nothing (the linker keeps a
# method that an interface call might reach, so a miss is possible, a
# false alarm is not). Not a gate.
deadcode:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -gcflags=all=-l -o "$$tmp/" ./cmd/... ./examples/... && \
	(cd benchmark && $(GO) build -gcflags=all=-l -o "$$tmp/bench" .) || exit 1; \
	for b in "$$tmp"/*; do $(GO) tool nm "$$b"; done | \
	sed -n -E 's/^ *[0-9a-f]+ [Tt] repro\/(internal\/.*)$$/\1/p' | \
	sed -E -e ':a' -e 's/\[[^][]*\]//' -e 'ta' | \
	sed -E -e 's/-fm$$//' -e 's/\.(func|gowrap|deferwrap)[0-9].*$$//' \
		-e 's/^([^.]*)\.\(\*?([A-Za-z0-9_]+)\)/\1.\2/' -e 's/^([^.]*)\./\1 /' | \
	sort -u >"$$tmp/linked"; \
	find internal -name '*.go' ! -name '*_test.go' | sort | xargs awk ' \
		FNR == 1 { dir = FILENAME; sub(/\/[^\/]*$$/, "", dir) } \
		/^func / { \
			s = substr($$0, 6); recv = ""; \
			if (s ~ /^\(/) { \
				recv = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2); \
				gsub(/\[[^]]*\]/, "", recv); n = split(recv, w, " "); recv = w[n]; sub(/^\*/, "", recv); recv = recv "."; \
			} \
			name = s; sub(/[^A-Za-z0-9_].*/, "", name); \
			if (name != "init" && name != "main" && name != "_") print dir, recv name, FILENAME ":" FNR; \
		}' >"$$tmp/declared"; \
	awk 'NR == FNR { linked[$$1 " " $$2] = 1; next } !(($$1 " " $$2) in linked) { print $$3 ": " $$2 }' \
		"$$tmp/linked" "$$tmp/declared"
