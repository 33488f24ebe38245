# BEES build/verify entry points.
#
# tier1 is the seed gate every PR must keep green, vet over the whole
# tree included; tier2 adds the race detector (the wire path's chaos
# tests rely on it to prove the client/server are race-clean).

GO ?= go

.PHONY: all help build tier1 tier2 fuzz bench benchdiff cover

all: tier1

# `make help` lists the verification entry points; `make cover` enforces
# a coverage floor on each of 11 internal packages (listed by `make help`
# and explained above the COVER_FLOOR_* settings), and
# `make benchdiff OLD=old.json` gates matcher benchmarks against a saved
# BENCH_pipeline.json baseline (see DESIGN.md, "Exact binary
# matching", for the save-baseline/compare workflow).
help:
	@echo "make tier1      - build + gofmt gate + vet everything + full test suite (the PR gate),"
	@echo "                  including the root package's source audits: TestEveryInternalFunctionIsLinked"
	@echo "                  (testdata/unlinked_allowlist.txt) and TestEveryConfigFieldIsVaried"
	@echo "                  (testdata/config_allowlist.txt)"
	@echo "make tier2      - fuzz burst, vet everything, race-detector run"
	@echo "make fuzz       - FUZZTIME (default 10s) on each fuzz target"
	@echo "make bench      - micro-benchmarks -> BENCH_pipeline.json"
	@echo "make benchdiff  - compare gated benches: OLD=old.json [NEW=BENCH_pipeline.json]"
	@echo "make cover      - per-package coverage; floors: internal/features $(COVER_FLOOR_FEATURES)%, internal/imagelib $(COVER_FLOOR_IMAGELIB)%, internal/sim $(COVER_FLOOR_SIM)%, internal/blockstore $(COVER_FLOOR_BLOCKSTORE)%, internal/wal $(COVER_FLOOR_WAL)%, internal/cluster $(COVER_FLOOR_CLUSTER)%, internal/server $(COVER_FLOOR_SERVER)%, internal/client $(COVER_FLOOR_CLIENT)%, internal/wire $(COVER_FLOOR_WIRE)%, internal/diskfault $(COVER_FLOOR_DISKFAULT)%, internal/index $(COVER_FLOOR_INDEX)%"

build:
	$(GO) build ./...

# gofmt -l prints the files it would rewrite; any name fails the gate.
tier1: build
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || \
	  { echo "gofmt: unformatted files (run gofmt -w):"; echo "$$unformatted"; exit 1; }
	$(GO) vet ./...
	$(GO) test ./...

# tier2's race run covers the telemetry registry's concurrency tests
# (internal/telemetry: parallel writers + snapshot readers) and the
# chaos tests — the partition test (client/partition_chaos_test.go)
# drives the full pipeline through a severed link plus a beesd restart,
# and the race detector is what makes them a proof rather than a smoke
# test. The explicit -timeout generously covers the sim/harness
# packages, whose CPU-bound lifetime simulations can exceed go test's
# default 10m per-package budget under the race detector's slowdown on
# small (single-core CI) machines; a genuine deadlock still fails, just
# later. tier2 also spends a short fuzz budget on each fuzz target.
tier2: fuzz
	$(GO) vet ./...
	$(GO) test -race -timeout 45m ./...

# Short fuzz burst over every fuzz target (their seed corpora always run
# as plain tests in tier1; this explores beyond them). Each target fuzzes
# for FUZZTIME; -run '^$' skips the package's unit tests so the whole
# budget goes to fuzzing.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzBlockManifest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzBlockPut -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzLoadSnapshot -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzDecodeWALRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/features -run '^$$' -fuzz FuzzMatchBinary -fuzztime $(FUZZTIME)
	$(GO) test ./internal/features -run '^$$' -fuzz FuzzExtractORB -fuzztime $(FUZZTIME)
	$(GO) test ./internal/features -run '^$$' -fuzz FuzzExtractSIFT -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzShardRoute -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzShardSync -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzShardQuery -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeMatchesRef -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzWALRecordMatchesRef -fuzztime $(FUZZTIME)

# Index + pipeline micro-benchmarks with allocation stats, written as
# BENCH_pipeline.json. The raw `go test -bench` text is embedded under
# the "raw" key, so a baseline for benchstat is one jq away:
#   jq -r .raw BENCH_pipeline.json > old.txt && benchstat old.txt new.txt
# The pipeline benchmark runs whole 16-image batches, so it gets a fixed
# small iteration count; the index benchmarks use the default 1s budget.
# The bench runs land in a temp file first so a failing `go test -bench`
# (compile error, panic) fails the target instead of silently piping a
# partial stream into bench2json.
bench:
	@set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	  $(GO) test ./internal/features -run '^$$' -bench 'Match|Jaccard|Prepare|Hamming|Extract|DetectFAST' -benchmem > "$$tmp"; \
	  $(GO) test ./internal/imagelib -run '^$$' -bench 'Encoded' -benchmem >> "$$tmp"; \
	  $(GO) test ./internal/index -run '^$$' -bench . -benchmem >> "$$tmp"; \
	  $(GO) test ./internal/core -run '^$$' -bench . -benchmem -benchtime 5x >> "$$tmp"; \
	  $(GO) test ./internal/blockstore -run '^$$' -bench . -benchmem >> "$$tmp"; \
	  $(GO) test ./internal/wal -run '^$$' -bench . -benchmem >> "$$tmp"; \
	  $(GO) test ./internal/cluster -run '^$$' -bench . -benchmem >> "$$tmp"; \
	  $(GO) run ./cmd/bench2json < "$$tmp" > BENCH_pipeline.json
	@echo "wrote BENCH_pipeline.json"

# Kernel-benchmark regression gate. Save a baseline before a kernel
# change (cp BENCH_pipeline.json old.json), re-run `make bench` after
# it, then `make benchdiff OLD=old.json`: any gated benchmark (Match /
# Jaccard / Prepare / BatchGraph / QueryMax, plus the extraction and
# codec hot path: Extract / DetectFAST / Encoded / Pipeline, plus the
# delta-upload hot path: Block / Resume, plus the durability hot path:
# WAL / Recovery, plus the cluster hot paths: Route / ShardSync /
# ShardQuery / Router) more than 15% slower in ns/op fails the target.
NEW ?= BENCH_pipeline.json
benchdiff:
	@test -n "$(OLD)" || { echo "usage: make benchdiff OLD=old.json [NEW=new.json]"; exit 2; }
	$(GO) run ./cmd/bench2json -compare $(OLD) $(NEW)

# Per-package coverage summary with floors on the hot-path kernels:
# internal/features holds the exact binary matcher plus the
# extraction fast path and their oracles; internal/imagelib holds the
# codec/resize primitives the extraction arena reuses; internal/sim
# holds the lifetime/coverage experiments and the city-scale scenario
# harness whose determinism the replay gate depends on;
# internal/blockstore holds the content-addressed store the delta-upload
# protocol's exactly-once guarantees rest on; internal/wal holds the
# write-ahead log that crash consistency rests on — its torn-tail and
# repair paths are exactly the code that only runs when things go wrong,
# so coverage erosion there is silent until a real crash;
# internal/cluster holds the shard routing/replication layer, whose
# failover and catch-up branches likewise only run during faults;
# internal/server holds the one commit path every upload and
# manifest commit lowers onto, with its dedup gate and WAL replay;
# internal/client holds the one device upload path (the delta flow)
# with its retry, breaker and degradation logic;
# internal/wire holds every frame codec, whose truncation and
# hostile-count branches only run on malformed input; internal/diskfault
# holds the power-loss crash model every kill-anywhere sweep trusts to
# tell synced bytes from unsynced ones; internal/index holds the LSH
# directory and posting arena every CBRD verdict is voted out of, with
# its re-add and partition branches checked against the striped
# reference index. Each floor sits a few points under its measured line
# (one `make cover` run: features 98.2%, imagelib 96.5%, sim 96.7%,
# blockstore 93.3%, wal 95.7%, cluster 93.6%, server 89.0%, client
# 86.4%, wire 95.3%, diskfault 86.4%, index 99.4%) to absorb counting
# drift without letting real erosion through.
COVER_FLOOR_FEATURES ?= 91
COVER_FLOOR_IMAGELIB ?= 85
COVER_FLOOR_SIM ?= 92
COVER_FLOOR_BLOCKSTORE ?= 90
COVER_FLOOR_WAL ?= 90
COVER_FLOOR_CLUSTER ?= 90
COVER_FLOOR_SERVER ?= 83
COVER_FLOOR_CLIENT ?= 84
COVER_FLOOR_WIRE ?= 86
COVER_FLOOR_DISKFAULT ?= 83
COVER_FLOOR_INDEX ?= 96
cover:
	@set -e; out=$$($(GO) test -cover ./... ) || { echo "$$out"; exit 1; }; \
	  echo "$$out"; \
	  check() { \
	    pct=$$(echo "$$out" | awk -v pkg="bees/$$1" '$$2 == pkg { for (i=1;i<=NF;i++) if ($$i ~ /^[0-9.]+%$$/) { sub(/%/,"",$$i); print $$i } }'); \
	    test -n "$$pct" || { echo "cover: no coverage line for $$1"; exit 1; }; \
	    awk -v p="$$pct" -v f="$$2" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || \
	      { echo "cover: $$1 at $$pct% is below the $$2% floor"; exit 1; }; \
	    echo "cover: $$1 at $$pct% (floor $$2%)"; \
	  }; \
	  check internal/features $(COVER_FLOOR_FEATURES); \
	  check internal/imagelib $(COVER_FLOOR_IMAGELIB); \
	  check internal/sim $(COVER_FLOOR_SIM); \
	  check internal/blockstore $(COVER_FLOOR_BLOCKSTORE); \
	  check internal/wal $(COVER_FLOOR_WAL); \
	  check internal/cluster $(COVER_FLOOR_CLUSTER); \
	  check internal/server $(COVER_FLOOR_SERVER); \
	  check internal/client $(COVER_FLOOR_CLIENT); \
	  check internal/wire $(COVER_FLOOR_WIRE); \
	  check internal/diskfault $(COVER_FLOOR_DISKFAULT); \
	  check internal/index $(COVER_FLOOR_INDEX)
