GO ?= go

# Hot-path microbenchmarks that gate performance work (see README
# "Performance"). The top-level Fig*/Table* benchmarks each run a full
# scenario; use `make bench-scenarios` for those.
HOTPATH_PKGS = ./internal/eventsim ./internal/wire
BENCHTIME ?= 2s

.PHONY: fast full fuzz bench bench-sched bench-select bench-shard bench-telemetry bench-fault bench-cdn bench-flow bench-scenarios bench-compare bench-baseline clean

# Fast lane: static checks plus every -short test under the race detector.
# Scenario-scale tests skip themselves in -short mode, so this finishes in
# about a minute and is the pre-commit gate.
fast:
	$(GO) vet ./...
	$(GO) test -race -short -timeout 20m ./...

# Full lane: build everything and run the whole suite, including the
# multi-minute scenario tests (tier-1 verify). internal/core alone exceeds
# go test's default 10m timeout on slow single-core machines, so raise it.
full:
	$(GO) build ./...
	$(GO) test -timeout 30m ./...

# Short coverage-guided fuzz pass over the wire codec, seeded from the
# committed golden-trace corpus (internal/wire/testdata/fuzz). CI runs this on
# every push; longer local sessions just raise FUZZTIME.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME) ./internal/wire/

# Hot-path benchmarks, also exported as BENCH_hotpath.json
# ([{"name":..., "ns_per_op":..., "bytes_per_op":..., "allocs_per_op":...}]).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) $(HOTPATH_PKGS) | tee bench_hotpath.txt
	awk 'BEGIN { print "[" } \
	  /^Benchmark/ { ns=""; bytes=""; allocs=""; \
	    for (i = 2; i <= NF; i++) { \
	      if ($$(i) == "ns/op") ns = $$(i-1); \
	      if ($$(i) == "B/op") bytes = $$(i-1); \
	      if ($$(i) == "allocs/op") allocs = $$(i-1); \
	    } \
	    if (ns == "") next; \
	    if (n++) print ","; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
	      $$1, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs); \
	  } \
	  END { print "\n]" }' bench_hotpath.txt > BENCH_hotpath.json
	@echo "wrote BENCH_hotpath.json"

# Scheduler benchmarks (request-scheduling hot path in internal/peer), also
# exported as BENCH_sched.json in the same shape as BENCH_hotpath.json.
bench-sched:
	$(GO) test -run '^$$' -bench 'Scheduler|PickProvider' -benchmem -benchtime $(BENCHTIME) ./internal/peer | tee bench_sched.txt
	awk 'BEGIN { print "[" } \
	  /^Benchmark/ { ns=""; bytes=""; allocs=""; \
	    for (i = 2; i <= NF; i++) { \
	      if ($$(i) == "ns/op") ns = $$(i-1); \
	      if ($$(i) == "B/op") bytes = $$(i-1); \
	      if ($$(i) == "allocs/op") allocs = $$(i-1); \
	    } \
	    if (ns == "") next; \
	    if (n++) print ","; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
	      $$1, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs); \
	  } \
	  END { print "\n]" }' bench_sched.txt > BENCH_sched.json
	@echo "wrote BENCH_sched.json"

# Sharded-engine wall-clock benchmark: the paper-scale popular scenario run
# three times on the SAME partition (SHARD_WORKERS event-loop shards) at
# GOMAXPROCS 1, 2, and 4, exported as BENCH_shard.json. Holding the
# partition fixed and varying only the core count is what makes the entries
# comparable: the events/continuity/locality fields must be identical across
# all three (the trajectory is worker-count invariant — benchdiff -shard
# enforces this), and only wall_seconds may differ. The gomaxprocs field in
# each entry records how many cores that run had, so downstream comparisons
# (benchdiff -shard baseline current) match like-for-like (workers,
# gomaxprocs) pairs instead of conflating parity runs with regressions.
# Each run is a full ~2-hour-virtual scenario, so this takes serious wall
# time. SHARD_WORKERS=12 engages the scaled partition (7 TELE address-range
# sub-shards + infrastructure domain); values <= 6 use the legacy ISP
# partition.
SHARD_WORKERS ?= 12

bench-shard:
	GOMAXPROCS=1 PPLIVE_PAPER_SCALE=1 PPLIVE_SHARD_WORKERS=$(SHARD_WORKERS) $(GO) test -run TestPaperScalePopularRun -v -timeout 4h ./internal/experiments | tee bench_shard.txt
	GOMAXPROCS=2 PPLIVE_PAPER_SCALE=1 PPLIVE_SHARD_WORKERS=$(SHARD_WORKERS) $(GO) test -run TestPaperScalePopularRun -v -timeout 4h ./internal/experiments | tee -a bench_shard.txt
	GOMAXPROCS=4 PPLIVE_PAPER_SCALE=1 PPLIVE_SHARD_WORKERS=$(SHARD_WORKERS) $(GO) test -run TestPaperScalePopularRun -v -timeout 4h ./internal/experiments | tee -a bench_shard.txt
	awk 'BEGIN { print "[" } \
	  /shard-bench:/ { \
	    line = ""; \
	    for (i = 1; i <= NF; i++) { \
	      if (split($$(i), kv, "=") != 2) continue; \
	      line = line (line == "" ? "" : ", ") "\"" kv[1] "\": " kv[2]; \
	    } \
	    if (line == "") next; \
	    if (n++) print ","; \
	    printf "  {%s}", line; \
	  } \
	  END { print "\n]" }' bench_shard.txt > BENCH_shard.json
	$(GO) run ./cmd/benchdiff -shard BENCH_shard.json
	@echo "wrote BENCH_shard.json"

# Selection-policy benchmarks (tracker reply composition in
# internal/selection), exported as BENCH_select.json. The baseline/uniform
# pair proves the strategy indirection is free on the default path: the
# bench-compare gate holds BenchmarkSelectUniform within the noise threshold
# of the hand-inlined BenchmarkSelectUniformBaseline at 0 allocs/op.
bench-select:
	$(GO) test -run '^$$' -bench Select -benchmem -benchtime $(BENCHTIME) ./internal/selection | tee bench_select.txt
	awk 'BEGIN { print "[" } \
	  /^Benchmark/ { ns=""; bytes=""; allocs=""; \
	    for (i = 2; i <= NF; i++) { \
	      if ($$(i) == "ns/op") ns = $$(i-1); \
	      if ($$(i) == "B/op") bytes = $$(i-1); \
	      if ($$(i) == "allocs/op") allocs = $$(i-1); \
	    } \
	    if (ns == "") next; \
	    if (n++) print ","; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
	      $$1, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs); \
	  } \
	  END { print "\n]" }' bench_select.txt > BENCH_select.json
	@echo "wrote BENCH_select.json"

# Telemetry pipeline benchmarks: full-capture vs streaming analysis of the
# same synthetic paper-scale trace, exported as BENCH_telemetry.json. Besides
# the usual ns/op + allocs/op, each entry carries live_heap_bytes — the heap
# retained by the pipeline's state after a full GC — which is the number the
# streaming telemetry work gates on (streaming must stay >= 10x below full
# capture; TestStreamingTelemetryMemoryFootprint enforces it).
bench-telemetry:
	$(GO) test -run '^$$' -bench Telemetry -benchmem -benchtime $(BENCHTIME) ./internal/analysis | tee bench_telemetry.txt
	awk 'BEGIN { print "[" } \
	  /^Benchmark/ { ns=""; bytes=""; allocs=""; live=""; \
	    for (i = 2; i <= NF; i++) { \
	      if ($$(i) == "ns/op") ns = $$(i-1); \
	      if ($$(i) == "B/op") bytes = $$(i-1); \
	      if ($$(i) == "allocs/op") allocs = $$(i-1); \
	      if ($$(i) == "live-heap-B") live = $$(i-1); \
	    } \
	    if (ns == "") next; \
	    if (n++) print ","; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"live_heap_bytes\": %s}", \
	      $$1, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs), (live == "" ? "null" : live); \
	  } \
	  END { print "\n]" }' bench_telemetry.txt > BENCH_telemetry.json
	@echo "wrote BENCH_telemetry.json"

# Fault-hook benchmarks: the underlay send path with the fault layer idle
# (every benign run) and with an active link fault, exported as
# BENCH_fault.json. The idle numbers gate the tentpole claim that fault
# hooks cost ~nothing when no chaos schedule is installed.
bench-fault:
	$(GO) test -run '^$$' -bench Fault -benchmem -benchtime $(BENCHTIME) ./internal/underlay | tee bench_fault.txt
	awk 'BEGIN { print "[" } \
	  /^Benchmark/ { ns=""; bytes=""; allocs=""; \
	    for (i = 2; i <= NF; i++) { \
	      if ($$(i) == "ns/op") ns = $$(i-1); \
	      if ($$(i) == "B/op") bytes = $$(i-1); \
	      if ($$(i) == "allocs/op") allocs = $$(i-1); \
	    } \
	    if (ns == "") next; \
	    if (n++) print ","; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
	      $$1, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs); \
	  } \
	  END { print "\n]" }' bench_fault.txt > BENCH_fault.json
	@echo "wrote BENCH_fault.json"

# CDN-hook benchmarks: the urgent-miss scheduling path with no edges deployed
# (every pure-P2P run) and with a hybrid edge set, exported as BENCH_cdn.json.
# The edges=0 numbers gate the claim that idle CDN hooks cost 0 allocs on the
# send path (TestCDNIdleHooksZeroAlloc pins the alloc count itself).
bench-cdn:
	$(GO) test -run '^$$' -bench CDNUrgentMiss -benchmem -benchtime $(BENCHTIME) ./internal/peer | tee bench_cdn.txt
	awk 'BEGIN { print "[" } \
	  /^Benchmark/ { ns=""; bytes=""; allocs=""; \
	    for (i = 2; i <= NF; i++) { \
	      if ($$(i) == "ns/op") ns = $$(i-1); \
	      if ($$(i) == "B/op") bytes = $$(i-1); \
	      if ($$(i) == "allocs/op") allocs = $$(i-1); \
	    } \
	    if (ns == "") next; \
	    if (n++) print ","; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
	      $$1, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs); \
	  } \
	  END { print "\n]" }' bench_cdn.txt > BENCH_cdn.json
	@echo "wrote BENCH_cdn.json"

# Flow-fidelity benchmarks, exported as BENCH_flow.json: one background-member
# departure plus its replacement join through the real flow port, row slab
# and underlay (BenchmarkFlowChurn), beside the SoA swarm tick
# (BenchmarkFlowTick) so the normalized gate compares churn against a
# sibling. TestFlowChurnZeroAlloc and TestFlowTickZeroAlloc pin both at
# 0 allocs/op; this gates their ns/op.
bench-flow:
	$(GO) test -run '^$$' -bench 'FlowChurn|FlowTick' -benchmem -benchtime $(BENCHTIME) ./internal/core ./internal/peer | tee bench_flow.txt
	awk 'BEGIN { print "[" } \
	  /^Benchmark/ { ns=""; bytes=""; allocs=""; \
	    for (i = 2; i <= NF; i++) { \
	      if ($$(i) == "ns/op") ns = $$(i-1); \
	      if ($$(i) == "B/op") bytes = $$(i-1); \
	      if ($$(i) == "allocs/op") allocs = $$(i-1); \
	    } \
	    if (ns == "") next; \
	    if (n++) print ","; \
	    printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
	      $$1, ns, (bytes == "" ? "null" : bytes), (allocs == "" ? "null" : allocs); \
	  } \
	  END { print "\n]" }' bench_flow.txt > BENCH_flow.json
	@echo "wrote BENCH_flow.json"

# Perf regression gate (the CI bench-compare lane): re-run both benchmark
# suites fresh and compare against the committed baselines in bench/baseline/,
# failing if any benchmark's ns/op regressed by more than 30% relative to its
# siblings (benchdiff -normalize divides the ratios by their geometric mean,
# so a uniformly slower or faster machine doesn't trip the gate). Re-baseline
# after intentional perf changes with `make bench-baseline`.
bench-compare:
	$(MAKE) bench bench-sched bench-select bench-telemetry bench-fault bench-cdn bench-flow BENCHTIME=$(BENCHTIME)
	$(GO) run ./cmd/benchdiff -normalize -threshold 0.30 \
	  bench/baseline/hotpath.json BENCH_hotpath.json \
	  bench/baseline/sched.json BENCH_sched.json \
	  bench/baseline/select.json BENCH_select.json \
	  bench/baseline/telemetry.json BENCH_telemetry.json \
	  bench/baseline/fault.json BENCH_fault.json \
	  bench/baseline/cdn.json BENCH_cdn.json \
	  bench/baseline/flow.json BENCH_flow.json

# Refresh the committed perf baselines from a fresh benchmark run.
bench-baseline:
	$(MAKE) bench bench-sched bench-select bench-telemetry bench-fault bench-cdn bench-flow BENCHTIME=$(BENCHTIME)
	mkdir -p bench/baseline
	cp BENCH_hotpath.json bench/baseline/hotpath.json
	cp BENCH_sched.json bench/baseline/sched.json
	cp BENCH_select.json bench/baseline/select.json
	cp BENCH_telemetry.json bench/baseline/telemetry.json
	cp BENCH_fault.json bench/baseline/fault.json
	cp BENCH_cdn.json bench/baseline/cdn.json
	cp BENCH_flow.json bench/baseline/flow.json
	@echo "wrote bench/baseline/{hotpath,sched,select,telemetry,fault,cdn,flow}.json"

# Scenario-scale benchmarks: one full simulation per table/figure.
bench-scenarios:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x .

clean:
	rm -f bench_hotpath.txt BENCH_hotpath.json bench_sched.txt BENCH_sched.json \
	  bench_select.txt BENCH_select.json \
	  bench_shard.txt BENCH_shard.json bench_telemetry.txt BENCH_telemetry.json \
	  bench_fault.txt BENCH_fault.json bench_cdn.txt BENCH_cdn.json \
	  bench_flow.txt BENCH_flow.json core.test
