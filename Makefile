# Developer workflow for the safeland reproduction.
#
#   make check       # tier-1 gate + arm64 cross-build and FMA check + race detector (shuffled) + bench smoke + bench module
#   make bench       # paper-artifact benchmarks; hot-path and monitoring numbers land in BENCH_nn/monitor.json
#   make bench-smoke # one iteration of each perception benchmark (keeps the harness honest)
#   make grid        # E11 grid coverage standalone (quick scale)
#   make e12         # E12 full-frame monitoring standalone (quick scale)
#   make e13         # E13 descent-session fleet study standalone (quick scale)
#   make chaos       # E14 chaos drill standalone (quick scale)
#   make fuzz-smoke  # a few seconds of each fuzz target

GO ?= go

# The perception hot-path benchmarks: conv forward (lane-vectorised kernel +
# scratch arena) on a 64×64 trunk, the served crop's 12×12 trunk and the
# 192 px stem, conv backward, a frozen clone's segmentation of a 192 px
# frame, Monte-Carlo statistics (prefix reuse) and the full monitor verdict
# on a 64 px crop and on the served 24 px crop, the last three on a frozen
# clone as every Engine worker and session serves them. One regex so bench
# and bench-smoke never drift. Inference ops run on their caller's
# goroutine at any -cpu; -cpu 1 matters only for BenchmarkConvBackward, the
# one training op in the set, and keeps it comparable with earlier records.
NN_BENCH = ^(BenchmarkConvForwardSmall|BenchmarkConvForwardCropTrunk|BenchmarkConvForwardE8Scene|BenchmarkConvBackward|BenchmarkPredictClone192|BenchmarkMCStats|BenchmarkVerifyRegion|BenchmarkVerifyRegionServedCrop)$$
NN_BENCH_PKGS = ./internal/nn ./internal/segment ./internal/monitor

# The whole-frame monitoring benchmarks: the tiled whole-frame verdict E12's
# acceptance budget is written against — BenchmarkFullFrameVerdict's
# "crop-verdicts" metric (whole frame measured against an interleaved
# single-crop MCStats pass, so machine-load drift cancels out of the ratio)
# must stay < 10. Also -cpu 1, as above.
MONITOR_BENCH = ^(BenchmarkMCStats|BenchmarkFullFrameVerdict)$$

# The inference functions, closures included, whose arm64 code must hold no
# fused multiply-add: an FMA rounds once where amd64 rounds twice, so an
# arm64 build could compute other verdict bits than the amd64 one that was
# validated. The training path (Backward passes, optimisers) is not listed.
FMA_FREE = nn.convRun nn.convTapsGo nn.(*Conv2D).run nn.bnReLUGo nn.(*BatchNorm2D).infer \
	nn.(*ReLU).Forward nn.(*Dropout).Forward nn.applyKeep nn.applyKeepGo nn.(*Upsample2x).Forward \
	nn.softmaxChannelsInto nn.softmaxPixels nn.(*fusedConcat).Forward nn.(*fusedConcat).ForwardCtx \
	monitor.(*Bayesian).mcMoments monitor.accumulateMoments monitor.finalizeMoments \
	monitor.Rule.PixelFlags monitor.verdictFromMoments monitor.(*Bayesian).MCEntropyStats \
	monitor.accumulateEntropy monitor.entropyOf

.PHONY: check fmt vet build cross test race race-experiments bench bench-smoke bench-module grid e12 e13 chaos fuzz-smoke

check: fmt vet build cross race bench-smoke bench-module

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Conv2D's run kernel is AVX-512 or AVX assembly on amd64 (taken when the
# CPU reports those), its transposing store and the frozen network's
# BatchNorm→ReLU epilogue AVX assembly (taken when the CPU reports AVX),
# the channel softmax AVX2+FMA assembly and the dropout mask AVX2 assembly
# (taken when the CPU reports those; internal/cpu reads the flags), the
# portable Go bodies otherwise, and portable Go on every other GOARCH,
# wired in by files no amd64 build compiles: vet and build for arm64 too.
# (The amd64 vet already checks the assembly's frames against their Go
# declarations.) Then read the arm64 assembly of the FMA_FREE functions and
# fail on a fused multiply-add in any of them, or on a listed function it
# no longer finds.
cross:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	@GOARCH=arm64 $(GO) build -gcflags=-S ./internal/nn ./internal/monitor 2>&1 | awk -v want='$(FMA_FREE)' ' \
		BEGIN { n = split(want, w, " "); for (i = 1; i <= n; i++) list[w[i]] = 1 } \
		/ STEXT / { fn = $$1; sub(/^safeland\/internal\//, "", fn); base = fn; \
			sub(/\.func[0-9.]+$$/, "", base); checked = base in list; if (checked) seen[base] = 1; next } \
		checked && /(FMADD|FMSUB|FNMADD|FNMSUB)/ { print "fused multiply-add in " fn ":" $$0; bad = 1 } \
		END { for (f in list) if (!(f in seen)) { print "no arm64 code found for " f; bad = 1 } \
			if (!bad) print "no fused multiply-add in the arm64 inference path"; exit bad }'

test:
	$(GO) test ./...

# The Engine serves requests concurrently over per-worker model replicas,
# the experiment fleets (E5, E7-E10) stream scenes through that pool from
# the shared scenario corpus, and the corpus itself dedups concurrent
# generation; every change to those paths must survive the race detector.
# -shuffle=on keeps test-order coupling from hiding behind fixture reuse.
# The race instrumentation slows the training fixtures by an order of
# magnitude, hence the generous timeout.
race:
	$(GO) test -race -shuffle=on -timeout 120m ./...

# Focused loop for fleet work: vet plus the quick-config experiment fleets
# (parity, cancellation, full E-suite) under the race detector, without
# paying for the whole repo's race sweep.
race-experiments:
	$(GO) vet ./internal/experiments ./internal/scenario
	$(GO) test -race -timeout 120m ./internal/experiments ./internal/scenario

# One pass over the go test benchmarks: the paper-artifact benchmarks
# (BenchmarkE1..E10*) print human-readably, and the perception hot-path and
# frame-monitoring baselines land in BENCH_nn.json and BENCH_monitor.json,
# which are committed. Serving speed (engine, sessions, fleets under
# faults) is measured by the EL-service benchmark under bench/, whose
# `--compare --ledger` output is committed as BENCH_e2e.json.
bench:
	$(GO) test -bench='^BenchmarkE[0-9]' -benchtime=1x -run=^$$ .
	$(GO) test -bench='$(NN_BENCH)' -benchmem -cpu 1 -run=^$$ -json $(NN_BENCH_PKGS) > BENCH_nn.json
	$(GO) test -bench='$(MONITOR_BENCH)' -benchmem -cpu 1 -benchtime=10x -run=^$$ -json ./internal/monitor > BENCH_monitor.json

# The EL-service benchmark under bench/ is a module of its own, compiled
# against this package's public API, so the root build never sees it: vet
# and test it here so an API change cannot break it unnoticed.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# One short iteration of each perception benchmark: cheap enough for every
# check run, and it keeps the bench harness itself from rotting.
bench-smoke:
	$(GO) test -bench='$(NN_BENCH)' -benchmem -cpu 1 -benchtime=1x -run=^$$ $(NN_BENCH_PKGS)
	$(GO) test -bench='$(MONITOR_BENCH)' -benchmem -cpu 1 -benchtime=1x -run=^$$ ./internal/monitor

# E11 grid coverage standalone: the full scenario-axes mission fleet at
# quick scale (trains the quick model, then streams all 243 scenarios).
grid:
	$(GO) run ./cmd/elbench -quick -run E11

# E12 full-frame monitoring standalone: crop-only vs whole-frame Bayesian
# verdicts tiled from crop verdicts, at quick scale.
e12:
	$(GO) run ./cmd/elbench -quick -run E12

# E13 descent-session fleet study standalone: per-frame recompute vs
# sessions re-verifying the previous zone over synthetic descents, at quick
# scale.
e13:
	$(GO) run ./cmd/elbench -quick -run E13

# E14 chaos drill standalone: the descent fleet under a published fault
# schedule — degraded-mode serving, breaker failover — at quick scale.
chaos:
	$(GO) run ./cmd/elbench -quick -run E14

# A few seconds of coverage-guided input generation per fuzz target — the
# cheap regression pass; leave the long campaigns to dedicated runs.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzZoneSelection -fuzztime=5s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSpecKey -fuzztime=5s ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzAxesEnumerate -fuzztime=5s ./internal/scenario
	$(GO) test -run=^$$ -fuzz=FuzzConvForwardMatchesReference -fuzztime=5s ./internal/nn
	$(GO) test -run=^$$ -fuzz=FuzzFrozenNetMatchesNet -fuzztime=5s ./internal/nn
	$(GO) test -run=^$$ -fuzz=FuzzDropoutRecordMatchesStream -fuzztime=5s ./internal/nn
	$(GO) test -run=^$$ -fuzz=FuzzSoftmaxMatchesPerPixelLoop -fuzztime=5s ./internal/nn
	$(GO) test -run=^$$ -fuzz=FuzzInjectorDeterminism -fuzztime=5s ./internal/faults
	$(GO) test -run=^$$ -fuzz=FuzzServingContract -fuzztime=5s .
