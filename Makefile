GO ?= go

# Aggregate statement-coverage floor: the seed tree measured 79.7%;
# `make cover` fails if the tree regresses below it.
COVER_FLOOR ?= 81.5

# Ceiling on non-test Go and assembly lines outside cmd/rafikibench
# (`make loc`). A change that must grow the tree raises it in its own
# diff, in plain sight; a change that shrinks the tree lowers it to its
# new total. Last raised from 24491 for internal/nn's AVX2 inference
# kernel (232 lines of assembly, ~110 of Go for its wrappers, detection
# and layout), the shared internal/cpu probe that linalg's CPUID code
# moved into, and the over-seeds medians (bench.claimOn).
LOC_CEILING ?= 24967

# Ceiling on `make check`'s total wall time, in seconds. check prints
# each gate's time and fails when their sum exceeds it: a gate nobody
# can afford to run stops being a gate. Measured gate times and the
# headroom are recorded where the budget last moved (CHANGES.md).
CHECK_BUDGET ?= 2520

.PHONY: build test bench bench-smoke benchrun check fmt vet lint race fuzz cover guard chaos slo paper paper-seeds rebaseline loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs every Go benchmark of the root package and internal/...
# but BenchmarkExperiments (the paper artifacts, minutes each) and
# writes the result, in Go benchmark format (ns/op, B/op, allocs/op;
# benchstat reads it), to the tracked BENCH.txt. Profiles are go test's
# own -cpuprofile/-memprofile, one package at a time. bench-smoke runs
# the same set once per benchmark and writes nothing.
BENCH = $(GO) test -run='^$$' -bench=. -skip='^BenchmarkExperiments$$' -benchmem . ./internal/...

bench:
	$(BENCH) > BENCH.txt; status=$$?; cat BENCH.txt; exit $$status

bench-smoke:
	$(BENCH) -benchtime=1x

# benchrun runs the PR benchmark's command as BENCHMARK.json declares
# it: every workload, its results under the git-ignored
# cmd/rafikibench/out/. It fails when the command exits nonzero — a
# build break or a workload whose correctness checks failed. It takes
# ~80 s on 2 vCPUs, so check leaves it out; run it last before
# submitting a change to a package the benchmark imports.
benchrun:
	$(GO) run ./cmd/rafikibench run

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# vet also vets the packages with assembly kernels for arm64, so the
# portable paths that every other host runs always compile (go vet's
# asmdecl check holds the amd64 assembly to its Go declarations).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/cpu ./internal/linalg ./internal/nn

# lint runs the repo's own analyzers (cmd/rafikilint): virtual-time,
# pooled-concurrency, seeded-randomness, map-order, obs-nil-safety,
# dropped-error, and net-bypass invariants, plus the flow-aware
# hot-path memory-model suite (scratchescape, viewmut, hotalloc)
# driven by //rafiki:hot//view//scratch markers — machine-checked
# over the whole tree. Suppressions (//lint:allow <analyzer>
# <reason>) require a reason; add -timing for a cost breakdown.
lint:
	$(GO) run ./cmd/rafikilint ./...

# -count=2 doubles every package's wall time and the race detector
# multiplies it again; on small hosts the heavier packages brush the
# default 10m per-binary timeout, so give them explicit headroom.
# cmd/rafikibench runs on its own, after the rest: its tests hold
# wall-clock checks (span self times against a once-per-process
# calibration of what a span costs) that cannot hold while other
# packages' race binaries oversubscribe the CPUs.
race:
	$(GO) test -race -count=2 -timeout=20m $$($(GO) list ./... | grep -v '/cmd/rafikibench$$')
	$(GO) test -race -count=2 -timeout=20m ./cmd/rafikibench

# fuzz exercises every fuzz target briefly (smoke mode) — enough to
# replay the corpus and catch shallow regressions on every check.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzEngineOps -fuzztime=5s ./internal/nosql/
	$(GO) test -run='^$$' -fuzz=FuzzEngineScan -fuzztime=5s ./internal/nosql/
	$(GO) test -run='^$$' -fuzz=FuzzLoadSurrogate -fuzztime=5s ./internal/nn/
	$(GO) test -run='^$$' -fuzz=FuzzHistoryCheck -fuzztime=5s ./internal/check/
	$(GO) test -run='^$$' -fuzz=FuzzAdmissionQueue -fuzztime=5s ./internal/frontdoor/

# cover fails when aggregate statement coverage falls below the seed
# baseline (COVER_FLOOR).
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' \
		|| { echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# chaos runs the bounded consistency chaos search over its fixed seed
# set: seeded fault+network schedules replayed against the cluster, the
# recorded histories checked for read-your-writes, monotonic-read, and
# linearizability violations, and any failing schedule shrunk to a
# minimal reproducer. A corruption-free reproducer is a protocol bug
# and fails the report's gate claim (exit nonzero). The exploration
# sizes itself (4 clients x 40 rounds per seed), so no -ops is passed.
# The report lands in chaos-report.txt (gitignored); without its
# (elapsed …) line it must equal the tracked golden.
CHAOS = $(GO) run ./cmd/experiments -only chaos -out chaos-report.txt
UNTIMED = grep -v '^(elapsed '
REPORTS = internal/bench/testdata

chaos:
	$(CHAOS)
	$(UNTIMED) chaos-report.txt | diff $(REPORTS)/chaos-report.golden -

# slo runs the front-door overload chaos gate over its fixed seed set:
# a multi-thousand-tenant open-loop fleet driven into overload while a
# partition and a straggler overlap a demand surge. Each seed is run
# twice; a seed fails on an SLO miss (p99 ceiling held in < 90% of
# windows), nondeterministic shedding (shed digests or obs snapshots
# differ between the runs), or a session-guarantee violation for any
# admitted request. The report lands in slo-report.txt (gitignored);
# without its (elapsed …) line it must equal the tracked golden.
SLO = $(GO) run ./cmd/experiments -only slo -out slo-report.txt

slo:
	$(SLO)
	$(UNTIMED) slo-report.txt | diff $(REPORTS)/slo-report.golden -

# paper runs the default experiment set at the default size (100k ops
# per sample, seed 1; ~70 s on 2 vCPUs): every paper table and figure,
# each report's claims, and the closing "claims: N of M hold" line —
# the scoreboard EXPERIMENTS.md quotes. The report lands in
# paper-report.txt (gitignored); without its (elapsed …) lines it must
# equal the tracked golden, so a re-baseline's diff of that file is the
# list of verdicts and numbers it moved.
PAPER = $(GO) run ./cmd/experiments -out paper-report.txt

paper:
	$(PAPER)
	$(UNTIMED) paper-report.txt | diff $(REPORTS)/paper-report.golden -

# paper-seeds runs the same default set at seeds 1-5, full size (~6 min
# on 2 vCPUs), and prints every claim as "holds on k of 5" with its
# verdict and text at each seed, each seed's claim count and report
# digest, and one closing counts line. The output lands in
# paper-seeds.txt (gitignored) and must equal the tracked golden. It is
# too slow for check; a sim-changing change runs it and re-baselines it.
PAPER_SEEDS = $(GO) run ./cmd/experiments -seeds 5 -out paper-seeds.txt

paper-seeds:
	$(PAPER_SEEDS)
	diff $(REPORTS)/paper-seeds.golden paper-seeds.txt

# PINS selects the behaviour pins: every Test*Golden, and lint's
# TestFixtures, whose subtests (one golden per fixture) predate the
# naming rule. A pin renders what it pins as text and holds it to a file
# under its package's testdata through internal/golden.
PINS = Golden|^TestFixtures$$

# guard re-runs the determinism and allocation regression gates: every
# worker-count invariance test, the zero/bounded-alloc guards, the
# parity oracles (kernels, inference, the point read, the block cache,
# the preload image and the epoch series against the implementations
# they replaced; linalg's and nn's on their AVX and portable paths both,
# with the checks that an AVX host runs AVX, that portable products are
# rounded, that nn's tanh is math.Tanh's bit for bit, that its init
# self-check rejects a differing tanh, and that a short slice makes a
# kernel wrapper panic), the filter's no-false-negative invariant, each
# ledger's name set and identities, a registry releasing what was built
# on it, the layout pins (the size of each per-write record), and every
# behaviour pin. internal/par's own tests run whole at GOMAXPROCS 1, 2
# and 4: a team with no helper, with one, and a call asking for more
# workers than there are Ps.
guard:
	$(GO) test -count=1 -run 'Determinism|AllocGuard|AcrossWorkers|BitIdentical|KernelsUseAVX|ProductsRounded|SelfCheck|BoundsPanic|Matches(Oracle|Append)|NoFalseNegatives|PreloadImage|ReleasesRun|ObsReconcile|LedgerNames|ExportReleases|Layout|$(PINS)' ./internal/...
	$(GO) test -count=1 -cpu 1,2,4 ./internal/par

# rebaseline rewrites every pin from the current tree: the pins run with
# -update (only in the packages whose tests import internal/golden, as
# other test binaries reject the flag), and the chaos, slo, paper and
# paper-seeds reports replace their goldens. Review the diff: it is the list of
# moved numbers and verdicts.
GOLDEN_PKGS = $$($(GO) list -f '{{.ImportPath}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}' ./... | awk '/ rafiki\/internal\/golden( |$$)/ {print $$1}')

rebaseline:
	$(GO) test -count=1 -run '$(PINS)' $(GOLDEN_PKGS) -args -update
	$(CHAOS)
	$(UNTIMED) chaos-report.txt > $(REPORTS)/chaos-report.golden
	$(SLO)
	$(UNTIMED) slo-report.txt > $(REPORTS)/slo-report.golden
	$(PAPER)
	$(UNTIMED) paper-report.txt > $(REPORTS)/paper-report.golden
	$(PAPER_SEEDS)
	cp paper-seeds.txt $(REPORTS)/paper-seeds.golden

# loc prints each package's non-test and test Go lines (plain line
# counts, comments and blanks included; assembly counts as non-test
# code) and the non-test total outside
# cmd/rafikibench — ROADMAP item 4's measure, so every deletion PR
# reports the same number the same way — and fails when that total
# exceeds LOC_CEILING.
loc:
	@find . \( -name '*.go' -o -name '*.s' \) -not -path '*/testdata/*' | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; sub(/\/[^\/]*$$/, "", d); dirs[d] = 1; \
		if ($$2 ~ /_test\.go$$/) test[d] += $$1; \
		else { code[d] += $$1; if (d != "./cmd/rafikibench") total += $$1 } } \
		END { printf "%-28s %8s %8s\n", "package", "non-test", "test"; \
		for (d in dirs) printf "%-28s %8d %8d\n", d, code[d], test[d] | "sort"; close("sort"); \
		printf "non-test total outside cmd/rafikibench: %d (ceiling $(LOC_CEILING))\n", total; \
		if (total > $(LOC_CEILING)) { print "FAIL: the tree grew past LOC_CEILING"; exit 1 } }'

CHECK_GATES = fmt vet lint race fuzz guard bench-smoke chaos slo paper loc

check:
	@total=0; times=""; \
	for g in $(CHECK_GATES); do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$g || { echo "check: gate $$g failed"; exit 1; }; \
		s=$$(($$(date +%s) - start)); total=$$((total + s)); \
		times="$$times$$(printf '%-12s %6ds' $$g $$s)\n"; \
	done; \
	printf "check: gate wall times\n$$times%-12s %6ds (budget $(CHECK_BUDGET)s)\n" total $$total; \
	if [ $$total -gt $(CHECK_BUDGET) ]; then echo "FAIL: make check took $${total}s, over CHECK_BUDGET"; exit 1; fi
