GO ?= go

# Coverage floors for the packages whose failure modes are subtlest: the
# stream fabric and the supervisor. Raise them as coverage grows; never
# lower them to ship.
COVER_FLOOR_flexpath ?= 80.0
COVER_FLOOR_workflow ?= 90.0
COVER_FLOOR_controlplane ?= 85.0
# Per-target fuzz budget for the smoke in `cover`. Fifteen targets at
# the default make the smoke about fifteen seconds of fuzzing.
FUZZTIME ?= 1s

.PHONY: check build test vet race chaos cover conformance plan recover replay corpus benchmark

# The full pre-merge gate: static checks, build, the race-enabled test
# suite, the backend conformance matrix, coverage floors, plan-output
# snapshots, crash-recovery drills, the offline-replay self-diff, the
# golden-corpus regression gate, a short fuzz round of every fuzz
# target, and the repository benchmark's own tests.
check: vet build race conformance cover plan recover replay corpus benchmark

# The repository benchmark is a module of its own, so the root test run
# never sees it. Its tests run every workload at toy size through the
# real stack and check each step against the system-free reference —
# which catches a buffer-lifetime bug (a step-scoped array escaping its
# step) that only the benchmark's endpoints would exercise. About 1 s.
benchmark:
	$(GO) -C benchmark test -count=1 ./...

# Golden snapshots of `sbrun -explain` for the example workflows. The
# plan rendering is a user-facing contract; refresh intentionally with:
#   go test ./internal/workflow -run TestPlanGolden -update
plan:
	$(GO) test ./internal/workflow -run TestPlanGolden -count=1

# The transport contract suite under the race detector, once per stream
# fabric backend. A backend that silently skips is a gate failure —
# except uds and shm on platforms without AF_UNIX or shared file
# mappings, their only legitimate skips. When the shm backend runs, its
# two data-plane checks must pass too, not skip.
SHM_CHECKS := ShmSlotGenerationReuse ShmRingFullBackpressure
conformance:
	@set -e; \
	for backend in Inproc TCP UDS Shm; do \
		echo "conformance: backend $$backend (-race)"; \
		out=$$($(GO) test -race -v -count=1 ./internal/flexpath -run "^TestConformance$$backend$$") || { echo "$$out"; exit 1; }; \
		if echo "$$out" | grep -q -- "--- PASS: TestConformance$$backend"; then \
			if [ "$$backend" = Shm ]; then \
				for c in $(SHM_CHECKS); do \
					echo "$$out" | grep -q -- "--- PASS: TestConformanceShm/$$c " || { echo "conformance: shm check $$c did not pass"; echo "$$out"; exit 1; }; \
				done; \
			fi; \
		elif [ "$$backend" = UDS ] && echo "$$out" | grep -q "AF_UNIX"; then \
			echo "conformance: uds skipped (no AF_UNIX on this platform)"; \
		elif [ "$$backend" = Shm ] && echo "$$out" | grep -qi "SKIP"; then \
			echo "conformance: shm skipped (no AF_UNIX or shared mappings on this platform)"; \
		else \
			echo "conformance: backend $$backend did not run"; echo "$$out"; exit 1; \
		fi; \
	done

build:
	$(GO) build ./...

# Static checks: go vet over both modules (the benchmark has its own
# go.mod), and the building toolchain's own gofmt — any file it would
# reformat fails the gate, listed.
vet:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...
	@out=$$($$($(GO) env GOROOT)/bin/gofmt -l ./internal ./cmd ./examples ./benchmark); \
	if [ -n "$$out" ]; then echo "vet: gofmt would reformat:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage floors plus the fuzz smoke. Fuzz targets are discovered, not
# listed here, so a new Fuzz* function is smoked automatically.
cover:
	@set -e; \
	for spec in internal/flexpath:$(COVER_FLOOR_flexpath) internal/workflow:$(COVER_FLOOR_workflow) internal/controlplane:$(COVER_FLOOR_controlplane); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		pct=$$($(GO) test -cover ./$$pkg | awk '{for(i=1;i<=NF;i++) if ($$i ~ /%$$/) {gsub(/%/,"",$$i); print $$i}}'); \
		[ -n "$$pct" ] || { echo "cover: go test -cover ./$$pkg failed"; exit 1; }; \
		echo "cover: ./$$pkg $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p+0 >= f+0)}' || { echo "cover: ./$$pkg fell below its $$floor% floor"; exit 1; }; \
	done
	@set -e; \
	for pkg in ./internal/adios ./internal/controlplane ./internal/flexpath ./internal/launch ./internal/ndarray ./internal/replay ./internal/streamlog; do \
		for target in $$($(GO) test $$pkg -list '^Fuzz' -run '^$$' | grep '^Fuzz'); do \
			echo "cover: fuzz smoke $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) >/dev/null; \
		done; \
	done

# The offline-replay drills under the race detector: record a fixture
# workflow, replay it bit-identically, and A/B self-diff a component
# over the recording expecting zero divergences — determinism of the
# replay path itself, proven on every gate.
replay:
	$(GO) test -race -count=1 ./internal/replay -run 'TestReplayBitIdentical|TestDiffSelfIsClean|TestDiffPerturbedScale' -v

# The golden-corpus regression gate: replay the checked-in crack
# workflow recording (internal/replay/testdata/corpus) against HEAD
# kernels and demand bit-identical outputs — once through the sbreplay
# CLI's cross-recording diff at tol 0, once through the go test (which
# also pins the histogram text output). Regenerate deliberately with:
#   go test ./internal/replay -run TestCorpusGolden -update
CORPUS := internal/replay/testdata/corpus
corpus:
	$(GO) run ./cmd/sbreplay -diff -tol 0 -stage magnitude -log-dir $(CORPUS)/crack -against $(CORPUS)/crack $(CORPUS)/crack.sb
	$(GO) test -race -count=1 ./internal/replay -run TestCorpusGolden -v

# The fault-injection suite on its own (seeded, deterministic plans and
# scripted restarts), uncached and under the race detector.
chaos:
	$(GO) test -race -count=1 ./internal/workflow -run TestChaos -v

# The durable-log crash drills under the race detector: broker state
# rebuilt from the journal, catch-up replay, and the kill-and-restart
# end-to-end — the log's whole reason to exist, exercised on every gate.
recover:
	$(GO) test -race -count=1 ./internal/flexpath -run 'TestBrokerRecover|TestRecover|TestReplay'
	$(GO) test -race -count=1 ./internal/workflow -run 'TestChaosBrokerCrashRecovery|TestChaosTenantIsolation' -v
