GO ?= go

.PHONY: check vet build test race results-check bench-smoke bench bench-gate f17-smoke f18-smoke trace-smoke service-smoke fleet-smoke metrics-smoke attack-smoke fuzz-smoke

## check: the full local verify — vet, build, tests (race on the
## concurrency-sensitive packages), quick resilience- and failover-
## experiment smokes, a traced-failover forensics smoke, the base-station
## service smoke, the fleet-coordinator smoke, the telemetry/exposition
## smoke, the adversary-campaign smoke, a short fuzz pass over the wire
## decoders, link crypto, exposition, benchmark-output, trace,
## attack-spec and request-body parsers, a one-iteration benchmark smoke
## through the trend harness, the deterministic allocation gates on the
## warm round and the served-query mix, and the byte-for-byte check of the
## committed results/ CSVs.
check: vet build test race results-check f17-smoke f18-smoke trace-smoke service-smoke fleet-smoke metrics-smoke attack-smoke fuzz-smoke bench-smoke bench-gate

## vet: go vet, fail when gofmt would reformat any file, and fail when an
## internal package is an orphan — one that no command, example or the
## repro package itself reaches through its imports. The link crypto is
## vetted for arm64 too, so its generic (non-AES-NI) build keeps compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/wsncrypto/
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	@set -e; deps=$$($(GO) list -deps . ./cmd/... ./examples/...); orphans=0; \
	for pkg in $$($(GO) list ./internal/...); do \
		printf '%s\n' "$$deps" | grep -qxF "$$pkg" || { echo "orphan package: $$pkg"; orphans=1; }; \
	done; \
	[ $$orphans -eq 0 ]

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/sim/ ./internal/experiment/ ./internal/station/ ./internal/fleet/ ./internal/wsncrypto/ ./internal/wsn/ ./internal/telemetry/ ./internal/trace/
	$(GO) test -race -run 'Deputy|Takeover|HeadCrash|Churn|CrashRecover|Failover' ./internal/core/

## results-check: regenerate every experiment at full fidelity into a
## temporary directory and require each committed results/ CSV to match
## byte for byte. An experiment without a committed CSV, or a committed
## CSV without an experiment, fails too.
results-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -csv "$$tmp" > /dev/null; \
	fail=0; \
	for f in "$$tmp"/*.csv; do \
		id=$$(basename "$$f" .csv); \
		if [ ! -f "results/$$id.csv" ]; then echo "results-check: no committed results/$$id.csv"; fail=1; continue; fi; \
		cmp "results/$$id.csv" "$$f" || fail=1; \
	done; \
	for f in results/*.csv; do \
		[ -f "$$tmp/$$(basename "$$f")" ] || { echo "results-check: $$f matches no experiment"; fail=1; }; \
	done; \
	if [ $$fail -ne 0 ]; then echo "results-check: regenerate with: $(GO) run ./cmd/experiments -csv results/"; exit 1; fi
	@echo "results-check OK: every committed results/ CSV regenerates byte for byte"

## f17-smoke: quick pass over the degraded-recovery ablation — fails if the
## loss-injection path or subset recovery stops producing rows.
f17-smoke:
	$(GO) run ./cmd/experiments -quick -run F17-resilience

## f18-smoke: quick pass over the head-failover ablation — fails if the
## takeover/churn-repair path stops producing rows.
f18-smoke:
	$(GO) run ./cmd/experiments -quick -run F18-failover

## trace-smoke: record a full head-crash failover round through the flight
## recorder and assert that aggtrace can reconstruct it — the takeover claim
## must be present and its causal chain must reach majority corroboration.
trace-smoke:
	$(GO) run ./cmd/aggsim -nodes 120 -seed 11 -headcrash 0.9 -traceout trace-smoke.jsonl > /dev/null
	$(GO) run ./cmd/aggtrace -expect watchdog trace-smoke.jsonl
	$(GO) run ./cmd/aggtrace -why takeover trace-smoke.jsonl | grep corroborated > /dev/null
	@rm -f trace-smoke.jsonl
	@echo "trace-smoke OK: takeover reconstructed with corroboration"

## service-smoke: boot the aggd serving stack (4-worker pool + HTTP API) on
## an ephemeral port, require a served SUM to be bit-identical to the same
## deployment's offline RunQuery answer, then push a concurrent mixed-kind
## aggload burst through it with zero errors — all under the race detector,
## plus the SIGTERM graceful-drain path of the real daemon loop.
service-smoke:
	$(GO) test -race -count=1 -run 'TestServiceSmoke' ./internal/station/
	$(GO) test -race -count=1 -run 'TestServeQueryAndGracefulSIGTERM' ./cmd/aggd/
	@echo "service-smoke OK: served == offline, mixed-kind burst clean under -race"

## fleet-smoke: the coordinator's correctness gate — a 3-shard fleet must
## serve answers bit-identical to a single station AND the offline
## deployment (on the hashed path and on every shard asked directly), and
## the drain-vs-submit-vs-cancel interleaving at the coordinator boundary
## must stay silent under the race detector.
fleet-smoke:
	$(GO) test -race -count=1 -run 'TestFleetSmoke|TestFleetDrainSubmitCancelRace' ./internal/fleet/
	@echo "fleet-smoke OK: fleet == station == offline, coordinator races clean"

## metrics-smoke: the observability gate — a sharded daemon under a
## mixed-kind burst must serve a /metricsz exposition that parses, with
## per-shard series that stay monotone across scrapes and whose done jobs
## equal the 200s the client itself received (plain queries reaching both
## shards, then the bursts), and the request id returned on the wire must
## reconstruct into a span tree (request → job → admit → run → done)
## through aggtrace -why request; the telemetry record path must stay
## allocation-free (AllocsPerRun gate). Scrape-under-load runs with -race.
metrics-smoke:
	$(GO) test -race -count=1 -run 'TestMetricsSmoke' ./cmd/aggd/
	$(GO) test -count=1 -run 'TestAggtraceRequestSpanTree' ./cmd/aggtrace/
	$(GO) test -count=1 -run 'ZeroAlloc' ./internal/telemetry/
	@echo "metrics-smoke OK: exposition parses, series monotone, span tree reconstructed, record path alloc-free"

## attack-smoke: the adversary-campaign gate — the seeded campaign drill
## must detect 100% of effective tampering/forgery actions with zero false
## alarms on clean rounds (under -race, alongside the replay/sybil/takeover
## containment tests and the exhaustive reconstruction parity sweep); a
## recorded campaign must reconstruct through aggtrace -why breach (both a
## caught forgery and a silent collusion breach); and the disabled policy
## seam must stay allocation-free — the same allocation gate as
## bench-gate's first line, since the MAC tap hooks sit on the round hot
## path.
attack-smoke:
	$(GO) test -race -count=1 -run 'TestDetectionGate|TestNoFalseAlarmsWithoutAttacker|TestCollusionReconstructsAtFullEavesdrop|TestReplayRejectedAsStale|TestTakeoverForgeryRebutted|TestSybilContained|TestCampaignTraceForensics' .
	$(GO) test -count=1 -run 'TestSystemMatchesKnowledge' ./internal/attack/
	$(GO) run ./cmd/aggsim -nodes 120 -seed 7 -rounds 3 -attack 'collude:2:1.0,tamper,replay,takeover' -traceout attack-smoke.jsonl > /dev/null
	$(GO) run ./cmd/aggtrace -expect attack attack-smoke.jsonl
	$(GO) run ./cmd/aggtrace -expect breach attack-smoke.jsonl
	$(GO) run ./cmd/aggtrace -why breach attack-smoke.jsonl | grep 'truth=' > /dev/null
	$(GO) run ./cmd/aggtrace -why breach attack-smoke.jsonl | grep 'own-row-forged' > /dev/null
	@rm -f attack-smoke.jsonl
	$(GO) run ./cmd/benchtrend -dry -metric allocs -threshold 0.02 \
		-bench '^BenchmarkRoundCluster$$' -benchtime 5x
	@echo "attack-smoke OK: forgeries detected, breaches reconstructed, tap seam alloc-free"

## fuzz-smoke: run every fuzz target of the wire decoders (which spoofed
## frames reach through MAC.Inject) and their append-encoder and
## decode-into twins, of the link crypto, of the
## /metricsz exposition parser the serving tests read counters through,
## of the benchmark-output parser benchtrend snapshots through, of the
## JSONL trace reader aggtrace loads through, of the -attack campaign-spec parser and of the station's JSON
## request-body decoder, for FUZZTIME each, with the standard library's
## fuzzer only; go test -fuzz takes one target per run.
FUZZTIME ?= 5s
fuzz-smoke:
	@set -e; for pkg in ./internal/message ./internal/wsncrypto ./internal/telemetry ./internal/benchio ./internal/trace ./internal/attack ./internal/station; do \
		list=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		targets=$$(printf '%s\n' "$$list" | grep '^Fuzz' || true); \
		if [ -z "$$targets" ]; then echo "fuzz-smoke: no Fuzz targets in $$pkg"; exit 1; fi; \
		for target in $$targets; do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done
	@echo "fuzz-smoke OK: every decoder, Open, ParseText, Parse, ReadJSONL, ParseSpec and DecodeBody target ran $(FUZZTIME) clean"

bench-smoke:
	$(GO) run ./cmd/benchtrend -quick

## bench-gate: deterministic regression gate for the flight recorder's
## disabled path, the per-round frame arena and the allocation-free warm
## round — allocs/op of the round benchmark, of the 1k-node retained round
## and of the served-query mix on a reused deployment must stay within 2%
## of the newest snapshot; over a zero baseline, allocs/node must stay at
## or below 0.01 (benchio.CompareBy). Wall-clock is deliberately not judged here (it
## flakes on shared machines); `make bench` still gates them at 20%. One
## run per benchmark, because go test only reports a benchmark without
## sub-benchmarks when the -bench pattern has a single level.
bench-gate:
	$(GO) run ./cmd/benchtrend -dry -metric allocs -threshold 0.02 \
		-bench '^BenchmarkRoundCluster$$' -benchtime 5x
	$(GO) run ./cmd/benchtrend -dry -metric allocs -threshold 0.02 \
		-bench '^BenchmarkRoundRetained$$/^n=1k$$' -benchtime 5x
	$(GO) run ./cmd/benchtrend -dry -metric allocs -threshold 0.02 \
		-bench '^BenchmarkQueryMix$$' -benchtime 5x

## bench: full benchmark run — writes a BENCH_<date>.json snapshot and
## gates against the previous one (see README "Performance").
bench:
	$(GO) run ./cmd/benchtrend
