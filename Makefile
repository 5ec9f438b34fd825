.PHONY: check test bench identical loc elastic attr scale correlated failover

# Full verification gate: vet, build, short tests, race detector on the
# concurrent packages. CI and pre-commit both run this.
check:
	./scripts/check.sh

test:
	go test ./...

bench:
	go test -bench=. -benchmem ./...

# Byte-identity gate: regenerate BENCH_failover.json, BENCH_elastic.json
# and BENCH_correlated.json in full into a temp dir and cmp each against
# the committed file (~75 s). check.sh runs it too.
identical:
	./scripts/identical.sh

# Non-test Go lines per top-level directory, excluding bench/: the
# number every CHANGES.md entry states its delta of. check.sh prints it.
loc:
	./scripts/loc.sh

# Regenerate the online elastic restripe sweep (all chaos arms) and
# refresh the committed BENCH_elastic.json artifact. The seed is pinned,
# here and in scripts/identical.sh: at most seeds some arm meets the
# hedge storm of ROADMAP defect (d) — tens of thousands of blocks lost,
# minutes of wall time and gigabytes of events — and which seeds do
# moves with same-instant event order (EXPERIMENTS.md, PR 24: 2 of 30
# seeds clean before the walk, 1 of 30 after). Re-scan when a change
# re-baselines.
elastic:
	go run ./cmd/tigerbench -exp elastic -seed 23 -out .

# Regenerate the warehouse-scale capacity sweep (14 -> 1000 cubs, each
# size at its full rated load on a sharded engine) and refresh the
# committed BENCH_scale.json artifact. Takes ~half an hour: the 1000-cub
# point alone simulates ~43,000 concurrent streams.
scale:
	go run ./cmd/tigerbench -exp scalability -out .

# Regenerate the correlated-failure survival sweep (failure domains,
# mirror exhaustion, degradation governor) and refresh the committed
# BENCH_correlated.json artifact.
correlated:
	go run ./cmd/tigerbench -exp correlated -out .

# Regenerate the controller-failover sweep (epoch-fenced takeover that
# rebuilds controller state by scavenging the cubs) and refresh the
# committed BENCH_failover.json artifact.
failover:
	go run ./cmd/tigerbench -exp failover -out .

# Run the traced grayfail sweep with causal tracing on: prints the
# per-component "where the slack went" tables and embeds attribution +
# flight-recorder dumps in BENCH_grayfail.json.
attr:
	go run ./cmd/tigerbench -exp grayfail -attr -out .
