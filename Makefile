.PHONY: check test bench identical regen loc attr scale

# Full verification gate: vet, build, short tests, race detector on the
# concurrent packages. CI and pre-commit both run this.
check:
	./scripts/check.sh

test:
	go test ./...

bench:
	go test -bench=. -benchmem ./...

# Byte-identity gate: regenerate BENCH_failover.json, BENCH_elastic.json,
# BENCH_correlated.json and BENCH_chaos.json in full into a temp dir and
# cmp each against the committed file (~75 s). check.sh runs it too.
identical:
	./scripts/identical.sh

# Regenerate the same four sweeps (controller failover, online elastic
# restripe, correlated failures, partition duration) over the committed
# artifacts, at the seeds identical.sh lists: the re-baseline of a change
# that moves behaviour.
regen:
	./scripts/identical.sh -w

# Non-test Go lines per top-level directory, excluding bench/: the
# number every CHANGES.md entry states its delta of. check.sh prints it.
loc:
	./scripts/loc.sh

# Regenerate the warehouse-scale capacity sweep (14 -> 1000 cubs, each
# size at its full rated load on a sharded engine) and refresh the
# committed BENCH_scale.json artifact. Takes ~half an hour: the 1000-cub
# point alone simulates ~43,000 concurrent streams.
scale:
	go run ./cmd/tigerbench -exp scalability -out .

# Run the traced grayfail sweep with causal tracing on: prints the
# per-component "where the slack went" tables and embeds attribution +
# flight-recorder dumps in BENCH_grayfail.json.
attr:
	go run ./cmd/tigerbench -exp grayfail -attr -out .
