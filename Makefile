# Convenience targets; scripts/check.sh is the source of truth for the
# verification sequence.

.PHONY: build test race lint lint-fix-fixtures check check-quick bench

build:
	go build ./...

test:
	go test ./...

# The race tier at GOMAXPROCS 1, 2 and the host's, as check.sh runs it:
# a missing stack lock or a cross-component lock-order inversion needs
# real parallelism to bite.
race:
	for p in $$(printf '%s\n' 1 2 $$(nproc) | sort -nu); do \
		echo "== race at GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p go test -race -count=1 -timeout 300s ./internal/freebsd/net/... ./internal/freebsd/glue/... \
			./internal/freebsd/dev/... ./internal/netbsd/... ./internal/stats/... \
			./internal/hw/... ./internal/faults/... \
			./internal/libc/... ./internal/linux/dev/... \
			./internal/kvm/... ./internal/smp/... \
			./internal/evalrig/... ./internal/com/... \
			./internal/core/... ./internal/linux/legacy/... || exit 1; \
	done

# oskitcheck: the kit's own analyzers (COM refcounts, hooks under locks,
# guarded-by field ownership, GUID registry, determinism contract).
# Fails on any unsuppressed diagnostic; //oskit:allow waivers are listed
# on stderr.
lint:
	go run ./cmd/oskitcheck ./...

# The analyzer golden fixtures live under testdata/ where go fmt cannot
# see them; format them and re-run the analyzer test suites.
lint-fix-fixtures:
	gofmt -l -w internal/analysis/*/testdata
	go test ./internal/analysis/...

# Full gauntlet: tier-1 + shuffled re-run + short fuzz smoke.
check:
	scripts/check.sh

# Same, minus the fuzz smoke.
check-quick:
	scripts/check.sh 0

bench:
	go test -bench=. -benchtime=1x .
