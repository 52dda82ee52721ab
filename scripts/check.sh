#!/bin/sh
# check.sh — the full verification gauntlet: tier-1, shuffled re-run,
# and a short fuzz smoke over the hostile-input parsers, the buffer cache
# and FFS run against bmfs.
#
# Usage: scripts/check.sh [fuzztime]
#   fuzztime  per-target fuzzing budget (default 10s; "0" skips fuzzing)
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${1:-10s}"

# The trajectory ratchet: the two figures ROADMAP steers by may fall but
# not rise.  A PR that lowers one lowers its bound here in the same
# change; the closing block fails the run when either is exceeded.
MAX_LOC=28871
MAX_WAIVERS=3

echo "== tier-1: build (host, then the other getg stub and the stack-parsing fallback)"
go build ./...
GOARCH=arm64 go build ./...
GOARCH=riscv64 go build ./internal/hw/

echo "== tier-1: vet"
go vet ./...

echo "== tier-1: gofmt"
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt -l lists files that are not formatted:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== tier-1: oskitcheck (comref, lockhook, guarded, guidreg, detsource)"
# -timing prints per-analyzer wall clock; -budget fails the lint if any
# single analyzer blows a generous per-package ceiling (a regression
# tripwire for the cross-package ones, guarded especially).
go run ./cmd/oskitcheck -timing -budget 30s ./...

echo "== tier-1: test"
T0=$(date +%s)
go test ./...
echo "   go test ./... wall time: $(($(date +%s) - T0)) s"

# Everything that exercises multi-CPU rigs runs at GOMAXPROCS 1, 2
# and the host's: a lock-order inversion needs real parallelism to bite
# and one core hides it.  Every invocation carries its own -timeout, so
# a deadlock costs two minutes and names its test instead of eating the
# 10-minute package default.
PROCS=$(printf '%s\n' 1 2 "$(nproc)" | sort -nu | tr '\n' ' ')
for P in $PROCS; do
	export GOMAXPROCS="$P"
	echo "== tier-1: race at GOMAXPROCS=$P (net, BSD glue, BSD drivers, file system, stats, hw, faults, libc, linux drivers, kvm, smp, evalrig, com, core, linux donor code)"
	go test -race -count=1 -timeout 300s ./internal/freebsd/net/... ./internal/freebsd/glue/... \
		./internal/freebsd/dev/... ./internal/netbsd/... ./internal/stats/... \
		./internal/hw/... ./internal/faults/... \
		./internal/libc/... ./internal/linux/dev/... \
		./internal/kvm/... ./internal/smp/... \
		./internal/evalrig/... ./internal/com/... \
		./internal/core/... ./internal/linux/legacy/...

	# The tests whose threads meet only at each component's own
	# exclusion (no node lock stands in front of a cluster, HTTP or SMP
	# node), repeated: a lock moved or dropped shows up as a race report
	# or a hang in some pass, not reliably in one.
	echo "== exclusion smoke at GOMAXPROCS=$P (cluster, SMP and HTTP rigs; the stack's interleavings; the buffer cache; -race, 10 passes)"
	go test -race -count=10 -timeout 300s ./internal/evalrig/ \
		-run 'TestSMP|TestNetworkPathTakesNoCli|TestCluster|TestHTTP|TestPathShapeMatrix'
	go test -race -count=10 -timeout 300s ./internal/freebsd/net/ \
		-run 'TestRace|TestPerConnLockingInterleavings|TestScheduledConnectCloseRace'
	# The buffer cache's sleeps and write-back under the file system's
	# lock: a dropped busy mark or a sleep outside Unlocked shows up as
	# a race report, a lost update or a hang.
	go test -race -count=10 -timeout 300s ./internal/netbsd/fs/ -run 'TestBcache'

	echo "== shuffled multi-CPU re-run at GOMAXPROCS=$P (SMP rigs under a different interleaving)"
	go test -shuffle=on -count=1 -timeout 120s ./internal/evalrig/ ./internal/freebsd/net/ ./internal/smp/
done
unset GOMAXPROCS

echo "== refcount lifecycle checks (oskitrefdebug build)"
go test -race -tags oskitrefdebug ./internal/com/
# A halted machine's memory stays mapped with no access rights here, so a
# touch after Halt faults at the violating access.
go test -race -tags oskitrefdebug -count=1 ./internal/hw/ -run 'TestHaltedMemoryFaults'
go test -race -tags oskitrefdebug -count=1 ./internal/faults/soak/ \
	-run 'TestHTTPPinLedgerUnderRetransmits|TestSMPChurnHaltLedger'
go test -race -tags oskitrefdebug -count=1 ./internal/evalrig/ \
	-run 'TestPairHaltUnmounts|TestTCPReceiveLinksDriverBuffer'
# mbufs come back off the stack's free list with their BufIO export
# embedded: each life must start at one reference.
go test -race -tags oskitrefdebug -count=1 ./internal/freebsd/net/ \
	-run 'TestFreeList|TestMClGet|TestSegmentLayout'

echo "== shuffled re-run (order-dependence check)"
go test -shuffle=on -count=1 ./...

echo "== bench smoke (E11-E15 matrices, 1x)"
scripts/bench.sh 1x >/dev/null

echo "== bench/ (the BENCHMARK.json harness is its own module)"
go vet -C bench ./...
# Unqualified `go test -C bench ./...` is RED since E18:
# TestSmoke/end_to_end asserts that a 1 s rtcp phase cannot reach 60
# units, true only while goid cost microseconds (it reaches ~77 now).
# Its `traced` sibling makes the same assertion.  Over six runs each on a
# 2-vCPU host it read 48-56 units before delayed ACKs (exit 1, as it
# wants) and 60 every time after (exit 0); on a busier run of the same
# host both sides read 22-40.  Whether it passes is a question of host
# speed, so it is skipped too.  bench/ was frozen for the PRs that made
# these false.  The "Fix first" bench-only PR must fix both assertions
# and delete both skips; the skipped subtests are the only check that no
# end-to-end metric reads 0.
go test -C bench -skip '^TestSmoke$/^(end_to_end|traced)$' ./...

echo "== example smoke (flag parity: -stats/-faults/-fastpath)"
go run ./examples/ttcp -config oskit -blocks 64 -fastpath -stats >/dev/null
go run ./examples/rtcp -config oskit -rounds 50 -fastpath >/dev/null
go run ./examples/ttcp -config freebsd -blocks 64 -cpus 4 >/dev/null
go run ./examples/rtcp -config freebsd -rounds 50 -cpus 4 >/dev/null
go run ./cmd/oskit-churn -config freebsd -nodes 4 -conns 128 -cpus 4 >/dev/null
# OSKit stock path (donor ISR, flatten copies) on 4-CPU machines.
go run ./examples/ttcp -config oskit -blocks 64 -cpus 4 >/dev/null
go run ./cmd/oskit-churn -config oskit -nodes 4 -conns 128 -cpus 4 >/dev/null
go run ./cmd/oskit-stats -config oskit -blocks 64 -fastpath -cpus 4 >/dev/null
go run ./examples/fileserver -stats -fastpath \
	-faults "seed=7 disk.err=0.05 disk.torn=0.02" >/dev/null
go run ./examples/fileserver -stats -fastpath -cpus 2 \
	-faults "seed=9 wire.drop=0.03 disk.err=0.02" >/dev/null

if [ "$FUZZTIME" != "0" ]; then
	echo "== fuzz smoke ($FUZZTIME per target)"
	go test ./internal/cksum/ -run '^$' -fuzz '^FuzzInetSum$' -fuzztime "$FUZZTIME"
	go test ./internal/freebsd/net/ -run '^$' -fuzz '^FuzzIPInput$' -fuzztime "$FUZZTIME"
	go test ./internal/freebsd/net/ -run '^$' -fuzz '^FuzzTCPSegInput$' -fuzztime "$FUZZTIME"
	go test ./internal/freebsd/net/ -run '^$' -fuzz '^FuzzEtherBatchInput$' -fuzztime "$FUZZTIME"
	go test ./internal/diskpart/ -run '^$' -fuzz '^FuzzReadPartitions$' -fuzztime "$FUZZTIME"
	go test ./internal/httpd/ -run '^$' -fuzz '^FuzzHTTPRequest$' -fuzztime "$FUZZTIME"
	go test ./internal/netbsd/fs/ -run '^$' -fuzz '^FuzzClusterRead$' -fuzztime "$FUZZTIME"
	go test ./internal/netbsd/fs/ -run '^$' -fuzz '^FuzzFileProgram$' -fuzztime "$FUZZTIME"
fi

echo "== trajectory"
LOC=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l)
WAIVERS=$(go run ./cmd/oskitcheck -q -waivers ./... | grep -c ': allow ' || true)
echo "   non-test Go LOC outside bench/ and testdata/: $LOC (bound $MAX_LOC)"
echo "   oskitcheck waivers: $WAIVERS (bound $MAX_WAIVERS)"
# The kernel-stack budget's per-entry-point depths (DESIGN.md §2): the
# test fails above 2 048 B, and this line shows a frame creeping back
# before it gets there.
STACK=$(go test -count=1 -run '^TestSocketCallStackBudget$' -v ./internal/evalrig/ | sed -n 's/.*stack depths (B, budget 2048): //p')
echo "   socket-call stack depth to the receiving NIC, B (budget 2048): $STACK"
if [ "$LOC" -gt "$MAX_LOC" ] || [ "$WAIVERS" -gt "$MAX_WAIVERS" ]; then
	echo "trajectory ratchet exceeded: delete code or waivers, or justify raising the bound in scripts/check.sh" >&2
	exit 1
fi

echo "== all checks passed"
