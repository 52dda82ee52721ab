#!/bin/sh
# bench.sh — run the repository's matrix benchmarks and record per-row
# medians as JSON, one file per experiment, for EXPERIMENTS.md and for
# regression eyeballing across commits.
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime  passed to -benchtime (default 1x: each matrix bench
#              already runs enough interleaved rounds internally for a
#              median, so one invocation is one measurement)
#
# Currently wired:
#   E11 (the opt-in fast-path send matrix)    -> BENCH_e11.json
#   E12 (the opt-in fast-path receive matrix) -> BENCH_e12.json
#   E13 (cluster connection churn + demux)    -> BENCH_e13.json
#   E14 (SMP scaling: ttcp/rtcp/churn by CPUs) -> BENCH_e14.json
#   E15 (sendfile copy/zero-copy x csum matrix) -> BENCH_e15.json
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${1:-1x}"

# Host metadata, stamped into every recorded object so numbers can be
# compared across machines.
GOVER="$(go version | awk '{print $3}')"
NCPU="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
MAXPROCS="${GOMAXPROCS:-$NCPU}"

run_matrix() {
	# $1 = bench regexp, $2 = output file
	out="$(go test -run '^$' -bench "$1" -benchtime "$BENCHTIME" .)"
	echo "$out"
	echo "$out" | awk -v file="$2" -v gover="$GOVER" -v maxprocs="$MAXPROCS" -v ncpu="$NCPU" '
		/^Benchmark/ {
			# Fields: name, iterations, then repeated "value unit" pairs
			# (ns/op plus every b.ReportMetric row).
			s = sprintf("{\n  \"bench\": \"%s\",", $1)
			s = s sprintf("\n  \"host\": {\n    \"go\": \"%s\",\n    \"gomaxprocs\": %s,\n    \"cpus\": %s\n  },", gover, maxprocs, ncpu)
			s = s "\n  \"metrics\": {"
			sep = ""
			for (i = 3; i + 1 <= NF; i += 2) {
				s = s sprintf("%s\n    \"%s\": %s", sep, $(i+1), $i)
				sep = ","
			}
			objs[n++] = s "\n  }\n}"
		}
		END {
			# One matched bench writes a single object (the historical
			# format); several write a JSON array.
			if (n == 1) print objs[0] > file
			else if (n > 1) {
				print "[" > file
				for (i = 0; i < n; i++)
					print objs[i] (i < n - 1 ? "," : "") > file
				print "]" > file
			}
		}
	'
	[ -s "$2" ] || { echo "bench.sh: no benchmark output parsed for $1" >&2; exit 1; }
	echo "wrote $2"
}

run_matrix 'E11_FastPath_Matrix' BENCH_e11.json
run_matrix 'E12_RxBatch_Matrix' BENCH_e12.json
run_matrix 'E13_(Churn|Demux)_Matrix' BENCH_e13.json
run_matrix 'E14_SMP_Matrix' BENCH_e14.json
run_matrix 'E15_Sendfile_Matrix' BENCH_e15.json
