.PHONY: all build test test-force crashtest servesmoke obssmoke obsbench obsgate histbench netbench netsmoke replbench replsmoke plannerbench txnbench poolbench viewbench viewsmoke bench benchsmoke reports timings examples doc clean loc

# Every suite (Slow cases included) runs under `make test`. crashtest
# reruns the crash matrix alone, with a fixed seed so a failing cell
# reproduces byte-for-byte; override with CRASH_SEED=n make crashtest.
CRASH_SEED ?= 42

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer

crashtest:
	CRASH_SEED=$(CRASH_SEED) dune exec test/test_crash.exe

# End-to-end smoke over a real serve/connect pair on loopback.
servesmoke: build
	scripts/server_smoke.sh

# Observability: the end-to-end Prometheus scrape smoke and the
# tracing-overhead bench (writes BENCH_obs.json).
obssmoke: build
	scripts/obs_smoke.sh

obsbench:
	dune exec bench/main.exe -- obs

# Overhead gate: exits non-zero when tracing overhead exceeds
# max(5%, the measured run-to-run noise floor).
obsgate:
	dune exec bench/main.exe -- obsgate

# Metrics history: the self-monitoring cost bench
# (writes BENCH_hist.json).
histbench:
	dune exec bench/main.exe -- hist

netbench:
	dune exec bench/main.exe -- net

netsmoke:
	dune exec bench/main.exe -- netsmoke

# Replication bench: primary throughput alone vs with a live replica,
# drain time and steady-state lag (writes BENCH_repl.json). replsmoke
# is the fast CI variant.
replbench:
	dune exec bench/main.exe -- repl

replsmoke:
	dune exec bench/main.exe -- replsmoke

# Planner micro-bench: plan-cache speedup and estimation error on a
# Zipf-skewed table (writes BENCH_planner.json).
plannerbench:
	dune exec bench/main.exe -- planner

# Transaction micro-bench: autocommit vs batched-transaction write
# throughput and abort overhead (writes BENCH_txn.json).
txnbench:
	dune exec bench/main.exe -- txn

# Buffer-pool micro-bench: Zipf hit rate, scan throughput, and the
# repeated-probe plan flip (writes BENCH_pool.json).
poolbench:
	dune exec bench/main.exe -- pool

# View-maintenance bench: per-insert incremental cost vs full renest
# across 10^4..10^6 base rows (writes BENCH_views.json). viewsmoke is
# the fast CI variant at 10^3..10^4.
viewbench:
	dune exec bench/main.exe -- views

viewsmoke:
	dune exec bench/main.exe -- viewsmoke

bench:
	dune exec bench/main.exe

# CI subset: no Bechamel timing runs, just the reports that drive the
# physical executor end to end (E9 + per-operator EXPLAIN ANALYZE).
benchsmoke:
	dune exec bench/main.exe -- smoke

reports:
	dune exec bench/main.exe -- reports

timings:
	dune exec bench/main.exe -- timings

examples:
	dune exec examples/quickstart.exe
	dune exec examples/university.exe
	dune exec examples/bibliography.exe
	dune exec examples/design_advisor.exe
	dune exec examples/prerequisites.exe

doc:
	dune build @doc

clean:
	dune clean

loc:
	@find lib bin examples test bench -name '*.ml' -o -name '*.mli' | xargs wc -l | tail -1
