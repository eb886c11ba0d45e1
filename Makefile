.PHONY: all build test test-force crashtest servesmoke obssmoke bench reports timings examples doc clean loc

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

# Observability: the end-to-end Prometheus scrape smoke. The
# tracing-overhead bound runs under `dune runtest` (test_obs).
obssmoke: build
	scripts/obs_smoke.sh

bench:
	dune exec bench/main.exe

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
