#!/usr/bin/env bash
# Build nfr_cli and the nf2bench harness from this source tree, then run
# the harness with the given arguments, e.g.
#
#   bash bench/perf/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -f bin/nfr_cli.ml ]; then
  echo "nf2bench: needs the nf2 source tree around bench/perf" >&2
  exit 2
fi
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled bin/nfr_cli.exe bench/perf/nf2bench.exe >&2
# With two CPUs or more, the harness runs on the last and the server on
# the first. Left to the scheduler, the two shared one CPU in some runs
# and not in others, and read-hot's p50 moved by 30% between runs.
cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null || true)
first=${cpus%%[,-]*}
last=${cpus##*[,-]}
harness=./_build/default/bench/perf/nf2bench.exe
if [ -n "$cpus" ] && [ "$first" != "$last" ] && taskset -c "$first" true 2>/dev/null \
  && taskset -c "$last" true 2>/dev/null; then
  exec taskset -c "$last" "$harness" --server-cpu "$first" "$@"
fi
exec "$harness" "$@"
