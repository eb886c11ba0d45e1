#!/bin/sh
# Observability smoke: start nf2d with tracing on, push a small
# workload through it, then scrape the Prometheus exposition with
# `nfr_cli metrics` — which fails if the body does not parse or any
# required series (query latency, WAL fsync, admission rejects) is
# missing. Run via `make obssmoke` (after `dune build`) or directly
# from the repo root.
set -eu

CLI=_build/default/bin/nfr_cli.exe
[ -x "$CLI" ] || { echo "obs_smoke: $CLI not built" >&2; exit 1; }

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

cat > "$workdir/sc.csv" <<'EOF'
Student:string,Course:string
s1,c1
s1,c2
s2,c1
EOF

"$CLI" serve --trace --load "sc=$workdir/sc.csv" --port 0 \
    --scrape-interval 1 \
    --wal-dir "$workdir" > "$workdir/server.log" 2>&1 &
server_pid=$!

port=""
for _ in $(seq 1 50); do
    port=$(sed -n 's/^nf2d listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "$workdir/server.log")
    [ -n "$port" ] && break
    kill -0 "$server_pid" 2>/dev/null || {
        echo "obs_smoke: server died at startup:" >&2
        cat "$workdir/server.log" >&2
        exit 1
    }
    sleep 0.1
done
[ -n "$port" ] || { echo "obs_smoke: no listening line" >&2; exit 1; }

echo "obs_smoke: serving on port $port"

# A workload that exercises the series we require: queries (latency
# histogram), DML (WAL appends + fsyncs), and a materialized view so
# incremental maintenance ticks the view.* series.
"$CLI" connect --port "$port" -e \
    "insert into sc values ('s3', 'c3'); select * from sc; select Course from sc where Student contains 's1'" \
    > /dev/null
"$CLI" connect --port "$port" -e \
    "create view by_course as nest sc by Course; insert into sc values ('s4', 'c1'); show by_course" \
    > /dev/null

# Let the self-scrape run: at --scrape-interval 1 two ticks of the
# metrics history land within ~2s, so the _metrics system table must
# hold at least two points for any series that existed at startup.
sleep 2.2

# The scrape: byte-validates the exposition through the registry's
# own parser and insists on the required series by prefix. The list
# covers the honest flush/sync split (nf2_wal_flush_total and
# nf2_wal_sync_total are distinct series), the buffer-pool ledger,
# and the self-monitoring loop (tick histogram, scrape cost, history
# series gauge).
"$CLI" metrics --port "$port" \
    --require nf2_query_seconds,nf2_wal_flush_total,nf2_wal_sync_total,nf2_pool_hit,nf2_pool_miss,nf2_connections_rejected,nf2_view_deltas_total,nf2_loop_tick_seconds,nf2_obs_scrape_seconds,nf2_obs_history_series \
    > "$workdir/scrape.txt" || {
    echo "obs_smoke: metrics scrape failed:" >&2
    cat "$workdir/scrape.txt" >&2
    exit 1
}

grep -q '^nf2_queries_total ' "$workdir/scrape.txt" || {
    echo "obs_smoke: nf2_queries_total missing from exposition" >&2
    cat "$workdir/scrape.txt" >&2
    exit 1
}

# The metrics history: two scrape intervals have passed, so HISTORY
# over a series that ticked at startup must return >= 2 points. Each
# flat sample renders as one table row naming the series.
"$CLI" connect --port "$port" -e "history 'queries.total'" \
    > "$workdir/history.txt"
points=$(grep -c 'queries\.total' "$workdir/history.txt" || true)
[ "$points" -ge 2 ] || {
    echo "obs_smoke: expected >= 2 history points for queries.total, got $points" >&2
    cat "$workdir/history.txt" >&2
    exit 1
}

# And the same data through a plain SELECT over the system table.
"$CLI" connect --port "$port" -e \
    "select * from _metrics where Series = 'queries.total'" \
    > "$workdir/metrics_rows.txt"
grep -q 'queries\.total' "$workdir/metrics_rows.txt" || {
    echo "obs_smoke: SELECT over _metrics returned no queries.total rows" >&2
    cat "$workdir/metrics_rows.txt" >&2
    exit 1
}

"$CLI" connect --port "$port" --shutdown
wait "$server_pid"
status=$?
server_pid=""
[ "$status" -eq 0 ] || {
    echo "obs_smoke: server exited $status" >&2
    cat "$workdir/server.log" >&2
    exit 1
}

echo "obs_smoke: OK"
