open Relational
open Nfr_core

type config = {
  max_connections : int;
  max_payload : int;
  idle_timeout : float;
  idle_in_txn_timeout : float;
  request_timeout : float;
  slow_query_s : float;
  slow_log_size : int;
  wal_sync_interval : float;
  wal_sync_max_batch : int;
  cdc_max_buffered : int;
      (** admission budget per subscriber: a session whose queued
          output exceeds this many bytes when a delta arrives is too
          slow to keep — it is unsubscribed and refused [Overloaded]
          rather than buffering without bound *)
  scrape_interval : float;
      (** seconds between self-scrapes of the registry into the
          metrics history (the [_metrics] system table) *)
  tick_interval : float;
      (** the loop's nominal select timeout; the stall watchdog flags
          any tick that took more than twice this *)
  trace_capacity : int;  (** span ring size ([--trace-capacity]) *)
  trace_retain : int;
      (** slowest complete traces kept by tail sampling — the
          [_traces] system table's depth *)
  slow_log_file : string option;
      (** JSON-lines sink for slow-query entries, appended and flushed
          per entry; [None] keeps the in-memory ring only *)
}

let default_config =
  {
    max_connections = 64;
    max_payload = Frame.max_payload_default;
    idle_timeout = 30.;
    (* A connection sitting inside an open transaction pins that
       transaction's snapshots (and every touched table's write
       ledger), so it gets a much shorter leash than plain idleness. *)
    idle_in_txn_timeout = 10.;
    request_timeout = 10.;
    slow_query_s = 0.1;
    slow_log_size = 64;
    (* Group commit: 0 = fsync on every loop tick that left WAL bytes
       unsynced; raising it trades commit latency for bigger batches.
       The batch cap forces a sync early once that many sessions are
       waiting on their acknowledgements. *)
    wal_sync_interval = 0.;
    wal_sync_max_batch = 64;
    cdc_max_buffered = 1 lsl 20;
    scrape_interval = 5.;
    tick_interval = 0.25;
    trace_capacity = 4096;
    trace_retain = Obs.Retain.default_capacity;
    slow_log_file = None;
  }

(* One slow-query log entry: enough to reproduce and to correlate —
   the trace id links to the span ring, the hash groups repeats of the
   same statement text, the operator profile and plan snapshot say
   where the time plausibly went without re-running anything. *)
type slow_entry = {
  slow_at : float;  (* when the statement started (context clock) *)
  slow_text : string;
  slow_seconds : float;
  slow_trace : int;  (* 0 when no trace scope was open *)
  slow_hash : string;
  slow_ops : (string * int) list;
  slow_plan : string option;
  slow_est : (float * int) option;
      (* planner est vs actual access-path rows — a slow query whose
         estimate was badly off points at stale statistics *)
}

type context = {
  db : Nfql.Physical.db;
  metrics : Obs.Registry.t;
  config : config;
  now : unit -> float;
  slow : slow_entry Queue.t;
  hist : Hist.History.t;
      (** the metrics history — what the loop scrapes into and the
          [_metrics] system table / HISTORY statement read *)
  retain : Obs.Retain.t;
      (** tail-sampled slowest complete traces ([_traces]) *)
  mutable slow_out : out_channel option;
      (** the [--slow-query-log] JSON-lines sink, if any *)
  cdc : Views.Catalog.event Queue.t;
      (** committed view deltas awaiting fan-out — filled by the
          executor's CDC sink in commit order, drained by the loop
          after each group sync (so a delta on the wire is always
          covered by its fsync) *)
  repl : Nfql.Physical.repl_event Queue.t;
      (** committed changes awaiting shipment to subscribed replicas —
          same discipline as [cdc]: filled in commit order by the
          executor's replication sink, drained only once the covering
          WAL (and manifest) bytes are fsynced *)
  mutable on_promote : (unit -> unit) option;
      (** replica mode: detach from the primary (installed by the
          loop); the [Promote] handler calls it before clearing the
          read-only guard *)
  mutable is_draining : bool;
  mutable wants_shutdown : bool;
}

(* Pre-declare every series a monitoring pipeline alerts on, so a
   scrape of a freshly started (still idle) server already exposes
   them at zero instead of 404-by-omission. *)
let declare_series m =
  List.iter (Obs.Registry.declare m)
    [
      "queries.total"; "queries.slow"; "connections.accepted";
      "connections.rejected"; "connections.closed"; "connections.reaped";
      "connections.reaped_in_txn"; "frames.in"; "frames.out";
      "wal.append_total"; "wal.flush_total"; "wal.sync_total";
      "planner.cache_hit";
      "planner.cache_miss"; "planner.analyze"; "planner.auto_analyze";
      "txn.begin"; "txn.commit"; "txn.abort"; "txn.conflict";
      "txn.auto_rollback"; "txn.multi_table_commit"; "pool.hit"; "pool.miss";
      "pool.evict"; "view.deltas_total"; "view.renest_total";
      "view.salvage_total"; "view.orphaned_total"; "view.compositions_total";
      "cdc.subscribe_total"; "cdc.deltas_out"; "cdc.dropped_slow";
      "repl.subscribe_total"; "repl.entries_out"; "repl.entries_applied";
      "repl.dropped_slow"; "repl.apply_errors"; "repl.upstream_errors";
      "repl.upstream_lost";
    ];
  Obs.Registry.declare m "loop.stalls_total";
  Obs.Registry.declare_histogram m "query.seconds";
  Obs.Registry.declare_histogram m "planner.est_error";
  Obs.Registry.declare_histogram m "loop.tick.seconds";
  Obs.Registry.declare_histogram m "obs.scrape.seconds";
  Obs.Registry.declare_histogram m "wal.flush.seconds";
  Obs.Registry.declare_histogram m "wal.sync.seconds";
  Obs.Registry.declare_histogram m "wal.group_commit.batch_size";
  Obs.Registry.set_gauge m "connections.open" 0.;
  if Obs.Registry.gauge m "wal.bytes_unsynced" = 0. then
    Obs.Registry.set_gauge m "wal.bytes_unsynced" 0.;
  if Obs.Registry.gauge m "txn.active" = 0. then
    Obs.Registry.set_gauge m "txn.active" 0.;
  if Obs.Registry.gauge m "cdc.subscribers" = 0. then
    Obs.Registry.set_gauge m "cdc.subscribers" 0.;
  if Obs.Registry.gauge m "repl.replicas" = 0. then
    Obs.Registry.set_gauge m "repl.replicas" 0.;
  (* Exposed as nf2_replica_lag_seconds — the replica's distance behind
     its primary's emission clock, refreshed per applied entry. *)
  if Obs.Registry.gauge m "replica.lag_seconds" = 0. then
    Obs.Registry.set_gauge m "replica.lag_seconds" 0.;
  if Obs.Registry.gauge m "loop.lag" = 0. then
    Obs.Registry.set_gauge m "loop.lag" 0.;
  if Obs.Registry.gauge m "obs.history_series" = 0. then
    Obs.Registry.set_gauge m "obs.history_series" 0.

(* The [_slow_queries] system table: the in-memory ring as a canonical
   NFR, rebuilt per statement (the ring is small — [slow_log_size]). *)
let slow_schema =
  Schema.of_names
    [
      ("At", Value.Tfloat); ("Seconds", Value.Tfloat); ("Trace", Value.Tint);
      ("Hash", Value.Tstring); ("Statement", Value.Tstring);
    ]

let slow_order = Schema.attributes slow_schema

let slow_queries_nfr slow =
  let flat =
    Queue.fold
      (fun acc e ->
        Nfr.add acc
          (Ntuple.of_tuple
             (Tuple.make slow_schema
                [
                  Value.of_float e.slow_at; Value.of_float e.slow_seconds;
                  Value.of_int e.slow_trace; Value.of_string e.slow_hash;
                  Value.of_string e.slow_text;
                ])))
      (Nfr.empty slow_schema) slow
  in
  (slow_order, Nest.canonicalize flat slow_order)

(* The [_traces] system table: one row per span of every retained
   trace, the root's identity and duration repeated so a WHERE over
   [Root]/[RootS] selects whole trees. *)
let traces_schema =
  Schema.of_names
    [
      ("Trace", Value.Tint); ("Root", Value.Tstring); ("RootS", Value.Tfloat);
      ("Span", Value.Tint); ("Parent", Value.Tint); ("Event", Value.Tstring);
      ("Label", Value.Tstring); ("Seconds", Value.Tfloat); ("Rows", Value.Tint);
    ]

let traces_order = Schema.attributes traces_schema

let traces_nfr retain =
  let flat =
    List.fold_left
      (fun acc (trace : Obs.Retain.trace) ->
        List.fold_left
          (fun acc (sp : Obs.Span.t) ->
            Nfr.add acc
              (Ntuple.of_tuple
                 (Tuple.make traces_schema
                    [
                      Value.of_int trace.Obs.Retain.trace_id;
                      Value.of_string trace.Obs.Retain.root_label;
                      Value.of_float trace.Obs.Retain.root_s;
                      Value.of_int sp.Obs.Span.id;
                      Value.of_int sp.Obs.Span.parent;
                      Value.of_string (Obs.Span.event_name sp.Obs.Span.event);
                      Value.of_string sp.Obs.Span.label;
                      Value.of_float (Obs.Span.busy sp);
                      Value.of_int sp.Obs.Span.rows;
                    ])))
          acc trace.Obs.Retain.spans)
      (Nfr.empty traces_schema)
      (Obs.Retain.snapshot retain)
  in
  (traces_order, Nest.canonicalize flat traces_order)

let make_context ?(config = default_config) ?metrics ?now db =
  if config.trace_capacity < 1 then
    invalid_arg "Session.make_context: trace_capacity must be at least 1";
  if config.trace_retain < 1 then
    invalid_arg "Session.make_context: trace_retain must be at least 1";
  if config.scrape_interval <= 0. then
    invalid_arg "Session.make_context: scrape_interval must be positive";
  if config.tick_interval <= 0. then
    invalid_arg "Session.make_context: tick_interval must be positive";
  let metrics =
    match metrics with Some m -> m | None -> Obs.Registry.create ()
  in
  declare_series metrics;
  (* Resizing clears the span ring, so only touch it when the config
     actually asks for a different capacity. *)
  if Obs.Span.capacity () <> config.trace_capacity then
    Obs.Span.set_capacity config.trace_capacity;
  let ctx =
    {
      db;
      metrics;
      config;
      now = (match now with Some f -> f | None -> Unix.gettimeofday);
      slow = Queue.create ();
      hist = Hist.History.create ();
      retain = Obs.Retain.create ~capacity:config.trace_retain ();
      slow_out =
        Option.map
          (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
          config.slow_log_file;
      cdc = Queue.create ();
      repl = Queue.create ();
      on_promote = None;
      is_draining = false;
      wants_shutdown = false;
    }
  in
  Nfql.Physical.set_cdc_sink db (fun event -> Queue.push event ctx.cdc);
  Nfql.Physical.set_repl_sink db (fun event -> Queue.push event ctx.repl);
  Nfql.Physical.register_system_table db "_metrics" (fun () ->
      (Hist.History.order, Hist.History.nfr ctx.hist));
  Nfql.Physical.register_system_table db "_slow_queries" (fun () ->
      slow_queries_nfr ctx.slow);
  Nfql.Physical.register_system_table db "_traces" (fun () ->
      traces_nfr ctx.retain);
  ctx

let set_on_promote ctx f = ctx.on_promote <- Some f
let context_metrics ctx = ctx.metrics
let context_config ctx = ctx.config
let context_now ctx = ctx.now ()
let context_db ctx = ctx.db
let context_hist ctx = ctx.hist
let context_retain ctx = ctx.retain

(* One self-scrape: sample every registry series into the history at
   the context clock's [now], charging the real wall-clock cost to
   [obs.scrape.seconds] and refreshing the series-count gauge. *)
let scrape ctx ~now =
  let started = Unix.gettimeofday () in
  let sampled = Hist.History.scrape ctx.hist ctx.metrics ~now in
  Obs.Registry.observe ctx.metrics "obs.scrape.seconds"
    (Unix.gettimeofday () -. started);
  Obs.Registry.set_gauge ctx.metrics "obs.history_series"
    (float_of_int (Hist.History.series_count ctx.hist));
  sampled

let close_slow_log ctx =
  match ctx.slow_out with
  | None -> ()
  | Some out ->
    ctx.slow_out <- None;
    (try close_out out with Sys_error _ -> ())

let slow_log ctx = List.of_seq (Queue.to_seq ctx.slow)
let drain ctx = ctx.is_draining <- true
let draining ctx = ctx.is_draining
let shutdown_requested ctx = ctx.wants_shutdown

let json_escape s =
  let buffer = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

(* One slow entry as a JSON line — the [--slow-query-log] sink's
   format. Kept flat and self-describing so `jq` needs no schema. *)
let slow_entry_json entry =
  let ops =
    String.concat ","
      (List.map
         (fun (label, rows) ->
           Printf.sprintf "{\"op\":\"%s\",\"rows\":%d}" (json_escape label) rows)
         entry.slow_ops)
  in
  let est =
    match entry.slow_est with
    | None -> ""
    | Some (est, actual) ->
      Printf.sprintf ",\"est_rows\":%.1f,\"actual_rows\":%d" est actual
  in
  Printf.sprintf
    "{\"at\":%.6f,\"seconds\":%.6f,\"trace\":%d,\"hash\":\"%s\",\"statement\":\"%s\",\"ops\":[%s]%s}"
    entry.slow_at entry.slow_seconds entry.slow_trace
    (json_escape entry.slow_hash)
    (json_escape entry.slow_text)
    ops est

let note_slow ctx entry =
  Obs.Registry.incr ctx.metrics "queries.slow";
  Queue.push entry ctx.slow;
  while Queue.length ctx.slow > ctx.config.slow_log_size do
    ignore (Queue.pop ctx.slow)
  done;
  match ctx.slow_out with
  | None -> ()
  | Some out ->
    (* Flush per entry: the sink exists to be tailed while the server
       is stuck, so buffering until exit would defeat it. *)
    (try
       output_string out (slow_entry_json entry);
       output_char out '\n';
       flush out
     with Sys_error _ -> ())

let render_slow_entry buffer entry =
  Buffer.add_string buffer
    (Printf.sprintf "  %.6fs  trace=%d hash=%s  %s\n" entry.slow_seconds
       entry.slow_trace
       (String.sub entry.slow_hash 0 (min 12 (String.length entry.slow_hash)))
       entry.slow_text);
  (match entry.slow_est with
  | None -> ()
  | Some (est, actual) ->
    Buffer.add_string buffer
      (Printf.sprintf "            est rows: %.1f, actual: %d\n" est actual));
  (match entry.slow_ops with
  | [] -> ()
  | ops ->
    Buffer.add_string buffer
      (Printf.sprintf "            ops: %s\n"
         (String.concat "; "
            (List.map (fun (label, rows) -> Printf.sprintf "%s=%d" label rows) ops))));
  match entry.slow_plan with
  | None -> ()
  | Some plan ->
    String.split_on_char '\n' plan
    |> List.iter (fun line ->
           Buffer.add_string buffer (Printf.sprintf "            | %s\n" line))

let metrics_dump ctx =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer (Obs.Registry.to_text ctx.metrics);
  if not (Queue.is_empty ctx.slow) then begin
    Buffer.add_string buffer "slow queries (ring of last, newest last):\n";
    Queue.iter (render_slow_entry buffer) ctx.slow
  end;
  Buffer.contents buffer

type state =
  | Open
  | Closing  (** flush staged output, then drop *)
  | Closed

type t = {
  ctx : context;
  session_id : int;
  psession : Nfql.Physical.session;
      (** this connection's executor session — carries its open
          transaction across requests *)
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  staged : Buffer.t;  (** frames not yet handed to the writer *)
  held : Buffer.t;
      (** replies covering WAL bytes not yet fsynced — withheld from
          the writer until the loop's next group {!group_sync} *)
  mutable awaiting_sync : bool;
  mutable pending : string;  (** frame bytes currently being written *)
  mutable pending_pos : int;
  mutable state : state;
  mutable last_activity_at : float;
  mutable frame_started_at : float option;
      (** when the current partial frame began arriving *)
  mutable subs : string list;
      (** views this connection subscribed to (CDC) — newest first *)
  mutable repl_sub : bool;
      (** this connection is a subscribed replica: it receives every
          committed change as [Repl_entry] frames *)
  mutable repl_acked : int;
      (** highest stream sequence the replica has acknowledged *)
}

let create ctx ~id =
  {
    ctx;
    session_id = id;
    psession = Nfql.Physical.session ctx.db;
    rbuf = Bytes.create 4096;
    rlen = 0;
    staged = Buffer.create 256;
    held = Buffer.create 64;
    awaiting_sync = false;
    pending = "";
    pending_pos = 0;
    state = Open;
    last_activity_at = ctx.now ();
    frame_started_at = None;
    subs = [];
    repl_sub = false;
    repl_acked = 0;
  }

let id t = t.session_id
let closing t = t.state = Closing
let closed t = t.state = Closed
let in_txn t = Nfql.Physical.in_txn t.psession

(* Closing a session mid-transaction discards the transaction — the
   disconnect is the implicit ROLLBACK (buffered writes never touched
   the shared tables, so there is nothing else to undo). *)
(* Dropping the connection is also the implicit unsubscribe: the
   subscriber gauge must not count dead sessions. *)
let unsubscribe_all t =
  if t.subs <> [] then begin
    Obs.Registry.add_gauge t.ctx.metrics "cdc.subscribers"
      (-.float_of_int (List.length t.subs));
    t.subs <- []
  end;
  if t.repl_sub then begin
    Obs.Registry.add_gauge t.ctx.metrics "repl.replicas" (-1.);
    t.repl_sub <- false
  end

let close t =
  if t.state <> Closed then begin
    t.state <- Closed;
    unsubscribe_all t;
    if Nfql.Physical.rollback_if_open t.psession then begin
      Obs.Registry.incr t.ctx.metrics "txn.auto_rollback";
      Obs.Registry.incr t.ctx.metrics "txn.abort";
      Obs.Registry.add_gauge t.ctx.metrics "txn.active" (-1.)
    end
  end

let last_activity t = t.last_activity_at

(* ------------------------------------------------------------------ *)
(* Output queue                                                        *)
(* ------------------------------------------------------------------ *)

let send t message =
  let before = Buffer.length t.staged in
  (match Obs.Span.current_trace () with
  | None -> Protocol.encode t.staged message
  | Some _ ->
    Obs.Span.with_span Obs.Span.Frame_tx (Protocol.message_name message)
      (fun span ->
        Protocol.encode t.staged message;
        Obs.Span.add_bytes span (Buffer.length t.staged - before)));
  Obs.Registry.incr t.ctx.metrics "frames.out";
  Obs.Registry.add t.ctx.metrics "bytes.out" (Buffer.length t.staged - before)

let next_output t =
  if t.pending_pos >= String.length t.pending then begin
    t.pending <- Buffer.contents t.staged;
    t.pending_pos <- 0;
    Buffer.clear t.staged
  end;
  if t.pending_pos >= String.length t.pending then None
  else Some (t.pending, t.pending_pos)

let advance_output t n =
  t.pending_pos <- t.pending_pos + n;
  t.last_activity_at <- t.ctx.now ()

let want_write t =
  t.pending_pos < String.length t.pending
  || Buffer.length t.staged > 0
  (* Held acknowledgements count: the session still has bytes to
     deliver (after the next group sync releases them), so neither the
     idle reaper nor a draining shutdown may drop it yet. *)
  || Buffer.length t.held > 0

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)
(* ------------------------------------------------------------------ *)

let awaiting_sync t = t.awaiting_sync

let release_held t =
  if t.awaiting_sync then begin
    Buffer.add_buffer t.staged t.held;
    Buffer.clear t.held;
    t.awaiting_sync <- false
  end

(* One fsync covering every statement any session handled since the
   last call. Acknowledgements withheld by those sessions are released
   only after the fsync returns, so a commit acked on the wire is
   durable. A degraded WAL (disk error mid-sync) still releases the
   acks — the writes are applied in memory and the table has already
   been marked non-durable — but the error is counted so operators can
   alert on it. *)
let group_sync ctx sessions =
  let waiting = List.filter (fun s -> s.awaiting_sync) sessions in
  if waiting <> [] || Nfql.Physical.wal_unsynced ctx.db > 0 then begin
    (try Nfql.Physical.sync_wal ctx.db
     with
    | Storage.Failpoint.Crashed _ as crash -> raise crash
    | Storage.Storage_error.Error _ ->
      Obs.Registry.incr ctx.metrics "wal.sync_errors");
    if waiting <> [] then
      Obs.Registry.observe ctx.metrics "wal.group_commit.batch_size"
        (float_of_int (List.length waiting));
    List.iter release_held waiting
  end

(* ------------------------------------------------------------------ *)
(* Request execution                                                   *)
(* ------------------------------------------------------------------ *)

let reply_of_result = function
  | Nfql.Eval.Done text -> Protocol.Done text
  | Nfql.Eval.Rows nfr -> Protocol.Rows (Nfr.schema nfr, Nfr.ntuples nfr)

(* EXPLAIN snapshot for the slow log: only for statements that carry a
   select, and only when they were actually slow. *)
let plan_snapshot db = function
  | Nfql.Ast.Select s | Nfql.Ast.Explain s | Nfql.Ast.Explain_analyze s ->
    Some (Nfql.Physical.explain db s)
  | Nfql.Ast.Trace (Nfql.Ast.Select s) -> Some (Nfql.Physical.explain db s)
  | Nfql.Ast.Create _ | Nfql.Ast.Drop _ | Nfql.Ast.Create_view _
  | Nfql.Ast.Drop_view _ | Nfql.Ast.Insert _ | Nfql.Ast.Delete_values _
  | Nfql.Ast.Delete_where _ | Nfql.Ast.Update_set _ | Nfql.Ast.Select_count _
  | Nfql.Ast.Analyze _ | Nfql.Ast.Trace _ | Nfql.Ast.Show _ | Nfql.Ast.History _
  | Nfql.Ast.Begin | Nfql.Ast.Commit | Nfql.Ast.Rollback ->
    None

let run_query t source =
  let ctx = t.ctx in
  let parse source =
    Obs.Span.with_span Obs.Span.Parse "parse-script" @@ fun parse_span ->
    Obs.Span.add_bytes parse_span (String.length source);
    Nfql.Parser.parse_script source
  in
  match parse source with
  | exception Nfql.Parser.Parse_error (message, offset) ->
    Obs.Registry.incr ctx.metrics "errors.query";
    send t
      (Protocol.Err
         ( Protocol.Query_failed,
           Printf.sprintf "parse error at offset %d: %s" offset message ))
  | exception Nfql.Lexer.Lex_error (message, offset) ->
    Obs.Registry.incr ctx.metrics "errors.query";
    send t
      (Protocol.Err
         ( Protocol.Query_failed,
           Printf.sprintf "lex error at offset %d: %s" offset message ))
  | statements ->
    let deadline = ctx.now () +. ctx.config.request_timeout in
    let rec execute completed = function
      | [] ->
        send t (Protocol.Done (Printf.sprintf "ok: %d statement(s)" completed))
      | statement :: rest ->
        if ctx.now () > deadline then begin
          Obs.Registry.incr ctx.metrics "errors.timeout";
          send t
            (Protocol.Err
               ( Protocol.Timeout,
                 Printf.sprintf
                   "request exceeded %.3fs; %d of %d statement(s) ran"
                   ctx.config.request_timeout completed
                   (List.length statements) ))
        end
        else begin
          Obs.Registry.incr ctx.metrics "queries.total";
          Obs.Registry.incr ctx.metrics
            ("queries." ^ Nfql.Ast.statement_verb statement);
          let started = ctx.now () in
          (* Mirror transaction transitions into this server's own
             registry, so the METRICS ledger balances even when the
             context was built over a private registry (the executor's
             counters live in the process-global one). *)
          let was_in_txn = Nfql.Physical.in_txn t.psession in
          let note_txn_transition () =
            match (was_in_txn, Nfql.Physical.in_txn t.psession) with
            | false, true ->
              Obs.Registry.incr ctx.metrics "txn.begin";
              Obs.Registry.add_gauge ctx.metrics "txn.active" 1.
            | true, false ->
              (match statement with
              | Nfql.Ast.Commit -> Obs.Registry.incr ctx.metrics "txn.commit"
              | _ -> Obs.Registry.incr ctx.metrics "txn.abort");
              Obs.Registry.add_gauge ctx.metrics "txn.active" (-1.)
            | _ -> ()
          in
          match Nfql.Physical.exec_session t.psession statement with
          | result, stats ->
            note_txn_transition ();
            let elapsed = ctx.now () -. started in
            Obs.Registry.observe ctx.metrics "query.seconds" elapsed;
            if elapsed > ctx.config.slow_query_s then begin
              let text = Format.asprintf "%a" Nfql.Ast.pp_statement statement in
              note_slow ctx
                {
                  slow_at = started;
                  slow_text = text;
                  slow_seconds = elapsed;
                  slow_trace =
                    Option.value ~default:0 (Obs.Span.current_trace ());
                  slow_hash = Digest.to_hex (Digest.string text);
                  slow_ops = Nfql.Physical.last_profile ctx.db;
                  slow_plan = plan_snapshot ctx.db statement;
                  slow_est = Nfql.Physical.last_estimate ctx.db;
                }
            end;
            send t (Protocol.Stats stats);
            send t (reply_of_result result);
            execute (completed + 1) rest
          | exception Nfql.Eval.Eval_error message ->
            Obs.Registry.incr ctx.metrics "errors.query";
            send t (Protocol.Err (Protocol.Query_failed, message))
          | exception Nfql.Physical.Read_only primary ->
            (* Typed refusal: the client should redirect its writes to
               the primary this payload names. The session stays open —
               reads are still welcome here. *)
            Obs.Registry.incr ctx.metrics "errors.read_only";
            send t
              (Protocol.Err
                 ( Protocol.Read_only,
                   Printf.sprintf "read-only replica of %s" primary ))
          | exception Nfql.Physical.Conflict message ->
            (* The transaction is already rolled back; the typed code
               tells the client a plain retry may succeed. *)
            Obs.Registry.incr ctx.metrics "txn.conflict";
            Obs.Registry.incr ctx.metrics "txn.abort";
            Obs.Registry.add_gauge ctx.metrics "txn.active" (-1.);
            Obs.Registry.incr ctx.metrics "errors.conflict";
            send t (Protocol.Err (Protocol.Conflict, message))
          | exception Storage.Storage_error.Error err ->
            Obs.Registry.incr ctx.metrics "errors.query";
            send t
              (Protocol.Err
                 (Protocol.Query_failed, Storage.Storage_error.to_string err))
          | exception (Storage.Failpoint.Crashed _ as crash) ->
            (* Fault injection simulates process death: let it out. *)
            raise crash
          | exception exn ->
            Obs.Registry.incr ctx.metrics "errors.query";
            send t (Protocol.Err (Protocol.Query_failed, Printexc.to_string exn))
        end
    in
    execute 0 statements

let refuse t code reason =
  Obs.Registry.incr t.ctx.metrics
    (match code with
    | Protocol.Shutting_down -> "errors.shutting_down"
    | Protocol.Timeout -> "errors.timeout"
    | Protocol.Too_large -> "errors.too_large"
    | Protocol.Malformed_frame -> "errors.malformed"
    | Protocol.Overloaded -> "errors.overloaded"
    | Protocol.Query_failed -> "errors.query"
    | Protocol.Conflict -> "errors.conflict"
    | Protocol.Read_only -> "errors.read_only");
  send t (Protocol.Err (code, reason));
  t.state <- Closing

let handle t message =
  let ctx = t.ctx in
  Storage.Failpoint.hit "server.session.frame";
  if ctx.is_draining then
    refuse t Protocol.Shutting_down "server is draining"
  else
    match message with
    | Protocol.Ping -> send t Protocol.Pong
    | Protocol.Query source -> run_query t source
    | Protocol.Metrics_req -> send t (Protocol.Metrics (metrics_dump ctx))
    | Protocol.Metrics_prom_req ->
      send t (Protocol.Metrics_prom (Obs.Registry.to_prometheus ctx.metrics))
    | Protocol.Shutdown ->
      ctx.wants_shutdown <- true;
      send t (Protocol.Done "shutting down")
    | Protocol.Subscribe view ->
      if not (Nfql.Physical.is_view ctx.db view) then begin
        Obs.Registry.incr ctx.metrics "errors.query";
        send t
          (Protocol.Err
             (Protocol.Query_failed, Printf.sprintf "unknown view %s" view))
      end
      else if List.mem view t.subs then
        send t (Protocol.Done (Printf.sprintf "already subscribed to %s" view))
      else begin
        t.subs <- view :: t.subs;
        Obs.Registry.incr ctx.metrics "cdc.subscribe_total";
        Obs.Registry.add_gauge ctx.metrics "cdc.subscribers" 1.;
        send t (Protocol.Done (Printf.sprintf "subscribed to view %s" view))
      end
    | Protocol.Repl_subscribe ->
      if Nfql.Physical.read_only ctx.db <> None then begin
        Obs.Registry.incr ctx.metrics "errors.query";
        send t
          (Protocol.Err
             ( Protocol.Query_failed,
               "cascading replication is not supported: subscribe to the \
                primary" ))
      end
      else if t.repl_sub then
        send t (Protocol.Done "already subscribed to the replication stream")
      else begin
        t.repl_sub <- true;
        Obs.Registry.incr ctx.metrics "repl.subscribe_total";
        Obs.Registry.add_gauge ctx.metrics "repl.replicas" 1.;
        send t (Protocol.Done "subscribed to the replication stream");
        (* Full-state bootstrap: no historical log is retained, so the
           stream starts from a synthesized snapshot. Staged here, it
           still rides the durability gate — if another session's
           write is awaiting its fsync, these frames are held with the
           rest of this tick's output. *)
        List.iter
          (fun event ->
            Obs.Registry.incr ctx.metrics "repl.entries_out";
            send t (Protocol.Repl_entry event))
          (Nfql.Physical.repl_bootstrap ctx.db)
      end
    | Protocol.Repl_ack seq ->
      (* Pure bookkeeping; acks get no reply. *)
      if t.repl_sub then t.repl_acked <- max t.repl_acked seq
    | Protocol.Promote -> (
      match Nfql.Physical.read_only ctx.db with
      | None ->
        Obs.Registry.incr ctx.metrics "errors.query";
        send t
          (Protocol.Err
             (Protocol.Query_failed, "not a replica: writes are already open"))
      | Some primary ->
        (match ctx.on_promote with Some detach -> detach () | None -> ());
        Nfql.Physical.set_read_only ctx.db None;
        send t
          (Protocol.Done
             (Printf.sprintf "promoted: detached from %s, accepting writes"
                primary)))
    | Protocol.Pong | Protocol.Rows _ | Protocol.Done _ | Protocol.Err _
    | Protocol.Stats _ | Protocol.Metrics _ | Protocol.Metrics_prom _
    | Protocol.Delta _ | Protocol.Repl_entry _ ->
      refuse t Protocol.Malformed_frame
        (Printf.sprintf "unexpected %s frame from client"
           (Protocol.message_name message))

(* ------------------------------------------------------------------ *)
(* CDC fan-out                                                         *)
(* ------------------------------------------------------------------ *)

let queued_output_bytes t =
  String.length t.pending - t.pending_pos
  + Buffer.length t.staged
  + Buffer.length t.held

let deliver_cdc t (event : Views.Catalog.event) =
  if t.state = Open && List.mem event.Views.Catalog.view t.subs then begin
    if queued_output_bytes t > t.ctx.config.cdc_max_buffered then begin
      (* Admission control: the subscriber is not draining its socket
         as fast as commits produce deltas. Buffering without bound
         would let one slow reader exhaust the server, and silently
         skipping a delta would corrupt its stream (the seq gap is only
         detectable, not recoverable, client-side) — so evict it. *)
      Obs.Registry.incr t.ctx.metrics "cdc.dropped_slow";
      unsubscribe_all t;
      refuse t Protocol.Overloaded
        (Printf.sprintf
           "subscriber too slow: %d bytes queued exceeds the %d-byte budget"
           (queued_output_bytes t) t.ctx.config.cdc_max_buffered)
    end
    else begin
      Obs.Registry.incr t.ctx.metrics "cdc.deltas_out";
      send t
        (Protocol.Delta
           {
             Protocol.d_view = event.Views.Catalog.view;
             d_seq = event.Views.Catalog.seq;
             d_schema = event.Views.Catalog.schema;
             d_added = event.Views.Catalog.added;
             d_removed = event.Views.Catalog.removed;
           })
    end
  end

(* Drain the commit-ordered event queue to every subscribed session.
   The loop calls this right after {!group_sync}, so every delta frame
   a client sees describes WAL bytes already fsynced; all subscribers
   of a view observe the same deltas in the same order because the
   queue is FIFO and delivery is synchronous. *)
let dispatch_cdc ctx sessions =
  (* Durability gate: never announce a delta whose covering WAL bytes
     are still unsynced — if the interval-paced group sync skipped this
     tick, the events simply wait in the queue for the next one. *)
  if Nfql.Physical.wal_unsynced ctx.db = 0 then
    while not (Queue.is_empty ctx.cdc) do
      let event = Queue.pop ctx.cdc in
      List.iter (fun t -> deliver_cdc t event) sessions
    done

(* ------------------------------------------------------------------ *)
(* Replication fan-out                                                 *)
(* ------------------------------------------------------------------ *)

let deliver_repl t event =
  if t.state = Open && t.repl_sub then begin
    if queued_output_bytes t > t.ctx.config.cdc_max_buffered then begin
      (* Same admission control as CDC: a replica that cannot drain its
         socket would otherwise buffer the primary into the ground, and
         a silently skipped entry would corrupt its state — evict it;
         it can resubscribe and re-bootstrap. *)
      Obs.Registry.incr t.ctx.metrics "repl.dropped_slow";
      unsubscribe_all t;
      refuse t Protocol.Overloaded
        (Printf.sprintf
           "replica too slow: %d bytes queued exceeds the %d-byte budget"
           (queued_output_bytes t) t.ctx.config.cdc_max_buffered)
    end
    else begin
      Obs.Registry.incr t.ctx.metrics "repl.entries_out";
      send t (Protocol.Repl_entry event)
    end
  end

(* Drain the commit-ordered replication queue to every subscribed
   replica, under the same durability gate as CDC: an entry reaches
   the wire only after the covering table-WAL and manifest fsyncs, so
   a replica can never apply a commit its primary might still lose. *)
let dispatch_repl ctx sessions =
  if Nfql.Physical.wal_unsynced ctx.db = 0 then
    while not (Queue.is_empty ctx.repl) do
      let event = Queue.pop ctx.repl in
      List.iter (fun t -> deliver_repl t event) sessions
    done

(* ------------------------------------------------------------------ *)
(* Input buffering and frame parsing                                   *)
(* ------------------------------------------------------------------ *)

let ensure_capacity t extra =
  let needed = t.rlen + extra in
  if needed > Bytes.length t.rbuf then begin
    let grown = Bytes.create (max needed (2 * Bytes.length t.rbuf)) in
    Bytes.blit t.rbuf 0 grown 0 t.rlen;
    t.rbuf <- grown
  end

let consume t n =
  if n > 0 then begin
    Bytes.blit t.rbuf n t.rbuf 0 (t.rlen - n);
    t.rlen <- t.rlen - n
  end

let rec parse_frames t =
  if t.state = Open && t.rlen > 0 then
    let decode_started = Obs.Span.now () in
    match
      Protocol.decode ~max_payload:t.ctx.config.max_payload t.rbuf ~pos:0
        ~len:t.rlen
    with
    | Protocol.Need_more -> ()
    | Protocol.Msg (message, consumed_bytes) ->
      Obs.Registry.incr t.ctx.metrics "frames.in";
      consume t consumed_bytes;
      let stage_mark = Buffer.length t.staged in
      (* When tracing is on, every request gets its own trace rooted at
         a Frame_rx span: decode time is pre-seeded into the span's
         busy clock ({!Obs.Span.with_span} adds its own elapsed on
         top), and everything the handler does — parse, statement,
         operators, WAL — nests beneath it. *)
      (if Obs.Span.enabled () then
         Obs.Span.in_trace (fun trace ->
             Obs.Span.with_span Obs.Span.Frame_rx
               (Protocol.message_name message) (fun span ->
                 Obs.Span.add_bytes span consumed_bytes;
                 Obs.Span.add_busy span (Obs.Span.now () -. decode_started);
                 handle t message);
             (* Tail sampling: the request is complete, so its rank is
                known — offer the whole tree to the slow-trace ring. *)
             Obs.Retain.offer t.ctx.retain (Obs.Span.spans_of_trace trace))
       else handle t message);
      (* Durability gate: if handling this frame left WAL bytes
         unsynced (a write on a [synchronous:false] table), its reply
         must not reach the wire before those bytes are fsynced. Move
         the reply to [held]; the loop's next {!group_sync} releases
         it. Once a session is awaiting, later replies are held too so
         frame order is preserved. *)
      if t.awaiting_sync || Nfql.Physical.wal_unsynced t.ctx.db > 0 then begin
        let staged_len = Buffer.length t.staged in
        if staged_len > stage_mark then begin
          Buffer.add_string t.held
            (Buffer.sub t.staged stage_mark (staged_len - stage_mark));
          Buffer.truncate t.staged stage_mark
        end;
        t.awaiting_sync <- true
      end;
      parse_frames t
    | Protocol.Oversized n ->
      refuse t Protocol.Too_large
        (Printf.sprintf "frame payload of %d bytes exceeds the %d-byte cap" n
           t.ctx.config.max_payload)
    | Protocol.Malformed reason ->
      refuse t Protocol.Malformed_frame reason

let feed t buf n =
  if t.state = Open && n > 0 then begin
    ensure_capacity t n;
    Bytes.blit buf 0 t.rbuf t.rlen n;
    t.rlen <- t.rlen + n;
    Obs.Registry.add t.ctx.metrics "bytes.in" n;
    t.last_activity_at <- t.ctx.now ();
    if t.frame_started_at = None then t.frame_started_at <- Some t.last_activity_at;
    parse_frames t;
    if t.rlen = 0 then t.frame_started_at <- None
  end

let check_deadlines t ~now =
  if t.state <> Open then `Keep
  else
    match t.frame_started_at with
    | Some started when now -. started > t.ctx.config.request_timeout ->
      (* Slowloris: the frame has been dribbling in for too long. *)
      refuse t Protocol.Timeout
        (Printf.sprintf "frame did not complete within %.3fs"
           t.ctx.config.request_timeout);
      `Reap
    | _ ->
      if
        in_txn t
        && now -. t.last_activity_at > t.ctx.config.idle_in_txn_timeout
        && not (want_write t)
      then begin
        (* Idle in transaction: the polite rejection tells the client
           its transaction is gone; the close that follows rolls it
           back. *)
        Obs.Registry.incr t.ctx.metrics "connections.reaped_in_txn";
        refuse t Protocol.Timeout
          (Printf.sprintf
             "idle in transaction longer than %.3fs; transaction rolled back"
             t.ctx.config.idle_in_txn_timeout);
        `Reap
      end
      else if
        now -. t.last_activity_at > t.ctx.config.idle_timeout
        && not (want_write t)
      then begin
        Obs.Registry.incr t.ctx.metrics "connections.reaped";
        t.state <- Closing;
        `Reap
      end
      else `Keep
