(** Per-connection protocol state machine, socket-agnostic.

    A session owns a read accumulation buffer and a write queue and
    knows nothing about file descriptors: the {!Loop} (or a test)
    {!feed}s it raw bytes and drains {!next_output}. Feeding parses as
    many complete frames as the bytes hold, dispatches each against
    the shared {!context} (executing NFQL through
    {!Nfql.Physical.exec}), and stages the response frames. The
    lifecycle is

    {v open --(protocol error | timeout | shutdown)--> closing
            --(write queue drained)------------------> closed v}

    where {e closing} still flushes the staged reply (the polite
    rejection) before the loop drops the socket.

    Every decoded frame passes the ["server.session.frame"]
    {!Storage.Failpoint} control site, so the crash suite can kill the
    serve path mid-request and assert recovery; an armed [Crash]
    propagates out of {!feed} as [Failpoint.Crashed]. *)

(** Admission-control and robustness knobs (shared with {!Loop}). *)
type config = {
  max_connections : int;  (** accept cap; above it: [Err Overloaded] *)
  max_payload : int;  (** per-frame payload cap in bytes *)
  idle_timeout : float;  (** seconds of silence before reaping *)
  idle_in_txn_timeout : float;
      (** shorter leash for a connection idling {e inside an open
          transaction} — it pins snapshots and write ledgers; reaping
          it rolls the transaction back *)
  request_timeout : float;
      (** wall-clock budget for one request: a partial frame must
          complete, and a script's statements must all start, within
          this many seconds *)
  slow_query_s : float;  (** statements slower than this are logged *)
  slow_log_size : int;  (** slow-query ring-buffer capacity *)
  wal_sync_interval : float;
      (** minimum seconds between group-commit fsyncs; 0 syncs on
          every loop tick that left WAL bytes unsynced *)
  wal_sync_max_batch : int;
      (** force a group sync once this many sessions are waiting on
          withheld acknowledgements, regardless of the interval *)
  cdc_max_buffered : int;
      (** CDC admission budget per subscriber: a session whose queued
          output exceeds this many bytes when a delta arrives is
          evicted ([Err Overloaded]) instead of buffering unboundedly *)
  scrape_interval : float;
      (** seconds between self-scrapes of the metrics registry into
          the history behind the [_metrics] system table *)
  tick_interval : float;
      (** the loop's nominal select timeout; a tick exceeding twice
          this counts as a stall ([loop.stalls_total]) *)
  trace_capacity : int;
      (** span ring size — how many spans recent traces may hold *)
  trace_retain : int;
      (** how many slowest complete traces tail sampling retains (the
          [_traces] system table's depth) *)
  slow_log_file : string option;
      (** append slow-query entries as JSON lines to this file (one
          object per entry, flushed immediately); [None] disables *)
}

val default_config : config
(** 64 connections, 1 MiB frames, 30 s idle (10 s idle-in-transaction),
    10 s requests, 100 ms slow-query threshold, 64 slow-log entries,
    group sync every tick (interval 0) capped at 64 waiters, 1 MiB CDC
    buffering budget, 5 s scrapes, 250 ms ticks, 4096-span ring,
    {!Obs.Retain.default_capacity} retained traces, no slow-log
    file. *)

(** One slow-query log entry. [slow_trace] is the request's trace id
    (0 when tracing was off — nothing to correlate), [slow_hash] an
    MD5 of the statement text for grouping repeats, [slow_ops] the
    executed operator tree's pre-order [(label, rows_out)] profile,
    [slow_plan] an EXPLAIN snapshot for select-carrying statements,
    [slow_est] the planner's estimated vs actual access-path rows for
    the last select the statement ran — a slow query whose estimate
    was badly off points at stale statistics. *)
type slow_entry = {
  slow_at : float;  (** when the statement started (context clock) *)
  slow_text : string;
  slow_seconds : float;
  slow_trace : int;
  slow_hash : string;
  slow_ops : (string * int) list;
  slow_plan : string option;
  slow_est : (float * int) option;
}

(** State shared by every session of one server. *)
type context

val make_context :
  ?config:config ->
  ?metrics:Obs.Registry.t ->
  ?now:(unit -> float) ->
  Nfql.Physical.db ->
  context
(** [now] defaults to [Unix.gettimeofday]; tests inject a fake clock
    to exercise idle reaping and slowloris timeouts deterministically.
    [metrics] defaults to a fresh registry; either way the series a
    monitoring pipeline alerts on (queries, admission, frames, WAL,
    the query-latency histogram, the open-connections gauge) are
    pre-declared so an idle server scrapes complete.

    Also installs the self-monitoring surfaces on [db]: the [_metrics]
    (scraped history), [_slow_queries] (the in-memory ring) and
    [_traces] (tail-sampled slowest traces) system tables, sizes the
    span ring to [trace_capacity] (only when it differs — resizing
    clears it), and opens the [slow_log_file] sink when configured.

    @raise Invalid_argument when [trace_capacity] or [trace_retain] is
    below 1, or [scrape_interval] / [tick_interval] is not positive. *)

val context_metrics : context -> Obs.Registry.t
val context_config : context -> config

val context_now : context -> float
(** The context's clock reading (injected or wall). *)

val context_db : context -> Nfql.Physical.db

val context_hist : context -> Hist.History.t
(** The metrics history the loop scrapes into ([_metrics]). *)

val context_retain : context -> Obs.Retain.t
(** The tail-sampled slow-trace ring ([_traces]). *)

val scrape : context -> now:float -> int
(** Sample every registry series into the history at [now] (the
    context clock's reading, so fake clocks downsample
    deterministically), charging the real wall-clock cost to
    [obs.scrape.seconds] and refreshing the [obs.history_series]
    gauge. Returns the number of series sampled. The loop calls this
    every [scrape_interval]. *)

val close_slow_log : context -> unit
(** Close the [slow_log_file] sink, if open. Idempotent; the loop
    calls it on shutdown. *)

val slow_log : context -> slow_entry list
(** Most recent slow statements, newest last; a ring capped at
    [slow_log_size] entries. *)

val drain : context -> unit
(** Enter drain mode: every subsequent request on any session is
    refused with [Err Shutting_down]. *)

val draining : context -> bool

val shutdown_requested : context -> bool
(** Has any session received a [Shutdown] frame? The loop polls this
    after feeding. *)

val metrics_dump : context -> string
(** What a [Metrics_req] answers: {!Obs.Registry.to_text} plus the
    slow-query log. *)

type t

val create : context -> id:int -> t
val id : t -> int

val feed : t -> bytes -> int -> unit
(** [feed t buf n] appends [buf.[0..n-1]] (just read from the peer)
    and processes every complete frame. Never raises on malformed
    input (the session transitions to closing with a staged [Err]);
    [Failpoint.Crashed] from an armed site does propagate. *)

val next_output : t -> (string * int) option
(** [Some (data, pos)]: unsent bytes are [data.[pos..]]. [None]: the
    write queue is empty. *)

val advance_output : t -> int -> unit
(** Record that [n] more bytes of {!next_output} reached the socket. *)

val want_write : t -> bool
(** True when the session has bytes for the writer — including
    replies currently withheld pending a group sync, so the loop
    neither reaps nor drops a session whose acks are in flight. *)

val awaiting_sync : t -> bool
(** Does this session hold replies whose WAL bytes are not yet
    fsynced? Set when a frame's handling left the database's WAL
    dirty (only possible on [synchronous:false] tables); cleared by
    {!group_sync}. *)

val group_sync : context -> t list -> unit
(** Fsync every table's WAL once and release the withheld replies of
    all waiting sessions — the group-commit point, called by the loop
    at most once per tick. Observes the batch size (sessions covered
    by the one fsync) in [wal.group_commit.batch_size]. No-op when
    nothing is unsynced and nobody is waiting. *)

val dispatch_cdc : context -> t list -> unit
(** Drain the commit-ordered CDC event queue (filled by the executor's
    sink at every commit point that changed a view) and stage one
    [Delta] frame per event on every session subscribed to that view.
    The loop calls this immediately after {!group_sync}, so a delta on
    the wire is always covered by its fsync. A subscriber whose queued
    output exceeds [cdc_max_buffered] is unsubscribed and refused
    [Overloaded] (counted in [cdc.dropped_slow]). *)

val dispatch_repl : context -> t list -> unit
(** Drain the commit-ordered replication queue and stage one
    [Repl_entry] frame per event on every subscribed replica, under
    the same durability gate and slow-subscriber eviction as
    {!dispatch_cdc} ([repl.dropped_slow]) — an entry reaches the wire
    only after the covering table-WAL and manifest fsyncs, so a
    replica can never apply a commit its primary might still lose.
    Called right after {!dispatch_cdc}; drains the queue even with no
    replica subscribed, so a primary without replicas does not
    accumulate events. *)

val set_on_promote : context -> (unit -> unit) -> unit
(** Install the replica-mode detach hook: the [Promote] handler calls
    it (dropping the upstream connection) before clearing the
    database's read-only guard. *)

val check_deadlines : t -> now:float -> [ `Keep | `Reap ]
(** Idle and partial-frame timers. [`Reap]: the loop should close the
    socket after flushing ({!want_write} may newly be true — a
    slowloris gets a polite [Err Timeout] first). *)

val closing : t -> bool
(** The session must be dropped once its output drains. *)

val in_txn : t -> bool
(** Is this connection inside an open transaction? *)

val close : t -> unit
(** Mark closed (socket gone). Idempotent. Rolls back the
    connection's open transaction, if any — a disconnect is an
    implicit ROLLBACK (counted in [txn.auto_rollback]). *)

val closed : t -> bool
val last_activity : t -> float
