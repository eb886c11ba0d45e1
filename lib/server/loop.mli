(** Single-threaded [Unix.select] event loop serving nf2d sessions.

    One loop owns a non-blocking listening socket and every accepted
    connection (each a {!Session.t}). {!step} runs one select round:
    accept, read, execute, write, reap; {!run} steps until the loop is
    {!stopped}. Execution is synchronous inside the loop — the shared
    {!Nfql.Physical.db} is never touched concurrently, which is the
    whole concurrency story: sessions interleave at frame granularity,
    exactly the regime the Sec. 4 update algebra is stressed by.

    Admission control: at [max_connections] live sessions a new
    connection is accepted only to be told [Err Overloaded] and
    dropped; oversized frames, garbage preambles, idle and slowloris
    connections are refused per {!Session}.

    Graceful shutdown ({!begin_shutdown}, or a client [Shutdown]
    frame): the listener closes, live sessions drain their staged
    replies and are dropped, the ["server.shutdown.drain"] /
    ["server.shutdown.flush"] {!Storage.Failpoint} control sites fire
    around the [on_shutdown] hook (where the CLI checkpoints and
    closes its WAL-backed tables), and {!stopped} becomes true. These
    server sites are exercised by the server suite directly; they are
    deliberately not in {!Storage.Failpoint.sites}, which the storage
    crash matrix enumerates. *)

type t

val create :
  ?config:Session.config ->
  ?metrics:Obs.Registry.t ->
  ?now:(unit -> float) ->
  ?on_shutdown:(unit -> unit) ->
  db:Nfql.Physical.db ->
  listen:[ `Port of int | `Fd of Unix.file_descr ] ->
  unit ->
  t
(** [`Port p] binds and listens on [127.0.0.1:p] ([p = 0] picks a free
    port — read it back with {!port}); [`Fd fd] adopts an
    already-listening socket (the soak test binds before forking so
    parent and child agree on the port). SIGPIPE is ignored
    process-wide. @raise Unix.Unix_error when binding fails. *)

val port : t -> int
val metrics : t -> Obs.Registry.t
val context : t -> Session.context
val live_sessions : t -> int

val attach_upstream : t -> host:string -> port:int -> unit
(** Enter replica mode: connect to the primary, send [Repl_subscribe]
    (the primary answers with a full-state bootstrap, then the live
    tail), mark the database read-only (writes get [Err Read_only]
    naming ["host:port"]), and fold the upstream socket into every
    select round — each shipped entry is applied via
    {!Nfql.Physical.apply_repl_event}, acked with [Repl_ack], and
    refreshes the [replica.lag_seconds] gauge. A [Promote] frame on
    any session detaches the upstream and re-opens writes; losing the
    upstream (counted in [repl.upstream_lost]) keeps serving reads
    from the last applied state, still read-only.
    @raise Unix.Unix_error when the primary cannot be reached. *)

val replica_of : t -> string option
(** ["host:port"] of the attached primary, when in replica mode. *)

val step : t -> float -> bool
(** [step t timeout] — one select round, waiting at most [timeout]
    seconds for readiness. Returns [false] once the loop is fully
    stopped (drained after shutdown). [Failpoint.Crashed] from an
    armed serve-path site propagates — the simulated process death. *)

val run : t -> unit
(** {!step} until stopped. *)

val begin_shutdown : t -> unit
val stopped : t -> bool

val close : t -> unit
(** Force-close everything without draining (error paths, tests). *)
