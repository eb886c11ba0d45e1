(** NFQL over the storage engine.

    The second back end: tables are {!Storage.Table} values (heap +
    inverted index + optional B+-tree + WAL), and every SELECT runs as
    a {e pull-based operator tree} — scan / index-probe / B+-range
    leaves, streaming filter, index nested-loop join and blocking
    nest-canonicalize — instead of materializing its input:

    - {b index}: a [CONTAINS] constraint or an [attr = const] conjunct
      probes the inverted index and decodes only matching groups;
    - {b range}: comparison conjuncts on the table's ordered attribute
      become one B+-tree range scan, open-ended when only one bound
      exists ([WHERE x > 5]) and strict at a bound produced by [<]/[>]
      (the boundary group is never fetched);
    - {b scan}: everything else streams the heap one record per pull,
      so a filtered scan holds O(matches) decoded tuples, not
      O(table).

    {2 Planning}

    Which path runs is decided by a cost model fed by {!Tablestats}
    (collected by [ANALYZE <table>], refreshed automatically after
    enough writes). With statistics, every candidate — each posting
    probe, the B+-range on the ordered attribute (an equality conjunct
    on it competes as the point range [[v, v]]), the heap scan, and
    for a join both orientations over every shared attribute — is
    priced and the cheapest wins; row estimates use the paper's Def. 6
    cardinality class as a selectivity prior (a fixed attribute's
    value selects at most one group; otherwise the posting
    distribution). Without statistics the legacy first-fit ranking
    applies (cheapest posting probe, else range, else scan).

    Plans are cached in a fixed-capacity LRU keyed on the select's
    structure plus the statistics {!generation}; ANALYZE, DDL and
    auto-refresh bump the generation so stale plans miss. The cache
    charges [planner.cache_hit] / [planner.cache_miss] counters and
    each executed select observes its relative estimation error in the
    [planner.est_error] histogram on {!Obs.Registry.global}.

    Whatever the path, tuples are filtered with the same semantics as
    {!Eval} — access paths are sound pre-filters (they never lose a
    matching group), so both back ends return identical rows
    (property-tested). The statement rules — name resolution, guards
    and their errors, acknowledgement texts, typing, TRACE/HISTORY —
    are {!Stmt}'s, shared with {!Eval}; DML statements persist
    through the table (and its WAL, if any); UPDATE applies each
    victim as an insert-image-then-delete pair so a crash inside the
    statement never silently loses a row.

    Each operator carries its own {!Storage.Stats} counters plus
    rows-emitted, and its wall-clock lives on an {!Obs.Span} — the one
    clock both [EXPLAIN ANALYZE SELECT ...] (which runs the query and
    renders per-operator metrics; {!analyze_select} is the
    programmatic face of the same report) and [TRACE <statement>]
    (which returns the whole span tree as rows) read. Statements run
    under a [Statement] span; planning under a [Plan] span whose
    children are the operators it built.

    {2 Transactions}

    [BEGIN]/[COMMIT]/[ROLLBACK] give buffered optimistic snapshot
    isolation per {!session}. Inside a transaction every touched table
    is an overlay ({!Stmt.overlay}) — the committed NFR snapshotted at
    first touch (O(1): NFRs are persistent) plus the transaction's own
    writes — so reads
    are repeatable, other sessions keep seeing committed state
    (writers never block readers), and ROLLBACK is a pure discard:
    table, WAL, statistics, generation and plan cache are all
    byte-identical to the transaction never having run. COMMIT
    validates first-committer-wins (any commit since the snapshot that
    wrote a flat tuple this transaction also wrote raises {!Conflict}
    and rolls back) and then applies the buffered ops through
    {!Storage.Table}'s transaction API, so the WAL carries the group
    under txn framing and crash recovery replays it all-or-nothing.
    DDL and [EXPLAIN ANALYZE] are rejected inside a transaction; only
    committed writes feed the auto-analyze threshold.

    {e Cross-table} crash atomicity depends on the commit manifest.
    Standalone (no manifest attached), each per-table [Txn_commit] is
    that table's commit point, so a crash between two tables' appends
    recovers a committed prefix in table-name order. With
    {!attach_manifest}, per-table commits are provisional: the
    transaction's single commit point is its {!Storage.Manifest}
    record, appended after every table's group and synced after every
    table's WAL, and recovery discards per-table groups whose manifest
    record never made it — all-or-nothing across tables
    (docs/STORAGE.md).

    {2 Replication}

    A {!set_repl_sink} subscriber receives every committed change —
    DML as WAL-entry groups in commit order, DDL as structural events
    — which is the WAL-shipping stream the server forwards to read
    replicas. A replica applies the stream with {!apply_repl_event}
    (bypassing its read-only guard) and refuses local writes while
    {!read_only} is set; {!repl_bootstrap} synthesizes the full-state
    prefix a fresh subscriber needs, since no historical log is
    retained. *)

open Relational

type db

type session
(** One client's execution context: the shared {!db} plus that
    client's open transaction, if any. *)

exception Conflict of string
(** Raised by [COMMIT] when first-committer-wins validation fails; the
    transaction has already been rolled back. *)

exception Read_only of string
(** Raised by every write statement (DML, DDL, [BEGIN]) on a database
    with {!set_read_only} in force — a read replica. The payload names
    the primary to write to instead. *)

(** One committed change on the primary, as shipped to replicas. DML
    travels as the per-table WAL entries of one commit group (commit
    order preserved); DDL travels structurally, so a replica re-runs
    the same catalog operation rather than re-parsing text. *)
type repl_change =
  | R_writes of (string * Storage.Wal.entry list) list
      (** one commit group: per participating table, its
          [Insert]/[Delete] entries in execution order *)
  | R_create of {
      name : string;
      schema : Schema.t;
      order : Attribute.t list;
    }
  | R_drop of string
  | R_create_view of { view : string; base : string; by : string list }
  | R_drop_view of string

(** One event on the replication stream. [r_seq] increments per event
    on the primary; [r_txid] is set for transactional groups (and
    recorded in the replica's local manifest); [r_time] is the
    primary's emission clock, the replica's lag reference. *)
type repl_event = {
  r_seq : int;
  r_txid : int option;
  r_time : float;
  r_change : repl_change;
}

(** One end of a range, with inclusivity: [{b_value = v; b_incl =
    false}] excludes the boundary group itself. *)
type bound = { b_value : Value.t; b_incl : bool }

(** A planned join: which sides, which shared attribute the inner
    index is probed on ([None] — no shared attribute — is a Cartesian
    product), and which side is scanned as the outer. *)
type join_path = {
  jp_left : string;
  jp_right : string;
  jp_probe : Attribute.t option;
  jp_outer : [ `Left | `Right ];
}

(** Which access path a SELECT uses (surfaced by {!explain}). Range
    bounds are optional: [None] means that side is open. *)
type access_path =
  | Via_scan
  | Via_index of Attribute.t * Value.t
  | Via_range of Attribute.t * bound option * bound option
  | Via_join of join_path

(** One priced alternative the planner considered. *)
type candidate = {
  cand_path : access_path;
  cand_cost : float;  (** abstract cost units (1.0 = one page fetch) *)
  cand_rows : float;  (** estimated NFR tuples out of the access path *)
}

(** The planner's decision for one select. [plan_candidates] is the
    full priced table when statistics informed the choice, empty on
    the legacy (never-ANALYZEd) path. *)
type plan = {
  plan_path : access_path;
  plan_rows : float;
  plan_candidates : candidate list;
  plan_from_stats : bool;
}

val create : unit -> db

val add_table : db -> string -> Storage.Table.t -> unit
(** Register an existing table. @raise Compile.Error on duplicates. *)

val table : db -> string -> Storage.Table.t option

val table_stats : db -> string -> Tablestats.t option
(** Planner statistics for the table, if it has been ANALYZEd. *)

val catalog : db -> Views.Catalog.t
(** The database's view catalog: incrementally maintained canonical
    NFRs over base tables. Views absorb {e committed} DML only —
    autocommit statements immediately, transactional writes at COMMIT
    (after validation and the storage apply), never from an
    uncommitted overlay. *)

val is_view : db -> string -> bool

val register_system_table : db -> string -> Systab.provider -> unit
(** Install (or replace) a read-only system-table provider; see
    {!Systab}. @raise Invalid_argument unless the name starts with
    ['_']. *)

val system_table_names : db -> string list

val set_cdc_sink : db -> (Views.Catalog.event -> unit) -> unit
(** Install the change-data-capture sink: called once per view per
    commit point with that commit's delta (in commit order, on the
    executing thread). The server queues these and fans them out to
    subscribers after the covering group-commit fsync. *)

val attach_manifest : ?synchronous:bool -> db -> Storage.Manifest.t -> unit
(** Install the global commit manifest — from here on it is the single
    commit point for multi-table transactions (see the header). With
    [~synchronous:false] the manifest record is appended at COMMIT but
    fsynced by {!sync_wal} (the server's group commit); the default
    syncs at COMMIT. Txid allocation restarts above the manifest's
    largest recorded txid. *)

val manifest : db -> Storage.Manifest.t option

val set_repl_sink : db -> (repl_event -> unit) -> unit
(** Install the replication sink: called once per committed change in
    commit order, on the executing thread. The server queues events
    and ships them to subscribed replicas only after the covering
    group-commit fsync — nothing leaves the primary before it is
    durable there. *)

val repl_seq : db -> int
(** On a primary, the last emitted stream sequence; on a replica, the
    last applied one. *)

val set_read_only : db -> string option -> unit
(** [set_read_only db (Some primary)] puts the database in replica
    mode: every write statement raises {!Read_only} naming [primary].
    [set_read_only db None] — promotion — makes it writable again. *)

val read_only : db -> string option

val apply_repl_event : db -> repl_event -> unit
(** Apply one shipped event on a replica, bypassing the read-only
    guard. Runs through the same storage/view machinery as the
    primary's own commit path: transactional groups replay under txn
    framing and record a local manifest entry (when one is attached),
    so the replica's crash recovery enforces the same all-or-nothing
    rule; views are maintained incrementally from the same deltas.
    Advances {!repl_seq} to the event's sequence. *)

val repl_bootstrap : db -> repl_event list
(** The full-state prefix for a fresh subscriber: per table (name
    order) an [R_create] and one [R_writes] loading its flat facts,
    then each view definition — all stamped at the current stream
    position. System tables are provider-backed and never ship. *)

val attach_views_wal : db -> path:string -> unit
(** Re-open the view catalog backed by a write-ahead log at [path]:
    existing definitions in the log are replayed (salvage rules — a
    torn tail is trimmed, never fatal) and rematerialized against the
    currently registered tables; definitions whose base is missing are
    dropped and counted on [view.orphaned_total]. Call after table
    loading, before serving. *)

val iter_tables : db -> (string -> Storage.Table.t -> unit) -> unit
(** Apply [f name table] to every registered table. *)

val wal_unsynced : db -> int
(** Bytes written to any table's WAL — or the commit manifest — but
    not yet fsynced: the group commit window across the whole
    database. *)

val sync_wal : db -> unit
(** Fsync every table's WAL ({!Storage.Table.sync_wal}), then the
    commit manifest; the group commit point the server calls once per
    loop tick. Table WALs first, manifest last: a power cut inside the
    sequence can only lose manifest records, and a transaction without
    its manifest record rolls back in every table on recovery. *)

val generation : db -> int
(** Statistics generation — bumped by ANALYZE, DDL and auto-refresh;
    part of every plan-cache key. *)

val set_auto_analyze_threshold : db -> int -> unit
(** Writes (inserted/deleted/updated tuples) after which an analyzed
    table's statistics are re-collected automatically. Default 128;
    clamped to at least 1. *)

val session : db -> session
(** A fresh session (no open transaction). The server creates one per
    connection. *)

val default_session : db -> session
(** The database's shared session — what {!exec} runs under. Created
    lazily, stable thereafter. *)

val in_txn : session -> bool
val session_db : session -> db

val active_txns : db -> int
(** Open transactions across all sessions (the [txn.active] gauge's
    source of truth). *)

val exec : db -> Ast.statement -> Eval.result * Storage.Stats.t
(** Run one statement, returning the result and the access-path
    charges it incurred (summed over all operators). CREATE builds an
    in-memory table without a WAL. Runs under {!default_session}, so
    scripts with [BEGIN]/[COMMIT]/[ROLLBACK] work single-session.
    @raise Eval.Eval_error as {!Eval} does.
    @raise Conflict as {!exec_session} does. *)

val exec_session : session -> Ast.statement -> Eval.result * Storage.Stats.t
(** {!exec} under an explicit session — concurrent sessions get
    independent transactions over the same tables.
    @raise Conflict on a failed [COMMIT] (already rolled back). *)

val rollback_if_open : session -> bool
(** Discard the session's open transaction, if any (the server's
    cleanup when a connection dies mid-transaction). [true] when a
    transaction was rolled back. *)

val session_write_count : session -> int
(** Buffered (uncommitted) write ops in the session's open
    transaction; 0 outside one. *)

val exec_string : db -> string -> (Eval.result * Storage.Stats.t) list

val plan : db -> Ast.select -> plan
(** The plan {!exec} would run for this SELECT, through the LRU plan
    cache (charging [planner.cache_hit] / [planner.cache_miss]). *)

val chosen_path : db -> Ast.select -> access_path
(** [(plan db s).plan_path]. *)

val explain : db -> Ast.select -> string
(** Plan text: the chosen access path, its row estimate, the priced
    candidate table when statistics exist, and the residual filter
    (does not run the query; use [EXPLAIN ANALYZE] /
    {!analyze_select} for that). *)

val last_profile : db -> (string * int) list
(** Pre-order [(label, rows_out)] of the most recently executed
    operator tree — what the server's slow-query log snapshots. Empty
    until a SELECT/COUNT/DML-search has run. *)

val last_estimate : db -> (float * int) option
(** [(estimated, actual)] access-path rows of the most recently
    executed select — the slow-query log's est-vs-actual column.
    [None] until a select has run. *)

(** {2 Per-operator execution metrics}

    What [EXPLAIN ANALYZE] reports. One {!op_metrics} per operator of
    the executed tree, pre-order (parents before their inputs,
    [op_depth] giving the indentation). [op_pages] / [op_records] /
    [op_bytes] / [op_probes] charge only that operator's own storage
    touches; [op_seconds] is inclusive of its inputs. *)

type op_metrics = {
  op_label : string;
  op_depth : int;
  op_rows : int;  (** tuples this operator emitted *)
  op_est : float option;
      (** the planner's row estimate — access-path leaves only *)
  op_pages : int;
  op_records : int;
  op_bytes : int;
  op_probes : int;
  op_pool_hits : int;
      (** of [op_pages], how many were buffer-pool hits — the [pool]
          column ([hits/misses]) of the rendered table *)
  op_pool_misses : int;
  op_seconds : float;
}

type analyze_report = {
  operators : op_metrics list;
  peak_live : int;
      (** high-water mark of decoded tuples buffered simultaneously
          (filter/join queues, blocking canonicalize, result
          collection) — the streaming executor's memory story *)
  analyzed : Eval.result;  (** the select's actual rows *)
}

val analyze_select : db -> Ast.select -> analyze_report
(** Execute the select, returning per-operator metrics alongside its
    rows. @raise Eval.Eval_error as {!exec} does. *)

val render_analyze : analyze_report -> string
(** The aligned text table [EXPLAIN ANALYZE] prints. *)
