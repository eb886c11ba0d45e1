(* nfr_cli — command-line front end for the NF² library.

   Subcommands:
     nest        nest a CSV relation on one attribute
     canonical   compute a canonical form for a permutation
     forms       survey all canonical forms (and small irreducible ones)
     classify    Def. 6 / Def. 7 report for a canonical form
     update      apply inserts/deletes incrementally, with counters
     normalize   dependency analysis: keys, 3NF/BCNF/4NF, NFR alternative
     sql         run an NFQL script against loaded CSV tables
*)

open Relational
open Nfr_core
open Cmdliner

let attr = Attribute.make

(* ------------------------------------------------------------------ *)
(* Shared helpers and arguments                                        *)
(* ------------------------------------------------------------------ *)

let load_relation path =
  try Ok (Csv.load path) with
  | Sys_error msg -> Error msg
  | Failure msg -> Error msg
  | Storage.Storage_error.Error err -> Error (Storage.Storage_error.to_string err)
  | Schema.Schema_error msg -> Error msg

let parse_order schema = function
  | None -> Ok (Schema.attributes schema)
  | Some spec ->
    let names = String.split_on_char ',' spec |> List.map String.trim in
    let order = List.map attr names in
    (match Nest.check_permutation schema order with
    | () -> Ok order
    | exception Invalid_argument msg -> Error msg)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"CSV input file")

let order_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "order" ] ~docv:"A,B,C"
        ~doc:
          "Nest application order (first attribute nested first). Defaults to \
           the schema order.")

let or_die = function
  | Ok x -> x
  | Error msg ->
    Format.eprintf "error: %s@." msg;
    exit 1

let print_nfr nfr = Format.printf "%a@." Nfr.pp_table nfr

(* ------------------------------------------------------------------ *)
(* nest                                                                *)
(* ------------------------------------------------------------------ *)

let nest_cmd =
  let attribute_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "attr"; "a" ] ~docv:"ATTR" ~doc:"Attribute to nest on")
  in
  let run path attribute_name =
    let flat = or_die (load_relation path) in
    let attribute = attr attribute_name in
    if not (Schema.mem (Relation.schema flat) attribute) then
      or_die (Error (Printf.sprintf "no attribute %s in %s" attribute_name path));
    let nested = Nest.nest (Nfr.of_relation flat) attribute in
    Format.printf "%d flat tuples -> %d NFR tuples@." (Relation.cardinality flat)
      (Nfr.cardinality nested);
    print_nfr nested
  in
  Cmd.v
    (Cmd.info "nest" ~doc:"Nest a CSV relation on one attribute")
    Term.(const run $ file_arg $ attribute_arg)

(* ------------------------------------------------------------------ *)
(* canonical                                                           *)
(* ------------------------------------------------------------------ *)

let canonical_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Also write the result as nested CSV (components joined with |)")
  in
  let run path order_spec out =
    let flat = or_die (load_relation path) in
    let order = or_die (parse_order (Relation.schema flat) order_spec) in
    let canonical = Nest.canonical flat order in
    Format.printf "canonical form for order %s (%d tuples, from %d flat):@."
      (String.concat ", " (List.map Attribute.name order))
      (Nfr.cardinality canonical) (Relation.cardinality flat);
    print_nfr canonical;
    match out with
    | None -> ()
    | Some out_path ->
      Nfr_csv.save out_path canonical;
      Format.printf "written to %s@." out_path
  in
  Cmd.v
    (Cmd.info "canonical" ~doc:"Canonical form V_P of a CSV relation")
    Term.(const run $ file_arg $ order_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* forms                                                               *)
(* ------------------------------------------------------------------ *)

let forms_cmd =
  let irreducible_arg =
    Arg.(
      value & flag
      & info [ "irreducible" ]
          ~doc:"Also enumerate irreducible forms (exponential; small inputs only)")
  in
  let run path enumerate_irreducible =
    let flat = or_die (load_relation path) in
    Format.printf "%-30s %s@." "application order" "tuples";
    List.iter
      (fun (order, form) ->
        Format.printf "%-30s %6d@."
          (String.concat ", " (List.map Attribute.name order))
          (Nfr.cardinality form))
      (Nest.all_canonical_forms flat);
    let best_order, best = Nest.smallest_canonical flat in
    Format.printf "smallest canonical: %s (%d tuples)@."
      (String.concat ", " (List.map Attribute.name best_order))
      (Nfr.cardinality best);
    if enumerate_irreducible then begin
      match Irreducible.enumerate (Nfr.of_relation flat) with
      | forms ->
        let sizes = List.map Nfr.cardinality forms in
        Format.printf "irreducible forms reachable: %d (sizes %s)@."
          (List.length forms)
          (String.concat ", "
             (List.map string_of_int (List.sort_uniq compare sizes)))
      | exception Irreducible.Budget_exceeded msg ->
        Format.printf "irreducible enumeration aborted: %s@." msg
    end
  in
  Cmd.v
    (Cmd.info "forms" ~doc:"Survey canonical (and irreducible) forms")
    Term.(const run $ file_arg $ irreducible_arg)

(* ------------------------------------------------------------------ *)
(* classify                                                            *)
(* ------------------------------------------------------------------ *)

let classify_cmd =
  let run path order_spec =
    let flat = or_die (load_relation path) in
    let order = or_die (parse_order (Relation.schema flat) order_spec) in
    let canonical = Nest.canonical flat order in
    Format.printf "Def. 6 cardinality classes:@.";
    List.iter
      (fun (attribute, cls) ->
        Format.printf "  %-16s %s@." (Attribute.name attribute)
          (Classify.cardinality_name cls))
      (Classify.classify_all canonical);
    (match Classify.fixed_sets canonical with
    | [] -> Format.printf "fixed on: (nothing)@."
    | sets ->
      Format.printf "minimal fixed sets: %s@."
        (String.concat "; "
           (List.map (fun s -> Format.asprintf "%a" Attribute.pp_set s) sets)));
    let region = Classify.region canonical in
    Format.printf "irreducible: %b  canonical (some permutation): %b@."
      region.Classify.irreducible region.Classify.canonical
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Cardinality classes and fixedness (Defs. 6-7)")
    Term.(const run $ file_arg $ order_arg)

(* ------------------------------------------------------------------ *)
(* update                                                              *)
(* ------------------------------------------------------------------ *)

let update_cmd =
  let insert_arg =
    Arg.(
      value & opt_all string []
      & info [ "insert"; "i" ] ~docv:"v1,v2,..."
          ~doc:"Tuple to insert (repeatable; values in schema order)")
  in
  let delete_arg =
    Arg.(
      value & opt_all string []
      & info [ "delete"; "d" ] ~docv:"v1,v2,..."
          ~doc:"Tuple to delete (repeatable)")
  in
  let run path order_spec inserts deletes =
    let flat = or_die (load_relation path) in
    let schema = Relation.schema flat in
    let order = or_die (parse_order schema order_spec) in
    let parse_tuple spec =
      let cells = String.split_on_char ',' spec |> List.map String.trim in
      if List.length cells <> Schema.degree schema then
        or_die (Error (Printf.sprintf "tuple %s has wrong arity" spec))
      else
        Tuple.make schema
          (List.mapi
             (fun i cell ->
               match Value.parse (Schema.type_at schema i) cell with
               | Ok value -> value
               | Error msg -> or_die (Error msg))
             cells)
    in
    let stats = Update.fresh_stats () in
    let canonical = Nest.canonical flat order in
    Format.printf "loaded %d flat tuples; canonical form has %d@."
      (Relation.cardinality flat) (Nfr.cardinality canonical);
    let after_inserts =
      List.fold_left
        (fun nfr spec -> Update.insert ~stats ~order nfr (parse_tuple spec))
        canonical inserts
    in
    let final =
      List.fold_left
        (fun nfr spec ->
          match Update.delete ~stats ~order nfr (parse_tuple spec) with
          | updated -> updated
          | exception Update.Not_in_relation ->
            or_die (Error (Printf.sprintf "tuple %s is not in the relation" spec)))
        after_inserts deletes
    in
    Format.printf
      "after %d insert(s), %d delete(s): %d NFR tuples@.\
       compositions=%d decompositions=%d recons-calls=%d@."
      (List.length inserts) (List.length deletes) (Nfr.cardinality final)
      stats.Update.compositions stats.Update.decompositions
      stats.Update.recons_calls;
    print_nfr final
  in
  Cmd.v
    (Cmd.info "update" ~doc:"Incremental insert/delete with operation counters")
    Term.(const run $ file_arg $ order_arg $ insert_arg $ delete_arg)

(* ------------------------------------------------------------------ *)
(* normalize                                                           *)
(* ------------------------------------------------------------------ *)

(* Dependency specs: "A,B->C,D" for FDs, "A->>B" for MVDs. *)
let parse_side spec = String.split_on_char ',' spec |> List.map String.trim

let split_once spec separator =
  let sep_len = String.length separator in
  let rec find i =
    if i + sep_len > String.length spec then None
    else if String.sub spec i sep_len = separator then
      Some
        ( String.trim (String.sub spec 0 i),
          String.trim (String.sub spec (i + sep_len) (String.length spec - i - sep_len))
        )
    else find (i + 1)
  in
  find 0

let parse_fd spec =
  match split_once spec "->" with
  | Some (lhs, rhs) when not (String.length rhs > 0 && rhs.[0] = '>') ->
    Dependency.Fd.of_names (parse_side lhs) (parse_side rhs)
  | Some _ | None -> or_die (Error (Printf.sprintf "bad FD %S (want A,B->C)" spec))

let parse_mvd spec =
  match split_once spec "->>" with
  | Some (lhs, rhs) -> Dependency.Mvd.of_names (parse_side lhs) (parse_side rhs)
  | None -> or_die (Error (Printf.sprintf "bad MVD %S (want A->>B)" spec))

let normalize_cmd =
  let fd_arg =
    Arg.(
      value & opt_all string []
      & info [ "fd" ] ~docv:"A,B->C" ~doc:"Functional dependency (repeatable)")
  in
  let mvd_arg =
    Arg.(
      value & opt_all string []
      & info [ "mvd" ] ~docv:"A->>B" ~doc:"Multivalued dependency (repeatable)")
  in
  let run path fd_specs mvd_specs =
    let open Dependency in
    let flat = or_die (load_relation path) in
    let schema = Relation.schema flat in
    let fds = List.map parse_fd fd_specs in
    let mvds = List.map parse_mvd mvd_specs in
    (* Instance checks first: refuse dependencies the data violates. *)
    List.iter
      (fun fd ->
        if not (Fd.satisfied_by flat fd) then
          or_die (Error (Format.asprintf "FD %a does not hold in the data" Fd.pp fd)))
      fds;
    List.iter
      (fun mvd ->
        if not (Mvd.satisfied_by flat mvd) then
          or_die
            (Error (Format.asprintf "MVD %a does not hold in the data" Mvd.pp mvd)))
      mvds;
    Format.printf "schema: %s, %d tuples@." (Schema.to_string schema)
      (Relation.cardinality flat);
    if fds <> [] then begin
      let keys = Fd.candidate_keys schema fds in
      Format.printf "candidate keys: %s@."
        (String.concat "; "
           (List.map (fun k -> Format.asprintf "%a" Attribute.pp_set k) keys));
      Format.printf "BCNF: %b  3NF: %b@." (Normalize.is_bcnf schema fds)
        (Normalize.is_3nf schema fds);
      Format.printf "3NF synthesis: %s@."
        (String.concat " | "
           (List.map Schema.to_string (Normalize.synthesize_3nf schema fds)))
    end;
    Format.printf "4NF: %b@." (Normalize.is_4nf schema fds mvds);
    let components = Normalize.fourth_nf_decompose schema fds mvds in
    Format.printf "4NF decomposition: %s@."
      (String.concat " | " (List.map Schema.to_string components));
    (* The paper's alternative: one NFR nested on the dependencies. *)
    let order = Nfr_core.Theory.fixed_canonical_order schema fds mvds in
    let nested = Nfr_core.Nest.canonical flat order in
    Format.printf
      "NFR alternative: one table, nest order %s, %d tuples (vs %d flat)@."
      (String.concat "," (List.map Attribute.name order))
      (Nfr_core.Nfr.cardinality nested)
      (Relation.cardinality flat)
  in
  Cmd.v
    (Cmd.info "normalize"
       ~doc:"Dependency analysis: keys, 3NF/BCNF/4NF, and the NFR alternative")
    Term.(const run $ file_arg $ fd_arg $ mvd_arg)

(* ------------------------------------------------------------------ *)
(* design                                                              *)
(* ------------------------------------------------------------------ *)

let design_cmd =
  let fd_arg =
    Arg.(
      value & opt_all string []
      & info [ "fd" ] ~docv:"A,B->C" ~doc:"Functional dependency (repeatable)")
  in
  let mvd_arg =
    Arg.(
      value & opt_all string []
      & info [ "mvd" ] ~docv:"A->>B" ~doc:"Multivalued dependency (repeatable)")
  in
  let run path fd_specs mvd_specs =
    let open Dependency in
    let flat = or_die (load_relation path) in
    let schema = Relation.schema flat in
    let fds = List.map parse_fd fd_specs in
    let mvds = List.map parse_mvd mvd_specs in
    List.iter
      (fun fd ->
        if not (Fd.satisfied_by flat fd) then
          or_die (Error (Format.asprintf "FD %a does not hold in the data" Fd.pp fd)))
      fds;
    List.iter
      (fun mvd ->
        if not (Mvd.satisfied_by flat mvd) then
          or_die
            (Error (Format.asprintf "MVD %a does not hold in the data" Mvd.pp mvd)))
      mvds;
    let nfr_route = Design.nfr_first schema fds mvds in
    let fourth_route = Design.fourth_nf schema fds mvds in
    Format.printf "%a@.%a@.@." Design.pp nfr_route Design.pp fourth_route;
    Format.printf "evaluated on %s (%d tuples):@." path (Relation.cardinality flat);
    List.iter
      (fun c ->
        Format.printf "  %-10s %d table(s), %d total NFR tuples, %d join(s)@."
          c.Design.name c.Design.table_count c.Design.total_tuples c.Design.joins)
      [ Design.evaluate flat nfr_route; Design.evaluate flat fourth_route ]
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:"Compare the NFR-first and 4NF design strategies on an instance")
    Term.(const run $ file_arg $ fd_arg $ mvd_arg)

(* ------------------------------------------------------------------ *)
(* sql                                                                 *)
(* ------------------------------------------------------------------ *)

let load_spec_arg =
  Arg.(
    value & opt_all string []
    & info [ "load" ] ~docv:"NAME=FILE"
        ~doc:"Load a CSV file as table NAME before running the script \
              (repeatable)")

let split_load_spec spec =
  match String.index_opt spec '=' with
  | None -> or_die (Error (Printf.sprintf "bad --load %s (want NAME=FILE)" spec))
  | Some i ->
    (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))

let guard_nfql run source =
  match run source with
  | () -> Ok ()
  | exception Nfql.Eval.Eval_error msg -> Error msg
  | exception Nfql.Physical.Conflict msg -> Error ("conflict: " ^ msg)
  | exception Nfql.Parser.Parse_error (msg, offset) ->
    Error (Printf.sprintf "parse error at offset %d: %s" offset msg)
  | exception Nfql.Lexer.Lex_error (msg, offset) ->
    Error (Printf.sprintf "lex error at offset %d: %s" offset msg)

(* sql and repl run the storage engine serve runs, printing each
   statement's result with its access costs. *)
let sql_db loads =
  let db = Nfql.Physical.create () in
  List.iter
    (fun spec ->
      let name, path = split_load_spec spec in
      let flat = or_die (load_relation path) in
      let order = Schema.attributes (Relation.schema flat) in
      Nfql.Physical.add_table db name (Storage.Table.load ~order flat))
    loads;
  db

let run_sql db =
  guard_nfql (fun source ->
      List.iter
        (fun (result, stats) ->
          Format.printf "%a@.-- cost: %a@." Nfql.Eval.pp_result result
            Storage.Stats.pp stats)
        (Nfql.Physical.exec_string db source))

let txn_arg =
  Arg.(
    value & flag
    & info [ "txn" ]
        ~doc:
          "Wrap the whole run in one transaction: BEGIN first, COMMIT only \
           if every statement succeeded, ROLLBACK (and exit non-zero) on \
           the first failure — all-or-nothing scripts")

(* --txn plumbing shared by sql and piped repl: open the transaction
   up front, and settle it according to how the body went. A script
   that COMMITs or ROLLBACKs explicitly has already settled — the
   in_txn probe keeps us from double-closing. *)
let txn_begin db =
  match run_sql db "begin" with
  | Ok () -> ()
  | Error msg -> or_die (Error msg)

let txn_settle db ~failed =
  if Nfql.Physical.in_txn (Nfql.Physical.default_session db) then
    if failed then ignore (run_sql db "rollback")
    else
      match run_sql db "commit" with
      | Ok () -> ()
      | Error msg -> or_die (Error msg)

let sql_cmd =
  let exec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "e" ] ~docv:"SCRIPT"
          ~doc:"NFQL script to run (otherwise --script, otherwise stdin)")
  in
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE" ~doc:"Run the NFQL script in FILE")
  in
  let run loads script script_file txn =
    let db = sql_db loads in
    let source =
      match (script, script_file) with
      | Some text, _ -> text
      | None, Some path -> (
        try In_channel.with_open_text path In_channel.input_all
        with Sys_error msg -> or_die (Error msg))
      | None, None -> In_channel.input_all In_channel.stdin
    in
    if txn then txn_begin db;
    (* Batch mode: any failed statement must make the run exit
       non-zero — scripts drive CI and cron jobs, where a printed
       error with exit 0 is a silent failure. Under --txn the failure
       also rolls the whole script back first. *)
    match run_sql db source with
    | Ok () -> if txn then txn_settle db ~failed:false
    | Error msg ->
      if txn then txn_settle db ~failed:true;
      or_die (Error msg)
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run an NFQL script against loaded CSV tables")
    Term.(const run $ load_spec_arg $ exec_arg $ script_arg $ txn_arg)

let repl_cmd =
  let run loads txn =
    let db = sql_db loads in
    let interactive = Unix.isatty Unix.stdin in
    if interactive then
      Format.printf "nfr_cli repl — NFQL statements; ctrl-d to quit@.";
    if txn then txn_begin db;
    let failures = ref 0 in
    let rec loop () =
      if interactive then Format.printf "nfql> @?";
      match In_channel.input_line In_channel.stdin with
      | None -> if interactive then Format.printf "bye@."
      | Some line when String.trim line = "" -> loop ()
      | Some line ->
        (match run_sql db line with
        | Ok () -> ()
        | Error msg ->
          incr failures;
          Format.printf "error: %s@." msg;
          (* Piped --txn is an all-or-nothing script: the first
             failure rolls everything back and stops reading. *)
          if txn && not interactive then begin
            txn_settle db ~failed:true;
            or_die (Error msg)
          end);
        loop ()
    in
    loop ();
    if txn then txn_settle db ~failed:(!failures > 0);
    (* Piped-script (file) mode must not swallow failures into exit 0;
       interactively, errors were already shown and handled. *)
    if (not interactive) && !failures > 0 then
      or_die
        (Error (Printf.sprintf "%d statement(s) failed in batch mode" !failures))
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive NFQL shell")
    Term.(const run $ load_spec_arg $ txn_arg)

(* ------------------------------------------------------------------ *)
(* serve / connect                                                     *)
(* ------------------------------------------------------------------ *)

let port_arg =
  Arg.(
    value & opt int 7744
    & info [ "port"; "p" ] ~docv:"PORT" ~doc:"TCP port (serve: 0 picks a free one)")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Server host to connect to")

let serve_cmd =
  let max_conns_arg =
    Arg.(
      value & opt int Server.Session.default_config.Server.Session.max_connections
      & info [ "max-connections" ] ~docv:"N"
          ~doc:"Admission cap: further connections get a polite overload error")
  in
  let idle_arg =
    Arg.(
      value & opt float Server.Session.default_config.Server.Session.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Reap connections silent for this long")
  in
  let idle_in_txn_arg =
    Arg.(
      value
      & opt float
          Server.Session.default_config.Server.Session.idle_in_txn_timeout
      & info [ "idle-in-txn-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Reap connections idling inside an open transaction for this \
             long (the transaction is rolled back)")
  in
  let request_timeout_arg =
    Arg.(
      value
      & opt float Server.Session.default_config.Server.Session.request_timeout
      & info [ "request-timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget per request (and per dribbling frame)")
  in
  let max_frame_arg =
    Arg.(
      value & opt int Server.Session.default_config.Server.Session.max_payload
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Per-frame payload cap")
  in
  let slow_query_arg =
    Arg.(
      value & opt float Server.Session.default_config.Server.Session.slow_query_s
      & info [ "slow-query" ] ~docv:"SECONDS"
          ~doc:"Log statements slower than this in the METRICS dump")
  in
  let wal_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal-dir" ] ~docv:"DIR"
          ~doc:
            "Give every loaded table a write-ahead log DIR/NAME.wal; on \
             graceful shutdown the tables are checkpointed and closed")
  in
  let wal_sync_interval_arg =
    Arg.(
      value
      & opt float Server.Session.default_config.Server.Session.wal_sync_interval
      & info [ "wal-sync-interval" ] ~docv:"SECONDS"
          ~doc:
            "Minimum seconds between group-commit fsyncs (0 syncs on every \
             loop tick that left WAL bytes unsynced); commit \
             acknowledgements are withheld until the covering fsync")
  in
  let wal_sync_max_batch_arg =
    Arg.(
      value
      & opt int Server.Session.default_config.Server.Session.wal_sync_max_batch
      & info [ "wal-sync-max-batch" ] ~docv:"N"
          ~doc:
            "Force a group-commit fsync once this many connections are \
             waiting on acknowledgements, regardless of the interval")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Record a span tree for every request (inspect with TRACE \
                statements or the slow-query log's trace ids)")
  in
  let scrape_interval_arg =
    Arg.(
      value
      & opt float Server.Session.default_config.Server.Session.scrape_interval
      & info [ "scrape-interval" ] ~docv:"SECONDS"
          ~doc:
            "Seconds between self-scrapes of the metrics registry into the \
             history behind the _metrics system table (and HISTORY)")
  in
  let trace_capacity_arg =
    Arg.(
      value
      & opt int Server.Session.default_config.Server.Session.trace_capacity
      & info [ "trace-capacity" ] ~docv:"N"
          ~doc:"Span ring size: how many spans of recent traces are kept")
  in
  let trace_retain_arg =
    Arg.(
      value & opt int Server.Session.default_config.Server.Session.trace_retain
      & info [ "trace-retain" ] ~docv:"N"
          ~doc:
            "Tail sampling depth: the N slowest complete traces are retained \
             in the _traces system table")
  in
  let slow_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "slow-query-log" ] ~docv:"FILE"
          ~doc:
            "Append every slow-query entry to FILE as a JSON line (trace id, \
             statement hash, per-operator rows, est-vs-actual), flushed per \
             entry")
  in
  let replica_of_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replica-of" ] ~docv:"HOST:PORT"
          ~doc:
            "Start as a read replica of the primary at HOST:PORT: bootstrap \
             its full state over the wire, apply its commit stream, refuse \
             local writes with a typed read-only error ('nfr_cli promote' \
             detaches into a writable primary)")
  in
  let run loads port max_connections idle_timeout idle_in_txn_timeout
      request_timeout max_payload slow_query_s wal_dir wal_sync_interval
      wal_sync_max_batch trace scrape_interval trace_capacity trace_retain
      slow_query_log replica_of =
    if trace then Obs.Span.set_enabled true;
    if scrape_interval <= 0. then
      or_die (Error "--scrape-interval must be positive");
    if trace_capacity < 1 then
      or_die (Error "--trace-capacity must be at least 1");
    if trace_retain < 1 then or_die (Error "--trace-retain must be at least 1");
    let db = Nfql.Physical.create () in
    let tables = ref [] in
    List.iter
      (fun spec ->
        let name, path = split_load_spec spec in
        let flat = or_die (load_relation path) in
        let order = Schema.attributes (Relation.schema flat) in
        let wal_path =
          Option.map (fun dir -> Filename.concat dir (name ^ ".wal")) wal_dir
        in
        (* The serve loop group-commits: WAL appends stay buffered per
           statement and the loop fsyncs once per tick, withholding
           acknowledgements until their bytes are covered. *)
        let table = Storage.Table.load ?wal_path ~synchronous:false ~order flat in
        tables := table :: !tables;
        Nfql.Physical.add_table db name table)
      loads;
    (* View definitions ride their own log in the same directory, so
       CREATE VIEW survives a restart (contents are renested from the
       recovered bases, never logged). *)
    Option.iter
      (fun dir ->
        Nfql.Physical.attach_views_wal db
          ~path:(Filename.concat dir "_views.wal"))
      wal_dir;
    (* The global commit manifest: the single commit point for
       multi-table transactions. Appended at COMMIT, fsynced by the
       same group-commit tick as the table WALs it covers (tables
       first, manifest last), so an acked commit is durable in every
       participating table or rolled back from all of them. *)
    Option.iter
      (fun dir ->
        let manifest =
          Storage.Manifest.open_log (Filename.concat dir "_commit.wal")
        in
        Nfql.Physical.attach_manifest ~synchronous:false db manifest)
      wal_dir;
    let config =
      {
        Server.Session.max_connections;
        max_payload;
        idle_timeout;
        idle_in_txn_timeout;
        request_timeout;
        slow_query_s;
        slow_log_size = Server.Session.default_config.Server.Session.slow_log_size;
        wal_sync_interval;
        wal_sync_max_batch;
        cdc_max_buffered =
          Server.Session.default_config.Server.Session.cdc_max_buffered;
        scrape_interval;
        tick_interval =
          Server.Session.default_config.Server.Session.tick_interval;
        trace_capacity;
        trace_retain;
        slow_log_file = slow_query_log;
      }
    in
    (* Drain-time hook: checkpoint (compact + truncate the WAL at the
       new generation) and close every WAL-backed table, so a graceful
       shutdown leaves a minimal, flushed log behind. *)
    let on_shutdown () =
      List.iter
        (fun table ->
          (try Storage.Table.checkpoint table
           with Storage.Storage_error.Error _ -> ());
          Storage.Table.close table)
        !tables;
      (* Every table just checkpointed (its WAL truncated past all
         recorded transactions), so resetting the manifest is safe —
         nothing provisional remains for it to arbitrate. *)
      Option.iter
        (fun manifest ->
          (try Storage.Manifest.truncate manifest
           with Storage.Storage_error.Error _ -> ());
          Storage.Manifest.close manifest)
        (Nfql.Physical.manifest db)
    in
    let loop =
      try
        Server.Loop.create ~config ~metrics:Obs.Registry.global ~on_shutdown
          ~db ~listen:(`Port port) ()
      with Unix.Unix_error (err, _, _) ->
        or_die
          (Error (Printf.sprintf "cannot listen on port %d: %s" port
                    (Unix.error_message err)))
    in
    Option.iter
      (fun spec ->
        let host, upstream_port =
          match String.rindex_opt spec ':' with
          | Some i -> (
            let host = String.sub spec 0 i in
            let tail = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt tail with
            | Some p when p > 0 && host <> "" -> (host, p)
            | _ ->
              or_die
                (Error (Printf.sprintf "--replica-of: bad HOST:PORT %S" spec)))
          | None ->
            or_die
              (Error (Printf.sprintf "--replica-of: bad HOST:PORT %S" spec))
        in
        try Server.Loop.attach_upstream loop ~host ~port:upstream_port
        with Unix.Unix_error (err, _, _) ->
          or_die
            (Error
               (Printf.sprintf "cannot reach primary %s: %s" spec
                  (Unix.error_message err))))
      replica_of;
    (match Server.Loop.replica_of loop with
    | Some primary ->
      Format.printf
        "nf2d listening on 127.0.0.1:%d (read replica of %s)@."
        (Server.Loop.port loop) primary
    | None ->
      Format.printf "nf2d listening on 127.0.0.1:%d (%d table(s) loaded)@."
        (Server.Loop.port loop) (List.length loads));
    Server.Loop.run loop;
    Format.printf "nf2d drained; bye@."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve loaded CSV tables over the nf2d wire protocol (TCP)")
    Term.(
      const run $ load_spec_arg $ port_arg $ max_conns_arg $ idle_arg
      $ idle_in_txn_arg $ request_timeout_arg $ max_frame_arg $ slow_query_arg
      $ wal_dir_arg $ wal_sync_interval_arg $ wal_sync_max_batch_arg
      $ trace_arg $ scrape_interval_arg $ trace_capacity_arg $ trace_retain_arg
      $ slow_log_arg $ replica_of_arg)

let print_client_response response =
  List.iter
    (fun { Server.Client.stats; reply } ->
      (match reply with
      | `Rows (schema, ntuples) ->
        Format.printf "%a@." Nfr.pp_table (Nfr.of_ntuples schema ntuples)
      | `Msg text -> Format.printf "%s@." text);
      Format.printf "-- cost: %a@." Storage.Stats.pp stats)
    response.Server.Client.results;
  Format.printf "%s@." response.Server.Client.summary

let connect_cmd =
  let exec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "e" ] ~docv:"SCRIPT"
          ~doc:"Send one NFQL script, print the reply, exit")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Print the server's METRICS dump and exit")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to drain and stop, then exit")
  in
  let run host port script metrics shutdown =
    let client =
      try Server.Client.connect ~host ~port ()
      with Server.Client.Error msg -> or_die (Error msg)
    in
    let finally () = Server.Client.close client in
    Fun.protect ~finally (fun () ->
        let guarded f =
          match f () with
          | () -> ()
          | exception Server.Client.Error msg -> or_die (Error msg)
        in
        if metrics then guarded (fun () -> print_string (Server.Client.metrics client))
        else if shutdown then
          guarded (fun () ->
              Server.Client.shutdown client;
              Format.printf "server is draining@.")
        else
          let run_source source =
            match Server.Client.query client source with
            | Ok response ->
              print_client_response response;
              Ok ()
            | Error (code, reason) ->
              Error
                (Printf.sprintf "%s: %s"
                   (Server.Protocol.err_code_name code)
                   reason)
            | exception Server.Client.Error msg -> or_die (Error msg)
          in
          match script with
          | Some source -> (
            match run_source source with Ok () -> () | Error msg -> or_die (Error msg))
          | None ->
            let interactive = Unix.isatty Unix.stdin in
            if interactive then
              Format.printf
                "nfr_cli connect — remote NFQL; ctrl-d to quit@.";
            let failures = ref 0 in
            let rec loop () =
              if interactive then Format.printf "nfql> @?";
              match In_channel.input_line In_channel.stdin with
              | None -> if interactive then Format.printf "bye@."
              | Some line when String.trim line = "" -> loop ()
              | Some line ->
                (match run_source line with
                | Ok () -> ()
                | Error msg ->
                  incr failures;
                  Format.printf "error: %s@." msg);
                loop ()
            in
            loop ();
            if (not interactive) && !failures > 0 then
              or_die
                (Error
                   (Printf.sprintf "%d statement(s) failed in batch mode"
                      !failures)))
  in
  Cmd.v
    (Cmd.info "connect" ~doc:"Remote NFQL REPL against a running nf2d server")
    Term.(
      const run $ host_arg $ port_arg $ exec_arg $ metrics_arg $ shutdown_arg)

let promote_cmd =
  let run host port =
    let client =
      try Server.Client.connect ~host ~port ()
      with Server.Client.Error msg -> or_die (Error msg)
    in
    let finally () = Server.Client.close client in
    Fun.protect ~finally (fun () ->
        match Server.Client.promote client with
        | text -> Format.printf "%s@." text
        | exception Server.Client.Error msg -> or_die (Error msg))
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Detach a read replica from its primary and open it for writes \
          (failover: point it at the nf2d replica's port)")
    Term.(const run $ host_arg $ port_arg)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* Read one series' newest samples off the server's metrics history
   (the HISTORY statement), as (ts, value) ascending. Missing series
   (nothing scraped yet, or a counter never touched) read as []. *)
let fetch_history client series ~last =
  let source = Printf.sprintf "history '%s' last %d" series last in
  match Server.Client.query client source with
  | Error _ -> []
  | exception Server.Client.Error _ -> []
  | Ok response ->
    List.concat_map
      (fun { Server.Client.reply; _ } ->
        match reply with
        | `Msg _ -> []
        | `Rows (schema, ntuples) ->
          let nfr = Nfr.of_ntuples schema ntuples in
          let a_ts = attr "Ts" and a_value = attr "Value" in
          (match
             ( Schema.position_opt schema a_ts,
               Schema.position_opt schema a_value )
           with
          | Some _, Some _ ->
            Relation.tuples (Nfr.flatten nfr)
            |> List.filter_map (fun t ->
                   match
                     ( Tuple.field schema t a_ts,
                       Tuple.field schema t a_value )
                   with
                   | Value.Vfloat ts, Value.Vfloat v -> Some (ts, v)
                   | _ -> None)
            |> List.sort compare
          | _ -> []))
      response.Server.Client.results

let latest samples =
  match List.rev samples with [] -> None | (_, v) :: _ -> Some v

(* Per-second rate of a counter from its two newest scrape points. *)
let rate samples =
  match List.rev samples with
  | (t1, v1) :: (t0, v0) :: _ when t1 > t0 -> Some ((v1 -. v0) /. (t1 -. t0))
  | _ -> None

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 2.
      & info [ "interval"; "n" ] ~docv:"SECONDS"
          ~doc:"Seconds between refreshes")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after N refreshes (0 keeps going until ctrl-c)")
  in
  let run host port interval count =
    if interval <= 0. then or_die (Error "--interval must be positive");
    let client =
      try Server.Client.connect ~host ~port ()
      with Server.Client.Error msg -> or_die (Error msg)
    in
    let finally () = Server.Client.close client in
    Fun.protect ~finally (fun () ->
        let fmt_opt = function
          | None -> "-"
          | Some v ->
            if Float.abs v >= 100. then Printf.sprintf "%.0f" v
            else Printf.sprintf "%.2f" v
        in
        Format.printf
          "%-10s %10s %10s %10s %10s %10s@." "time" "ops/s" "p99(ms)"
          "pool-hit%" "confl/s" "lag(ms)";
        let tick i =
          let qps = rate (fetch_history client "queries.total" ~last:2) in
          let p99 =
            Option.map
              (fun s -> s *. 1000.)
              (latest (fetch_history client "query.seconds.p99" ~last:1))
          in
          let hit = rate (fetch_history client "pool.hit" ~last:2) in
          let miss = rate (fetch_history client "pool.miss" ~last:2) in
          let pool =
            match (hit, miss) with
            | Some h, Some m when h +. m > 0. -> Some (100. *. h /. (h +. m))
            | _ -> None
          in
          let conflicts = rate (fetch_history client "txn.conflict" ~last:2) in
          let lag =
            Option.map
              (fun s -> s *. 1000.)
              (latest (fetch_history client "loop.lag" ~last:1))
          in
          let now = Unix.localtime (Unix.gettimeofday ()) in
          Format.printf "%02d:%02d:%02d   %10s %10s %10s %10s %10s@."
            now.Unix.tm_hour now.Unix.tm_min now.Unix.tm_sec (fmt_opt qps)
            (fmt_opt p99) (fmt_opt pool) (fmt_opt conflicts) (fmt_opt lag);
          if count = 0 || i < count then begin
            Unix.sleepf interval;
            true
          end
          else false
        in
        let i = ref 1 in
        while tick !i do incr i done)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live server vitals from its own metrics history (the _metrics \
          system table): throughput, p99 latency, buffer-pool hit rate, \
          conflicts, loop lag")
    Term.(const run $ host_arg $ port_arg $ interval_arg $ count_arg)

(* ------------------------------------------------------------------ *)
(* trace / metrics                                                     *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let exec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "e" ] ~docv:"SCRIPT"
          ~doc:"NFQL script to trace (otherwise stdin)")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the spans as JSON lines instead of a tree")
  in
  let run loads script json =
    let db = Nfql.Physical.create () in
    List.iter
      (fun spec ->
        let name, path = split_load_spec spec in
        let flat = or_die (load_relation path) in
        let order = Schema.attributes (Relation.schema flat) in
        Nfql.Physical.add_table db name (Storage.Table.load ~order flat))
      loads;
    let source =
      match script with
      | Some text -> text
      | None -> In_channel.input_all In_channel.stdin
    in
    let trace =
      Obs.Span.in_trace (fun trace ->
          let statements =
            Obs.Span.with_span Obs.Span.Parse "parse-script" (fun span ->
                Obs.Span.add_bytes span (String.length source);
                match Nfql.Parser.parse_script source with
                | statements -> statements
                | exception Nfql.Parser.Parse_error (msg, offset) ->
                  or_die
                    (Error
                       (Printf.sprintf "parse error at offset %d: %s" offset msg))
                | exception Nfql.Lexer.Lex_error (msg, offset) ->
                  or_die
                    (Error (Printf.sprintf "lex error at offset %d: %s" offset msg)))
          in
          List.iter
            (fun statement ->
              match Nfql.Physical.exec db statement with
              | _, _ -> ()
              | exception Nfql.Eval.Eval_error msg -> or_die (Error msg))
            statements;
          trace)
    in
    let spans = Obs.Span.spans_of_trace trace in
    if json then
      List.iter (fun span -> print_endline (Obs.Span.to_json span)) spans
    else print_string (Obs.Span.render_tree spans)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run an NFQL script against the storage engine and print its span \
             tree (parse, plan, operators, WAL)")
    Term.(const run $ load_spec_arg $ exec_arg $ json_arg)

let metrics_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("prom", `Prom); ("text", `Text) ]) `Prom
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Scrape format: $(b,prom) (Prometheus text exposition, \
                validated) or $(b,text) (the METRICS dump)")
  in
  let require_arg =
    Arg.(
      value & opt (list string) []
      & info [ "require" ] ~docv:"NAMES"
          ~doc:"Comma-separated metric names that must appear in the scrape \
                (prefix match, so nf2_query_seconds covers its _bucket/_sum/\
                _count series); missing names make the command fail")
  in
  let run host port format required =
    let client =
      try Server.Client.connect ~host ~port ()
      with Server.Client.Error msg -> or_die (Error msg)
    in
    let finally () = Server.Client.close client in
    Fun.protect ~finally (fun () ->
        match format with
        | `Text -> (
          match Server.Client.metrics client with
          | dump -> print_string dump
          | exception Server.Client.Error msg -> or_die (Error msg))
        | `Prom -> (
          match Server.Client.metrics_prom client with
          | exception Server.Client.Error msg -> or_die (Error msg)
          | body -> (
            match Obs.Registry.parse_prometheus body with
            | Error msg ->
              or_die (Error (Printf.sprintf "unparseable exposition: %s" msg))
            | Ok samples ->
              print_string body;
              let satisfied name =
                List.exists
                  (fun { Obs.Registry.s_name; _ } ->
                    String.length s_name >= String.length name
                    && String.sub s_name 0 (String.length name) = name)
                  samples
              in
              let missing = List.filter (fun n -> not (satisfied n)) required in
              if missing <> [] then
                or_die
                  (Error
                     (Printf.sprintf "missing required series: %s"
                        (String.concat ", " missing))))))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Scrape a running nf2d server's metrics; with --format prom the \
             exposition is parsed back and --require names are checked")
    Term.(const run $ host_arg $ port_arg $ format_arg $ require_arg)

let watch_cmd =
  let view_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"VIEW" ~doc:"View to subscribe to")
  in
  let count_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N"
          ~doc:"Exit after printing N deltas (default: stream forever)")
  in
  let run host port view count =
    let client =
      try Server.Client.connect ~host ~port ()
      with Server.Client.Error msg -> or_die (Error msg)
    in
    let finally () = Server.Client.close client in
    Fun.protect ~finally (fun () ->
        (match Server.Client.subscribe client view with
        | ack -> Format.printf "%s@." ack
        | exception Server.Client.Error msg -> or_die (Error msg));
        let print_side label schema = function
          | [] -> ()
          | ntuples ->
            Format.printf "%s@.%a@." label Nfr.pp_table
              (Nfr.of_ntuples schema ntuples)
        in
        let rec stream remaining =
          if remaining <> Some 0 then begin
            match Server.Client.next_delta client with
            | exception Server.Client.Error msg -> or_die (Error msg)
            | delta ->
              Format.printf "-- %s delta #%d@."
                delta.Server.Protocol.d_view delta.Server.Protocol.d_seq;
              print_side "++ added" delta.Server.Protocol.d_schema
                delta.Server.Protocol.d_added;
              print_side "-- removed" delta.Server.Protocol.d_schema
                delta.Server.Protocol.d_removed;
              stream (Option.map pred remaining)
          end
        in
        stream count)
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Subscribe to a view's CDC stream and print each commit's delta \
             (added/removed canonical NFR tuples) as it arrives")
    Term.(const run $ host_arg $ port_arg $ view_arg $ count_arg)

let () =
  let info =
    Cmd.info "nfr_cli" ~version:"1.0.0"
      ~doc:"Non-first-normal-form relations: nest, canonicalize, classify, update, query"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ nest_cmd; canonical_cmd; forms_cmd; classify_cmd; update_cmd;
            normalize_cmd; design_cmd; sql_cmd; repl_cmd; serve_cmd; connect_cmd;
            promote_cmd; top_cmd; watch_cmd; trace_cmd; metrics_cmd ]))
