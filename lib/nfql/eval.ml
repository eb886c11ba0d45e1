open Relational
open Nfr_core

exception Eval_error = Compile.Error

let error fmt = Compile.error fmt

module String_map = Map.Make (String)

type table_state = {
  nfr : Nfr.t;
  order : Attribute.t list;
}

type db = {
  mutable tables : table_state String_map.t;
  (* The tables map as it stood at BEGIN: the whole transaction story
     of this back end. NFRs are persistent values, so saving the map is
     an O(1) snapshot, rollback is a pointer swap, and commit just
     forgets the save point. *)
  mutable txn_saved : table_state String_map.t option;
  views : Views.Catalog.t;
  (* Committed base-table writes a transaction has buffered for view
     maintenance: views only ever absorb deltas at commit points, so
     autocommit DML applies immediately while in-txn DML queues here
     (oldest first) until COMMIT — and is simply discarded on
     ROLLBACK. *)
  mutable txn_pending : (string * Views.Catalog.op) list;
  (* Read-only system tables (_metrics, _slow_queries, ...) resolved
     through per-db providers; see {!Systab}. *)
  sys : Systab.registry;
}

type result = Stmt.result =
  | Done of string
  | Rows of Nfr.t

let create () =
  {
    tables = String_map.empty;
    txn_saved = None;
    views = Views.Catalog.create ();
    txn_pending = [];
    sys = Systab.create ();
  }

let register_system_table db name provider = Systab.register db.sys name provider

let in_txn db = db.txn_saved <> None
let catalog db = db.views

let names db =
  {
    Stmt.is_table = (fun name -> String_map.mem name db.tables);
    views = db.views;
    sys = db.sys;
  }

let find_table db name =
  match String_map.find_opt name db.tables with
  | Some state -> state
  | None -> error "unknown table %s" name

let apply_committed db base ops =
  ignore
    (Views.Catalog.apply db.views ~base
       ~base_nfr:(lazy (find_table db base).nfr)
       ops)

let note_dml db base ops =
  if ops <> [] then begin
    if in_txn db then db.txn_pending <- db.txn_pending @ List.map (fun op -> (base, op)) ops
    else apply_committed db base ops
  end

(* COMMIT is the views' commit point: fold the buffered writes into
   every dependent view, one delta group per base table. *)
let flush_pending db =
  let pending = db.txn_pending in
  db.txn_pending <- [];
  let bases =
    List.rev
      (List.fold_left
         (fun acc (base, _) -> if List.mem base acc then acc else base :: acc)
         [] pending)
  in
  if List.length bases > 1 then
    Obs.Registry.incr Obs.Registry.global "txn.multi_table_commit";
  List.iter
    (fun base ->
      apply_committed db base
        (List.filter_map
           (fun (b, op) -> if b = base then Some op else None)
           pending))
    bases

let resolve_source db =
  Stmt.resolve_source (names db) ~base:(fun name ->
      let state = find_table db name in
      (state.nfr, state.order))

let exec_explain db (s : Ast.select) =
  let source, order = resolve_source db s.source in
  let schema = Nfr.schema source in
  let buffer = Buffer.create 128 in
  let line fmt = Printf.ksprintf (fun msg -> Buffer.add_string buffer (msg ^ "\n")) fmt in
  line "plan:";
  (match s.source with
  | Ast.From_table name ->
    line "  scan %s (canonical, order %s, %d NFR tuples)" name
      (String.concat "," (List.map Attribute.name order))
      (Nfr.cardinality source)
  | Ast.From_join (l, r) ->
    line "  join %s %s (pairwise component intersection, re-canonicalized)" l r);
  (match s.where with
  | None -> ()
  | Some condition ->
    let predicates, contains = Compile.split_condition schema condition in
    List.iter
      (fun (attribute, value) ->
        line "  contains-filter %s ∋ %s (tuple-level, no expansion)"
          (Attribute.name attribute) (Value.to_string value))
      contains;
    List.iter
      (fun predicate ->
        if Nalgebra.componentwise_selectable predicate then
          line "  select %s (componentwise, no expansion)"
            (Format.asprintf "%a" Predicate.pp predicate)
        else
          line "  select %s (correlated: per-tuple expansion)"
            (Format.asprintf "%a" Predicate.pp predicate))
      predicates);
  (match s.columns with
  | None -> ()
  | Some names -> line "  project %s (re-canonicalized)" (String.concat "," names));
  List.iter (fun name -> line "  nest %s" name) s.nests;
  List.iter (fun name -> line "  unnest %s" name) s.unnests;
  String.trim (Buffer.contents buffer)

let rec exec db statement =
  let names = names db in
  Stmt.check_txn ~in_txn:(in_txn db) statement;
  match statement with
  | Ast.Create (table, columns, order) ->
    let schema, order = Stmt.schema_of_columns columns order in
    Stmt.check_new_name names table;
    db.tables <- String_map.add table { nfr = Nfr.empty schema; order } db.tables;
    Stmt.ack statement
  | Ast.Drop table ->
    Stmt.check_drop_table names table;
    db.tables <- String_map.remove table db.tables;
    Stmt.ack statement
  | Ast.Create_view (view, base, by) ->
    Stmt.create_view names ~view ~base ~by (fun () -> (find_table db base).nfr);
    Stmt.ack statement
  | Ast.Drop_view view ->
    Stmt.drop_view names view;
    Stmt.ack statement
  | Ast.Insert (table, _)
  | Ast.Delete_values (table, _)
  | Ast.Delete_where (table, _)
  | Ast.Update_set (table, _, _) ->
    Stmt.require_writable names table;
    let state = find_table db table in
    let overlay = Stmt.overlay ~order:state.order state.nfr in
    let result = Stmt.exec_dml overlay statement in
    db.tables <- String_map.add table { state with nfr = overlay.nfr } db.tables;
    note_dml db table (List.rev overlay.ops);
    result
  | Ast.Select s -> Rows (fst (Stmt.select (resolve_source db s.source) s))
  | Ast.Select_count (source, condition) ->
    Stmt.count (Stmt.filter (resolve_source db source) condition)
  | Ast.Explain s -> Done (exec_explain db s)
  | Ast.Explain_analyze s ->
    (* The logical back end has no physical operators to meter; report
       the plan annotated with the select's actual output size. The
       physical back end ({!Physical}) renders per-operator counters. *)
    let rows = fst (Stmt.select (resolve_source db s.source) s) in
    Done
      (Printf.sprintf "%s\n  actual: %d fact(s) in %d NFR tuple(s)"
         (exec_explain db s) (Nfr.expansion_size rows) (Nfr.cardinality rows))
  | Ast.Analyze name ->
    (* No planner to feed, but the same statistics text, so the
       differential suite can compare it verbatim with {!Physical}. *)
    Stmt.check_analyze names name;
    Done (Tablestats.summary name (Tablestats.collect (find_table db name).nfr))
  | Ast.Trace inner -> Stmt.trace (fun () -> ignore (exec db inner))
  | Ast.Show table -> Rows (fst (resolve_source db (Ast.From_table table)))
  | Ast.History (series, last) -> Stmt.history db.sys ~series ~last
  | Ast.Begin ->
    db.txn_saved <- Some db.tables;
    db.txn_pending <- [];
    Stmt.ack statement
  | Ast.Commit ->
    db.txn_saved <- None;
    flush_pending db;
    Stmt.ack statement
  | Ast.Rollback ->
    Option.iter (fun saved -> db.tables <- saved) db.txn_saved;
    db.txn_saved <- None;
    db.txn_pending <- [];
    Stmt.ack statement

let exec_string db input =
  List.map (exec db) (Parser.parse_script input)

let table db name =
  Option.map (fun state -> state.nfr) (String_map.find_opt name db.tables)

let table_order db name =
  Option.map (fun state -> state.order) (String_map.find_opt name db.tables)

let pp_result ppf = function
  | Done msg -> Format.pp_print_string ppf msg
  | Rows nfr -> Nfr.pp_table ppf nfr
