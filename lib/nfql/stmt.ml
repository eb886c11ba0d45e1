open Relational
open Nfr_core

let error fmt = Compile.error fmt

type result =
  | Done of string
  | Rows of Nfr.t

(* ------------------------------------------------------------------ *)
(* Names                                                               *)
(* ------------------------------------------------------------------ *)

type names = {
  is_table : string -> bool;
  views : Views.Catalog.t;
  sys : Systab.registry;
}

type kind =
  | Table
  | View
  | System

let kind_of names name =
  if Views.Catalog.mem names.views name then Some View
  else if Systab.find names.sys name <> None then Some System
  else if names.is_table name then Some Table
  else None

let noun = function
  | Table -> "table"
  | View -> "view"
  | System -> "system table"

let is_derived names name =
  match kind_of names name with
  | Some (View | System) -> true
  | Some Table | None -> false

type materialized = {
  kind : kind;
  name : string;
  nfr : Nfr.t;
  order : Attribute.t list;
}

let derived names name =
  if Views.Catalog.mem names.views name then
    Some
      {
        kind = View;
        name;
        nfr = Views.Catalog.snapshot names.views name;
        order = Views.Catalog.order names.views name;
      }
  else
    Option.map
      (fun provider ->
        let order, nfr = provider () in
        { kind = System; name; nfr; order })
      (Systab.find names.sys name)

(* Views and system tables have no heap records and belong to no
   transaction snapshot, so neither may take part in a join. *)
let check_join names left right =
  List.iter
    (fun name ->
      match kind_of names name with
      | Some ((View | System) as kind) -> error "%ss cannot appear in JOIN" (noun kind)
      | Some Table | None -> ())
    [ left; right ]

let derived_source names = function
  | Ast.From_table name -> derived names name
  | Ast.From_join (left, right) ->
    check_join names left right;
    None

(* ------------------------------------------------------------------ *)
(* Guards                                                              *)
(* ------------------------------------------------------------------ *)

let require_writable names name =
  match kind_of names name with
  | Some View -> error "%s is a view: views are read-only" name
  | Some System -> error "%s" (Systab.read_only_error name)
  | Some Table | None -> ()

let check_new_name names name =
  if Systab.is_system_name name then error "%s" (Systab.reserved_error name);
  match kind_of names name with
  | Some ((Table | View) as kind) -> error "%s %s already exists" (noun kind) name
  | Some System | None -> ()

let check_drop_table names name =
  match kind_of names name with
  | Some View -> error "%s is a view: use DROP VIEW" name
  | Some System -> error "%s" (Systab.read_only_error name)
  | None -> error "unknown table %s" name
  | Some Table -> (
    match Views.Catalog.dependents names.views ~base:name with
    | [] -> ()
    | deps ->
      error "cannot drop table %s: view %s depends on it" name
        (String.concat ", " deps))

let check_analyze names name =
  match kind_of names name with
  | Some ((View | System) as kind) ->
    error "cannot ANALYZE %s %s: statistics are collected on base tables"
      (noun kind) name
  | Some Table -> ()
  | None -> error "unknown table %s" name

let create_view names ~view ~base ~by base_nfr =
  check_new_name names view;
  (match kind_of names base with
  | Some ((View | System) as kind) ->
    error "%s is a %s: views must be defined over base tables" base (noun kind)
  | Some Table -> ()
  | None -> error "unknown table %s" base);
  match Views.Catalog.define names.views ~view ~base ~by (base_nfr ()) with
  | () -> ()
  | exception Views.Catalog.View_error msg -> error "%s" msg

let drop_view names view =
  match Views.Catalog.drop names.views view with
  | () -> ()
  | exception Views.Catalog.View_error msg -> error "%s" msg

let check_txn ~in_txn statement =
  let refuse ?(why = "") what =
    error "%s is not allowed inside a transaction%s" what why
  in
  match statement with
  | Ast.Begin when in_txn -> error "a transaction is already open"
  | (Ast.Commit | Ast.Rollback) when not in_txn -> error "no transaction is open"
  | _ when not in_txn -> ()
  | Ast.Create _ -> refuse "CREATE TABLE"
  | Ast.Drop _ -> refuse "DROP TABLE"
  | Ast.Create_view _ -> refuse "CREATE VIEW"
  | Ast.Drop_view _ -> refuse "DROP VIEW"
  | Ast.Explain_analyze _ ->
    refuse "EXPLAIN ANALYZE"
      ~why:" (physical operators read committed state, not the snapshot)"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Typing                                                              *)
(* ------------------------------------------------------------------ *)

let type_of_name name =
  match Value.ty_of_name (String.lowercase_ascii name) with
  | Some ty -> ty
  | None -> error "unknown type %s" name

let schema_of_columns columns order =
  let schema =
    match
      Schema.of_names (List.map (fun (name, ty) -> (name, type_of_name ty)) columns)
    with
    | schema -> schema
    | exception Schema.Schema_error msg -> error "%s" msg
  in
  match order with
  | None -> (schema, Schema.attributes schema)
  | Some names -> (
    let attrs = List.map (Compile.attribute_of schema) names in
    match Nest.check_permutation schema attrs with
    | () -> (schema, attrs)
    | exception Invalid_argument msg -> error "%s" msg)

let tuple_of_row schema row =
  if List.length row <> Schema.degree schema then
    error "expected %d values, got %d" (Schema.degree schema) (List.length row);
  match Tuple.make schema (List.map Compile.value_of_literal row) with
  | tuple -> tuple
  | exception Schema.Schema_error msg -> error "%s" msg

let assignments schema pairs =
  List.map
    (fun (name, literal) ->
      let attribute = Compile.attribute_of schema name in
      let value = Compile.value_of_literal literal in
      let expected = Schema.type_of_attribute schema attribute in
      if Value.type_of value <> expected then
        error "column %s expects %s" name (Value.ty_name expected);
      (attribute, value))
    pairs

let image schema resolved tuple =
  List.fold_left
    (fun tuple (attribute, value) -> Tuple.set_field schema tuple attribute value)
    tuple resolved

let not_in tuple table =
  error "tuple %s is not in %s" (Format.asprintf "%a" Tuple.pp tuple) table

(* ------------------------------------------------------------------ *)
(* Result texts                                                        *)
(* ------------------------------------------------------------------ *)

let ack ?(count = 0) statement =
  Done
    (match statement with
    | Ast.Create (name, _, _) -> Printf.sprintf "table %s created" name
    | Ast.Drop name -> Printf.sprintf "table %s dropped" name
    | Ast.Create_view (view, _, _) -> Printf.sprintf "view %s created" view
    | Ast.Drop_view view -> Printf.sprintf "view %s dropped" view
    | Ast.Insert (_, rows) ->
      let skipped = List.length rows - count in
      Printf.sprintf "%d row(s) inserted%s" count
        (if skipped > 0 then Printf.sprintf ", %d duplicate(s) skipped" skipped
         else "")
    | Ast.Delete_values _ -> "1 row deleted"
    | Ast.Delete_where _ -> Printf.sprintf "%d row(s) deleted" count
    | Ast.Update_set _ -> Printf.sprintf "%d row(s) updated" count
    | Ast.Begin -> "transaction open"
    | Ast.Commit -> "transaction committed"
    | Ast.Rollback -> "transaction rolled back"
    | Ast.Select _ | Ast.Select_count _ | Ast.Explain _ | Ast.Explain_analyze _
    | Ast.Analyze _ | Ast.Trace _ | Ast.Show _ | Ast.History _ ->
      invalid_arg "Stmt.ack: not a DDL, DML or transaction statement")

let count filtered =
  Done
    (Printf.sprintf "%d fact(s) in %d NFR tuple(s)" (Nfr.expansion_size filtered)
       (Nfr.cardinality filtered))

(* ------------------------------------------------------------------ *)
(* Persistent NFRs                                                     *)
(* ------------------------------------------------------------------ *)

let filter (nfr, order) where = Compile.apply_where (Nfr.schema nfr) order nfr where

let select ((_, order) as source) (s : Ast.select) =
  let filtered = filter source s.Ast.where in
  (Compile.shape_select filtered ~order s, filtered)

let natural_join left right =
  let joined =
    match Nalgebra.natural_join left right with
    | joined -> joined
    | exception Schema.Schema_error msg -> error "%s" msg
  in
  let order = Schema.attributes (Nfr.schema joined) in
  (Nest.canonicalize joined order, order)

let resolve_source names ~base = function
  | Ast.From_table name -> (
    match derived names name with
    | Some m -> (m.nfr, m.order)
    | None -> base name)
  | Ast.From_join (left, right) ->
    check_join names left right;
    natural_join (fst (base left)) (fst (base right))

let matching_tuples schema nfr condition =
  let predicates, contains = Compile.split_condition schema condition in
  let restricted =
    List.fold_left
      (fun nfr (attribute, value) -> Nalgebra.select_contains attribute value nfr)
      nfr contains
  in
  Relation.tuples
    (List.fold_left
       (fun flat predicate ->
         match Algebra.select predicate flat with
         | selected -> selected
         | exception Algebra.Algebra_error msg -> error "%s" msg)
       (Nfr.flatten restricted) predicates)

type overlay = {
  schema : Schema.t;
  order : Attribute.t list;
  mutable nfr : Nfr.t;
  mutable ops : Views.Catalog.op list;
}

let overlay ~order nfr = { schema = Nfr.schema nfr; order; nfr; ops = [] }

let insert_into ov tuple =
  if Nfr.member_tuple ov.nfr tuple then false
  else begin
    ov.nfr <- Update.insert ~order:ov.order ov.nfr tuple;
    ov.ops <- Views.Catalog.Ins tuple :: ov.ops;
    true
  end

let delete_from ov tuple =
  ov.nfr <- Update.delete ~order:ov.order ov.nfr tuple;
  ov.ops <- Views.Catalog.Del tuple :: ov.ops

(* Every check (typing, victim search, tuple presence) runs before the
   first write, so a failing statement leaves the overlay untouched. *)
let exec_dml ov statement =
  match statement with
  | Ast.Insert (_, rows) ->
    let tuples = List.map (tuple_of_row ov.schema) rows in
    let count =
      List.fold_left
        (fun count tuple -> if insert_into ov tuple then count + 1 else count)
        0 tuples
    in
    ack ~count statement
  | Ast.Delete_values (table, row) -> (
    let tuple = tuple_of_row ov.schema row in
    match delete_from ov tuple with
    | () -> ack statement
    | exception Update.Not_in_relation -> not_in tuple table)
  | Ast.Delete_where (_, condition) ->
    let victims = matching_tuples ov.schema ov.nfr condition in
    List.iter (delete_from ov) victims;
    ack ~count:(List.length victims) statement
  | Ast.Update_set (_, pairs, condition) ->
    let resolved = assignments ov.schema pairs in
    let victims = matching_tuples ov.schema ov.nfr condition in
    (* Image first, then victim, one pair at a time; identity pairs
       are skipped. Assignments are constant, so an image that
       collides with another victim is that victim's own identity
       image, and the pairwise order equals the batch semantics. *)
    List.iter
      (fun victim ->
        let image = image ov.schema resolved victim in
        if not (Tuple.equal image victim) then begin
          ignore (insert_into ov image);
          delete_from ov victim
        end)
      victims;
    ack ~count:(List.length victims) statement
  | _ -> invalid_arg "Stmt.exec_dml: not a DML statement"

(* ------------------------------------------------------------------ *)
(* TRACE and HISTORY                                                   *)
(* ------------------------------------------------------------------ *)

let trace_schema =
  Schema.of_names
    [
      ("Span", Value.Tint);
      ("Parent", Value.Tint);
      ("Event", Value.Tstring);
      ("Label", Value.Tstring);
      ("Ms", Value.Tfloat);
      ("Rows", Value.Tint);
      ("Bytes", Value.Tint);
    ]

let rows_of_spans spans =
  List.fold_left
    (fun acc (sp : Obs.Span.t) ->
      let cells =
        [|
          Vset.singleton (Value.of_int sp.Obs.Span.id);
          Vset.singleton (Value.of_int sp.Obs.Span.parent);
          Vset.singleton (Value.of_string (Obs.Span.event_name sp.Obs.Span.event));
          Vset.singleton (Value.of_string sp.Obs.Span.label);
          Vset.singleton (Value.of_float (Obs.Span.busy sp *. 1000.));
          Vset.singleton (Value.of_int sp.Obs.Span.rows);
          Vset.singleton (Value.of_int sp.Obs.Span.bytes);
        |]
      in
      Nfr.add acc (Ntuple.of_sets_unchecked cells))
    (Nfr.empty trace_schema) spans

(* Reuse the ambient trace scope (the server opens one per request)
   when there is one. *)
let trace run =
  let trace =
    match Obs.Span.current_trace () with
    | Some trace ->
      run ();
      trace
    | None ->
      Obs.Span.in_trace (fun trace ->
          run ();
          trace)
  in
  Rows (rows_of_spans (Obs.Span.spans_of_trace trace))

let history sys ~series ~last =
  match Systab.history_result sys ~series ~last with
  | Ok rows -> Rows rows
  | Error msg -> error "%s" msg
