(* The physical NFQL back end: access-path choice, differential
   agreement with the in-memory evaluator, and cost behaviour. *)

open Relational
open Nfr_core
open Nfql
open Support

(* Two databases loaded with identical content. *)
let setup ?(rows = 60) () =
  let flat = Workload.Scenarios.university_relationship ~rows () in
  let order = Schema.attributes (Relation.schema flat) in
  let logical = Eval.create () in
  ignore
    (Eval.exec_string logical
       "create table sc (Student string, Course string, Semester string)");
  Relation.iter
    (fun tuple ->
      let values =
        String.concat ","
          (List.map
             (fun value -> Format.asprintf "'%a'" Value.pp value)
             (Tuple.values tuple))
      in
      ignore
        (Eval.exec_string logical
           (Printf.sprintf "insert into sc values (%s)" values)))
    flat;
  let physical = Physical.create () in
  Physical.add_table physical "sc"
    (Storage.Table.load ~ordered_on:(attr "Student") ~order flat);
  (logical, physical)

let rows_of = function
  | Eval.Rows nfr -> nfr
  | Eval.Done msg -> Alcotest.failf "expected rows, got %S" msg

let both_run (logical, physical) query =
  let logical_result =
    match Eval.exec_string logical query with
    | [ result ] -> result
    | _ -> Alcotest.fail "expected one result"
  in
  let physical_result, stats =
    match Physical.exec_string physical query with
    | [ (result, stats) ] -> (result, stats)
    | _ -> Alcotest.fail "expected one result"
  in
  (logical_result, physical_result, stats)

let check_same_rows query (logical_result, physical_result, _) =
  Alcotest.(check bool)
    (Printf.sprintf "same rows for %s" query)
    true
    (Nfr.equal (rows_of logical_result) (rows_of physical_result))

let test_differential_selects () =
  let dbs = setup () in
  List.iter
    (fun query -> check_same_rows query (both_run dbs query))
    [
      "select * from sc";
      "select * from sc where Student = 'student1'";
      "select * from sc where Student CONTAINS 'student2'";
      "select Course from sc where Semester = 'semester1'";
      "select * from sc where Student >= 'student1' and Student <= 'student3'";
      "select * from sc where Student > 'student3'";
      "select * from sc where Student <= 'student2'";
      "select Student, Course from sc where Course = 'course5'";
      "select * from sc where Student = 'student1' or Course = 'course2'";
    ]

let test_access_paths () =
  let _, physical = setup () in
  let path query =
    match Parser.parse_statement query with
    | Ast.Select s -> Physical.chosen_path physical s
    | _ -> Alcotest.fail "expected select"
  in
  (match path "select * from sc" with
  | Physical.Via_scan -> ()
  | _ -> Alcotest.fail "no WHERE -> scan");
  (match path "select * from sc where Student = 'student1'" with
  | Physical.Via_index (a, _) ->
    Alcotest.(check string) "index on Student" "Student" (Attribute.name a)
  | _ -> Alcotest.fail "equality -> index");
  (match path "select * from sc where Course CONTAINS 'course1'" with
  | Physical.Via_index (a, _) ->
    Alcotest.(check string) "index on Course" "Course" (Attribute.name a)
  | _ -> Alcotest.fail "contains -> index");
  (match path "select * from sc where Student >= 'student1' and Student <= 'student4'" with
  | Physical.Via_range (a, _, _) ->
    Alcotest.(check string) "range on Student" "Student" (Attribute.name a)
  | _ -> Alcotest.fail "bounds -> range");
  (* A single bound is enough: the B+-tree range is open on the other
     side instead of falling back to a heap scan. *)
  (match path "select * from sc where Student > 'student5'" with
  | Physical.Via_range (a, Some _, None) ->
    Alcotest.(check string) "open-above range on Student" "Student"
      (Attribute.name a)
  | _ -> Alcotest.fail "lower bound alone -> open-ended range");
  (match path "select * from sc where Student <= 'student2'" with
  | Physical.Via_range (a, None, Some _) ->
    Alcotest.(check string) "open-below range on Student" "Student"
      (Attribute.name a)
  | _ -> Alcotest.fail "upper bound alone -> open-ended range");
  (* Range only works on the ordered attribute. *)
  (match path "select * from sc where Course >= 'course1' and Course <= 'course4'" with
  | Physical.Via_scan -> ()
  | _ -> Alcotest.fail "bounds on unordered attribute -> scan");
  (* Selectivity: with two equality candidates, the planner probes the
     one with the shorter posting list. *)
  match
    path "select * from sc where Semester = 'semester1' and Student = 'student1'"
  with
  | Physical.Via_index (a, _) ->
    (* Students are far more selective than semesters (many students,
       six semesters). *)
    Alcotest.(check string) "picks the selective probe" "Student"
      (Attribute.name a)
  | _ -> Alcotest.fail "two equalities -> index"

let test_index_cheaper_than_scan () =
  let dbs = setup ~rows:200 () in
  let _, _, scan_stats = both_run dbs "select * from sc" in
  let _, _, index_stats =
    both_run dbs "select * from sc where Student = 'student1'"
  in
  Alcotest.(check bool)
    (Printf.sprintf "index reads %d records vs scan %d"
       index_stats.Storage.Stats.records_read scan_stats.Storage.Stats.records_read)
    true
    (index_stats.Storage.Stats.records_read
    < scan_stats.Storage.Stats.records_read)

let test_physical_join_differential () =
  (* Joins agree with the logical evaluator and avoid scanning the
     whole inner table (index nested-loop). *)
  let logical, physical = setup ~rows:80 () in
  (* A second table on both sides. *)
  ignore
    (Eval.exec_string logical
       "create table prereq (Course string, Needs string);\n\
        insert into prereq values ('course1','course0'),('course2','course0'),\
        ('course2','course1');");
  let prereq_flat =
    Nfr.flatten (Option.get (Eval.table logical "prereq"))
  in
  Physical.add_table physical "prereq"
    (Storage.Table.load
       ~order:[ attr "Course"; attr "Needs" ]
       prereq_flat);
  List.iter
    (fun query -> check_same_rows query (both_run (logical, physical) query))
    [
      "select * from sc join prereq";
      "select Student, Needs from sc join prereq where Needs = 'course0'";
    ];
  (match both_run (logical, physical) "select count from sc join prereq" with
  | Eval.Done a, Eval.Done b, _ -> Alcotest.(check string) "same counts" a b
  | _ -> Alcotest.fail "expected counts");
  (* Cost: the index nested-loop probes rather than scanning the big
     side. With prereq tiny (3 rows) and sc large, records read should
     be far below |sc| + |sc⨝prereq| pairs... just assert it is less
     than reading every sc record for every prereq row. *)
  let _, _, stats = both_run (logical, physical) "select count from sc join prereq" in
  let sc_table = Option.get (Physical.table physical "sc") in
  Alcotest.(check bool)
    (Printf.sprintf "records read %d bounded" stats.Storage.Stats.records_read)
    true
    (stats.Storage.Stats.records_read
    < 3 * (Storage.Table.live_records sc_table + 10))

let test_physical_dml () =
  let physical = Physical.create () in
  ignore
    (Physical.exec_string physical
       "create table t (A string, B string);\n\
        insert into t values ('a1','b1'),('a2','b1'),('a1','b2');");
  (match Physical.exec_string physical "select count from t" with
  | [ (Eval.Done msg, _) ] ->
    Alcotest.(check string) "three facts" "3 fact(s) in 2 NFR tuple(s)" msg
  | _ -> Alcotest.fail "expected count");
  ignore (Physical.exec_string physical "delete from t where B = 'b1'");
  (match Physical.exec_string physical "select count from t" with
  | [ (Eval.Done msg, _) ] ->
    Alcotest.(check string) "one fact left" "1 fact(s) in 1 NFR tuple(s)" msg
  | _ -> Alcotest.fail "expected count");
  ignore (Physical.exec_string physical "update t set B = 'b9' where A = 'a1'");
  match Physical.exec_string physical "select * from t where B = 'b9'" with
  | [ (Eval.Rows rows, _) ] ->
    Alcotest.(check int) "updated" 1 (Relation.cardinality (Nfr.flatten rows))
  | _ -> Alcotest.fail "expected rows"

(* Both back ends run the same transactional script and must agree on
   every visible state: inside the transaction (snapshot plus buffered
   writes), after ROLLBACK (the original state), and after COMMIT. *)
let test_txn_differential () =
  let dbs = setup ~rows:30 () in
  let check q = check_same_rows q (both_run dbs q) in
  let run q = ignore (both_run dbs q) in
  check "select * from sc";
  run "begin";
  run "insert into sc values ('sX','cX','t1')";
  run "delete from sc where Student = 'student1'";
  run "update sc set Semester = 'tZ' where Student = 'student2'";
  check "select * from sc";
  check "select * from sc where Semester = 'tZ'";
  check "select Course from sc where Student = 'sX'";
  (match both_run dbs "select count from sc" with
  | Eval.Done a, Eval.Done b, _ ->
    Alcotest.(check string) "same count inside the transaction" a b
  | _ -> Alcotest.fail "expected count summaries");
  run "rollback";
  check "select * from sc";
  run "begin";
  run "insert into sc values ('sX','cX','t1')";
  run "delete from sc where Student = 'student1'";
  run "commit";
  check "select * from sc";
  check "select * from sc where Student = 'sX'"

(* The [Eval_error] text a statement raises, if any; any other
   exception escapes and fails the test. *)
let error_text run q =
  match run q with
  | _ -> None
  | exception Eval.Eval_error msg -> Some msg

let check_same_error (logical, physical) q =
  let expected = error_text (Eval.exec_string logical) q in
  Alcotest.(check bool) (Printf.sprintf "%s is rejected" q) true (expected <> None);
  Alcotest.(check (option string))
    (Printf.sprintf "same error for %s" q)
    expected
    (error_text (Physical.exec_string physical) q)

let check_same_done dbs q =
  match both_run dbs q with
  | Eval.Done a, Eval.Done b, _ -> Alcotest.(check string) q a b
  | _ -> Alcotest.failf "expected an acknowledgement for %s" q

(* Transaction statement errors agree across back ends, text included:
   COMMIT and ROLLBACK outside a transaction, BEGIN twice, DDL and
   EXPLAIN ANALYZE inside one. *)
let test_txn_errors_differential () =
  let dbs = setup ~rows:10 () in
  let run q = ignore (both_run dbs q) in
  check_same_error dbs "commit";
  check_same_error dbs "rollback";
  run "begin";
  check_same_error dbs "begin";
  check_same_error dbs "create table u (X string)";
  check_same_error dbs "drop table sc";
  check_same_error dbs "explain analyze select * from sc";
  (* The failed statements left the transactions open and intact. *)
  check_same_done dbs "insert into sc values ('sX','cX','t1')";
  run "rollback";
  List.iter
    (fun q -> check_same_rows q (both_run dbs q))
    [ "select * from sc" ]

(* Type mismatches raise the same [Eval_error] on both back ends —
   never [Invalid_argument] or [Schema_error] — whether or not the
   UPDATE matches a row, and inside a transaction too. *)
let test_type_errors_differential () =
  let dbs = (Eval.create (), Physical.create ()) in
  let run q = ignore (both_run dbs q) in
  check_same_error dbs "create table u (A int, B int) order A";
  run "create table n (A int, B int)";
  run "insert into n values (1, 2)";
  check_same_error dbs "update n set A = 'x' where B = 2";
  check_same_error dbs "update n set A = 'x' where B = 99";
  run "begin";
  check_same_error dbs "update n set A = 'x' where B = 2";
  check_same_error dbs "update n set A = 'x' where B = 99";
  run "rollback"

(* Acknowledgement texts agree, a duplicate INSERT row included, in
   autocommit and inside a transaction. *)
let test_done_text_differential () =
  let dbs = setup ~rows:10 () in
  let check_all () =
    List.iter (check_same_done dbs)
      [
        "insert into sc values ('sY','cY','t1'), ('sY','cY','t1')";
        "insert into sc values ('sY','cY','t1')";
        "update sc set Semester = 't2' where Student = 'sY'";
        "delete from sc values ('sY','cY','t2')";
        "delete from sc where Student = 'student1'";
      ]
  in
  check_all ();
  check_same_done dbs "begin";
  check_all ();
  check_same_done dbs "commit"

let test_physical_table_stays_canonical () =
  let physical = Physical.create () in
  ignore
    (Physical.exec_string physical
       "create table t (A string, B string);\n\
        insert into t values ('a1','b1'),('a2','b1'),('a1','b2'),('a2','b2');");
  match Physical.table physical "t" with
  | Some table ->
    let snapshot = Storage.Table.snapshot table in
    Alcotest.(check int) "merged to one tuple" 1 (Nfr.cardinality snapshot);
    Alcotest.(check bool) "canonical" true
      (Nest.is_canonical snapshot (Storage.Table.nest_order table))
  | None -> Alcotest.fail "table missing"

let test_physical_explain () =
  let _, physical = setup () in
  match Parser.parse_statement "select * from sc where Student = 'student1'" with
  | Ast.Select s ->
    let plan = Physical.explain physical s in
    let has needle =
      let rec search i =
        i + String.length needle <= String.length plan
        && (String.sub plan i (String.length needle) = needle || search (i + 1))
      in
      search 0
    in
    Alcotest.(check bool) "mentions index probe" true
      (has "inverted-index probe Student");
    Alcotest.(check bool) "mentions residual filter" true (has "residual filter")
  | _ -> Alcotest.fail "expected select"

let analyze_of physical query =
  match Parser.parse_statement query with
  | Ast.Select s -> Physical.analyze_select physical s
  | _ -> Alcotest.fail "expected select"

let test_join_dedup () =
  (* Regression: probing the inner index once per value of an outer
     set component returns the same inner group several times, as
     freshly decoded (physically distinct) tuples. The old [List.memq]
     dedup compared them physically and kept the duplicates; the join
     must dedup structurally. *)
  let physical = Physical.create () in
  ignore
    (Physical.exec_string physical
       "create table t1 (A string, B string);\n\
        insert into t1 values ('a1','b1'),('a1','b2');\n\
        create table t2 (B string, C string);\n\
        insert into t2 values ('b1','c1'),('b2','c1');");
  (* t1 canonicalizes to ({a1},{b1,b2}); t2 to ({b1,b2},{c1}). The
     outer tuple probes B twice, hitting the same inner group both
     times: exactly one joined tuple must come out. *)
  let report = analyze_of physical "select * from t1 join t2" in
  let inlj =
    match
      List.find_opt
        (fun m ->
          String.length m.Physical.op_label >= 4
          && String.sub m.Physical.op_label 0 4 = "inlj")
        report.Physical.operators
    with
    | Some m -> m
    | None -> Alcotest.fail "expected an inlj operator"
  in
  Alcotest.(check int) "duplicate probe hits collapsed" 1 inlj.Physical.op_rows;
  (match report.Physical.analyzed with
  | Eval.Rows rows ->
    Alcotest.(check int) "two facts" 2 (Nfr.expansion_size rows);
    Alcotest.(check int) "one NFR tuple" 1 (Nfr.cardinality rows)
  | Eval.Done _ -> Alcotest.fail "expected rows")

let test_filtered_scan_streams () =
  (* A selective filter over a heap scan must hold O(matches) decoded
     tuples, not the whole table. 100 distinct rows, exactly one
     match. *)
  let physical = Physical.create () in
  let schema = Schema.strings [ "A"; "B" ] in
  let flat =
    List.fold_left Relation.add (Relation.empty schema)
      (List.init 100 (fun i ->
           Tuple.make schema
             [
               Value.of_string (Printf.sprintf "a%03d" i);
               Value.of_string (Printf.sprintf "b%03d" i);
             ]))
  in
  Physical.add_table physical "t"
    (Storage.Table.load ~order:(Schema.attributes schema) flat);
  let report = analyze_of physical "select * from t where A = 'a007'" in
  (match report.Physical.analyzed with
  | Eval.Rows rows -> Alcotest.(check int) "one match" 1 (Nfr.expansion_size rows)
  | Eval.Done _ -> Alcotest.fail "expected rows");
  Alcotest.(check bool)
    (Printf.sprintf "peak live tuples %d bounded by matches, not table size"
       report.Physical.peak_live)
    true
    (report.Physical.peak_live <= 5)

let test_explain_analyze_statement () =
  let has needle text =
    let rec search i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || search (i + 1))
    in
    search 0
  in
  let logical, physical = setup () in
  let query = "explain analyze select * from sc where Student = 'student1'" in
  (match Physical.exec_string physical query with
  | [ (Eval.Done text, stats) ] ->
    Alcotest.(check bool) "per-operator table" true (has "operator" text);
    Alcotest.(check bool) "names the probe" true (has "index-probe sc" text);
    Alcotest.(check bool) "reports peak memory" true (has "peak live tuples" text);
    Alcotest.(check bool) "reports output size" true (has "fact(s)" text);
    (* Running the query charges the statement's stats. *)
    Alcotest.(check bool) "stats charged" true
      (stats.Storage.Stats.index_probes > 0)
  | _ -> Alcotest.fail "expected analyze text");
  match Eval.exec_string logical query with
  | [ Eval.Done text ] ->
    Alcotest.(check bool) "logical: plan text" true (has "plan:" text);
    Alcotest.(check bool) "logical: actual row count" true (has "actual:" text)
  | _ -> Alcotest.fail "expected analyze text"

let test_update_aliasing () =
  (* Regression for the per-victim update: when an assignment maps a
     victim onto another victim's image (or onto itself), no row may
     be lost and set semantics must deduplicate the images. *)
  let physical = Physical.create () in
  ignore
    (Physical.exec_string physical
       "create table t (A string, B string);\n\
        insert into t values ('a1','b1'),('a1','b2');\n\
        update t set B = 'b2' where A = 'a1';");
  (match Physical.exec_string physical "select count from t" with
  | [ (Eval.Done msg, _) ] ->
    Alcotest.(check string) "collapsed to the image" "1 fact(s) in 1 NFR tuple(s)"
      msg
  | _ -> Alcotest.fail "expected count");
  (* Identity update: every victim equals its image, nothing moves. *)
  ignore (Physical.exec_string physical "update t set B = 'b2' where A = 'a1'");
  match Physical.exec_string physical "select * from t" with
  | [ (Eval.Rows rows, _) ] ->
    Alcotest.(check int) "unchanged" 1 (Nfr.expansion_size rows)
  | _ -> Alcotest.fail "expected rows"

(* Differential property: random simple queries agree between the two
   back ends. *)
let prop_differential (flat, order) =
  let schema = Relation.schema flat in
  let logical = Eval.create () in
  let names =
    String.concat ", "
      (List.map (fun a -> Attribute.name a ^ " string") (Schema.attributes schema))
  in
  ignore (Eval.exec_string logical (Printf.sprintf "create table t (%s)" names));
  Relation.iter
    (fun tuple ->
      let values =
        String.concat ","
          (List.map
             (fun value -> Format.asprintf "'%a'" Value.pp value)
             (Tuple.values tuple))
      in
      ignore
        (Eval.exec_string logical
           (Printf.sprintf "insert into t values (%s)" values)))
    flat;
  (* The logical database nests in schema order (CREATE default);
     match it on the physical side regardless of the random order. *)
  ignore order;
  let physical = Physical.create () in
  Physical.add_table physical "t"
    (Storage.Table.load
       ~order:(Schema.attributes schema)
       ~ordered_on:(List.hd (Schema.attributes schema))
       flat);
  List.for_all
    (fun query ->
      match Eval.exec_string logical query, Physical.exec_string physical query with
      | [ Eval.Rows a ], [ (Eval.Rows b, _) ] -> Nfr.equal a b
      | _, _ -> false)
    [
      "select * from t";
      "select * from t where A = 'a1'";
      "select * from t where A CONTAINS 'a0'";
      "select B from t where A >= 'a0' and A <= 'a1'";
    ]

let () =
  Alcotest.run "physical"
    [
      ( "paths",
        [
          Alcotest.test_case "access-path choice" `Quick test_access_paths;
          Alcotest.test_case "index cheaper than scan" `Quick
            test_index_cheaper_than_scan;
          Alcotest.test_case "explain" `Quick test_physical_explain;
          Alcotest.test_case "explain analyze" `Quick
            test_explain_analyze_statement;
        ] );
      ( "executor",
        [
          Alcotest.test_case "join dedups structurally" `Quick test_join_dedup;
          Alcotest.test_case "filtered scan streams" `Quick
            test_filtered_scan_streams;
        ] );
      ( "differential",
        [
          Alcotest.test_case "selected queries" `Quick test_differential_selects;
          qtest ~count:60 "random instances agree"
            (arbitrary_relation_with_order ())
            prop_differential;
          Alcotest.test_case "joins agree (index nested-loop)" `Quick
            test_physical_join_differential;
          Alcotest.test_case "transactions agree" `Quick test_txn_differential;
          Alcotest.test_case "transaction errors agree" `Quick
            test_txn_errors_differential;
          Alcotest.test_case "type errors agree" `Quick
            test_type_errors_differential;
          Alcotest.test_case "acknowledgements agree" `Quick
            test_done_text_differential;
        ] );
      ( "dml",
        [
          Alcotest.test_case "insert/delete/update" `Quick test_physical_dml;
          Alcotest.test_case "update aliasing" `Quick test_update_aliasing;
          Alcotest.test_case "table stays canonical" `Quick
            test_physical_table_stays_canonical;
        ] );
    ]
