(* Bench harness: first print the E1-E10 paper-shaped reports, then
   time the operations behind them with Bechamel — one Test.make per
   experiment target.

     dune exec bench/main.exe            reports + timings
     dune exec bench/main.exe -- reports reports only
     dune exec bench/main.exe -- timings timings only
*)

open Relational
open Nfr_core
open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Timed subjects (prepared outside the timed closures)                *)
(* ------------------------------------------------------------------ *)

let entity_flat = lazy (Workload.Scenarios.university_entity ~students:80 ())

let entity_order flat =
  Theory.fixed_canonical_order (Relation.schema flat) []
    [ Dependency.Mvd.of_names [ "Student" ] [ "Course" ] ]

let entity_canonical =
  lazy
    (let flat = Lazy.force entity_flat in
     Nest.canonical flat (entity_order flat))

let relationship_flat =
  lazy (Workload.Scenarios.university_relationship ~rows:800 ())

let relationship_canonical =
  lazy
    (let flat = Lazy.force relationship_flat in
     Nest.canonical flat (Schema.attributes (Relation.schema flat)))

let insert_victims =
  lazy (Workload.Gen.insert_stream ~seed:11 (Lazy.force relationship_flat) 16)

let delete_victims =
  lazy (Workload.Gen.delete_stream ~seed:12 (Lazy.force relationship_flat) 16)

let stores =
  lazy
    (let flat = Lazy.force entity_flat in
     let nested = Lazy.force entity_canonical in
     ( Storage.Engine.load_flat ~page_size:1024 flat,
       Storage.Engine.load_nfr ~page_size:1024 nested ))

let nfql_db =
  lazy
    (let db = Nfql.Eval.create () in
     ignore
       (Nfql.Eval.exec_string db
          "create table sc (Student string, Course string, Semester string)");
     let flat = Lazy.force relationship_flat in
     List.iter
       (fun tuple ->
         let values =
           List.map
             (fun value -> Format.asprintf "'%a'" Value.pp value)
             (Tuple.values tuple)
         in
         ignore
           (Nfql.Eval.exec_string db
              (Printf.sprintf "insert into sc values (%s)"
                 (String.concat "," values))))
       (List.filteri (fun i _ -> i < 200) (Relation.tuples flat));
     db)

(* E1: the Fig. 2 deletion. *)
let bench_fig2_delete =
  Test.make ~name:"E1-fig2-delete"
    (Staged.stage (fun () ->
         Update.delete ~order:Paperdata.r2_canonical_order Paperdata.r2_fig1
           (Tuple.make Paperdata.st_schema
              [ Value.of_string "s1"; Value.of_string "c1"; Value.of_string "t1" ])))

(* E2: irreducible enumeration of Example 1. *)
let bench_example1_enumerate =
  Test.make ~name:"E2-example1-enumerate"
    (Staged.stage (fun () ->
         Irreducible.enumerate (Nfr.of_relation Paperdata.example1_flat)))

(* E3: canonical-form survey of Example 2. *)
let bench_example2_canonicals =
  Test.make ~name:"E3-example2-canonical-forms"
    (Staged.stage (fun () -> Nest.all_canonical_forms Paperdata.example2_flat))

(* E4: fixedness checks on Example 3. *)
let bench_example3_fixedness =
  Test.make ~name:"E4-example3-fixedness"
    (Staged.stage (fun () ->
         Classify.fixed_on Paperdata.example3_r7
           (Attribute.Set.singleton (Attribute.make "A"))))

(* E5: region classification of one NFR. *)
let bench_fig3_region =
  Test.make ~name:"E5-fig3-region"
    (Staged.stage (fun () -> Classify.region Paperdata.example2_r4))

(* E6: a Theorem 5 check. *)
let bench_theorem5 =
  Test.make ~name:"E6-theorem5-check"
    (Staged.stage (fun () ->
         Theory.check_theorem5 Paperdata.example2_flat
           (Schema.attributes (Relation.schema Paperdata.example2_flat))))

(* E7: a batch of incremental inserts / deletes on an 800-row
   canonical NFR. *)
let bench_insert =
  Test.make ~name:"E7-insert-800"
    (Staged.stage (fun () ->
         let canonical = Lazy.force relationship_canonical in
         let order =
           Schema.attributes (Relation.schema (Lazy.force relationship_flat))
         in
         List.fold_left
           (fun nfr tuple -> Update.insert ~order nfr tuple)
           canonical (Lazy.force insert_victims)))

let bench_delete =
  Test.make ~name:"E7-delete-800"
    (Staged.stage (fun () ->
         let canonical = Lazy.force relationship_canonical in
         let order =
           Schema.attributes (Relation.schema (Lazy.force relationship_flat))
         in
         List.fold_left
           (fun nfr tuple -> Update.delete ~order nfr tuple)
           canonical (Lazy.force delete_victims)))

(* E8: full canonicalization (the compression pipeline's hot loop). *)
let bench_canonicalize_entity =
  Test.make ~name:"E8-canonicalize-entity"
    (Staged.stage (fun () ->
         let flat = Lazy.force entity_flat in
         Nest.canonical flat (entity_order flat)))

let bench_canonicalize_relationship =
  Test.make ~name:"E8-canonicalize-relationship"
    (Staged.stage (fun () ->
         let flat = Lazy.force relationship_flat in
         Nest.canonical flat (Schema.attributes (Relation.schema flat))))

(* E9: point lookups on both stores. *)
let bench_lookup_flat =
  Test.make ~name:"E9-lookup-1NF"
    (Staged.stage (fun () ->
         let flat_store, _ = Lazy.force stores in
         let stats = Storage.Stats.create () in
         Storage.Engine.flat_lookup_eq flat_store ~stats
           (Attribute.make "Student") (Value.of_string "student1")))

let bench_lookup_nfr =
  Test.make ~name:"E9-lookup-NFR"
    (Staged.stage (fun () ->
         let _, nfr_store = Lazy.force stores in
         let stats = Storage.Stats.create () in
         Storage.Engine.nfr_lookup_contains nfr_store ~stats
           (Attribute.make "Student") (Value.of_string "student1")))

(* E10: rebuild-from-scratch alternative for one insert. *)
let bench_rebuild =
  Test.make ~name:"E10-rebuild-800"
    (Staged.stage (fun () ->
         let flat = Lazy.force relationship_flat in
         let order = Schema.attributes (Relation.schema flat) in
         match Lazy.force insert_victims with
         | tuple :: _ -> Nest.canonical (Relation.add flat tuple) order
         | [] -> Lazy.force relationship_canonical))

(* E10 ablation: the same inserts through the postings-indexed store. *)
let bench_insert_indexed =
  Test.make ~name:"E10-insert-indexed-800"
    (Staged.stage (fun () ->
         let canonical = Lazy.force relationship_canonical in
         let order =
           Schema.attributes (Relation.schema (Lazy.force relationship_flat))
         in
         let store = Update.Store.of_nfr ~order canonical in
         List.iter
           (fun tuple -> ignore (Update.Store.insert store tuple))
           (Lazy.force insert_victims)))

(* NFQL end-to-end statement. *)
let bench_nfql_select =
  Test.make ~name:"NFQL-select"
    (Staged.stage (fun () ->
         Nfql.Eval.exec_string (Lazy.force nfql_db)
           "select * from sc where Student CONTAINS 'student1'"))

(* X3: the same statement through the physical executor's paths. *)
let physical_db =
  lazy
    (let flat = Lazy.force relationship_flat in
     let order = Schema.attributes (Relation.schema flat) in
     let db = Nfql.Physical.create () in
     Nfql.Physical.add_table db "sc"
       (Storage.Table.load ~ordered_on:(Attribute.make "Student") ~order flat);
     db)

let bench_physical_index =
  Test.make ~name:"X3-physical-index-probe"
    (Staged.stage (fun () ->
         Nfql.Physical.exec_string (Lazy.force physical_db)
           "select * from sc where Student = 'student1'"))

let bench_physical_range =
  Test.make ~name:"X3-physical-btree-range"
    (Staged.stage (fun () ->
         Nfql.Physical.exec_string (Lazy.force physical_db)
           "select * from sc where Student >= 'student1' and Student <= 'student2'"))

let bench_physical_scan =
  Test.make ~name:"X3-physical-heap-scan"
    (Staged.stage (fun () ->
         Nfql.Physical.exec_string (Lazy.force physical_db) "select * from sc"))

let all_tests =
  [
    bench_fig2_delete; bench_example1_enumerate; bench_example2_canonicals;
    bench_example3_fixedness; bench_fig3_region; bench_theorem5; bench_insert;
    bench_delete; bench_canonicalize_entity; bench_canonicalize_relationship;
    bench_lookup_flat; bench_lookup_nfr; bench_rebuild; bench_insert_indexed;
    bench_nfql_select; bench_physical_index; bench_physical_range;
    bench_physical_scan;
  ]

let run_timings () =
  Format.printf "@.%s@.Bechamel timings (OLS on the monotonic clock)@.%s@."
    (String.make 72 '=') (String.make 72 '=');
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"nf2" all_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let estimate =
        match Analyze.OLS.estimates result with
        | Some [ ns ] -> ns
        | Some _ | None -> Float.nan
      in
      rows := (name, estimate) :: !rows)
    results;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !rows in
  Format.printf "%-44s %16s@." "benchmark" "time/run";
  Format.printf "%s@." (String.make 61 '-');
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Format.printf "%-44s %16s@." name pretty)
    sorted

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if not (List.mem mode [ "reports"; "timings"; "all" ]) then begin
    prerr_endline "usage: main.exe [reports | timings | all]";
    exit 2
  end;
  if mode = "reports" || mode = "all" then Bench_reports.Reports.run_all ();
  if mode = "timings" || mode = "all" then run_timings ();
  Format.printf "@.done.@."
