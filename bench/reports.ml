(* Paper-shaped reports, one per experiment in DESIGN.md's index
   (E1-E10). Each prints the rows the corresponding figure, example or
   claim would show; EXPERIMENTS.md records paper-vs-measured. *)

open Relational
open Nfr_core

let attr = Attribute.make

let banner id title =
  Format.printf "@.%s@.%s — %s@.%s@." (String.make 72 '=') id title
    (String.make 72 '=')

(* Minimal aligned-table printer for report rows. *)
let print_table header rows =
  let widths =
    List.fold_left
      (fun widths row -> List.map2 (fun w cell -> max w (String.length cell)) widths row)
      (List.map String.length header)
      rows
  in
  let pad width s = s ^ String.make (width - String.length s) ' ' in
  let line cells = String.concat "  " (List.map2 pad widths cells) in
  Format.printf "%s@." (line header);
  Format.printf "%s@." (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Format.printf "%s@." (line row)) rows

let order_name order = String.concat "," (List.map Attribute.name order)

(* ------------------------------------------------------------------ *)
(* E1: Fig. 1 -> Fig. 2                                                *)
(* ------------------------------------------------------------------ *)

let e1_fig1_fig2 () =
  banner "E1" "Fig. 1 -> Fig. 2: the update scenario";
  Format.printf "R1 (entity relation, MVD Student ->-> Course | Club):@.%a@.@."
    Nfr.pp_table Paperdata.r1_fig1;
  Format.printf "R2 (relationship relation, no MVD):@.%a@.@." Nfr.pp_table
    Paperdata.r2_fig1;
  Format.printf "Operation: student s1 stops taking course c1.@.@.";
  (* R1: one value removed from one component. *)
  let r1_after =
    Nest.nest
      (Nfr.of_relation
         (Relation.remove (Nfr.flatten Paperdata.r1_fig1)
            (Tuple.make Paperdata.sc_schema
               [ Value.of_string "s1"; Value.of_string "c1"; Value.of_string "b1" ])))
      (attr "Course")
  in
  Format.printf "R1 after (Fig. 2, matches: %b):@.%a@.@."
    (Nfr.equal r1_after Paperdata.r1_fig2)
    Nfr.pp_table r1_after;
  (* R2: the Sec. 4 deletion algorithm. *)
  let stats = Update.fresh_stats () in
  let r2_after =
    Update.delete ~stats ~order:Paperdata.r2_canonical_order Paperdata.r2_fig1
      (Tuple.make Paperdata.st_schema
         [ Value.of_string "s1"; Value.of_string "c1"; Value.of_string "t1" ])
  in
  Format.printf
    "R2 after the Sec. 4 deletion (%d compositions, %d decompositions):@.%a@.@."
    stats.Update.compositions stats.Update.decompositions Nfr.pp_table r2_after;
  Format.printf
    "Same information as the paper's Fig. 2 R2: %b; same tuple count (4): %b@."
    (Relation.equal (Nfr.flatten r2_after) (Nfr.flatten Paperdata.r2_fig2))
    (Nfr.cardinality r2_after = Nfr.cardinality Paperdata.r2_fig2)

(* ------------------------------------------------------------------ *)
(* E2: Example 1                                                       *)
(* ------------------------------------------------------------------ *)

let e2_example1 () =
  banner "E2" "Example 1: one 1NF, several irreducible forms";
  let forms = Irreducible.enumerate (Nfr.of_relation Paperdata.example1_flat) in
  Format.printf "1NF instance has %d tuples; %d distinct irreducible forms:@.@."
    (Relation.cardinality Paperdata.example1_flat)
    (List.length forms);
  List.iteri
    (fun i form ->
      let tag =
        if Nfr.equal form Paperdata.example1_r1 then " (the paper's R1)"
        else if Nfr.equal form Paperdata.example1_r2 then " (the paper's R2)"
        else ""
      in
      Format.printf "form %d — %d tuples%s:@.%a@.@." (i + 1) (Nfr.cardinality form)
        tag Nfr.pp_table form)
    forms

(* ------------------------------------------------------------------ *)
(* E3: Example 2                                                       *)
(* ------------------------------------------------------------------ *)

let e3_example2 () =
  banner "E3" "Example 2: minimal irreducible form beats every canonical form";
  let rows =
    List.map
      (fun (order, form) ->
        [ order_name order; string_of_int (Nfr.cardinality form) ])
      (Nest.all_canonical_forms Paperdata.example2_flat)
  in
  print_table [ "application order"; "tuples" ] rows;
  let minimum, witness =
    Irreducible.minimum_size (Nfr.of_relation Paperdata.example2_flat)
  in
  Format.printf "@.minimum irreducible form: %d tuples (paper: 3 vs 4):@.%a@."
    minimum Nfr.pp_table witness

(* ------------------------------------------------------------------ *)
(* E4: Example 3                                                       *)
(* ------------------------------------------------------------------ *)

let e4_example3 () =
  banner "E4" "Example 3: MVD guarantees only SOME irreducible form is fixed";
  let open Dependency in
  Format.printf "MVD %a holds: %b@.@." Mvd.pp Paperdata.example3_mvd
    (Mvd.satisfied_by Paperdata.example3_flat Paperdata.example3_mvd);
  let a_set = Attribute.Set.singleton (attr "A") in
  let forms = Irreducible.enumerate (Nfr.of_relation Paperdata.example3_flat) in
  let rows =
    List.mapi
      (fun i form ->
        let tag =
          if Nfr.equal form Paperdata.example3_r7 then "R7"
          else if Nfr.equal form Paperdata.example3_r8 then "R8"
          else Printf.sprintf "form %d" (i + 1)
        in
        [
          tag;
          string_of_int (Nfr.cardinality form);
          string_of_bool (Classify.fixed_on form a_set);
        ])
      forms
  in
  print_table [ "irreducible form"; "tuples"; "fixed on A" ] rows;
  Format.printf "@.Theorem 4 (some form fixed on A): %b@."
    (List.exists (fun form -> Classify.fixed_on form a_set) forms)

(* ------------------------------------------------------------------ *)
(* E5: Fig. 3                                                          *)
(* ------------------------------------------------------------------ *)

let e5_fig3 () =
  banner "E5" "Fig. 3: canonical is a proper subset of irreducible; fixed cuts across";
  (* Enumerate irreducible forms of a family of small instances and
     classify each into Fig. 3's regions. *)
  let instances =
    Paperdata.example1_flat :: Paperdata.example2_flat :: Paperdata.example3_flat
    :: List.map
         (fun seed ->
           Workload.Gen.relationship ~seed ~rows:6
             [
               Workload.Gen.column ~domain:3 "A";
               Workload.Gen.column ~domain:3 "B";
               Workload.Gen.column ~domain:2 "C";
             ])
         [ 101; 102; 103; 104; 105 ]
  in
  let total = ref 0 in
  let canonical_count = ref 0 in
  let fixed_count = ref 0 in
  let canonical_and_fixed = ref 0 in
  let irreducible_only = ref 0 in
  List.iter
    (fun flat ->
      let forms = Irreducible.enumerate ~max_states:60_000 (Nfr.of_relation flat) in
      let canonical_forms = List.map snd (Nest.all_canonical_forms flat) in
      List.iter
        (fun form ->
          incr total;
          let is_canonical = List.exists (Nfr.equal form) canonical_forms in
          let is_fixed = Classify.is_fixed_on_some form in
          if is_canonical then incr canonical_count;
          if is_fixed then incr fixed_count;
          if is_canonical && is_fixed then incr canonical_and_fixed;
          if not is_canonical then incr irreducible_only)
        forms)
    instances;
  print_table
    [ "region"; "count" ]
    [
      [ "irreducible forms (all)"; string_of_int !total ];
      [ "  canonical"; string_of_int !canonical_count ];
      [ "  irreducible, not canonical"; string_of_int !irreducible_only ];
      [ "  fixed on some attribute set"; string_of_int !fixed_count ];
      [ "  canonical AND fixed"; string_of_int !canonical_and_fixed ];
    ];
  Format.printf
    "@.Fig. 3's containment (canonical < irreducible, fixed overlapping both):@.\
     canonical <= irreducible: %b; strictly fewer canonical: %b@."
    (!canonical_count <= !total)
    (!canonical_count < !total)

(* ------------------------------------------------------------------ *)
(* E6: Theorems 3-5 on generated instances                             *)
(* ------------------------------------------------------------------ *)

let e6_theorems () =
  banner "E6" "Theorems 3, 4, 5 on generated instances";
  let open Dependency in
  (* Theorem 3: key-FD instances (distinct key per row). *)
  let t3_pass = ref 0 and t3_total = ref 0 in
  List.iter
    (fun seed ->
      let rng = Workload.Prng.create seed in
      let schema = Schema.strings [ "K"; "X"; "Y" ] in
      let rows =
        List.init 7 (fun i ->
            [
              Printf.sprintf "k%d" i;
              Printf.sprintf "x%d" (Workload.Prng.int rng 3);
              Printf.sprintf "y%d" (Workload.Prng.int rng 3);
            ])
      in
      let flat = Relation.of_strings schema rows in
      let fd = Fd.of_names [ "K" ] [ "X"; "Y" ] in
      incr t3_total;
      if Theory.check_theorem3 flat fd then incr t3_pass)
    [ 201; 202; 203; 204; 205 ];
  (* Theorem 4: MVD instances from the entity generator. *)
  let t4_pass = ref 0 and t4_total = ref 0 in
  List.iter
    (fun seed ->
      let flat =
        Workload.Gen.entity ~seed ~entities:3 ~key:"K"
          [
            Workload.Gen.dependent ~domain:3 ~set_min:1 ~set_max:2 "X";
            Workload.Gen.dependent ~domain:3 ~set_min:1 ~set_max:2 "Y";
          ]
      in
      let mvd = Mvd.of_names [ "K" ] [ "X" ] in
      incr t4_total;
      if Theory.check_theorem4 ~max_states:80_000 flat mvd then incr t4_pass)
    [ 301; 302; 303 ];
  (* Theorem 5: random relations, every order. *)
  let t5_pass = ref 0 and t5_total = ref 0 in
  List.iter
    (fun seed ->
      let flat =
        Workload.Gen.relationship ~seed ~rows:10
          [
            Workload.Gen.column ~domain:4 "A";
            Workload.Gen.column ~domain:4 "B";
            Workload.Gen.column ~domain:3 "C";
          ]
      in
      List.iter
        (fun order ->
          incr t5_total;
          if Theory.check_theorem5 flat order then incr t5_pass)
        (Schema.permutations (Relation.schema flat)))
    [ 401; 402; 403; 404 ];
  print_table
    [ "theorem"; "instances"; "passed" ]
    [
      [ "3 (FD => every irreducible fixed)"; string_of_int !t3_total; string_of_int !t3_pass ];
      [ "4 (MVD => some irreducible fixed)"; string_of_int !t4_total; string_of_int !t4_pass ];
      [ "5 (canonical fixed on n-1 domains)"; string_of_int !t5_total; string_of_int !t5_pass ];
    ]

(* ------------------------------------------------------------------ *)
(* E7: Theorem A-4                                                     *)
(* ------------------------------------------------------------------ *)

let mean values =
  match values with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. values /. float_of_int (List.length values)

(* Mean (compositions, decompositions, recons calls) per insert and
   per delete on the canonical form of [flat]. *)
let update_costs flat ~ops =
  let schema = Relation.schema flat in
  let order = Schema.attributes schema in
  let canonical = Nest.canonical flat order in
  let cost apply victims =
    let samples =
      List.map
        (fun tuple ->
          let stats = Update.fresh_stats () in
          apply ~stats tuple;
          ( float_of_int stats.Update.compositions,
            float_of_int stats.Update.decompositions,
            float_of_int stats.Update.recons_calls ))
        victims
    in
    ( mean (List.map (fun (c, _, _) -> c) samples),
      mean (List.map (fun (_, d, _) -> d) samples),
      mean (List.map (fun (_, _, r) -> r) samples) )
  in
  let inserts =
    cost
      (fun ~stats tuple -> ignore (Update.insert ~stats ~order canonical tuple))
      (Workload.Gen.insert_stream ~seed:77 flat ops)
  in
  let deletes =
    cost
      (fun ~stats tuple -> ignore (Update.delete ~stats ~order canonical tuple))
      (Workload.Gen.delete_stream ~seed:78 flat (min ops (Relation.cardinality flat)))
  in
  (Nfr.cardinality canonical, inserts, deletes)

let cost_row label nfr_size (ic, id_, ir) (dc, dd, dr) =
  [
    label;
    string_of_int nfr_size;
    Printf.sprintf "%.2f" ic;
    Printf.sprintf "%.2f" id_;
    Printf.sprintf "%.2f" ir;
    Printf.sprintf "%.2f" dc;
    Printf.sprintf "%.2f" dd;
    Printf.sprintf "%.2f" dr;
  ]

let cost_header first =
  [ first; "NFR"; "ins:comp"; "ins:decomp"; "ins:recons"; "del:comp";
    "del:decomp"; "del:recons" ]

let e7_theorem_a4 () =
  banner "E7" "Theorem A-4: compositions per update are flat in |R*|, grow with degree";
  Format.printf "Sweep over |R*| (degree 3, relationship workload):@.@.";
  let size_rows =
    List.map
      (fun rows ->
        let flat =
          Workload.Gen.relationship ~seed:(500 + rows) ~rows
            [
              Workload.Gen.column ~domain:(max 10 (rows / 3)) "A";
              Workload.Gen.column ~domain:20 "B";
              Workload.Gen.column ~domain:8 "C";
            ]
        in
        let nfr_size, inserts, deletes = update_costs flat ~ops:30 in
        cost_row (string_of_int (Relation.cardinality flat)) nfr_size inserts deletes)
      [ 100; 300; 1000; 3000 ]
  in
  print_table (cost_header "|R*|") size_rows;
  Format.printf "@.Sweep over degree n (|R*| = 400):@.@.";
  let degree_rows =
    List.map
      (fun degree ->
        let flat = Workload.Scenarios.wide ~seed:(600 + degree) ~degree ~rows:400 () in
        let nfr_size, inserts, deletes = update_costs flat ~ops:30 in
        cost_row (string_of_int degree) nfr_size inserts deletes)
      [ 2; 3; 4; 5; 6 ]
  in
  print_table (cost_header "degree n") degree_rows;
  Format.printf "@.Hot-key churn trace (Zipf 1.2, 60%% inserts, degree 3):@.@.";
  let churn_rows =
    List.map
      (fun size ->
        let start =
          Workload.Gen.relationship ~seed:(700 + size) ~rows:size
            [
              Workload.Gen.column ~domain:12 "A";
              Workload.Gen.column ~domain:12 "B";
              Workload.Gen.column ~domain:12 "C";
            ]
        in
        let order = Schema.attributes (Relation.schema start) in
        let trace = Workload.Trace.mixed ~seed:701 ~zipf_s:1.2 start ~ops:300 in
        let store = Update.Store.of_nfr ~order (Nest.canonical start order) in
        let stats = Update.fresh_stats () in
        Workload.Trace.replay trace
          ~insert:(fun t -> ignore (Update.Store.insert ~stats store t))
          ~delete:(fun t -> Update.Store.delete ~stats store t);
        let ops = float_of_int (List.length trace) in
        [
          string_of_int size;
          Printf.sprintf "%.2f" (float_of_int stats.Update.compositions /. ops);
          Printf.sprintf "%.2f" (float_of_int stats.Update.decompositions /. ops);
          Printf.sprintf "%.2f" (float_of_int stats.Update.recons_calls /. ops);
        ])
      [ 100; 400; 1600 ]
  in
  print_table
    [ "|start|"; "comp/op"; "decomp/op"; "recons/op" ]
    churn_rows;
  Format.printf
    "@.Expected shape: the |R*| column varies by 30x while compositions stay\n\
     within a small constant band; the degree column drives the cost up;\n\
     the churn trace shows the same flatness under sustained mixed load.@."

(* ------------------------------------------------------------------ *)
(* E8: compression                                                     *)
(* ------------------------------------------------------------------ *)

let e8_compression () =
  banner "E8" "Tuple-count reduction: NFR vs 1NF across workloads (3 seeds each)";
  (* Each workload is generated under three seeds; we report the mean
     reduction of the best canonical form and its min–max spread. *)
  let measure name build =
    let samples =
      List.map
        (fun seed ->
          let flat = build seed in
          let sizes =
            List.map (fun (_, form) -> Nfr.cardinality form)
              (Nest.all_canonical_forms flat)
          in
          let best = List.fold_left min max_int sizes in
          let worst = List.fold_left max 0 sizes in
          let n = Relation.cardinality flat in
          (n, best, worst, float_of_int n /. float_of_int best))
        [ 42; 142; 242 ]
    in
    let reductions = List.map (fun (_, _, _, r) -> r) samples in
    let n0, best0, worst0, _ = List.hd samples in
    [
      name;
      string_of_int n0;
      string_of_int best0;
      string_of_int worst0;
      Printf.sprintf "%.2fx" (mean reductions);
      Printf.sprintf "%.2f-%.2f"
        (List.fold_left min infinity reductions)
        (List.fold_left max 0. reductions);
    ]
  in
  let rows =
    [
      measure "entity (60 students)" (fun seed ->
          Workload.Scenarios.university_entity ~seed ~students:60 ());
      measure "entity (200 students)" (fun seed ->
          Workload.Scenarios.university_entity ~seed ~students:200 ());
      measure "relationship (600 rows)" (fun seed ->
          Workload.Scenarios.university_relationship ~seed ~rows:600 ());
      measure "bibliography (80 papers)" (fun seed ->
          Workload.Scenarios.bibliography ~seed ~papers:80 ());
      measure "zipf pairs s=0.0 (400 rows)" (fun seed ->
          Workload.Scenarios.skewed_pairs ~seed ~s:0. ~rows:400 ());
      measure "zipf pairs s=1.0 (400 rows)" (fun seed ->
          Workload.Scenarios.skewed_pairs ~seed ~s:1.0 ~rows:400 ());
      measure "zipf pairs s=1.5 (400 rows)" (fun seed ->
          Workload.Scenarios.skewed_pairs ~seed ~s:1.5 ~rows:400 ());
    ]
  in
  print_table
    [
      "workload"; "1NF (seed0)"; "best canon"; "worst canon"; "mean reduction";
      "spread";
    ]
    rows;
  Format.printf
    "@.Expected shape: entity/bibliography (MVD-rich) compress by the product\n\
     of their set sizes; relationship relations barely compress; skew helps.\n\
     Spreads are tight: the effect is structural, not seed luck.@."

(* ------------------------------------------------------------------ *)
(* E9: search space                                                    *)
(* ------------------------------------------------------------------ *)

let e9_search_space () =
  banner "E9" "Realization view: pages/records touched, 1NF vs NFR";
  let open Storage in
  let rows =
    List.concat_map
      (fun students ->
        let flat = Workload.Scenarios.university_entity ~students () in
        let order = Theory.fixed_canonical_order (Relation.schema flat) []
            [ Dependency.Mvd.of_names [ "Student" ] [ "Course" ] ]
        in
        let nested = Nest.canonical flat order in
        let flat_store = Engine.load_flat ~page_size:1024 flat in
        let nfr_store = Engine.load_nfr ~page_size:1024 nested in
        let ff = Engine.flat_footprint flat_store in
        let nf = Engine.nfr_footprint nfr_store in
        let target = Value.of_string "student1" in
        let s_flat = Stats.create () and s_nfr = Stats.create () in
        ignore (Engine.flat_scan_eq flat_store ~stats:s_flat (attr "Student") target);
        ignore
          (Engine.nfr_scan_contains nfr_store ~stats:s_nfr (attr "Student") target);
        let l_flat = Stats.create () and l_nfr = Stats.create () in
        ignore (Engine.flat_lookup_eq flat_store ~stats:l_flat (attr "Student") target);
        ignore
          (Engine.nfr_lookup_contains nfr_store ~stats:l_nfr (attr "Student") target);
        [
          [
            Printf.sprintf "%d students / 1NF" students;
            string_of_int ff.Engine.records;
            string_of_int ff.Engine.pages;
            string_of_int s_flat.Stats.records_read;
            string_of_int l_flat.Stats.records_read;
          ];
          [
            Printf.sprintf "%d students / NFR" students;
            string_of_int nf.Engine.records;
            string_of_int nf.Engine.pages;
            string_of_int s_nfr.Stats.records_read;
            string_of_int l_nfr.Stats.records_read;
          ];
        ])
      [ 50; 200 ]
  in
  print_table
    [ "store"; "records"; "pages"; "scan records"; "lookup records" ]
    rows;
  Format.printf
    "@.Expected shape: the NFR store holds ~5-10x fewer records and pages; a\n\
     scan touches proportionally less; indexed lookups touch one record per\n\
     matching group instead of one per flat fact.@."

(* ------------------------------------------------------------------ *)
(* E10: incremental vs rebuild                                         *)
(* ------------------------------------------------------------------ *)

let e10_incremental () =
  banner "E10" "Maintaining the canonical form: Sec. 4 algorithm vs recompute";
  let rows =
    List.map
      (fun size ->
        let flat =
          Workload.Gen.relationship ~seed:(900 + size) ~rows:size
            [
              Workload.Gen.column ~domain:(max 10 (size / 4)) "A";
              Workload.Gen.column ~domain:15 "B";
              Workload.Gen.column ~domain:6 "C";
            ]
        in
        let order = Schema.attributes (Relation.schema flat) in
        let canonical = Nest.canonical flat order in
        let stream = Workload.Gen.insert_stream ~seed:91 flat 20 in
        let ops = float_of_int (List.length stream) in
        (* Incremental, scan-based candt (the paper's algorithm as
           written). *)
        let t0 = Sys.time () in
        let stats = Update.fresh_stats () in
        let _final =
          List.fold_left
            (fun nfr tuple -> Update.insert ~stats ~order nfr tuple)
            canonical stream
        in
        let incremental_time = Sys.time () -. t0 in
        (* Incremental, postings-indexed candt (Update.Store). *)
        let store = Update.Store.of_nfr ~order canonical in
        let t1 = Sys.time () in
        List.iter (fun tuple -> ignore (Update.Store.insert store tuple)) stream;
        let indexed_time = Sys.time () -. t1 in
        (* Rebuild: re-canonicalize from scratch after each insert. *)
        let t2 = Sys.time () in
        let _final_rebuilt =
          List.fold_left
            (fun acc tuple ->
              let flat' = Relation.add acc tuple in
              ignore (Nest.canonical flat' order);
              flat')
            flat stream
        in
        let rebuild_time = Sys.time () -. t2 in
        [
          string_of_int size;
          Printf.sprintf "%.1f" (float_of_int stats.Update.compositions /. ops);
          Printf.sprintf "%.3f ms" (incremental_time *. 1000. /. ops);
          Printf.sprintf "%.3f ms" (indexed_time *. 1000. /. ops);
          Printf.sprintf "%.3f ms" (rebuild_time *. 1000. /. ops);
          Printf.sprintf "%.1fx" (rebuild_time /. max 1e-9 incremental_time);
        ])
      [ 200; 1000; 4000 ]
  in
  print_table
    [ "|R*|"; "comp/op"; "scan candt/op"; "indexed candt/op"; "rebuild/op"; "speedup" ]
    rows;
  Format.printf
    "@.Expected shape: rebuild cost grows with |R*|; the Sec. 4 algorithm's\n\
     composition count stays flat. The scan-based algorithm's residual time\n\
     growth is candt's linear scan — exactly the physical-representation\n\
     dependence the paper scopes out; the postings-indexed store (ablation)\n\
     removes it.@."

(* ------------------------------------------------------------------ *)
(* X1 (extension): hierarchical depth beyond the paper                 *)
(* ------------------------------------------------------------------ *)

let x1_hierarchy () =
  banner "X1"
    "Extension: relation-valued domains (Sec. 2's third pattern, via lib/hnfr)";
  let rows =
    List.map
      (fun students ->
        let flat = Workload.Scenarios.university_entity ~students () in
        let order =
          Theory.fixed_canonical_order (Relation.schema flat) []
            [ Dependency.Mvd.of_names [ "Student" ] [ "Course" ] ]
        in
        let nfr_form = Nest.canonical flat order in
        let h_flat = Hnfr.Hrel.of_relation flat in
        let course = attr "Course" and club = attr "Club" in
        let h_nested =
          Hnfr.Hrel.nest
            (Hnfr.Hrel.nest h_flat [ course ] ~into:"Courses")
            [ club ] ~into:"Clubs"
        in
        [
          string_of_int students;
          string_of_int (Relation.cardinality flat);
          string_of_int (Nfr.cardinality nfr_form);
          string_of_int (Hnfr.Hrel.cardinality h_nested);
          string_of_int (Hnfr.Hrel.total_atoms h_flat);
          string_of_int (Hnfr.Hrel.total_atoms h_nested);
          string_of_bool (Hnfr.Hrel.is_pnf h_nested);
        ])
      [ 30; 100 ]
  in
  print_table
    [
      "students"; "1NF tuples"; "NFR tuples"; "hnfr tuples"; "atoms flat";
      "atoms nested"; "PNF";
    ]
    rows;
  Format.printf
    "@.The set-valued NFR and the depth-2 hierarchical form agree on tuple\n\
     counts (one per student); the hierarchy also shares atoms across the\n\
     independent Course/Club groups and stays in Partitioned Normal Form.@."

(* ------------------------------------------------------------------ *)
(* X2 (extension): how far is canonical from the true minimum?         *)
(* ------------------------------------------------------------------ *)

let x2_minimum () =
  banner "X2"
    "Extension: minimum-NFR search (the paper: \"it's hard to find the minimum\")";
  let rows =
    List.filter_map
      (fun (name, flat) ->
        let flat_size = Relation.cardinality flat in
        let _, smallest = Nest.smallest_canonical flat in
        let greedy_size = Nfr.cardinality (Minimize.greedy flat) in
        match Minimize.exact ~max_nodes:400_000 flat with
        | exact ->
          Some
            [
              name;
              string_of_int flat_size;
              string_of_int (Nfr.cardinality smallest);
              string_of_int greedy_size;
              string_of_int (Nfr.cardinality exact);
            ]
        | exception Irreducible.Budget_exceeded _ ->
          Some
            [
              name; string_of_int flat_size;
              string_of_int (Nfr.cardinality smallest);
              string_of_int greedy_size; "(budget)";
            ])
      [
        ("Example 1", Paperdata.example1_flat);
        ("Example 2 (R3)", Paperdata.example2_flat);
        ("Example 3", Paperdata.example3_flat);
        ( "random 2x(3,3), 7 rows",
          Workload.Gen.relationship ~seed:1001 ~rows:7
            [ Workload.Gen.column ~domain:3 "A"; Workload.Gen.column ~domain:3 "B" ] );
        ( "random 3x(3,3,2), 8 rows",
          Workload.Gen.relationship ~seed:1002 ~rows:8
            [
              Workload.Gen.column ~domain:3 "A";
              Workload.Gen.column ~domain:3 "B";
              Workload.Gen.column ~domain:2 "C";
            ] );
      ]
  in
  print_table
    [ "instance"; "1NF"; "best canonical"; "greedy"; "exact minimum" ]
    rows;
  Format.printf
    "@.Canonical forms are usually minimum or one off on instances this size;\n\
     Example 2 is the paper's witness that the gap is real.@."

(* ------------------------------------------------------------------ *)
(* X3 (extension): physical NFQL access paths                          *)
(* ------------------------------------------------------------------ *)

let x3_access_paths () =
  banner "X3" "Extension: physical NFQL — access-path costs on one workload";
  let flat = Workload.Scenarios.university_relationship ~rows:1000 () in
  let order = Schema.attributes (Relation.schema flat) in
  let db = Nfql.Physical.create () in
  Nfql.Physical.add_table db "sc"
    (Storage.Table.load ~ordered_on:(attr "Student") ~order flat);
  let run query =
    match Nfql.Physical.exec_string db query with
    | [ (result, stats) ] ->
      let rows =
        match result with
        | Nfql.Eval.Rows nfr -> Relation.cardinality (Nfr.flatten nfr)
        | Nfql.Eval.Done _ -> 0
      in
      [
        query;
        string_of_int rows;
        string_of_int stats.Storage.Stats.records_read;
        string_of_int stats.Storage.Stats.pages_read;
        string_of_int stats.Storage.Stats.index_probes;
      ]
    | _ -> assert false
  in
  print_table
    [ "query"; "facts"; "records"; "pages"; "probes" ]
    [
      run "select * from sc";
      run "select * from sc where Student = 'student3'";
      run "select * from sc where Student CONTAINS 'student3'";
      run "select * from sc where Student >= 'student1' and Student <= 'student2'";
      run "select * from sc where Semester = 'semester1'";
    ];
  Format.printf
    "@.Equality and CONTAINS hit the inverted index; bounded comparisons on\n\
     the ordered attribute use the B+-tree (one-sided bounds walk an\n\
     open-ended leaf range); everything else scans. All paths return the\n\
     same rows as the in-memory evaluator (test_physical.ml).@."

(* ------------------------------------------------------------------ *)
(* E9b: search space per operator                                      *)
(* ------------------------------------------------------------------ *)

(* E9 aggregates pages/records per statement; this breaks the same
   workload down per operator of the pull-based executor (what EXPLAIN
   ANALYZE prints), so the savings can be attributed to the access
   path rather than lost in the statement total. *)
let e9b_operator_breakdown () =
  banner "E9b" "Search space per operator: EXPLAIN ANALYZE on the physical executor";
  let flat = Workload.Scenarios.university_relationship ~rows:1000 () in
  let schema = Relation.schema flat in
  let order = Schema.attributes schema in
  let db = Nfql.Physical.create () in
  Nfql.Physical.add_table db "sc"
    (Storage.Table.load ~ordered_on:(attr "Student") ~order flat);
  (* A second table sharing Course, for the index nested-loop join. *)
  let courses =
    List.sort_uniq Value.compare
      (List.map (fun t -> Tuple.field schema t (attr "Course")) (Relation.tuples flat))
  in
  let room_schema = Schema.strings [ "Course"; "Room" ] in
  let rooms =
    List.fold_left Relation.add (Relation.empty room_schema)
      (List.mapi
         (fun i course ->
           Tuple.make room_schema
             [ course; Value.of_string (Printf.sprintf "room%d" (i mod 3)) ])
         courses)
  in
  Nfql.Physical.add_table db "rooms"
    (Storage.Table.load ~order:(Schema.attributes room_schema) rooms);
  let analyze query =
    match Nfql.Parser.parse_statement query with
    | Nfql.Ast.Select s -> Nfql.Physical.analyze_select db s
    | _ -> assert false
  in
  List.iter
    (fun query ->
      let report = analyze query in
      Format.printf "@.%s@." query;
      print_table
        [ "operator"; "rows"; "pages"; "records"; "probes" ]
        (List.map
           (fun m ->
             [
               String.make (2 * m.Nfql.Physical.op_depth) ' '
               ^ m.Nfql.Physical.op_label;
               string_of_int m.Nfql.Physical.op_rows;
               string_of_int m.Nfql.Physical.op_pages;
               string_of_int m.Nfql.Physical.op_records;
               string_of_int m.Nfql.Physical.op_probes;
             ])
           report.Nfql.Physical.operators);
      Format.printf "peak live tuples: %d@." report.Nfql.Physical.peak_live)
    [
      "select * from sc where Student > 'student5'";
      "select * from sc where Semester < 'semester1'";
      "select * from sc join rooms";
    ];
  Format.printf
    "@.The filtered heap scan streams: its peak live tuples track the match\n\
     count, not the table; the one-sided range reads only the B+-tree tail;\n\
     the join probes the inverted index once per outer value.@."

(* ------------------------------------------------------------------ *)
(* X4 (extension): durability — recovery and salvage                   *)
(* ------------------------------------------------------------------ *)

let x4_recovery () =
  banner "X4" "Extension: durability — WAL recovery, salvage, snapshots";
  let schema = Schema.strings [ "A"; "B"; "C" ] in
  let order = Schema.attributes schema in
  let file_size path =
    In_channel.with_open_bin path In_channel.length |> Int64.to_int
  in
  let rows =
    List.map
      (fun ops ->
        let wal_path = Filename.temp_file "nf2-bench" ".wal" in
        let snap_path = Filename.temp_file "nf2-bench" ".snap" in
        Sys.remove wal_path;
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun p -> if Sys.file_exists p then Sys.remove p)
              [ wal_path; snap_path; snap_path ^ ".tmp" ])
          (fun () ->
            let trace =
              Workload.Trace.mixed ~seed:17 (Relation.empty schema) ~ops
            in
            let table = Storage.Table.create ~wal_path ~order schema in
            List.iter
              (fun op ->
                match op with
                | Workload.Trace.Insert t -> ignore (Storage.Table.insert table t)
                | Workload.Trace.Delete t -> Storage.Table.delete table t)
              trace;
            Storage.Table.save_snapshot table snap_path;
            let facts = Storage.Table.fact_count table in
            Storage.Table.close table;
            let wal_bytes = file_size wal_path in
            (* Clean replay recovers the exact pre-crash state. *)
            let recovered = Storage.Table.recover ~wal_path ~order schema in
            let exact = Storage.Table.fact_count recovered = facts in
            Storage.Table.close recovered;
            (* One flipped byte mid-log: salvage skips exactly the
               damaged frame and resumes at the next CRC-valid one. *)
            let damaged =
              Bytes.of_string
                (In_channel.with_open_bin wal_path In_channel.input_all)
            in
            let mid = Bytes.length damaged / 2 in
            Bytes.set damaged mid
              (Char.chr (Char.code (Bytes.get damaged mid) lxor 0x20));
            Out_channel.with_open_bin wal_path (fun oc ->
                Out_channel.output_bytes oc damaged);
            let salvage = Storage.Wal.replay_salvage wal_path in
            [
              string_of_int ops;
              string_of_int wal_bytes;
              string_of_int (file_size snap_path);
              string_of_int facts;
              (if exact then "yes" else "NO");
              string_of_int (List.length salvage.Storage.Wal.entries);
              string_of_int salvage.Storage.Wal.bytes_skipped;
            ]))
      [ 100; 400; 1600 ]
  in
  print_table
    [
      "ops"; "WAL bytes"; "snapshot bytes"; "facts"; "replay exact";
      "salvaged entries"; "bytes skipped";
    ]
    rows;
  Format.printf
    "@.A clean log replays to the exact pre-crash state; one flipped byte\n\
     costs only the damaged frame — salvage scans to the next CRC-valid\n\
     frame and reports what it skipped. Snapshots (atomic, checksummed,\n\
     generation-stamped against stale logs) cut recovery to the tail since\n\
     the last checkpoint.@."

let run_all () =
  e1_fig1_fig2 ();
  e2_example1 ();
  e3_example2 ();
  e4_example3 ();
  e5_fig3 ();
  e6_theorems ();
  e7_theorem_a4 ();
  e8_compression ();
  e9_search_space ();
  e9b_operator_breakdown ();
  e10_incremental ();
  x1_hierarchy ();
  x2_minimum ();
  x3_access_paths ();
  x4_recovery ()
