(* Unit tests for the nf2bench workload generator and statistics. *)

open Nf2perf

let units = 2_000

let run_stream w ~seed ~parity =
  let s = Mix.stream w ~seed ~parity in
  (s, List.init units (fun _ -> Mix.next s))

let sql_of (_, us) = List.concat_map (fun u -> List.map Mix.sql u.Mix.stmts) us

let workloads = List.map (Mix.workload ~smoke:true) Mix.kinds

let test_deterministic () =
  List.iter
    (fun (w : Mix.workload) ->
      let a = sql_of (run_stream w ~seed:7 ~parity:0) in
      let b = sql_of (run_stream w ~seed:7 ~parity:0) in
      let c = sql_of (run_stream w ~seed:8 ~parity:0) in
      Alcotest.(check (list string)) (w.name ^ ": same seed, same stream") a b;
      Alcotest.(check bool) (w.name ^ ": another seed differs") false (a = c);
      Alcotest.(check (list string))
        (w.name ^ ": same inputs per seed")
        (List.map Mix.csv_line (Mix.initial_rows w ~seed:7 "t"))
        (List.map Mix.csv_line (Mix.initial_rows w ~seed:7 "t")))
    workloads

(* Every key and group a stream touches has the stream's parity. *)
let test_partitions_disjoint () =
  List.iter
    (fun (w : Mix.workload) ->
      List.iter
        (fun parity ->
          let _, us = run_stream w ~seed:3 ~parity in
          let owned = function
            | Mix.Point (_, k) -> k mod 2 = parity
            | Mix.Probe (_, g) -> g mod 2 = parity
            | Mix.Groups _ -> false
            | Mix.Insert (_, r) | Mix.Delete (_, r) | Mix.Update (_, r, _) ->
              r.k mod 2 = parity && r.g mod 2 = parity
            | Mix.Begin | Mix.Commit -> true
          in
          List.iter
            (fun u ->
              List.iter
                (fun stmt ->
                  if not (owned stmt) then
                    Alcotest.failf "%s: stream %d touched %s" w.name parity
                      (Mix.sql stmt))
                u.Mix.stmts)
            us)
        [ 0; 1 ])
    workloads

let test_size_steady () =
  List.iter
    (fun (w : Mix.workload) ->
      let s = Mix.stream w ~seed:5 ~parity:1 in
      let initial = w.rows / 2 in
      for _ = 1 to units do
        ignore (Mix.next s);
        List.iter
          (fun table ->
            let size = Mix.part_size (Mix.part s table) in
            if abs (size - initial) > 1 then
              Alcotest.failf "%s: %s drifted to %d rows (from %d)" w.name table size
                initial)
          w.tables
      done)
    workloads

let test_check_read () =
  let w = Mix.workload ~smoke:true Mix.Write_view in
  let s = Mix.stream w ~seed:9 ~parity:0 in
  let parts _ table = Mix.part s table in
  let group = 4 in
  let rows =
    List.filter (fun (r : Mix.row) -> r.g = group) (Mix.initial_rows w ~seed:9 "t")
  in
  Alcotest.(check bool) "the model's group" true
    (Mix.check_read parts (Mix.Probe ("t", group)) rows);
  Alcotest.(check bool) "a row short" false
    (Mix.check_read parts (Mix.Probe ("t", group)) (List.tl rows));
  let tampered = { (List.hd rows) with v = -1 } :: List.tl rows in
  Alcotest.(check bool) "a changed value" false
    (Mix.check_read parts (Mix.Probe ("t", group)) tampered)

let test_tail_rule () =
  let level = Alcotest.(option int) in
  Alcotest.check level "1000 samples: p99 has 10 beyond" (Some 990)
    (Measure.tail_level 1000);
  Alcotest.check level "999 samples: p99 has 9 beyond" (Some 950)
    (Measure.tail_level 999);
  Alcotest.check level "capped at p99" (Some 990) (Measure.tail_level 100_000);
  Alcotest.check level "p99.9 when asked" (Some 999)
    (Measure.tail_level ~cap:999 10_000);
  Alcotest.check level "20 samples: only the median" (Some 500) (Measure.tail_level 20);
  Alcotest.check level "19 samples: nothing" None (Measure.tail_level 19);
  let s = Measure.summarize (List.init 1000 (fun i -> float_of_int (1000 - i))) in
  Alcotest.(check (option (float 0.))) "p50" (Some 500.) s.p50;
  Alcotest.(check (option (pair int (float 0.)))) "p99" (Some (990, 990.)) s.tail;
  let few = Measure.summarize [ 1.; 2.; 3. ] in
  Alcotest.(check (option (float 0.))) "too few for a p50" None few.p50

let test_top_quarter () =
  let check name expected counts =
    Alcotest.(check (list int)) name expected (Measure.top_quarter counts)
  in
  check "the two busiest of eight, ties to the earlier" [ 1; 2 ]
    [| 5; 9; 9; 1; 7; 3; 8; 2 |];
  check "ten of forty" [ 39; 38; 37; 36; 35; 34; 33; 32; 31; 30 ] (Array.init 40 Fun.id);
  check "never empty" [ 1 ] [| 4; 6; 5 |];
  check "no segments" [] [||]

let fixture ~hits ~sum ~count =
  Printf.sprintf
    "# TYPE nf2_planner_cache_hit counter\n\
     nf2_planner_cache_hit %d\n\
     # TYPE nf2_errors counter\n\
     nf2_errors{code=\"a\"} 2\n\
     nf2_errors{code=\"b\"} 3\n\
     # TYPE nf2_query_seconds histogram\n\
     nf2_query_seconds_bucket{le=\"1e-06\"} 0\n\
     nf2_query_seconds_bucket{le=\"+Inf\"} %d\n\
     nf2_query_seconds_sum %g\n\
     nf2_query_seconds_count %d\n"
    hits count sum count

let test_counter_deltas () =
  let before = Measure.parse_scrape (fixture ~hits:10 ~sum:0.5 ~count:100) in
  let after = Measure.parse_scrape (fixture ~hits:25 ~sum:0.8 ~count:400) in
  let close = Alcotest.float 1e-12 in
  Alcotest.check close "counter delta" 15. (Measure.delta before after "planner.cache_hit");
  Alcotest.check close "labels summed" 5. (Measure.get after "errors");
  Alcotest.check close "absent series" 0. (Measure.delta before after "pool.hit");
  Alcotest.check close "histogram mean over the window" 0.001
    (Measure.hist_mean before after "query.seconds");
  Alcotest.check close "empty window" 0. (Measure.hist_mean before before "query.seconds")

let () =
  Alcotest.run "nf2perf"
    [
      ( "mix",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic;
          Alcotest.test_case "partitions disjoint" `Quick test_partitions_disjoint;
          Alcotest.test_case "|R| steady under the mixes" `Quick test_size_steady;
          Alcotest.test_case "reads checked against the model" `Quick test_check_read;
        ] );
      ( "measure",
        [
          Alcotest.test_case "highest percentile with 10 beyond" `Quick test_tail_rule;
          Alcotest.test_case "fastest quarter of the segments" `Quick test_top_quarter;
          Alcotest.test_case "prometheus counter deltas" `Quick test_counter_deltas;
        ] );
    ]
