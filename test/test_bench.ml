(* Bench bit-rot guard: the fast report generators run inside the test
   suite and must print their landmark conclusions. The heavyweight
   sweeps (E7, E8, E10, X1, X3) are exercised by `dune exec bench/main.exe`
   and its tee'd outputs; here we pin the cheap, deterministic ones. *)

let capture f =
  let buffer = Buffer.create 4096 in
  let old = Format.get_formatter_output_functions () in
  Format.set_formatter_output_functions (Buffer.add_substring buffer)
    (fun () -> ());
  Fun.protect
    ~finally:(fun () ->
      Format.print_flush ();
      let out, flush = old in
      Format.set_formatter_output_functions out flush)
    f;
  Buffer.contents buffer

let contains haystack needle =
  let rec search i =
    i + String.length needle <= String.length haystack
    && (String.sub haystack i (String.length needle) = needle || search (i + 1))
  in
  search 0

let check_report name run landmarks =
  let output = capture run in
  List.iter
    (fun landmark ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S" name landmark)
        true (contains output landmark))
    landmarks

let test_e1 () =
  check_report "E1" Bench_reports.Reports.e1_fig1_fig2
    [
      "Fig. 2, matches: true";
      "Same information as the paper's Fig. 2 R2: true";
      "same tuple count (4): true";
    ]

let test_e2 () =
  check_report "E2" Bench_reports.Reports.e2_example1
    [ "2 distinct irreducible forms"; "the paper's R1"; "the paper's R2" ]

let test_e3 () =
  check_report "E3" Bench_reports.Reports.e3_example2
    [ "minimum irreducible form: 3 tuples" ]

let test_e4 () =
  check_report "E4" Bench_reports.Reports.e4_example3
    [ "Theorem 4 (some form fixed on A): true" ]

let test_e5 () =
  check_report "E5" Bench_reports.Reports.e5_fig3
    [ "canonical <= irreducible: true"; "strictly fewer canonical: true" ]

let test_e6 () =
  check_report "E6" Bench_reports.Reports.e6_theorems [ "24"; "passed" ]

let test_e9 () =
  check_report "E9" Bench_reports.Reports.e9_search_space
    [ "50 students / NFR"; "200 students / NFR" ]

let test_e9b () =
  check_report "E9b" Bench_reports.Reports.e9b_operator_breakdown
    [ "btree-range sc"; "heap-scan sc"; "inlj sc ⋈ rooms" ]

let test_x2 () =
  check_report "X2" Bench_reports.Reports.x2_minimum [ "Example 2 (R3)" ]

let test_x4 () =
  let output = capture Bench_reports.Reports.x4_recovery in
  List.iter
    (fun landmark ->
      Alcotest.(check bool)
        (Printf.sprintf "X4 mentions %S" landmark)
        true (contains output landmark))
    [ "replay exact"; "A clean log replays to the exact pre-crash state" ];
  (* A "NO" in the replay-exact column would mean a recovery miss. *)
  Alcotest.(check bool) "X4 reports no replay miss" false (contains output "NO")

let () =
  Alcotest.run "bench-reports"
    [
      ( "fast-reports",
        [
          Alcotest.test_case "E1 fig1->fig2" `Quick test_e1;
          Alcotest.test_case "E2 example 1" `Quick test_e2;
          Alcotest.test_case "E3 example 2" `Quick test_e3;
          Alcotest.test_case "E4 example 3" `Quick test_e4;
          Alcotest.test_case "E5 fig 3" `Quick test_e5;
          Alcotest.test_case "E6 theorems" `Quick test_e6;
          Alcotest.test_case "E9 search space" `Quick test_e9;
          Alcotest.test_case "E9b operator breakdown" `Quick test_e9b;
          Alcotest.test_case "X2 minimum" `Quick test_x2;
          Alcotest.test_case "X4 recovery" `Quick test_x4;
        ] );
    ]
