(* Exit-status regression tests for the CLI's batch modes.

   A failed statement must make `nfr_cli sql` (both -e and --script)
   and a piped `nfr_cli repl` exit non-zero — scripts drive CI and
   cron jobs, where a printed error with exit 0 is a silent failure.
   The piped-repl case is the historical regression: errors were
   printed per line and the process still exited 0. *)

(* The test binary lives in _build/default/test; the CLI is its
   sibling in _build/default/bin, wherever the runner was started. *)
let exe =
  Filename.quote
    (Filename.concat
       (Filename.dirname Sys.executable_name)
       "../bin/nfr_cli.exe")

let run ?stdin_file args =
  let stdin_redirect =
    match stdin_file with
    | Some path -> " < " ^ Filename.quote path
    | None -> " < /dev/null"
  in
  Sys.command (exe ^ " " ^ args ^ stdin_redirect ^ " > /dev/null 2> /dev/null")

(* Like [run], but capture combined stdout+stderr for content checks. *)
let run_capture ?stdin_file args =
  let stdin_redirect =
    match stdin_file with
    | Some path -> " < " ^ Filename.quote path
    | None -> " < /dev/null"
  in
  let out = Filename.temp_file "nfr_cli_test" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let code =
        Sys.command
          (exe ^ " " ^ args ^ stdin_redirect ^ " > " ^ Filename.quote out
         ^ " 2>&1")
      in
      (code, In_channel.with_open_text out In_channel.input_all))

let with_script contents f =
  let path = Filename.temp_file "nfr_cli_test" ".nfql" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc contents);
      f path)

let good_script =
  "create table x (A string, B string);\n\
   insert into x values ('a1', 'b1');\n\
   select * from x\n"

(* Second statement fails: the run must report it in its exit code. *)
let bad_script =
  "create table x (A string, B string);\nselect * from nope\n"

let check_zero name code = Alcotest.(check int) name 0 code

let check_nonzero name code =
  Alcotest.(check bool) (name ^ " exits non-zero") true (code <> 0)

let test_sql_exec () =
  check_zero "sql -e ok" (run ("sql -e " ^ Filename.quote good_script));
  check_nonzero "sql -e failing"
    (run ("sql -e " ^ Filename.quote bad_script))

let test_sql_script_file () =
  with_script good_script (fun path ->
      check_zero "sql --script ok" (run ("sql --script " ^ Filename.quote path)));
  with_script bad_script (fun path ->
      check_nonzero "sql --script failing"
        (run ("sql --script " ^ Filename.quote path)))

let test_sql_stdin () =
  with_script good_script (fun path ->
      check_zero "sql < ok" (run ~stdin_file:path "sql"));
  with_script bad_script (fun path ->
      check_nonzero "sql < failing" (run ~stdin_file:path "sql"))

(* --txn scripts cannot CREATE TABLE (DDL is rejected inside a
   transaction), so they run DML against a --load'ed CSV table. *)
let items_csv = "K:string,V:string\nk1,v1\nk2,v2\n"

let with_csv f =
  let path = Filename.temp_file "nfr_cli_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc items_csv);
      f path)

let txn_good_dml =
  "insert into t values ('k3', 'v3');\n\
   delete from t where K = 'k1';\n\
   select * from t\n"

(* First statement succeeds, second fails: --txn must roll the whole
   run back and exit non-zero (partial failure is all-or-nothing). *)
let txn_bad_dml = "insert into t values ('k3', 'v3');\nselect * from nope\n"

let test_sql_txn () =
  with_csv (fun csv ->
      let load = "--load t=" ^ Filename.quote csv in
      with_script txn_good_dml (fun path ->
          let script = "--script " ^ Filename.quote path in
          check_zero "sql --txn ok"
            (run (String.concat " " [ "sql"; "--txn"; load; script ])));
      with_script txn_bad_dml (fun path ->
          let script = "--script " ^ Filename.quote path in
          check_nonzero "sql --txn partial failure"
            (run (String.concat " " [ "sql"; "--txn"; load; script ]))))

let test_repl_txn () =
  with_csv (fun csv ->
      let load = "--load t=" ^ Filename.quote csv in
      with_script txn_bad_dml (fun path ->
          check_nonzero "repl --txn partial failure"
            (run ~stdin_file:path (String.concat " " [ "repl"; "--txn"; load ])));
      (* An explicit ROLLBACK discards the buffered insert; the SELECT
         that follows (now autocommit) must not show the row. *)
      with_script "insert into t values ('zz', 'zz');\nrollback;\nselect * from t\n"
        (fun path ->
          let contains ~needle haystack =
            let n = String.length needle and h = String.length haystack in
            let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
            at 0
          in
          let code, out =
            run_capture ~stdin_file:path ("repl --txn " ^ load)
          in
          check_zero "repl --txn rollback script" code;
          Alcotest.(check bool) "rolled-back insert invisible" false
            (contains ~needle:"zz" out);
          Alcotest.(check bool) "committed rows visible" true
            (contains ~needle:"k1" out)))

let test_repl_piped () =
  with_script good_script (fun path ->
      check_zero "repl < ok" (run ~stdin_file:path "repl"));
  with_script bad_script (fun path ->
      check_nonzero "repl < failing" (run ~stdin_file:path "repl"))

let () =
  Alcotest.run "cli"
    [
      ( "exit-status",
        [
          Alcotest.test_case "sql -e" `Quick test_sql_exec;
          Alcotest.test_case "sql --script" `Quick test_sql_script_file;
          Alcotest.test_case "sql over stdin" `Quick test_sql_stdin;
          Alcotest.test_case "piped repl" `Quick test_repl_piped;
        ] );
      ( "txn",
        [
          Alcotest.test_case "sql --txn" `Quick test_sql_txn;
          Alcotest.test_case "repl --txn" `Quick test_repl_txn;
        ] );
    ]
