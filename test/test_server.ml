(* Wire protocol and event-loop session tests.

   The protocol half is pure: round-trip encode/decode for every frame
   type, byte-at-a-time (decoder-level slowloris) feeding, and a
   seeded fuzz pass — random byte strings, truncations and single-bit
   corruptions of valid frames must yield Need_more / Malformed /
   Oversized, never an exception and never a forged Msg.

   The session half drives a real Server.Loop on a loopback port from
   the same process: the loop only makes progress when [step]ped, so a
   hand-rolled non-blocking client interleaves socket I/O with steps —
   fully deterministic, no threads or forks (the forked many-client
   soak lives in test_netsoak.ml). A fake clock injected through
   [~now] makes idle reaping and slowloris timeouts instantaneous. *)

open Relational
open Nfr_core
open Support
module P = Server.Protocol
module F = Server.Frame

let contains_substring haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Protocol round trips                                                *)
(* ------------------------------------------------------------------ *)

let sample_stats () =
  let stats = Storage.Stats.create () in
  stats.Storage.Stats.pages_read <- 3;
  stats.Storage.Stats.records_read <- 14;
  stats.Storage.Stats.bytes_read <- 159;
  stats.Storage.Stats.index_probes <- 2;
  stats

let sample_rows () =
  let schema = Schema.strings [ "A"; "B"; "C" ] in
  ( schema,
    [
      nt schema [ [ "a1"; "a2" ]; [ "b1" ]; [ "c1"; "c3" ] ];
      nt schema [ [ "a3" ]; [ "b2" ]; [ "c2" ] ];
    ] )

let all_messages () =
  let schema, ntuples = sample_rows () in
  [
    P.Ping;
    P.Pong;
    P.Query "select * from t where A contains 'a1'; show t";
    P.Rows (schema, ntuples);
    P.Rows (schema, []);
    P.Done "ok: 2 statement(s)";
    P.Err (P.Overloaded, "connection cap of 64 reached");
    P.Err (P.Too_large, "");
    P.Err (P.Malformed_frame, "bad magic");
    P.Err (P.Timeout, "request exceeded 10s");
    P.Err (P.Query_failed, "unknown table q");
    P.Err (P.Shutting_down, "server is draining");
    P.Stats (sample_stats ());
    P.Metrics_req;
    P.Metrics "queries.total 7\n";
    P.Metrics_prom_req;
    P.Metrics_prom "# TYPE nf2_queries_total counter\nnf2_queries_total 7\n";
    P.Shutdown;
  ]

let message_equal a b =
  match (a, b) with
  | P.Rows (sa, ra), P.Rows (sb, rb) ->
    Schema.equal sa sb
    && List.length ra = List.length rb
    && List.for_all2 Ntuple.equal ra rb
  | P.Stats a, P.Stats b ->
    a.Storage.Stats.pages_read = b.Storage.Stats.pages_read
    && a.Storage.Stats.records_read = b.Storage.Stats.records_read
    && a.Storage.Stats.bytes_read = b.Storage.Stats.bytes_read
    && a.Storage.Stats.index_probes = b.Storage.Stats.index_probes
  | a, b -> a = b

let test_round_trip () =
  List.iter
    (fun message ->
      match P.decode_message (P.encode_string message) with
      | Ok decoded ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip %s" (P.message_name message))
          true
          (message_equal message decoded)
      | Error reason ->
        Alcotest.failf "%s failed to decode: %s" (P.message_name message)
          reason)
    (all_messages ())

let test_byte_at_a_time () =
  let data = P.encode_string (P.Query "select * from t") in
  let bytes = Bytes.of_string data in
  for len = 0 to Bytes.length bytes - 1 do
    match P.decode bytes ~pos:0 ~len with
    | P.Need_more -> ()
    | P.Msg _ -> Alcotest.failf "complete message at prefix %d" len
    | P.Malformed reason -> Alcotest.failf "prefix %d malformed: %s" len reason
    | P.Oversized _ -> Alcotest.failf "prefix %d oversized" len
  done;
  match P.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
  | P.Msg (P.Query _, consumed) ->
    Alcotest.(check int) "consumed everything" (Bytes.length bytes) consumed
  | _ -> Alcotest.fail "full frame did not decode"

let test_back_to_back_frames () =
  let buffer = Buffer.create 128 in
  P.encode buffer P.Ping;
  P.encode buffer (P.Query "show t");
  P.encode buffer P.Shutdown;
  let bytes = Bytes.of_string (Buffer.contents buffer) in
  let rec drain pos acc =
    if pos >= Bytes.length bytes then List.rev acc
    else
      match P.decode bytes ~pos ~len:(Bytes.length bytes) with
      | P.Msg (message, consumed) -> drain (pos + consumed) (message :: acc)
      | _ -> Alcotest.fail "stream of frames did not decode"
  in
  match drain 0 [] with
  | [ P.Ping; P.Query "show t"; P.Shutdown ] -> ()
  | other -> Alcotest.failf "decoded %d frames wrong" (List.length other)

let test_fuzz_random_bytes () =
  let rng = Workload.Prng.create 0xF00D in
  for _ = 1 to 5000 do
    let len = Workload.Prng.int rng 96 in
    let bytes =
      Bytes.init len (fun _ -> Char.chr (Workload.Prng.int rng 256))
    in
    (* Totality is the property: any result constructor is fine. *)
    match P.decode bytes ~pos:0 ~len with
    | P.Msg _ | P.Need_more | P.Oversized _ | P.Malformed _ -> ()
    | exception exn ->
      Alcotest.failf "decoder raised on random input: %s"
        (Printexc.to_string exn)
  done

let test_fuzz_truncation () =
  List.iter
    (fun message ->
      let data = P.encode_string message in
      let bytes = Bytes.of_string data in
      for len = 0 to Bytes.length bytes - 1 do
        match P.decode bytes ~pos:0 ~len with
        | P.Need_more -> ()
        | P.Msg _ ->
          Alcotest.failf "truncated %s decoded as complete"
            (P.message_name message)
        | P.Malformed reason ->
          Alcotest.failf "truncated %s malformed (%s) instead of Need_more"
            (P.message_name message) reason
        | P.Oversized _ ->
          Alcotest.failf "truncated %s oversized" (P.message_name message)
        | exception exn ->
          Alcotest.failf "decoder raised on truncated %s: %s"
            (P.message_name message) (Printexc.to_string exn)
      done)
    (all_messages ())

let test_fuzz_bit_flips () =
  let rng = Workload.Prng.create 0xBEEF in
  List.iter
    (fun message ->
      let data = P.encode_string message in
      for _ = 1 to 64 do
        let bytes = Bytes.of_string data in
        let i = Workload.Prng.int rng (Bytes.length bytes) in
        let bit = Workload.Prng.int rng 8 in
        Bytes.set bytes i
          (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl bit)));
        (* CRC-32 detects every single-bit error, so a flipped frame
           must never decode as a message — but it may legitimately
           look like a longer (Need_more) or huge (Oversized) frame
           when the flip lands in the length field. *)
        match P.decode bytes ~pos:0 ~len:(Bytes.length bytes) with
        | P.Msg _ ->
          Alcotest.failf "bit-flipped %s decoded as a message"
            (P.message_name message)
        | P.Need_more | P.Oversized _ | P.Malformed _ -> ()
        | exception exn ->
          Alcotest.failf "decoder raised on flipped %s: %s"
            (P.message_name message) (Printexc.to_string exn)
      done)
    (all_messages ())

let test_fuzz_mutations () =
  (* Random splices of valid frame bytes and junk: decode every result
     from every offset; only totality is asserted. *)
  let rng = Workload.Prng.create 0xCAFE in
  let frames = Array.of_list (List.map P.encode_string (all_messages ())) in
  for _ = 1 to 800 do
    let buffer = Buffer.create 256 in
    for _ = 0 to Workload.Prng.int rng 4 do
      let frame = Workload.Prng.pick rng frames in
      let cut = Workload.Prng.int rng (String.length frame) in
      Buffer.add_string buffer (String.sub frame 0 cut);
      if Workload.Prng.bool rng then
        Buffer.add_char buffer (Char.chr (Workload.Prng.int rng 256))
    done;
    let bytes = Bytes.of_string (Buffer.contents buffer) in
    let pos = if Bytes.length bytes = 0 then 0 else Workload.Prng.int rng (Bytes.length bytes) in
    match P.decode bytes ~pos ~len:(Bytes.length bytes) with
    | P.Msg _ | P.Need_more | P.Oversized _ | P.Malformed _ -> ()
    | exception exn ->
      Alcotest.failf "decoder raised on spliced input: %s"
        (Printexc.to_string exn)
  done

let test_oversized () =
  let data = P.encode_string (P.Query (String.make 4096 'x')) in
  let bytes = Bytes.of_string data in
  match P.decode ~max_payload:1024 bytes ~pos:0 ~len:(Bytes.length bytes) with
  | P.Oversized n -> Alcotest.(check int) "declared length" 4096 n
  | _ -> Alcotest.fail "big frame not reported Oversized"

let test_rows_round_trip_property () =
  let prop (relation, order) =
    let canonical = Nest.canonical relation order in
    let message = P.Rows (Nfr.schema canonical, Nfr.ntuples canonical) in
    match P.decode_message (P.encode_string message) with
    | Ok (P.Rows (schema, ntuples)) ->
      Schema.equal schema (Nfr.schema canonical)
      && Nfr.equal canonical (Nfr.of_ntuples schema ntuples)
    | _ -> false
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"rows round-trip" ~count:200
       (arbitrary_relation_with_order ()) prop)

(* ------------------------------------------------------------------ *)
(* Obs.Registry: the checks test_obs does not make                    *)
(* ------------------------------------------------------------------ *)

let test_registry_counters () =
  let m = Obs.Registry.create () in
  Obs.Registry.incr m "a";
  Obs.Registry.incr m "a";
  Obs.Registry.add m "b" 40;
  Alcotest.(check int) "a" 2 (Obs.Registry.get m "a");
  Alcotest.(check int) "b" 40 (Obs.Registry.get m "b");
  Alcotest.(check int) "absent" 0 (Obs.Registry.get m "zzz");
  Alcotest.(check bool)
    "text dump lists counters" true
    (String.split_on_char '\n' (Obs.Registry.to_text m)
    |> List.exists (fun l -> l = "a 2"));
  Obs.Registry.reset m;
  Alcotest.(check int) "reset" 0 (Obs.Registry.get m "a")

let test_registry_histogram () =
  let m = Obs.Registry.create () in
  for i = 1 to 100 do
    Obs.Registry.observe m "lat" (float_of_int i /. 1000.)
  done;
  match Obs.Registry.summarize m "lat" with
  | None -> Alcotest.fail "no summary"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Obs.Registry.count;
    Alcotest.(check bool) "max exact" true
      (abs_float (s.Obs.Registry.max -. 0.1) < 1e-9);
    (* Bucketed quantiles are upper bounds within a 2x bucket. *)
    Alcotest.(check bool)
      "p50 in range" true
      (s.Obs.Registry.p50 >= 0.05 && s.Obs.Registry.p50 <= 0.128);
    Alcotest.(check bool)
      "ordering" true
      (s.Obs.Registry.p50 <= s.Obs.Registry.p95
      && s.Obs.Registry.p95 <= s.Obs.Registry.p99
      && s.Obs.Registry.p99 <= s.Obs.Registry.max +. 1e-9);
    Alcotest.(check bool)
      "json has histogram" true
      (contains_substring (Obs.Registry.to_json m) "\"lat\":{\"count\":100")

let test_registry_quantile () =
  let samples = [ 5.; 1.; 3.; 2.; 4. ] in
  Alcotest.(check (float 1e-9)) "p50" 3. (Obs.Registry.quantile samples 0.5);
  Alcotest.(check (float 1e-9)) "p99" 5. (Obs.Registry.quantile samples 0.99);
  Alcotest.(check (float 1e-9)) "empty" 0. (Obs.Registry.quantile [] 0.5)

(* ------------------------------------------------------------------ *)
(* Step-driven loop harness                                            *)
(* ------------------------------------------------------------------ *)

let start_relation =
  rel schema2 [ [ "a1"; "b1" ]; [ "a1"; "b2" ]; [ "a2"; "b1" ] ]

let make_db () =
  let db = Nfql.Physical.create () in
  Nfql.Physical.add_table db "t"
    (Storage.Table.load ~order:(Schema.attributes schema2) start_relation);
  db

let with_loop ?config ?now f =
  let loop =
    Server.Loop.create ?config ?now ~db:(make_db ()) ~listen:(`Port 0) ()
  in
  Fun.protect ~finally:(fun () -> Server.Loop.close loop) (fun () -> f loop)

(* A hand-rolled non-blocking client: the loop and the client run in
   one thread, interleaved by [pump]. *)
type rc = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable eof : bool;
}

let rc_connect loop =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.Loop.port loop));
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create 65536; len = 0; eof = false }

let rc_close rc = try Unix.close rc.fd with Unix.Unix_error _ -> ()

let rc_send rc data =
  match Unix.write_substring rc.fd data 0 (String.length data) with
  | n -> Alcotest.(check int) "short client write" (String.length data) n
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    rc.eof <- true

let rc_pump loop rc =
  ignore (Server.Loop.step loop 0.002);
  if not rc.eof then begin
    if rc.len = Bytes.length rc.buf then begin
      let grown = Bytes.create (2 * Bytes.length rc.buf) in
      Bytes.blit rc.buf 0 grown 0 rc.len;
      rc.buf <- grown
    end;
    match Unix.read rc.fd rc.buf rc.len (Bytes.length rc.buf - rc.len) with
    | 0 -> rc.eof <- true
    | n -> rc.len <- rc.len + n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      rc.eof <- true
  end

(* One pump, then a non-waiting look at the buffer — for tests where
   no reply is expected yet (the slowloris dribble). *)
let rc_try_recv loop rc =
  rc_pump loop rc;
  match P.decode rc.buf ~pos:0 ~len:rc.len with
  | P.Msg (message, consumed) ->
    Bytes.blit rc.buf consumed rc.buf 0 (rc.len - consumed);
    rc.len <- rc.len - consumed;
    Some message
  | P.Need_more | P.Oversized _ | P.Malformed _ -> None

let rc_recv loop rc =
  let rec go tries =
    match P.decode rc.buf ~pos:0 ~len:rc.len with
    | P.Msg (message, consumed) ->
      Bytes.blit rc.buf consumed rc.buf 0 (rc.len - consumed);
      rc.len <- rc.len - consumed;
      Some message
    | P.Oversized _ | P.Malformed _ ->
      Alcotest.fail "server sent a garbled frame"
    | P.Need_more ->
      if rc.eof then None
      else if tries > 500 then
        Alcotest.fail "no reply from stepped loop after 500 pumps"
      else begin
        rc_pump loop rc;
        go (tries + 1)
      end
  in
  go 0

let expect_msg loop rc name =
  match rc_recv loop rc with
  | Some message -> message
  | None -> Alcotest.failf "connection closed while waiting for %s" name

(* Run one script and return (per-statement results, summary). *)
let rc_query loop rc source =
  rc_send rc (P.encode_string (P.Query source));
  let rec collect acc =
    match expect_msg loop rc "response" with
    | P.Stats stats -> (
      match expect_msg loop rc "statement result" with
      | P.Rows (schema, ntuples) ->
        collect ((stats, `Rows (schema, ntuples)) :: acc)
      | P.Done text -> collect ((stats, `Msg text) :: acc)
      | other ->
        Alcotest.failf "unexpected %s after stats" (P.message_name other))
    | P.Done summary -> Ok (List.rev acc, summary)
    | P.Err (code, reason) -> Error (code, reason)
    | other -> Alcotest.failf "unexpected %s frame" (P.message_name other)
  in
  collect []

let expect_rows = function
  | Ok ([ (_, `Rows (schema, ntuples)) ], _) -> Nfr.of_ntuples schema ntuples
  | Ok _ -> Alcotest.fail "expected exactly one rows result"
  | Error (_, reason) -> Alcotest.failf "query refused: %s" reason

(* ------------------------------------------------------------------ *)
(* Session behaviour                                                   *)
(* ------------------------------------------------------------------ *)

let test_loop_select () =
  with_loop (fun loop ->
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          let rows = expect_rows (rc_query loop rc "select * from t") in
          Alcotest.check relation_testable "rows = table"
            start_relation (Nfr.flatten rows)))

let test_loop_ping_and_script () =
  with_loop (fun loop ->
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          rc_send rc (P.encode_string P.Ping);
          (match expect_msg loop rc "pong" with
          | P.Pong -> ()
          | other -> Alcotest.failf "wanted pong, got %s" (P.message_name other));
          match
            rc_query loop rc
              "insert into t values ('a9','b9'); select count from t"
          with
          | Ok (results, summary) ->
            Alcotest.(check int) "two statements" 2 (List.length results);
            Alcotest.(check string) "summary" "ok: 2 statement(s)" summary
          | Error (_, reason) -> Alcotest.failf "refused: %s" reason))

let test_loop_query_error_keeps_connection () =
  with_loop (fun loop ->
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          (match rc_query loop rc "select * from missing" with
          | Error (P.Query_failed, _) -> ()
          | Error (code, _) ->
            Alcotest.failf "wrong code %s" (P.err_code_name code)
          | Ok _ -> Alcotest.fail "query on a missing table succeeded");
          (* Partial scripts stop at the first failure. *)
          (match
             rc_query loop rc
               "insert into t values ('a7','b7'); select * from missing; \
                insert into t values ('a8','b8')"
           with
          | Error (P.Query_failed, _) -> ()
          | _ -> Alcotest.fail "mid-script failure not reported");
          let rows = expect_rows (rc_query loop rc "select * from t") in
          Alcotest.(check int)
            "first statement applied, third never ran"
            (Relation.cardinality start_relation + 1)
            (Relation.cardinality (Nfr.flatten rows))))

let test_loop_garbage_preamble () =
  with_loop (fun loop ->
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          rc_send rc "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
          (match expect_msg loop rc "rejection" with
          | P.Err (P.Malformed_frame, _) -> ()
          | other ->
            Alcotest.failf "wanted malformed-frame err, got %s"
              (P.message_name other));
          (* The connection is dropped after the polite rejection... *)
          Alcotest.(check bool) "closed" true (rc_recv loop rc = None));
      Alcotest.(check int) "session dropped" 0 (Server.Loop.live_sessions loop);
      (* ...and the server keeps serving fresh connections. *)
      let rc2 = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc2) (fun () ->
          ignore (expect_rows (rc_query loop rc2 "select * from t"))))

let test_loop_oversized_frame () =
  with_loop (fun loop ->
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          (* Header declaring a 64 MiB payload; no need to send it. *)
          let buffer = Buffer.create 16 in
          Buffer.add_string buffer F.magic;
          Buffer.add_char buffer (Char.chr F.version);
          Buffer.add_char buffer '\x03';
          Buffer.add_char buffer (Char.chr 0x04);
          Buffer.add_string buffer "\x00\x00\x00";
          rc_send rc (Buffer.contents buffer);
          (match expect_msg loop rc "rejection" with
          | P.Err (P.Too_large, _) -> ()
          | other ->
            Alcotest.failf "wanted too-large err, got %s"
              (P.message_name other));
          Alcotest.(check bool) "closed" true (rc_recv loop rc = None)))

let test_loop_killed_mid_request () =
  with_loop (fun loop ->
      let whole = P.encode_string (P.Query "select * from t") in
      let rc = rc_connect loop in
      rc_send rc (String.sub whole 0 (String.length whole / 2));
      (* Let the server read the fragment, then die without warning. *)
      ignore (Server.Loop.step loop 0.002);
      rc_close rc;
      (* A few steps to observe the EOF and clean up. *)
      for _ = 1 to 5 do
        ignore (Server.Loop.step loop 0.002)
      done;
      Alcotest.(check int) "session reclaimed" 0 (Server.Loop.live_sessions loop);
      let rc2 = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc2) (fun () ->
          let rows = expect_rows (rc_query loop rc2 "select * from t") in
          Alcotest.check relation_testable "query after the kill"
            start_relation (Nfr.flatten rows)))

let config_with ?(max_connections = 8) ?(request_timeout = 2.) ?(idle_timeout = 5.) () =
  {
    Server.Session.default_config with
    Server.Session.max_connections;
    request_timeout;
    idle_timeout;
  }

let test_loop_slowloris () =
  let clock = ref 1000. in
  let config = config_with ~request_timeout:2. ~idle_timeout:60. () in
  with_loop ~config ~now:(fun () -> !clock) (fun loop ->
      let whole = P.encode_string (P.Query "select * from t") in
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          (* One byte per iteration, 0.5 fake-seconds apart: after 2 s
             of dribble the server must cut the session loose. *)
          let rejected = ref None in
          (try
             String.iter
               (fun c ->
                 if rc.eof then raise Exit;
                 rc_send rc (String.make 1 c);
                 ignore (Server.Loop.step loop 0.002);
                 clock := !clock +. 0.5;
                 ignore (Server.Loop.step loop 0.002);
                 match rc_try_recv loop rc with
                 | Some (P.Err (code, _)) ->
                   rejected := Some code;
                   raise Exit
                 | Some other ->
                   Alcotest.failf "unexpected %s" (P.message_name other)
                 | None -> if rc.eof then raise Exit)
               whole
           with Exit -> ());
          (* The rejection may still be sitting in the buffer. *)
          (match (!rejected, rc_try_recv loop rc) with
          | None, Some (P.Err (code, _)) -> rejected := Some code
          | _ -> ());
          (match !rejected with
          | Some P.Timeout -> ()
          | Some code ->
            Alcotest.failf "wanted timeout, got %s" (P.err_code_name code)
          | None ->
            (* The rejection bytes can be lost to a reset; the session
               must at least be dead. *)
            Alcotest.(check bool) "connection dead" true rc.eof);
          Alcotest.(check int) "session reclaimed" 0
            (Server.Loop.live_sessions loop));
      (* Server still alive for the next client. *)
      let rc2 = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc2) (fun () ->
          ignore (expect_rows (rc_query loop rc2 "select * from t"))))

let test_loop_idle_reap () =
  let clock = ref 2000. in
  let config = config_with ~idle_timeout:5. () in
  with_loop ~config ~now:(fun () -> !clock) (fun loop ->
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          ignore (Server.Loop.step loop 0.002);
          Alcotest.(check int) "accepted" 1 (Server.Loop.live_sessions loop);
          clock := !clock +. 6.;
          for _ = 1 to 3 do
            ignore (Server.Loop.step loop 0.002)
          done;
          Alcotest.(check int) "reaped" 0 (Server.Loop.live_sessions loop);
          Alcotest.(check int) "counted" 1
            (Obs.Registry.get (Server.Loop.metrics loop) "connections.reaped")))

let test_loop_overload () =
  let config = config_with ~max_connections:2 () in
  with_loop ~config (fun loop ->
      let rc1 = rc_connect loop in
      let rc2 = rc_connect loop in
      ignore (Server.Loop.step loop 0.002);
      Alcotest.(check int) "two live" 2 (Server.Loop.live_sessions loop);
      let rc3 = rc_connect loop in
      Fun.protect
        ~finally:(fun () -> List.iter rc_close [ rc1; rc2; rc3 ])
        (fun () ->
          (match expect_msg loop rc3 "overload rejection" with
          | P.Err (P.Overloaded, _) -> ()
          | other ->
            Alcotest.failf "wanted overloaded err, got %s"
              (P.message_name other));
          Alcotest.(check bool) "third closed" true (rc_recv loop rc3 = None);
          Alcotest.(check int) "rejection counted" 1
            (Obs.Registry.get (Server.Loop.metrics loop)
               "connections.rejected");
          (* The two admitted sessions still serve. *)
          ignore (expect_rows (rc_query loop rc1 "select * from t"))))

let test_loop_metrics_frame () =
  with_loop (fun loop ->
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          ignore (expect_rows (rc_query loop rc "select * from t"));
          rc_send rc (P.encode_string P.Metrics_req);
          match expect_msg loop rc "metrics" with
          | P.Metrics dump ->
            let has needle = contains_substring dump needle in
            Alcotest.(check bool) "queries.total" true (has "queries.total 1");
            Alcotest.(check bool) "queries.select" true (has "queries.select 1");
            Alcotest.(check bool) "histogram" true (has "query.seconds")
          | other -> Alcotest.failf "wanted metrics, got %s" (P.message_name other)))

let test_loop_graceful_shutdown () =
  let flushed = ref false in
  let db = make_db () in
  let loop =
    Server.Loop.create
      ~on_shutdown:(fun () -> flushed := true)
      ~db ~listen:(`Port 0) ()
  in
  Fun.protect ~finally:(fun () -> Server.Loop.close loop) (fun () ->
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          rc_send rc (P.encode_string P.Shutdown);
          (match expect_msg loop rc "shutdown ack" with
          | P.Done _ -> ()
          | other -> Alcotest.failf "wanted done, got %s" (P.message_name other));
          (* Step until fully drained. *)
          let rec settle tries =
            if tries > 200 then Alcotest.fail "loop never stopped"
            else if Server.Loop.step loop 0.002 then settle (tries + 1)
          in
          settle 0;
          Alcotest.(check bool) "stopped" true (Server.Loop.stopped loop);
          Alcotest.(check bool) "WAL flush hook ran" true !flushed;
          Alcotest.(check int) "no sessions" 0 (Server.Loop.live_sessions loop)))

let test_loop_drain_refuses_new_requests () =
  with_loop (fun loop ->
      let rc = rc_connect loop in
      let rc2 = rc_connect loop in
      Fun.protect
        ~finally:(fun () ->
          rc_close rc;
          rc_close rc2)
        (fun () ->
          (* Both sessions admitted first. *)
          ignore (expect_rows (rc_query loop rc "select * from t"));
          ignore (expect_rows (rc_query loop rc2 "select * from t"));
          Server.Loop.begin_shutdown loop;
          rc_send rc2 (P.encode_string (P.Query "select * from t"));
          match rc_recv loop rc2 with
          | Some (P.Err (P.Shutting_down, _)) | None -> ()
          | Some other ->
            Alcotest.failf "wanted shutting-down err, got %s"
              (P.message_name other)))

(* ------------------------------------------------------------------ *)
(* Transactions across concurrent sessions                             *)
(* ------------------------------------------------------------------ *)

let expect_done loop rc source =
  match rc_query loop rc source with
  | Ok _ -> ()
  | Error (code, reason) ->
    Alcotest.failf "%s refused (%s): %s" source (P.err_code_name code) reason

let query_rows loop rc source = expect_rows (rc_query loop rc source)

let test_txn_snapshot_isolation () =
  with_loop (fun loop ->
      let rc1 = rc_connect loop in
      let rc2 = rc_connect loop in
      Fun.protect
        ~finally:(fun () ->
          rc_close rc1;
          rc_close rc2)
        (fun () ->
          expect_done loop rc1 "begin";
          Alcotest.check relation_testable "snapshot at BEGIN" start_relation
            (Nfr.flatten (query_rows loop rc1 "select * from t"));
          (* A concurrent autocommit write lands immediately for rc2... *)
          expect_done loop rc2 "insert into t values ('a9','b9')";
          Alcotest.(check int) "rc2 sees its own write"
            (Relation.cardinality start_relation + 1)
            (Relation.cardinality
               (Nfr.flatten (query_rows loop rc2 "select * from t")));
          (* ...while rc1's snapshot stays pinned. *)
          Alcotest.check relation_testable "rc1's snapshot is stable"
            start_relation
            (Nfr.flatten (query_rows loop rc1 "select * from t"));
          (* rc1's own buffered write is visible to rc1 alone. *)
          expect_done loop rc1 "insert into t values ('a8','b8')";
          Alcotest.(check int) "rc1 sees its buffered write"
            (Relation.cardinality start_relation + 1)
            (Relation.cardinality
               (Nfr.flatten (query_rows loop rc1 "select * from t")));
          Alcotest.(check int) "rc2 does not see rc1's buffer"
            (Relation.cardinality start_relation + 1)
            (Relation.cardinality
               (Nfr.flatten (query_rows loop rc2 "select * from t")));
          (* Disjoint write sets: the commit goes through, and both
             writes are now visible everywhere. *)
          expect_done loop rc1 "commit";
          List.iter
            (fun rc ->
              Alcotest.(check int) "merged state"
                (Relation.cardinality start_relation + 2)
                (Relation.cardinality
                   (Nfr.flatten (query_rows loop rc "select * from t"))))
            [ rc1; rc2 ]))

let metrics_lines loop rc =
  rc_send rc (P.encode_string P.Metrics_req);
  match expect_msg loop rc "metrics" with
  | P.Metrics dump -> String.split_on_char '\n' dump
  | other -> Alcotest.failf "wanted metrics, got %s" (P.message_name other)

let metric_value lines name =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ' ' with
      | Some i when String.sub line 0 i = name -> (
        try int_of_float (float_of_string (String.sub line (i + 1) (String.length line - i - 1)))
        with Failure _ -> acc)
      | _ -> acc)
    0 lines

let test_txn_first_committer_wins () =
  with_loop (fun loop ->
      let rc1 = rc_connect loop in
      let rc2 = rc_connect loop in
      Fun.protect
        ~finally:(fun () ->
          rc_close rc1;
          rc_close rc2)
        (fun () ->
          expect_done loop rc1 "begin";
          expect_done loop rc2 "begin";
          (* Both transactions delete the same committed tuple. *)
          expect_done loop rc1 "delete from t where A = 'a2'";
          expect_done loop rc2 "delete from t where A = 'a2'";
          expect_done loop rc1 "commit";
          (* The loser gets the typed conflict code, not a generic
             query failure, and its transaction is already gone. *)
          (match rc_query loop rc2 "commit" with
          | Error (P.Conflict, reason) ->
            Alcotest.(check bool) "reason names the conflict" true
              (contains_substring reason "concurrent"
              || contains_substring reason "conflict")
          | Error (code, reason) ->
            Alcotest.failf "wanted conflict, got %s: %s"
              (P.err_code_name code) reason
          | Ok _ -> Alcotest.fail "second committer must lose");
          (* The connection survives; autocommit reads see the winner's
             state exactly once. *)
          Alcotest.check relation_testable "winner's delete applied"
            (rel schema2 [ [ "a1"; "b1" ]; [ "a1"; "b2" ] ])
            (Nfr.flatten (query_rows loop rc2 "select * from t"));
          (* The METRICS ledger balances: 2 begun = 1 committed +
             1 aborted; the abort was a conflict; nothing left open. *)
          let lines = metrics_lines loop rc1 in
          Alcotest.(check int) "txn.begin" 2 (metric_value lines "txn.begin");
          Alcotest.(check int) "txn.commit" 1 (metric_value lines "txn.commit");
          Alcotest.(check int) "txn.abort" 1 (metric_value lines "txn.abort");
          Alcotest.(check int) "txn.conflict" 1
            (metric_value lines "txn.conflict");
          Alcotest.(check int) "errors.conflict" 1
            (metric_value lines "errors.conflict");
          Alcotest.(check int) "txn.active drained" 0
            (metric_value lines "txn.active");
          (* And the conflict is visible through the Prometheus
             exposition an alerting pipeline scrapes. *)
          rc_send rc1 (P.encode_string P.Metrics_prom_req);
          match expect_msg loop rc1 "prom" with
          | P.Metrics_prom body ->
            Alcotest.(check bool) "prometheus txn.conflict series" true
              (contains_substring body "txn_conflict 1")
          | other -> Alcotest.failf "wanted prom, got %s" (P.message_name other)))

(* A seeded random interleaving of conflicting DML across three
   sessions: every commit either succeeds or fails with the typed
   conflict; at the end the ledger balances and no transaction is
   left open. *)
let test_txn_interleaving_property () =
  let seed =
    match Sys.getenv_opt "CRASH_SEED" with
    | Some s -> ( try int_of_string s with _ -> 42)
    | None -> 42
  in
  with_loop (fun loop ->
      let rng = Workload.Prng.create seed in
      let clients = Array.init 3 (fun _ -> rc_connect loop) in
      let in_txn = Array.make 3 false in
      let begun = ref 0 and committed = ref 0 and aborted = ref 0 in
      Fun.protect
        ~finally:(fun () -> Array.iter rc_close clients)
        (fun () ->
          for _ = 1 to 60 do
            let i = Workload.Prng.int rng 3 in
            let rc = clients.(i) in
            if not in_txn.(i) then begin
              expect_done loop rc "begin";
              in_txn.(i) <- true;
              incr begun
            end
            else
              match Workload.Prng.int rng 4 with
              | 0 ->
                (* Conflicting write: everyone fights over 'a1'. *)
                (match
                   rc_query loop rc
                     "update t set B = 'bX' where A = 'a1'"
                 with
                | Ok _ -> ()
                | Error (code, reason) ->
                  Alcotest.failf "in-txn update refused (%s): %s"
                    (P.err_code_name code) reason)
              | 1 -> (
                match rc_query loop rc "commit" with
                | Ok _ ->
                  in_txn.(i) <- false;
                  incr committed
                | Error (P.Conflict, _) ->
                  in_txn.(i) <- false;
                  incr aborted
                | Error (code, reason) ->
                  Alcotest.failf "commit failed oddly (%s): %s"
                    (P.err_code_name code) reason)
              | 2 ->
                expect_done loop rc "rollback";
                in_txn.(i) <- false;
                incr aborted
              | _ ->
                (* A read inside the transaction never fails. *)
                ignore (query_rows loop rc "select * from t")
          done;
          (* Settle every open transaction. *)
          Array.iteri
            (fun i rc ->
              if in_txn.(i) then begin
                (match rc_query loop rc "commit" with
                | Ok _ -> incr committed
                | Error (P.Conflict, _) -> incr aborted
                | Error (code, reason) ->
                  Alcotest.failf "final commit failed oddly (%s): %s"
                    (P.err_code_name code) reason);
                in_txn.(i) <- false
              end)
            clients;
          Alcotest.(check bool) "some transactions ran" true (!begun > 0);
          Alcotest.(check int) "ledger balances" !begun
            (!committed + !aborted);
          let lines = metrics_lines loop clients.(0) in
          Alcotest.(check int) "txn.begin matches" !begun
            (metric_value lines "txn.begin");
          Alcotest.(check int) "txn.commit matches" !committed
            (metric_value lines "txn.commit");
          Alcotest.(check int) "txn.abort matches" !aborted
            (metric_value lines "txn.abort");
          Alcotest.(check int) "nothing left open" 0
            (metric_value lines "txn.active")))

(* A client that vanishes mid-transaction: the server rolls the
   transaction back (counted), and its buffered writes never land. *)
let test_txn_disconnect_rolls_back () =
  with_loop (fun loop ->
      let rc1 = rc_connect loop in
      expect_done loop rc1 "begin";
      expect_done loop rc1 "insert into t values ('zz','zz')";
      rc_close rc1;
      for _ = 1 to 5 do
        ignore (Server.Loop.step loop 0.002)
      done;
      Alcotest.(check int) "session reclaimed" 0 (Server.Loop.live_sessions loop);
      let rc2 = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc2) (fun () ->
          Alcotest.check relation_testable "buffered write discarded"
            start_relation
            (Nfr.flatten (query_rows loop rc2 "select * from t"));
          let lines = metrics_lines loop rc2 in
          Alcotest.(check int) "auto-rollback counted" 1
            (metric_value lines "txn.auto_rollback");
          Alcotest.(check int) "txn.active drained" 0
            (metric_value lines "txn.active")))

(* Idle-in-transaction gets a shorter leash than plain idle: the
   reaper rolls the transaction back and says so. *)
let test_txn_idle_in_txn_reaped () =
  let clock = ref 3000. in
  let config =
    {
      (config_with ~idle_timeout:60. ()) with
      Server.Session.idle_in_txn_timeout = 5.;
    }
  in
  with_loop ~config ~now:(fun () -> !clock) (fun loop ->
      let rc = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
          expect_done loop rc "begin";
          expect_done loop rc "insert into t values ('zz','zz')";
          (* Well under the 60 s idle timeout, past the 5 s in-txn one. *)
          clock := !clock +. 6.;
          for _ = 1 to 3 do
            ignore (Server.Loop.step loop 0.002)
          done;
          (match rc_try_recv loop rc with
          | Some (P.Err (P.Timeout, reason)) ->
            Alcotest.(check bool) "reason mentions the transaction" true
              (contains_substring reason "transaction")
          | Some other ->
            Alcotest.failf "wanted timeout err, got %s" (P.message_name other)
          | None -> Alcotest.fail "no reap notice before the idle timeout");
          for _ = 1 to 3 do
            ignore (Server.Loop.step loop 0.002)
          done;
          Alcotest.(check int) "session reaped" 0
            (Server.Loop.live_sessions loop);
          Alcotest.(check int) "counted as in-txn reap" 1
            (Obs.Registry.get (Server.Loop.metrics loop)
               "connections.reaped_in_txn"));
      (* The rolled-back write is gone for the next client. *)
      let rc2 = rc_connect loop in
      Fun.protect ~finally:(fun () -> rc_close rc2) (fun () ->
          Alcotest.check relation_testable "write rolled back" start_relation
            (Nfr.flatten (query_rows loop rc2 "select * from t"))))

(* ------------------------------------------------------------------ *)
(* Self-monitoring: config validation, stall watchdog, slow-log sink   *)
(* ------------------------------------------------------------------ *)

let test_observability_config_validation () =
  List.iter
    (fun config ->
      match Server.Session.make_context ~config (make_db ()) with
      | _ -> Alcotest.fail "invalid observability config accepted"
      | exception Invalid_argument _ -> ())
    [
      { Server.Session.default_config with trace_capacity = 0 };
      { Server.Session.default_config with trace_capacity = -4 };
      { Server.Session.default_config with trace_retain = 0 };
      { Server.Session.default_config with trace_retain = -1 };
      { Server.Session.default_config with scrape_interval = 0. };
      { Server.Session.default_config with tick_interval = -0.5 };
    ]

(* The stall watchdog runs on the context clock: a fake-clock jump
   longer than twice the tick interval is a stall, a normal tick is
   not. *)
let test_loop_stall_watchdog () =
  let clock = ref 500. in
  with_loop ~now:(fun () -> !clock) (fun loop ->
      let m = Server.Loop.metrics loop in
      let tick = Server.Session.default_config.Server.Session.tick_interval in
      ignore (Server.Loop.step loop 0.002);
      clock := !clock +. (tick /. 2.);
      ignore (Server.Loop.step loop 0.002);
      Alcotest.(check int) "half-interval tick is not a stall" 0
        (Obs.Registry.get m "loop.stalls_total");
      Alcotest.(check (float 1e-9)) "no lag" 0.
        (Obs.Registry.gauge m "loop.lag");
      clock := !clock +. (3. *. tick);
      ignore (Server.Loop.step loop 0.002);
      Alcotest.(check int) "3x-interval tick is a stall" 1
        (Obs.Registry.get m "loop.stalls_total");
      Alcotest.(check bool) "lag gauge shows the overshoot" true
        (Obs.Registry.gauge m "loop.lag" > tick);
      clock := !clock +. tick;
      ignore (Server.Loop.step loop 0.002);
      Alcotest.(check int) "recovery tick adds no stall" 1
        (Obs.Registry.get m "loop.stalls_total"))

(* With the threshold at zero every statement is slow: the JSON-lines
   sink must receive one parseable-looking object per statement, and
   the in-memory ring must agree. *)
let test_slow_query_log_sink () =
  let path = Filename.temp_file "nf2d_slow" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let config =
        {
          Server.Session.default_config with
          slow_query_s = 0.;
          slow_log_file = Some path;
        }
      in
      with_loop ~config (fun loop ->
          let rc = rc_connect loop in
          Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
              ignore (rc_query loop rc "select * from t");
              ignore (rc_query loop rc "select * from t where A = 'a1'"));
          let ctx = Server.Loop.context loop in
          Alcotest.(check int) "ring has both statements" 2
            (List.length (Server.Session.slow_log ctx));
          Server.Session.close_slow_log ctx);
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "one JSON line per slow statement" 2
        (List.length lines);
      List.iter
        (fun line ->
          Alcotest.(check bool) "line is a JSON object" true
            (String.length line > 2
            && line.[0] = '{'
            && line.[String.length line - 1] = '}');
          List.iter
            (fun field ->
              Alcotest.(check bool) ("field " ^ field) true
                (contains_substring line field))
            [ "\"at\""; "\"seconds\""; "\"trace\""; "\"hash\"";
              "\"statement\""; "\"ops\"" ])
        lines)

(* Crash-test the serve path with the storage failpoint registry:
   an armed Crash at the per-frame site simulates the process dying
   mid-request; a WAL-backed table must recover to exactly the
   statements that were acknowledged. *)
let test_loop_failpoint_crash_and_recover () =
  let wal_path = Filename.temp_file "nf2d_serve" ".wal" in
  Sys.remove wal_path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists wal_path then Sys.remove wal_path)
    (fun () ->
      let db = Nfql.Physical.create () in
      let order = Schema.attributes schema2 in
      let table = Storage.Table.create ~wal_path ~order schema2 in
      Nfql.Physical.add_table db "w" table;
      let loop = Server.Loop.create ~db ~listen:(`Port 0) () in
      let crashed = ref false in
      Fun.protect ~finally:(fun () -> Server.Loop.close loop) (fun () ->
          let rc = rc_connect loop in
          Fun.protect ~finally:(fun () -> rc_close rc) (fun () ->
              (match rc_query loop rc "insert into w values ('a1','b1')" with
              | Ok _ -> ()
              | Error (_, reason) -> Alcotest.failf "insert refused: %s" reason);
              Storage.Failpoint.arm "server.session.frame" Storage.Failpoint.Crash;
              rc_send rc
                (P.encode_string (P.Query "insert into w values ('a2','b2')"));
              (try
                 for _ = 1 to 50 do
                   ignore (Server.Loop.step loop 0.002)
                 done
               with Storage.Failpoint.Crashed site ->
                 crashed := true;
                 Alcotest.(check string) "site" "server.session.frame" site)));
      Storage.Failpoint.reset ();
      Alcotest.(check bool) "crash fired on the serve path" true !crashed;
      (* "Process death": recover from the WAL alone. *)
      let recovered = Storage.Table.recover ~wal_path ~order schema2 in
      Alcotest.check relation_testable "acknowledged writes survive"
        (rel schema2 [ [ "a1"; "b1" ] ])
        (Nfr.flatten (Storage.Table.snapshot recovered));
      Storage.Table.close recovered)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "round-trip every frame type" `Quick
            test_round_trip;
          Alcotest.test_case "byte-at-a-time needs more" `Quick
            test_byte_at_a_time;
          Alcotest.test_case "back-to-back frames" `Quick
            test_back_to_back_frames;
          Alcotest.test_case "fuzz: random bytes never raise" `Quick
            test_fuzz_random_bytes;
          Alcotest.test_case "fuzz: truncations are Need_more" `Quick
            test_fuzz_truncation;
          Alcotest.test_case "fuzz: bit flips never forge a message" `Quick
            test_fuzz_bit_flips;
          Alcotest.test_case "fuzz: spliced frames never raise" `Quick
            test_fuzz_mutations;
          Alcotest.test_case "oversized payloads are flagged" `Quick
            test_oversized;
          Alcotest.test_case "rows round-trip (property)" `Quick
            test_rows_round_trip_property;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "histogram summaries" `Quick
            test_registry_histogram;
          Alcotest.test_case "exact quantiles" `Quick test_registry_quantile;
        ] );
      ( "session",
        [
          Alcotest.test_case "select over the wire" `Quick test_loop_select;
          Alcotest.test_case "ping and multi-statement script" `Quick
            test_loop_ping_and_script;
          Alcotest.test_case "query error keeps the connection" `Quick
            test_loop_query_error_keeps_connection;
          Alcotest.test_case "garbage preamble rejected" `Quick
            test_loop_garbage_preamble;
          Alcotest.test_case "oversized frame rejected" `Quick
            test_loop_oversized_frame;
          Alcotest.test_case "client killed mid-request" `Quick
            test_loop_killed_mid_request;
          Alcotest.test_case "slowloris times out" `Quick test_loop_slowloris;
          Alcotest.test_case "idle connections reaped" `Quick
            test_loop_idle_reap;
          Alcotest.test_case "admission cap rejects politely" `Quick
            test_loop_overload;
          Alcotest.test_case "METRICS admin frame" `Quick
            test_loop_metrics_frame;
          Alcotest.test_case "graceful shutdown drains and flushes" `Quick
            test_loop_graceful_shutdown;
          Alcotest.test_case "draining refuses new requests" `Quick
            test_loop_drain_refuses_new_requests;
          Alcotest.test_case "failpoint crash mid-serve, WAL recovers" `Quick
            test_loop_failpoint_crash_and_recover;
          Alcotest.test_case "observability config validated" `Quick
            test_observability_config_validation;
          Alcotest.test_case "fake-clock stall watchdog" `Quick
            test_loop_stall_watchdog;
          Alcotest.test_case "slow-query JSON-lines sink" `Quick
            test_slow_query_log_sink;
        ] );
      ( "txn",
        [
          Alcotest.test_case "snapshot isolation across sessions" `Quick
            test_txn_snapshot_isolation;
          Alcotest.test_case "first committer wins" `Quick
            test_txn_first_committer_wins;
          Alcotest.test_case "seeded interleaving balances the ledger" `Quick
            test_txn_interleaving_property;
          Alcotest.test_case "disconnect rolls back" `Quick
            test_txn_disconnect_rolls_back;
          Alcotest.test_case "idle-in-transaction reaped" `Quick
            test_txn_idle_in_txn_reaped;
        ] );
    ]
