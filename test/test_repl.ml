(* WAL-shipping replication: bootstrap catch-up, the live tail,
   multi-table commit atomicity on the replica, read-only enforcement,
   mid-stream subscriber death, and promotion.

   The harness runs primary and replica event loops in ONE process and
   steps them by hand — Unix.select never blocks longer than the step
   timeout, so two loops interleave deterministically on loopback
   sockets without forking. Client traffic that needs a reply uses a
   raw non-blocking socket whose reads are interleaved with loop
   steps, never a blocking client (which would deadlock against the
   single thread). *)

open Relational
open Nfr_core

let schema3 = Schema.strings [ "A"; "B"; "C" ]

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

type node = {
  db : Nfql.Physical.db;
  loop : Server.Loop.t;
  metrics : Obs.Registry.t;
}

let make_node ?(tables = []) () =
  let db = Nfql.Physical.create () in
  List.iter
    (fun name ->
      Nfql.Physical.add_table db name
        (Storage.Table.create ~order:(Schema.attributes schema3) schema3))
    tables;
  let metrics = Obs.Registry.create () in
  let loop = Server.Loop.create ~metrics ~db ~listen:(`Port 0) () in
  { db; loop; metrics }

(* One cooperative round: every loop gets a (short) select turn. *)
let spin ?(rounds = 40) nodes =
  for _ = 1 to rounds do
    List.iter (fun node -> ignore (Server.Loop.step node.loop 0.002)) nodes
  done

let shutdown_nodes nodes = List.iter (fun n -> Server.Loop.close n.loop) nodes

let exec node source = ignore (Nfql.Physical.exec_string node.db source)

let table_string node name =
  match Nfql.Physical.table node.db name with
  | None -> Alcotest.failf "node has no table %s" name
  | Some table ->
    Format.asprintf "%a" Nfr.pp_table (Storage.Table.snapshot table)

let check_converged ?(msg = "replica converged") primary replica names =
  List.iter
    (fun name ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s" msg name)
        (table_string primary name) (table_string replica name))
    names

let attach_replica ?tables primary =
  let replica = make_node ?tables () in
  Server.Loop.attach_upstream replica.loop ~host:"127.0.0.1"
    ~port:(Server.Loop.port primary.loop);
  replica

(* ------------------------------------------------------------------ *)
(* Raw interleaved client (for wire-level checks)                      *)
(* ------------------------------------------------------------------ *)

type raw = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
}

let raw_connect node =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.Loop.port node.loop));
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create 8192; len = 0 }

let raw_close raw = try Unix.close raw.fd with Unix.Unix_error _ -> ()

let raw_send raw message =
  let data = Server.Protocol.encode_string message in
  let rec push pos =
    if pos < String.length data then
      match
        Unix.write_substring raw.fd data pos (String.length data - pos)
      with
      | n -> push (pos + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> push pos
  in
  push 0

(* Read one frame, stepping the given loops while waiting. *)
let raw_recv ?(patience = 400) raw nodes =
  let rec attempt tries =
    if tries > patience then Alcotest.fail "no reply from server"
    else
      match
        Server.Protocol.decode raw.buf ~pos:0 ~len:raw.len
      with
      | Server.Protocol.Msg (message, consumed) ->
        Bytes.blit raw.buf consumed raw.buf 0 (raw.len - consumed);
        raw.len <- raw.len - consumed;
        message
      | Server.Protocol.Oversized n ->
        Alcotest.failf "oversized frame (%d bytes)" n
      | Server.Protocol.Malformed reason ->
        Alcotest.failf "garbled frame: %s" reason
      | Server.Protocol.Need_more -> (
        spin ~rounds:1 nodes;
        if raw.len + 4096 > Bytes.length raw.buf then begin
          let grown = Bytes.create (2 * Bytes.length raw.buf) in
          Bytes.blit raw.buf 0 grown 0 raw.len;
          raw.buf <- grown
        end;
        match
          Unix.read raw.fd raw.buf raw.len (Bytes.length raw.buf - raw.len)
        with
        | 0 -> Alcotest.fail "server closed the connection"
        | n ->
          raw.len <- raw.len + n;
          attempt (tries + 1)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) ->
          attempt (tries + 1))
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* Bootstrap catch-up                                                  *)
(* ------------------------------------------------------------------ *)

let test_bootstrap () =
  let primary = make_node ~tables:[ "t"; "u" ] () in
  exec primary "insert into t values ('a1', 'b1', 'c1')";
  exec primary "insert into t values ('a2', 'b2', 'c2')";
  exec primary "insert into u values ('x1', 'y1', 'z1')";
  exec primary "create view tv as nest t by A";
  (* The replica starts empty: everything must arrive over the wire. *)
  let replica = attach_replica primary in
  spin [ primary; replica ];
  check_converged ~msg:"bootstrap" primary replica [ "t"; "u" ];
  Alcotest.(check bool) "view bootstrapped" true
    (Nfql.Physical.is_view replica.db "tv");
  Alcotest.(check bool) "entries applied" true
    (Obs.Registry.get replica.metrics "repl.entries_applied" > 0);
  Alcotest.(check bool) "primary counts a replica" true
    (Obs.Registry.gauge primary.metrics "repl.replicas" = 1.);
  Alcotest.(check (option string)) "replica names its primary"
    (Some (Printf.sprintf "127.0.0.1:%d" (Server.Loop.port primary.loop)))
    (Server.Loop.replica_of replica.loop);
  shutdown_nodes [ primary; replica ]

(* ------------------------------------------------------------------ *)
(* Live tail: autocommit, DDL, and multi-table transactions            *)
(* ------------------------------------------------------------------ *)

let test_live_tail () =
  let primary = make_node ~tables:[ "t"; "u" ] () in
  let replica = attach_replica primary in
  spin [ primary; replica ];
  (* Autocommit writes ship one event each. *)
  exec primary "insert into t values ('a1', 'b1', 'c1')";
  exec primary "insert into u values ('x1', 'y1', 'z1')";
  spin [ primary; replica ];
  check_converged ~msg:"autocommit" primary replica [ "t"; "u" ];
  (* A multi-table transaction ships as ONE event: the replica applies
     both tables' writes under the same local transaction. *)
  exec primary
    "begin; insert into t values ('a2', 'b2', 'c2'); delete from u values \
     ('x1', 'y1', 'z1'); insert into u values ('x2', 'y2', 'z2'); commit";
  spin [ primary; replica ];
  check_converged ~msg:"multi-table txn" primary replica [ "t"; "u" ];
  (* A rolled-back transaction ships nothing. *)
  let out_before = Obs.Registry.get primary.metrics "repl.entries_out" in
  exec primary "begin; insert into t values ('gone', 'gone', 'gone'); rollback";
  spin [ primary; replica ];
  Alcotest.(check int) "rollback ships nothing" out_before
    (Obs.Registry.get primary.metrics "repl.entries_out");
  check_converged ~msg:"after rollback" primary replica [ "t"; "u" ];
  (* Updates and deletes ship as write events too. *)
  exec primary "update t set B = 'beta' where A = 'a1'";
  exec primary "delete from u where A = 'x2'";
  spin [ primary; replica ];
  check_converged ~msg:"update/delete" primary replica [ "t"; "u" ];
  (* DDL ships structurally. *)
  exec primary "create view uv as nest u by A";
  exec primary "drop view uv";
  spin [ primary; replica ];
  Alcotest.(check bool) "dropped view is dropped on the replica" false
    (Nfql.Physical.is_view replica.db "uv");
  (* The lag gauge was refreshed on apply and is scrapeable under the
     acceptance name. *)
  Alcotest.(check bool) "lag gauge non-negative" true
    (Obs.Registry.gauge replica.metrics "replica.lag_seconds" >= 0.);
  let prom = Obs.Registry.to_prometheus replica.metrics in
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i =
      i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "nf2_replica_lag_seconds exposed" true
    (contains prom "nf2_replica_lag_seconds");
  shutdown_nodes [ primary; replica ]

(* ------------------------------------------------------------------ *)
(* Read-only enforcement                                               *)
(* ------------------------------------------------------------------ *)

let test_read_only () =
  let primary = make_node ~tables:[ "t" ] () in
  exec primary "insert into t values ('a1', 'b1', 'c1')";
  let replica = attach_replica primary in
  spin [ primary; replica ];
  (* In-process: the executor refuses. *)
  (match Nfql.Physical.exec_string replica.db
           "insert into t values ('nope', 'nope', 'nope')"
   with
  | exception Nfql.Physical.Read_only _ -> ()
  | _ -> Alcotest.fail "replica accepted a write");
  (* Reads still serve. *)
  (match Nfql.Physical.exec_string replica.db "select * from t" with
  | [ (Nfql.Eval.Rows _, _) ] -> ()
  | _ -> Alcotest.fail "replica refused a read");
  (* Over the wire: the typed Read_only error names the primary. *)
  let client = raw_connect replica in
  raw_send client (Server.Protocol.Query "insert into t values ('w','w','w')");
  (match raw_recv client [ primary; replica ] with
  | Server.Protocol.Err (Server.Protocol.Read_only, reason) ->
    Alcotest.(check bool) "reason names the primary" true
      (reason <> "" && String.length reason > String.length "read-only")
  | other ->
    Alcotest.failf "expected read-only, got %s"
      (Server.Protocol.message_name other));
  (* The refusal is not fatal: the same connection still reads. *)
  raw_send client (Server.Protocol.Ping);
  (match raw_recv client [ primary; replica ] with
  | Server.Protocol.Pong -> ()
  | other ->
    Alcotest.failf "expected pong, got %s" (Server.Protocol.message_name other));
  (* Cascading replication is refused. *)
  raw_send client Server.Protocol.Repl_subscribe;
  (match raw_recv client [ primary; replica ] with
  | Server.Protocol.Err (Server.Protocol.Query_failed, _) -> ()
  | other ->
    Alcotest.failf "expected refusal, got %s"
      (Server.Protocol.message_name other));
  raw_close client;
  shutdown_nodes [ primary; replica ]

(* ------------------------------------------------------------------ *)
(* Mid-stream subscriber death                                         *)
(* ------------------------------------------------------------------ *)

let test_victim_kill () =
  let primary = make_node ~tables:[ "t" ] () in
  for i = 1 to 20 do
    exec primary (Printf.sprintf "insert into t values ('a%d', 'b', 'c')" i)
  done;
  let victim = attach_replica primary in
  let survivor = attach_replica primary in
  spin [ primary; victim; survivor ];
  Alcotest.(check bool) "two replicas subscribed" true
    (Obs.Registry.gauge primary.metrics "repl.replicas" = 2.);
  (* Kill one replica mid-stream, with traffic in flight. *)
  exec primary "insert into t values ('mid1', 'b', 'c')";
  Server.Loop.close victim.loop;
  exec primary "insert into t values ('mid2', 'b', 'c')";
  exec primary "insert into t values ('mid3', 'b', 'c')";
  spin [ primary; survivor ];
  (* The primary noticed the death, kept serving, and the survivor
     converged on everything. *)
  check_converged ~msg:"survivor" primary survivor [ "t" ];
  Alcotest.(check bool) "victim evicted" true
    (Obs.Registry.gauge primary.metrics "repl.replicas" = 1.);
  shutdown_nodes [ primary; survivor ]

(* Losing the PRIMARY mid-stream: the replica stays up, read-only,
   serving its last applied state. *)
let test_primary_loss () =
  let primary = make_node ~tables:[ "t" ] () in
  exec primary "insert into t values ('a1', 'b1', 'c1')";
  let replica = attach_replica primary in
  spin [ primary; replica ];
  check_converged primary replica [ "t" ];
  let frozen = table_string replica "t" in
  Server.Loop.close primary.loop;
  spin [ replica ];
  Alcotest.(check bool) "upstream loss counted" true
    (Obs.Registry.get replica.metrics "repl.upstream_lost" = 1);
  Alcotest.(check string) "replica still serves its last state" frozen
    (table_string replica "t");
  Alcotest.(check bool) "still read-only" true
    (Nfql.Physical.read_only replica.db <> None);
  shutdown_nodes [ replica ]

(* ------------------------------------------------------------------ *)
(* Promotion                                                           *)
(* ------------------------------------------------------------------ *)

let test_promotion () =
  let primary = make_node ~tables:[ "t"; "u" ] () in
  exec primary "insert into t values ('a1', 'b1', 'c1')";
  exec primary "insert into u values ('x1', 'y1', 'z1')";
  let replica = attach_replica primary in
  spin [ primary; replica ];
  check_converged primary replica [ "t"; "u" ];
  (* Promote over the wire: the ack names the old primary. *)
  let client = raw_connect replica in
  raw_send client Server.Protocol.Promote;
  (match raw_recv client [ primary; replica ] with
  | Server.Protocol.Done _ -> ()
  | other ->
    Alcotest.failf "expected done, got %s" (Server.Protocol.message_name other));
  Alcotest.(check (option string)) "upstream detached" None
    (Server.Loop.replica_of replica.loop);
  (* A second promote is refused: already a primary. *)
  raw_send client Server.Protocol.Promote;
  (match raw_recv client [ primary; replica ] with
  | Server.Protocol.Err (Server.Protocol.Query_failed, _) -> ()
  | other ->
    Alcotest.failf "expected refusal, got %s"
      (Server.Protocol.message_name other));
  raw_close client;
  (* The promoted node's state is intact and it accepts writes. *)
  Nfql.Physical.iter_tables replica.db (fun name table ->
      Alcotest.(check bool)
        (Printf.sprintf "invariants hold on %s" name)
        true
        (Storage.Table.check_invariants table));
  exec replica "begin; insert into t values ('post', 'promote', 'write'); \
                insert into u values ('post', 'promote', 'write'); commit";
  (match Nfql.Physical.table replica.db "t" with
  | Some table -> Alcotest.(check int) "write landed" 2
      (Storage.Table.cardinality table)
  | None -> Alcotest.fail "table t missing");
  shutdown_nodes [ primary; replica ]

let () =
  Alcotest.run "repl"
    [
      ( "replication",
        [
          Alcotest.test_case "bootstrap catch-up" `Quick test_bootstrap;
          Alcotest.test_case "live tail + multi-table atomicity" `Quick
            test_live_tail;
          Alcotest.test_case "read-only enforcement" `Quick test_read_only;
          Alcotest.test_case "mid-stream victim kill" `Quick test_victim_kill;
          Alcotest.test_case "primary loss leaves a serving replica" `Quick
            test_primary_loss;
          Alcotest.test_case "promotion" `Quick test_promotion;
        ] );
    ]
