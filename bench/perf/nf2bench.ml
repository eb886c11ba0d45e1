(* nf2bench: one wire-level benchmark of the real nf2d server.

   Per workload (see Mix and README.md) the harness writes the input
   tables as CSV, starts `nfr_cli serve --load ... --wal-dir DIR --port
   0` (group commit, views WAL, commit manifest: the deployed
   configuration) and drives it from this one thread over two
   connections in a closed loop: a select over both sockets, each with
   exactly one request in flight. After a warmup it measures a fixed
   window in half-second segments, reads the final state back and
   compares it with the model, and stops the server.

   End-to-end metrics come from that untraced run. With --trace 1 the
   server's own counters are diffed across the window, and a separate
   in-process run replays the same streams through each layer's public
   function, timing every call as a span.

   The last line of standard output is one JSON object:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. *)

open Relational
open Nf2perf

let now_ns () = Monotonic_clock.now ()
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-6
let secs_since t0 = ms_between t0 (now_ns ()) *. 1e-3
let ns_of_secs s = Int64.of_float (s *. 1e9)
let ( // ) = Filename.concat

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  kinds : Mix.kind list;
  seed : int;
  seconds : float;  (** measured window *)
  warmup : float;
  starts : int;  (** fewest cold starts timed for setup_s *)
  trace : bool;
  smoke : bool;
  server : string;  (** the nfr_cli binary *)
  server_cpu : string option;  (** pin the server there, with taskset *)
  work : string;  (** inputs, WAL directories and span files *)
  out : string option;
  trace_out : string;
}

let usage =
  "usage: nf2bench [--workload read-hot|read-large|write-view|txn-multi|all]\n\
  \                [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
  \                [--server PATH] [--server-cpu CPU] [--work-dir DIR] [--out FILE]\n\
  \                [--trace-out FILE]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("nf2bench: " ^ msg);
      exit 2)
    fmt

let parse_args argv =
  let kinds = ref Mix.kinds and seed = ref 1983 and seconds = ref None in
  let trace = ref false and smoke = ref false in
  let server = ref ("_build" // "default" // "bin" // "nfr_cli.exe") in
  let work = ref (".bench_build" // "nf2bench") in
  let server_cpu = ref None and out = ref None and trace_out = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: "all" :: rest ->
      kinds := Mix.kinds;
      go rest
    | "--workload" :: name :: rest ->
      (match Mix.kind_of_name name with
      | Some kind -> kinds := [ kind ]
      | None -> die "unknown workload %S\n%s" name usage);
      go rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n -> seed := n
      | None -> die "--seed wants an integer, got %S" n);
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some x when x >= 0.1 -> seconds := Some x
      | _ -> die "--seconds wants a number >= 0.1, got %S" s);
      go rest
    | "--trace" :: (("0" | "1") as b) :: rest ->
      trace := b = "1";
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | "--server" :: path :: rest ->
      server := path;
      go rest
    | "--server-cpu" :: cpu :: rest ->
      (match int_of_string_opt cpu with
      | Some n when n >= 0 -> server_cpu := Some cpu
      | _ -> die "--server-cpu wants a CPU number, got %S" cpu);
      go rest
    | "--work-dir" :: dir :: rest ->
      work := dir;
      go rest
    | "--out" :: file :: rest ->
      out := Some file;
      go rest
    | "--trace-out" :: file :: rest ->
      trace_out := Some file;
      go rest
    | arg :: _ -> die "bad argument %S\n%s" arg usage
  in
  go (List.tl (Array.to_list argv));
  let smoke = !smoke in
  {
    kinds = !kinds;
    seed = !seed;
    seconds = Option.value !seconds ~default:(if smoke then 1. else 20.);
    warmup = (if smoke then 0.25 else 2.);
    (* A traced run reports no setup_s, so one start is enough. *)
    starts = (if !trace then 1 else 3);
    trace = !trace;
    smoke;
    server = !server;
    server_cpu = !server_cpu;
    work = !work;
    out = !out;
    trace_out = Option.value !trace_out ~default:(!work // "spans.jsonl");
  }

(* Requests replayed by the traced run: a few seconds per workload
   (read-large plans every statement from scratch). *)
let trace_ops cfg (w : Mix.workload) =
  if cfg.smoke then 200
  else
    match w.kind with
    | Mix.Read_hot -> 20_000
    | Mix.Read_large -> 2_000
    | Mix.Write_view -> 10_000
    | Mix.Txn_multi -> 1_600

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun entry -> rm_rf (path // entry)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc entry ->
      match Unix.stat (dir // entry) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc)
    0 (Sys.readdir dir)

let write_inputs (w : Mix.workload) ~seed ~dir =
  List.map
    (fun table ->
      let path = dir // (table ^ ".csv") in
      let oc = open_out path in
      output_string oc Mix.csv_header;
      output_char oc '\n';
      List.iter
        (fun r ->
          output_string oc (Mix.csv_line r);
          output_char oc '\n')
        (Mix.initial_rows w ~seed table);
      close_out oc;
      (table, path))
    w.tables

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; out : in_channel }

(* Every server still running; killed on any exit path. *)
let live : server list ref = ref []

let reap server =
  live := List.filter (fun s -> s.pid <> server.pid) !live;
  close_in_noerr server.out

let kill server =
  (try Unix.kill server.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] server.pid) with Unix.Unix_error _ -> ());
  reap server

let () = at_exit (fun () -> List.iter kill !live)

(* Start a server on [csvs] with its WAL in [wal]; returns once it has
   loaded every table and printed its port. *)
let spawn cfg ~csvs ~wal ~log =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let loads =
    List.concat_map (fun (t, path) -> [ "--load"; t ^ "=" ^ path ]) csvs
  in
  let pin =
    match cfg.server_cpu with Some cpu -> [ "taskset"; "-c"; cpu ] | None -> []
  in
  let argv =
    Array.of_list
      (pin @ [ cfg.server; "serve"; "--port"; "0"; "--wal-dir"; wal ] @ loads)
  in
  let pid =
    try Unix.create_process argv.(0) argv Unix.stdin out_w err
    with Unix.Unix_error (e, _, _) ->
      die "cannot start %s: %s" argv.(0) (Unix.error_message e)
  in
  Unix.close out_w;
  Unix.close err;
  let server = { pid; out = Unix.in_channel_of_descr out_r } in
  live := server :: !live;
  (match Unix.select [ out_r ] [] [] 120. with
  | [], _, _ -> failwith "server did not report a port within 120 s"
  | _ -> ());
  match input_line server.out with
  | line -> (
    try (server, Scanf.sscanf line "nf2d listening on 127.0.0.1:%d" Fun.id)
    with Scanf.Scan_failure _ | End_of_file ->
      failwith ("unexpected server banner: " ^ line))
  | exception End_of_file ->
    failwith ("server exited during start-up; see " ^ log)

(* Ask the server to drain, then wait for it to exit 0. *)
let stop server client =
  Server.Client.shutdown client;
  Server.Client.close client;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] server.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      kill server;
      failwith "server did not exit within 60 s of shutdown"
    | _, status ->
      reap server;
      if status <> Unix.WEXITED 0 then failwith "server exited non-zero"
  in
  wait ()

(* Peak resident set of the server process, in MB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec scan () =
    let line = input_line ic in
    if String.starts_with ~prefix:"VmHWM:" line then
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    else scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Checking replies                                                    *)
(* ------------------------------------------------------------------ *)

type reply = Rows of Mix.row list | Msg of string | Refused of string

(* The exact acknowledgement each write or txn-control statement earns. *)
let ack = function
  | Mix.Insert _ -> "1 row(s) inserted"
  | Mix.Delete _ -> "1 row deleted"
  | Mix.Update _ -> "1 row(s) updated"
  | Mix.Begin -> "transaction open"
  | Mix.Commit -> "transaction committed"
  | Mix.Point _ | Mix.Probe _ | Mix.Groups _ -> ""

let reply_ok ~parts stmt = function
  | Rows rows -> (
    match stmt with
    | Mix.Point _ | Mix.Probe _ | Mix.Groups _ -> Mix.check_read parts stmt rows
    | _ -> false)
  | Msg text -> text = ack stmt
  | Refused _ -> false

let describe stmt = function
  | Rows rows ->
    Printf.sprintf "%s: wrong rows (%d)" (Mix.sql stmt) (List.length rows)
  | Msg text -> Printf.sprintf "%s: unexpected reply %S" (Mix.sql stmt) text
  | Refused why -> Printf.sprintf "%s: refused: %s" (Mix.sql stmt) why

type tally = {
  mutable stmts : int;  (** statements acked correctly, every phase *)
  mutable dml : int;  (** of those, writes *)
  mutable failed : int;
}

let new_tally () = { stmts = 0; dml = 0; failed = 0 }

let settle tally ~parts stmt reply =
  if reply_ok ~parts stmt reply then begin
    tally.stmts <- tally.stmts + 1;
    if Mix.is_write stmt then tally.dml <- tally.dml + 1
  end
  else begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 5 then prerr_endline ("nf2bench: " ^ describe stmt reply)
  end

(* ------------------------------------------------------------------ *)
(* Closed loop over the wire                                           *)
(* ------------------------------------------------------------------ *)

type conn = {
  client : Server.Client.t;
  fd : Unix.file_descr;
  stream : Mix.stream;
  mutable cls : Mix.cls;
  mutable todo : Mix.stmt list;  (** unsent statements of the unit *)
  mutable inflight : Mix.stmt;
  mutable sent_at : int64;
  mutable unit_at : int64;
  mutable busy : bool;
}

(* The window is cut into half-second segments, and every end-to-end
   metric but setup_s is taken from the fastest quarter of them: the
   segments that acked the most statements. The machine is shared. Its
   other tenants slow a fixed CPU loop by up to 1.5x, for seconds to
   minutes at a time, and never speed it up, so the fastest segments
   come closest to what the code itself costs. Over ten seeds this cut
   the run-to-run spread (IQR over median) of p50 from 13% to 8.5% on
   read-hot, from 11% to 7.5% on read-large and from 21% to 16% on
   write-view, against p50 over the whole window. *)
let segment_s = 0.5
let segment_count seconds = max 4 (Float.to_int (Float.round (seconds /. segment_s)))

(* What the measured window recorded. Latencies are in ms. *)
type window = {
  start : int64;
  until : int64;
  seg_ns : int64;
  lat : (Mix.cls * int, float list) Hashtbl.t;  (** by (class, segment) *)
  done_in : int array;  (** statements acked per segment *)
  mutable attempted : int;
  mutable rtt_ms : float;  (** summed over the statements in [done_in] *)
}

let new_window seconds =
  let start = now_ns () in
  let n = segment_count seconds in
  {
    start;
    until = Int64.add start (ns_of_secs seconds);
    seg_ns = ns_of_secs (seconds /. float_of_int n);
    lat = Hashtbl.create 8;
    done_in = Array.make n 0;
    attempted = 0;
    rtt_ms = 0.;
  }

let segments win = Array.length win.done_in

let samples win cls seg =
  Option.value ~default:[] (Hashtbl.find_opt win.lat (cls, seg))

let note win cls seg ms = Hashtbl.replace win.lat (cls, seg) (ms :: samples win cls seg)

let reply_of_response = function
  | Ok { Server.Client.results = [ { reply = `Rows (schema, ntuples); _ } ]; _ }
    ->
    Rows (Mix.rows_of schema ntuples)
  | Ok { Server.Client.results = [ { reply = `Msg text; _ } ]; _ } -> Msg text
  | Ok _ -> Refused "not exactly one statement result"
  | Error (code, why) -> Refused (Server.Protocol.err_code_name code ^ ": " ^ why)

let send win c stmt =
  c.inflight <- stmt;
  c.sent_at <- now_ns ();
  Option.iter (fun w -> w.attempted <- w.attempted + 1) win;
  Server.Client.query_send c.client (Mix.sql stmt)

let start_unit win c =
  let u = Mix.next c.stream in
  c.cls <- u.cls;
  c.busy <- true;
  c.todo <- List.tl u.stmts;
  send win c (List.hd u.stmts);
  c.unit_at <- c.sent_at

(* Run both connections until [until] (monotonic ns), then let each
   finish its current unit: returns with nothing in flight. *)
let drive conns ~tally ~until ~win =
  let parts parity table = Mix.part conns.(parity).stream table in
  let complete c =
    let reply = reply_of_response (Server.Client.query_recv c.client) in
    let t = now_ns () in
    settle tally ~parts c.inflight reply;
    (match win with
    | Some w when t < w.until ->
      let s = Int64.to_int (Int64.div (Int64.sub t w.start) w.seg_ns) in
      let s = min s (segments w - 1) in
      let ms = ms_between c.sent_at t in
      w.done_in.(s) <- w.done_in.(s) + 1;
      w.rtt_ms <- w.rtt_ms +. ms;
      if c.cls <> Mix.Txn then note w c.cls s ms
      else if c.todo = [] then note w Mix.Txn s (ms_between c.unit_at t)
    | _ -> ());
    match c.todo with
    | next :: rest ->
      c.todo <- rest;
      send win c next
    | [] -> if t < until then start_unit win c else c.busy <- false
  in
  Array.iter (start_unit win) conns;
  let rec loop () =
    let busy = List.filter (fun c -> c.busy) (Array.to_list conns) in
    if busy <> [] then begin
      (match Unix.select (List.map (fun c -> c.fd) busy) [] [] 60. with
      | [], _, _ -> failwith "server stopped answering for 60 s"
      | ready, _, _ -> List.iter (fun c -> if List.mem c.fd ready then complete c) busy
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* Read every table (and view) back and compare it with the model, in
   G ranges of about [chunk_rows] rows. A row of three ints takes at
   most 17 bytes on the wire, so each reply stays under half the 1 MiB
   frame cap. A range is one scan; per-G probes would plan one
   uncached statement per group. *)
let chunk_rows = 25_000

let gate (w : Mix.workload) conns client tally =
  let parts parity table =
    Mix.part conns.(parity).stream (if Some table = w.view then "t" else table)
  in
  let per_chunk = max 1 (w.groups * chunk_rows / w.rows) in
  List.iter
    (fun table ->
      for i = 0 to (w.groups - 1) / per_chunk do
        let lo = i * per_chunk in
        let stmt = Mix.Groups (table, lo, min w.groups (lo + per_chunk)) in
        let reply = reply_of_response (Server.Client.query client (Mix.sql stmt)) in
        if not (reply_ok ~parts stmt reply) then settle tally ~parts stmt reply
      done)
    (w.tables @ Option.to_list w.view)

type wire = {
  setup : float list;  (** seconds, one per cold start *)
  win : window;
  tally : tally;
  stmts : int;  (** statements acked between the two scrapes *)
  writes : int;
  before : Measure.scrape;
  after : Measure.scrape;
  rss_mb : float;  (** when the window opens *)
  rss_growth_mb : float;  (** over the window *)
  wal_growth : int;  (** bytes *)
}

let wire_run cfg (w : Mix.workload) ~dir ~csvs =
  let log = dir // "server.log" in
  (* Spawn to first Pong, including the CSV load and CREATE VIEW. *)
  let start i =
    let wal = dir // Printf.sprintf "wal-%d" i in
    mkdir_p wal;
    let t0 = now_ns () in
    let server, port = spawn cfg ~csvs ~wal ~log in
    let client = Server.Client.connect ~port () in
    Server.Client.ping client;
    Option.iter
      (fun v ->
        ignore
          (Server.Client.query_exn client
             (Printf.sprintf "create view %s as nest t by G" v)))
      w.view;
    (server, port, client, wal, secs_since t0)
  in
  (* At least [cfg.starts] cold starts, and more while they add up to
     under a second (at most 15): a 20 ms start is noisier than a 3 s
     one, and cheaper to repeat. The last start stays up. *)
  let more setup =
    let n = List.length setup in
    n < cfg.starts
    || (cfg.starts > 1 && n < 15 && List.fold_left ( +. ) 0. setup < 1.)
  in
  let rec cold i setup =
    let server, port, client, wal, secs = start i in
    let setup = secs :: setup in
    if more setup then begin
      Server.Client.close client;
      kill server;
      rm_rf wal;
      cold (i + 1) setup
    end
    else (server, port, client, wal, List.rev setup)
  in
  let phases = ref [] in
  let phase name f =
    let t0 = now_ns () in
    let result = f () in
    phases := Printf.sprintf "%s %.2fs" name (secs_since t0) :: !phases;
    result
  in
  let server, port, client, wal, setup = phase "starts" (fun () -> cold 0 []) in
  let conns =
    Array.mapi
      (fun parity client ->
        {
          client;
          fd = Server.Client.fd client;
          stream = Mix.stream w ~seed:cfg.seed ~parity;
          cls = Mix.Read;
          todo = [];
          inflight = Mix.Begin;
          sent_at = 0L;
          unit_at = 0L;
          busy = false;
        })
      [| client; Server.Client.connect ~port () |]
  in
  let tally = new_tally () in
  phase "warmup" (fun () ->
      drive conns ~tally ~until:(Int64.add (now_ns ()) (ns_of_secs cfg.warmup)) ~win:None);
  let scrape () = Measure.parse_scrape (Server.Client.metrics_prom client) in
  let before = scrape () in
  let wal0 = dir_bytes wal and stmts0 = tally.stmts and dml0 = tally.dml in
  let rss_mb = vm_hwm_mb server.pid in
  let win = new_window cfg.seconds in
  phase "window" (fun () -> drive conns ~tally ~until:win.until ~win:(Some win));
  let after = scrape () in
  let wal_growth = dir_bytes wal - wal0 in
  let rss_growth_mb = vm_hwm_mb server.pid -. rss_mb in
  phase "gate" (fun () -> gate w conns client tally);
  let conflicts = Measure.get after "txn.conflict" in
  if conflicts > 0. then failwith (Printf.sprintf "%.0f txn conflicts" conflicts);
  Server.Client.close conns.(1).client;
  phase "stop" (fun () -> stop server client);
  Printf.printf "  phases: %s\n%!" (String.concat ", " (List.rev !phases));
  {
    setup;
    win;
    tally;
    stmts = tally.stmts - stmts0;
    writes = tally.dml - dml0;
    before;
    after;
    rss_mb;
    rss_growth_mb;
    wal_growth;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; detail : string }

let metric ?(detail = "") name unit_ value = { name; value; unit_; detail }
let pct x = if Float.is_nan x then "-" else Printf.sprintf "%.1f%%" (100. *. x)
let class_name = function Mix.Read -> "read" | Mix.Write -> "write" | Mix.Txn -> "txn"

(* The latency class behind a workload's p50_ms and p90_ms. *)
let primary = function
  | Mix.Read_hot | Mix.Read_large -> Mix.Read
  | Mix.Write_view -> Mix.Write
  | Mix.Txn_multi -> Mix.Txn

(* One latency class over the fastest segments: p50, p90 and the
   highest percentile up to p99 with at least 10 samples beyond it,
   each named after its level (read_p99_ms). BENCHMARK.json takes p90
   rather than p99 as the tail: in two sets of ten seeds, write-view's
   p99 spread 21% from run to run and its p90 7-8%. *)
let latency_metrics win cls =
  let fast = Measure.top_quarter win.done_in in
  let pooled = Measure.sorted (List.concat_map (samples win cls) fast) in
  let n = Array.length pooled in
  let detail =
    Printf.sprintf "n=%d  fastest %d of %d segments" n (List.length fast) (segments win)
  in
  List.filter (fun q -> Measure.supports q n) [ 500; 900 ]
  @ Option.to_list (Measure.tail_level n)
  |> List.sort_uniq compare
  |> List.map (fun q ->
         metric
           (class_name cls ^ "_" ^ Measure.level_name q ^ "_ms")
           "ms"
           (Measure.quantile pooled ~per_mille:q)
           ~detail)

let end_to_end (w : Mix.workload) r =
  let seg_s = Int64.to_float r.win.seg_ns *. 1e-9 in
  let per_s segs =
    let acked = List.fold_left (fun acc s -> acc + r.win.done_in.(s)) 0 segs in
    float_of_int acked /. (seg_s *. float_of_int (List.length segs))
  in
  let fast = Measure.top_quarter r.win.done_in in
  let all = List.init (segments r.win) Fun.id in
  let attempted = r.tally.stmts + r.tally.failed in
  let latencies =
    List.map (fun cls -> (cls, latency_metrics r.win cls)) [ Mix.Read; Mix.Write; Mix.Txn ]
  in
  let metrics =
    [
      metric "setup_s" "s" (Measure.median r.setup)
        ~detail:
          (Printf.sprintf "n=%d cold starts: %s" (List.length r.setup)
             (String.concat " " (List.map (Printf.sprintf "%.3f") r.setup)));
      metric "throughput_ops" "1/s" (per_s fast)
        ~detail:
          (Printf.sprintf "fastest %d of %d segments; %.1f/s over the window"
             (List.length fast) (segments r.win) (per_s all));
    ]
    @ List.concat_map snd latencies
    @ [
        metric "fail_ratio" "ratio"
          (Measure.ratio (float_of_int r.tally.failed) (float_of_int attempted))
          ~detail:(Printf.sprintf "n=%d statements" attempted);
        (* Read before the window: under load the server's peak keeps
           growing, by 1.4-1.6 KB per statement on read-large,
           write-view and txn-multi, so a reading at the end would move
           with how many statements the machine got through. *)
        metric "server_rss_mb" "MB" r.rss_mb ~detail:"VmHWM after set-up and warmup";
      ]
    @
    if r.writes = 0 then []
    else
      [
        metric "wal_bytes_per_write" "B"
          (float_of_int r.wal_growth /. float_of_int r.writes)
          ~detail:(Printf.sprintf "n=%d writes" r.writes);
      ]
  in
  (* BENCHMARK.json's p50_ms and p90_ms: the workload's primary class. *)
  let main = primary w.kind in
  let alias name =
    List.find_opt (fun m -> m.name = class_name main ^ "_" ^ name) (List.assoc main latencies)
    |> Option.map (fun m -> { m with name; detail = "= " ^ m.name })
  in
  metrics @ List.filter_map alias [ "p50_ms"; "p90_ms" ]

(* Per-layer part 1: the server's always-on counters across the window.
   Ratios per write divide by the write statements acked in it. *)
let counters r =
  let d = Measure.delta r.before r.after in
  let mean = Measure.hist_mean r.before r.after in
  let per_write x = Measure.ratio x (float_of_int r.writes) in
  let hits = d "planner.cache_hit" and misses = d "planner.cache_miss" in
  let pool_hits = d "pool.hit" and pool_misses = d "pool.miss" in
  let done_n = Array.fold_left ( + ) 0 r.win.done_in in
  let query_us = 1e6 *. mean "query.seconds" in
  let client_us = 1e3 *. Measure.ratio r.win.rtt_ms (float_of_int done_n) in
  [
    metric "nfql.plan_cache_hit_ratio" "ratio" (Measure.ratio hits (hits +. misses));
    metric "storage.pool_hit_ratio" "ratio"
      (Measure.ratio pool_hits (pool_hits +. pool_misses));
    metric "storage.pool_evictions_per_op" "count"
      (Measure.ratio (d "pool.evict") (float_of_int r.stmts));
    metric "storage.wal_syncs_per_write" "count" (per_write (d "wal.sync_total"));
    metric "storage.wal_sync_mean_ms" "ms" (1e3 *. mean "wal.sync.seconds");
    metric "server.group_commit_batch_mean" "count" (mean "wal.group_commit.batch_size");
    metric "storage.wal_bytes_per_write" "B" (per_write (d "wal.bytes_total"));
    metric "views.compositions_per_write" "count"
      (per_write (d "view.compositions_total"));
    metric "views.maintain_mean_ms" "ms" (1e3 *. mean "view.maintain.seconds");
    metric "nfql.txn_conflicts" "count" (d "txn.conflict");
    metric "server.loop_stalls" "count" (d "loop.stalls_total");
    metric "hist.scrape_mean_ms" "ms" (1e3 *. mean "obs.scrape.seconds");
    metric "server.query_mean_us" "us" query_us;
    metric "server.wait_us" "us" (client_us -. query_us)
      ~detail:"client round trip minus server statement time";
    metric "server.rss_growth_kb_per_op" "KB"
      (Measure.ratio (1024. *. r.rss_growth_mb) (float_of_int r.stmts))
      ~detail:"VmHWM growth over the window per statement";
  ]

(* ------------------------------------------------------------------ *)
(* Traced in-process run                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** 0 for a request span *)
  trace : int;  (** the request index *)
  label : string;
  verb : string;  (** the statement, on exec spans *)
  t0 : int64;
  t1 : int64;
}

type tracer = {
  mutable spans : span list;
  mutable next_id : int;
  mutable trace_id : int;
  mutable parent : int;
}

let fresh_id tr =
  tr.next_id <- tr.next_id + 1;
  tr.next_id

let record ?(verb = "") tr ~id ~parent name t0 t1 =
  tr.spans <- { id; parent; trace = tr.trace_id; label = name; verb; t0; t1 } :: tr.spans

let timed ?verb tr name f =
  let t0 = now_ns () in
  let result = f () in
  record ?verb tr ~id:(fresh_id tr) ~parent:tr.parent name t0 (now_ns ());
  result

(* The layers a request crosses, in order; every call is a child span
   of the request. *)
let request_layers =
  [
    "server.decode"; "nfql.parse"; "nfql.plan"; "nfql.exec_read";
    "nfql.exec_write"; "server.encode_reply"; "storage.sync";
  ]

(* Replays of each write into a mirror table and view catalog, timed
   after the request: the storage and views shares of exec_write. *)
let mirror_layers = [ "storage.table_apply"; "views.apply" ]

(* Build the database the way `nfr_cli serve --wal-dir` does. *)
let build_db (w : Mix.workload) ~csvs ~wal =
  let db = Nfql.Physical.create () in
  let flats =
    List.map
      (fun (name, path) ->
        let flat = Csv.load path in
        let order = Schema.attributes (Relation.schema flat) in
        Nfql.Physical.add_table db name
          (Storage.Table.load ~wal_path:(wal // (name ^ ".wal")) ~synchronous:false
             ~order flat);
        (name, flat))
      csvs
  in
  Nfql.Physical.attach_views_wal db ~path:(wal // "_views.wal");
  Nfql.Physical.attach_manifest ~synchronous:false db
    (Storage.Manifest.open_log (wal // "_commit.wal"));
  Option.iter
    (fun v ->
      ignore (Nfql.Physical.exec_string db (Printf.sprintf "create view %s as nest t by G" v)))
    w.view;
  (db, flats)

let close_db db =
  Nfql.Physical.iter_tables db (fun _ table -> Storage.Table.close table);
  Option.iter Storage.Manifest.close (Nfql.Physical.manifest db);
  Views.Catalog.close (Nfql.Physical.catalog db)

type mirror = {
  tables : (string * Storage.Table.t) list;
  catalog : Views.Catalog.t option;
  mutable txid : int;
}

let make_mirror (w : Mix.workload) flats ~wal =
  let tables =
    List.map
      (fun (name, flat) ->
        ( name,
          Storage.Table.load
            ~wal_path:(wal // ("mirror-" ^ name ^ ".wal"))
            ~synchronous:false
            ~order:(Schema.attributes (Relation.schema flat))
            flat ))
      flats
  in
  let catalog =
    Option.map
      (fun view ->
        let catalog = Views.Catalog.create () in
        Views.Catalog.define catalog ~view ~base:"t" ~by:[ "G" ]
          (Storage.Table.snapshot (List.assoc "t" tables));
        catalog)
      w.view
  in
  { tables; catalog; txid = 0 }

let ops_of schema stmt =
  let tuple (r : Mix.row) =
    Tuple.make schema [ Value.of_int r.k; Value.of_int r.g; Value.of_int r.v ]
  in
  match stmt with
  | Mix.Insert (t, r) -> [ (t, Views.Catalog.Ins (tuple r)) ]
  | Mix.Delete (t, r) -> [ (t, Views.Catalog.Del (tuple r)) ]
  | Mix.Update (t, r, v) ->
    (* As Physical applies UPDATE: the new image first, then the old. *)
    [ (t, Views.Catalog.Ins (tuple { r with v })); (t, Views.Catalog.Del (tuple r)) ]
  | Mix.Point _ | Mix.Probe _ | Mix.Groups _ | Mix.Begin | Mix.Commit -> []

(* One committed write group into the mirror: autocommit through the
   table's plain insert/delete, a transaction through its txn API. *)
let mirror_apply tr m ~txn ops =
  let table name = List.assoc name m.tables in
  timed tr "storage.table_apply" (fun () ->
      if txn then begin
        m.txid <- m.txid + 1;
        let txid = m.txid in
        let touched = List.sort_uniq compare (List.map fst ops) in
        List.iter (fun name -> Storage.Table.begin_txn (table name) ~txid) touched;
        List.iter
          (fun (name, op) ->
            match op with
            | Views.Catalog.Ins t -> ignore (Storage.Table.txn_insert (table name) ~txid t)
            | Views.Catalog.Del t -> Storage.Table.txn_delete (table name) ~txid t)
          ops;
        List.iter (fun name -> ignore (Storage.Table.commit_txn (table name) ~txid)) touched
      end
      else
        List.iter
          (fun (name, op) ->
            match op with
            | Views.Catalog.Ins t -> ignore (Storage.Table.insert (table name) t)
            | Views.Catalog.Del t -> Storage.Table.delete (table name) t)
          ops);
  Option.iter
    (fun catalog ->
      let base_ops = List.filter_map (fun (n, op) -> if n = "t" then Some op else None) ops in
      timed tr "views.apply" (fun () ->
          ignore
            (Views.Catalog.apply catalog ~base:"t"
               ~base_nfr:(lazy (Storage.Table.snapshot (table "t")))
               base_ops)))
    m.catalog

(* One request through every layer, as Session handles a Query frame
   on a one-statement script. [sync]: this request ends a loop tick. *)
let serve_one tr db session frame ~sync =
  let source =
    match timed tr "server.decode" (fun () -> Server.Protocol.decode_message frame) with
    | Ok (Server.Protocol.Query source) -> source
    | _ -> failwith "frame did not decode to a query"
  in
  let statement =
    match timed tr "nfql.parse" (fun () -> Nfql.Parser.parse_script source) with
    | [ statement ] -> statement
    | _ -> failwith "expected one statement"
  in
  let layer =
    match statement with
    | Nfql.Ast.Select s ->
      ignore (timed tr "nfql.plan" (fun () -> Nfql.Physical.plan db s));
      "nfql.exec_read"
    | _ -> "nfql.exec_write"
  in
  let outcome =
    timed tr layer ~verb:(Nfql.Ast.statement_verb statement) (fun () ->
        match Nfql.Physical.exec_session session statement with
        | outcome -> Ok outcome
        | exception e -> Error (Printexc.to_string e))
  in
  let buffer = Buffer.create 256 in
  timed tr "server.encode_reply" (fun () ->
      match outcome with
      | Ok (result, stats) ->
        Server.Protocol.encode buffer (Server.Protocol.Stats stats);
        Server.Protocol.encode buffer
          (match result with
          | Nfql.Eval.Done text -> Server.Protocol.Done text
          | Nfql.Eval.Rows nfr -> Server.Protocol.Rows (Nfr_core.Nfr.schema nfr, Nfr_core.Nfr.ntuples nfr));
        Server.Protocol.encode buffer (Server.Protocol.Done "ok: 1 statement(s)")
      | Error why ->
        Server.Protocol.encode buffer (Server.Protocol.Err (Server.Protocol.Query_failed, why)));
  if sync && Nfql.Physical.wal_unsynced db > 0 then
    timed tr "storage.sync" (fun () -> Nfql.Physical.sync_wal db);
  match outcome with
  | Ok (Nfql.Eval.Done text, _) -> Msg text
  | Ok (Nfql.Eval.Rows nfr, _) ->
    Rows (Mix.rows_of (Nfr_core.Nfr.schema nfr) (Nfr_core.Nfr.ntuples nfr))
  | Error why -> Refused why

type traced = { spans : span list; requests : int; tally : tally }

let traced_run cfg (w : Mix.workload) ~dir ~csvs =
  let wal = dir // "trace-wal" in
  mkdir_p wal;
  let db, flats = build_db w ~csvs ~wal in
  let schema = Relation.schema (snd (List.hd flats)) in
  let mirror = if w.kind = Mix.Read_large then None else Some (make_mirror w flats ~wal) in
  let streams = Array.init 2 (fun parity -> Mix.stream w ~seed:cfg.seed ~parity) in
  let sessions = Array.map (fun _ -> Nfql.Physical.session db) streams in
  let todo = [| []; [] |] and in_txn = [| false; false |] and pending = [| []; [] |] in
  let tr = { spans = []; next_id = 0; trace_id = 0; parent = 0 } in
  let tally = new_tally () in
  let parts parity table = Mix.part streams.(parity) table in
  let requests = trace_ops cfg w in
  for i = 0 to requests - 1 do
    (* Alternate the two connections statement by statement. *)
    let c = i mod 2 in
    if todo.(c) = [] then todo.(c) <- (Mix.next streams.(c)).stmts;
    let stmt = List.hd todo.(c) in
    todo.(c) <- List.tl todo.(c);
    let frame = Server.Protocol.encode_string (Server.Protocol.Query (Mix.sql stmt)) in
    tr.trace_id <- i + 1;
    let id = fresh_id tr in
    tr.parent <- id;
    let t0 = now_ns () in
    let reply = serve_one tr db sessions.(c) frame ~sync:(c = 1) in
    record tr ~id ~parent:0 "request" t0 (now_ns ());
    settle tally ~parts stmt reply;
    Option.iter
      (fun m ->
        match stmt with
        | Mix.Begin -> in_txn.(c) <- true
        | Mix.Commit ->
          in_txn.(c) <- false;
          mirror_apply tr m ~txn:true (List.rev pending.(c));
          pending.(c) <- []
        | _ when in_txn.(c) -> pending.(c) <- List.rev_append (ops_of schema stmt) pending.(c)
        | _ -> if Mix.is_write stmt then mirror_apply tr m ~txn:false (ops_of schema stmt))
      mirror
  done;
  close_db db;
  Option.iter
    (fun m ->
      List.iter (fun (_, t) -> Storage.Table.close t) m.tables;
      Option.iter Views.Catalog.close m.catalog)
    mirror;
  { spans = tr.spans; requests; tally }

let durations_us spans name =
  List.filter_map
    (fun s -> if s.label = name then Some (ms_between s.t0 s.t1 *. 1e3) else None)
    spans

let sum = List.fold_left ( +. ) 0.

(* Per-layer part 2: p50/p99 per layer, each layer's share of request
   time, the request span's self time, and the mirrors' shares of
   exec_write. *)
let layer_metrics t =
  let request = durations_us t.spans "request" in
  let request_total = sum request in
  let quantiles name samples =
    let s = Measure.summarize samples in
    let n = Printf.sprintf "n=%d" s.n in
    Option.to_list (Option.map (fun v -> metric (name ^ "_p50_us") "us" v ~detail:n) s.p50)
    @ Option.to_list
        (Option.map
           (fun (q, v) ->
             metric (name ^ "_p99_us") "us" v
               ~detail:(n ^ "  " ^ Measure.level_name q))
           s.tail)
  in
  let layer name =
    let samples = durations_us t.spans name in
    quantiles name samples
    @ [ metric (name ^ "_share") "ratio" (Measure.ratio (sum samples) request_total) ]
  in
  let exec = durations_us t.spans "nfql.exec_read" @ durations_us t.spans "nfql.exec_write" in
  let covered =
    sum (List.concat_map (durations_us t.spans) request_layers)
  in
  let exec_write = sum (durations_us t.spans "nfql.exec_write") in
  quantiles "trace.request" request
  @ List.concat_map layer request_layers
  @ quantiles "nfql.exec" exec
  @ [
      metric "trace.self_share" "ratio"
        (Measure.ratio (request_total -. covered) request_total)
        ~detail:"request time no layer span covers";
    ]
  @ List.concat_map
      (fun name ->
        let samples = durations_us t.spans name in
        quantiles name samples
        @ [
            metric (name ^ "_share") "ratio" (Measure.ratio (sum samples) exec_write)
              ~detail:"of nfql.exec_write time";
          ])
      mirror_layers

(* The self-time table: where a traced request's time went. *)
let print_self_time t =
  let request_total = sum (durations_us t.spans "request") in
  Printf.printf "  %-22s %8s %10s %10s %10s %7s\n" "layer" "calls" "p50_us" "p99_us"
    "total_ms" "share";
  let row label samples ~base =
    let s = Measure.summarize samples in
    let show = function Some v -> Printf.sprintf "%.2f" v | None -> "-" in
    Printf.printf "  %-22s %8d %10s %10s %10.1f %7s\n" label s.n (show s.p50)
      (show (Option.map snd s.tail))
      (sum samples /. 1e3)
      (pct (Measure.ratio (sum samples) base))
  in
  List.iter
    (fun name -> row name (durations_us t.spans name) ~base:request_total)
    request_layers;
  let covered = sum (List.concat_map (durations_us t.spans) request_layers) in
  Printf.printf "  %-22s %8s %10s %10s %10.1f %7s\n" "request (self)" "" "" ""
    ((request_total -. covered) /. 1e3)
    (pct (Measure.ratio (request_total -. covered) request_total));
  let exec_write = sum (durations_us t.spans "nfql.exec_write") in
  if exec_write > 0. then begin
    Printf.printf "  nfql.exec_write by statement, share of nfql.exec_write:\n";
    let writes = List.filter (fun s -> s.label = "nfql.exec_write") t.spans in
    List.iter
      (fun verb ->
        row ("  " ^ verb)
          (List.filter_map
             (fun s -> if s.verb = verb then Some (ms_between s.t0 s.t1 *. 1e3) else None)
             writes)
          ~base:exec_write)
      (List.sort_uniq compare (List.map (fun s -> s.verb) writes));
    Printf.printf "  mirror replays, share of nfql.exec_write:\n";
    List.iter
      (fun name -> row name (durations_us t.spans name) ~base:exec_write)
      mirror_layers;
    let mirrored = sum (List.concat_map (durations_us t.spans) mirror_layers) in
    Printf.printf "  %-22s %8s %10s %10s %10.1f %7s\n" "nfql self (exec_write)" ""
      "" "" ((exec_write -. mirrored) /. 1e3)
      (pct (Measure.ratio (exec_write -. mirrored) exec_write))
  end

let write_spans oc (w : Mix.workload) t =
  let base = List.fold_left (fun acc s -> min acc s.t0) Int64.max_int t.spans in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"workload\":%S,\"trace\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"verb\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        w.name s.trace s.id s.parent s.label s.verb (Int64.sub s.t0 base) (Int64.sub s.t1 base))
    (List.rev t.spans)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* What BENCHMARK.json names: the end-to-end metrics of an untraced
   run, and the per-layer ones of a traced run. *)
let end_to_end_names = [ "setup_s"; "throughput_ops"; "p50_ms"; "p90_ms"; "server_rss_mb" ]

let per_layer_names =
  [
    "trace.request_p50_us"; "server.decode_p50_us"; "nfql.parse_p50_us";
    "nfql.exec_p50_us"; "nfql.exec_p99_us"; "server.encode_reply_p50_us";
    "nfql.plan_share"; "nfql.exec_read_share"; "nfql.exec_write_share";
    "storage.sync_share"; "trace.self_share"; "storage.table_apply_share";
    "views.apply_share"; "server.query_mean_us"; "server.wait_us";
    "hist.scrape_mean_ms"; "nfql.plan_cache_hit_ratio"; "storage.pool_hit_ratio";
    "storage.pool_evictions_per_op"; "storage.wal_syncs_per_write";
    "server.group_commit_batch_mean"; "storage.wal_bytes_per_write";
    "views.compositions_per_write"; "server.loop_stalls"; "server.rss_growth_kb_per_op";
  ]

let print_metrics (w : Mix.workload) metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-12s %-32s %14.6g %-6s %s\n" w.name m.name m.value m.unit_
        m.detail)
    metrics

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "nf2bench: non-finite metric"

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, m) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number m.value)
           m.unit_)
       metrics)

type outcome = {
  workload : Mix.workload;
  correct : bool;
  attempted : int;
  failed : int;
  all : metric list;  (** everything printed *)
  selected : (string * metric) list;  (** what BENCHMARK.json names *)
}

let run_workload cfg spans_oc kind =
  let w = Mix.workload ~smoke:cfg.smoke kind in
  let dir = cfg.work // Printf.sprintf "%s-%d" w.name (Unix.getpid ()) in
  rm_rf dir;
  mkdir_p dir;
  Printf.printf
    "== %s: %d rows per table, 2 connections, closed loop, %gs warmup + %gs \
     measured (%d segments), seed %d ==\n\
     %!"
    w.name w.rows cfg.warmup cfg.seconds (segment_count cfg.seconds) cfg.seed;
  let run () =
    let csvs = write_inputs w ~seed:cfg.seed ~dir in
    let r = wire_run cfg w ~dir ~csvs in
    let e2e = end_to_end w r in
    let layers, trace_failed =
      if not cfg.trace then ([], 0)
      else begin
        let t = traced_run cfg w ~dir ~csvs in
        write_spans spans_oc w t;
        Printf.printf "  traced run: %d requests, spans in %s\n" t.requests cfg.trace_out;
        print_self_time t;
        (counters r @ layer_metrics t, t.tally.failed)
      end
    in
    let all = e2e @ layers in
    print_metrics w all;
    let names = if cfg.trace then per_layer_names else end_to_end_names in
    let selected =
      List.map
        (fun name ->
          match List.find_opt (fun m -> m.name = name) all with
          | Some m -> (name, m)
          | None ->
            failwith
              ("no value for metric " ^ name ^ ": too few samples, try a longer --seconds"))
        names
    in
    let failed = r.tally.failed + trace_failed in
    {
      workload = w;
      correct = failed = 0;
      attempted = r.win.attempted;
      failed;
      all;
      selected;
    }
  in
  let outcome =
    match run () with
    | outcome -> outcome
    | exception (( Failure _ | Server.Client.Error _ | Unix.Unix_error _
                 | Sys_error _ | End_of_file | Not_found ) as e) ->
      Printf.eprintf "nf2bench: %s FAILED: %s\n%!" w.name (Printexc.to_string e);
      { workload = w; correct = false; attempted = 1; failed = 1; all = []; selected = [] }
  in
  List.iter kill !live;
  rm_rf dir;
  Printf.printf "  %s: %s\n%!" w.name
    (if outcome.correct then "final state matches the model" else "INCORRECT");
  outcome

let write_out file outcomes cfg =
  let oc = open_out file in
  Printf.fprintf oc "{\"seed\": %d, \"seconds\": %s, \"trace\": %b, \"workloads\": {%s}}\n"
    cfg.seed (json_number cfg.seconds) cfg.trace
    (String.concat ", "
       (List.map
          (fun o ->
            Printf.sprintf "%S: {\"correct\": %b, \"metrics\": {%s}}" o.workload.name
              o.correct
              (json_metrics (List.map (fun m -> (m.name, m)) o.all)))
          outcomes));
  close_out oc

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cfg = parse_args Sys.argv in
  if not (Sys.file_exists cfg.server) then
    die "no server binary at %s (build it: dune build bin/nfr_cli.exe)" cfg.server;
  mkdir_p cfg.work;
  let spans_oc = if cfg.trace then open_out cfg.trace_out else stdout in
  let outcomes = List.map (run_workload cfg spans_oc) cfg.kinds in
  if cfg.trace then close_out spans_oc;
  Option.iter (fun file -> write_out file outcomes cfg) cfg.out;
  let single = List.length outcomes = 1 in
  let metrics =
    List.concat_map
      (fun o ->
        List.map
          (fun (name, m) -> ((if single then name else o.workload.name ^ "." ^ name), m))
          o.selected)
      outcomes
  in
  let correct = List.for_all (fun o -> o.correct) outcomes in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct
    (List.fold_left (fun acc o -> acc + o.attempted) 0 outcomes)
    (List.fold_left (fun acc o -> acc + o.failed) 0 outcomes)
    (json_metrics metrics);
  exit (if correct then 0 else 1)
