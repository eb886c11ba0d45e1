(* Structured spans with parent links and per-request trace ids.

   The design optimizes for the disabled path: instrumentation sites
   call {!enter}/{!with_span} unconditionally, and when no trace scope
   is open the span they get is a detached record (trace 0) that still
   accumulates timing — EXPLAIN ANALYZE reads operator timings off
   spans whether or not tracing is on — but is never written to the
   ring. Opening a scope ({!in_trace}) is what turns recording on for
   everything dynamically beneath it.

   Recorded spans go into a fixed-capacity ring at *enter* time, so
   within the retained window a parent always precedes its children —
   the ordering invariant the trace renderers rely on (and the
   property tests pin down). All state is process-global and
   single-threaded, matching the select-loop server. *)

type event =
  | Request
  | Frame_rx
  | Frame_tx
  | Parse
  | Plan
  | Statement of string  (* the statement verb *)
  | Operator of string  (* the physical operator label *)
  | Txn of string  (* begin/commit/rollback/conflict *)
  | Wal_append
  | Wal_sync
  | Wal_replay
  | Snapshot_write
  | Snapshot_load
  | Salvage
  | Nest_fixpoint
  | Nest_apply
  | Unnest_apply
  | Compose_step
  | Custom of string

let event_name = function
  | Request -> "request"
  | Frame_rx -> "frame-rx"
  | Frame_tx -> "frame-tx"
  | Parse -> "parse"
  | Plan -> "plan"
  | Statement _ -> "statement"
  | Operator _ -> "operator"
  | Txn _ -> "txn"
  | Wal_append -> "wal-append"
  | Wal_sync -> "wal-sync"
  | Wal_replay -> "wal-replay"
  | Snapshot_write -> "snapshot-write"
  | Snapshot_load -> "snapshot-load"
  | Salvage -> "salvage"
  | Nest_fixpoint -> "nest-fixpoint"
  | Nest_apply -> "nest"
  | Unnest_apply -> "unnest"
  | Compose_step -> "compose-step"
  | Custom name -> name

type t = {
  id : int;  (* 0 for detached (unrecorded) spans *)
  trace : int;  (* 0 when detached *)
  parent : int;  (* 0 for trace roots *)
  event : event;
  label : string;
  start_s : float;
  mutable busy_s : float;
  mutable rows : int;
  mutable bytes : int;
  mutable ended : bool;
}

(* Master switch consulted by the server to decide whether to open a
   per-request trace at all. Explicit in_trace callers (TRACE, the
   trace CLI) work regardless. *)
let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let next_id = ref 0
let next_trace = ref 0
let default_capacity = 4096
let ring = ref (Array.make default_capacity None)
let ring_start = ref 0
let ring_len = ref 0

let set_capacity n =
  let n = max 1 n in
  ring := Array.make n None;
  ring_start := 0;
  ring_len := 0

let capacity () = Array.length !ring

(* Stack of open scopes: (trace id, parent span id). *)
let scopes : (int * int) list ref = ref []

let reset () =
  scopes := [];
  ring_start := 0;
  ring_len := 0;
  Array.fill !ring 0 (Array.length !ring) None

let now = Unix.gettimeofday

let current_trace () =
  match !scopes with [] -> None | (trace, _) :: _ -> Some trace

let record sp =
  let buf = !ring in
  let cap = Array.length buf in
  if !ring_len < cap then begin
    buf.((!ring_start + !ring_len) mod cap) <- Some sp;
    Stdlib.incr ring_len
  end
  else begin
    buf.(!ring_start) <- Some sp;
    ring_start := (!ring_start + 1) mod cap
  end

let spans () =
  let buf = !ring in
  let cap = Array.length buf in
  List.init !ring_len (fun i ->
      match buf.((!ring_start + i) mod cap) with
      | Some sp -> sp
      | None -> assert false)

let spans_of_trace trace = List.filter (fun sp -> sp.trace = trace) (spans ())

let fresh_trace () =
  Stdlib.incr next_trace;
  !next_trace

let pop_scope () =
  match !scopes with _ :: rest -> scopes := rest | [] -> ()

let in_trace ?trace f =
  let trace = match trace with Some t -> t | None -> fresh_trace () in
  scopes := (trace, 0) :: !scopes;
  Fun.protect ~finally:pop_scope (fun () -> f trace)

let enter event label =
  match !scopes with
  | [] ->
    {
      id = 0;
      trace = 0;
      parent = 0;
      event;
      label;
      start_s = now ();
      busy_s = 0.;
      rows = 0;
      bytes = 0;
      ended = false;
    }
  | (trace, parent) :: _ ->
    Stdlib.incr next_id;
    let sp =
      {
        id = !next_id;
        trace;
        parent;
        event;
        label;
        start_s = now ();
        busy_s = 0.;
        rows = 0;
        bytes = 0;
        ended = false;
      }
    in
    record sp;
    sp

let add_busy sp seconds = sp.busy_s <- sp.busy_s +. seconds
let set_rows sp n = sp.rows <- n
let add_rows sp n = sp.rows <- sp.rows + n
let set_bytes sp n = sp.bytes <- n
let add_bytes sp n = sp.bytes <- sp.bytes + n
let busy sp = sp.busy_s

let finish sp =
  if not sp.ended then begin
    sp.ended <- true;
    if sp.busy_s = 0. then sp.busy_s <- now () -. sp.start_s
  end

let with_span event label f =
  let sp = enter event label in
  let pushed = sp.trace <> 0 in
  if pushed then scopes := (sp.trace, sp.id) :: !scopes;
  Fun.protect
    ~finally:(fun () ->
      if pushed then pop_scope ();
      sp.ended <- true;
      (* Accumulate (rather than set) so callers can pre-seed work
         done before the span opened, e.g. frame decode time. *)
      sp.busy_s <- sp.busy_s +. (now () -. sp.start_s))
    (fun () -> f sp)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let to_json sp =
  Printf.sprintf
    "{\"trace\":%d,\"span\":%d,\"parent\":%d,\"event\":%S,\"label\":%S,\"start_s\":%.6f,\"busy_ms\":%.3f,\"rows\":%d,\"bytes\":%d}"
    sp.trace sp.id sp.parent (event_name sp.event) sp.label sp.start_s
    (sp.busy_s *. 1000.) sp.rows sp.bytes

let to_json_lines () = String.concat "\n" (List.map to_json (spans ()))

(* Indented tree rendering (the trace CLI's output). Spans arrive in
   ring order — parents before children — so one pass with a depth
   memo suffices; a span whose parent fell off the ring renders at
   depth 0. *)
let render_tree spans =
  let depths = Hashtbl.create 64 in
  let buffer = Buffer.create 512 in
  List.iter
    (fun sp ->
      let depth =
        match Hashtbl.find_opt depths sp.parent with
        | Some d -> d + 1
        | None -> 0
      in
      Hashtbl.replace depths sp.id depth;
      Buffer.add_string buffer
        (Printf.sprintf "%10.3fms  %s%-14s %s%s%s\n" (sp.busy_s *. 1000.)
           (String.make (2 * depth) ' ')
           (event_name sp.event)
           (if sp.label = "" then "" else sp.label ^ " ")
           (if sp.rows > 0 then Printf.sprintf "rows=%d " sp.rows else "")
           (if sp.bytes > 0 then Printf.sprintf "bytes=%d" sp.bytes else "")))
    spans;
  Buffer.contents buffer
