type conn = {
  fd : Unix.file_descr;
  session : Session.t;
}

(* Replica mode: the connection to the primary this loop ships its
   state from. Inbound bytes accumulate in [ubuf] until whole frames
   decode; outbound acks accumulate in [upending]. *)
type upstream = {
  ufd : Unix.file_descr;
  uaddr : string;  (* "host:port", for errors and the Read_only payload *)
  mutable ubuf : Bytes.t;
  mutable ulen : int;
  mutable upending : string;
  mutable upending_pos : int;
}

type t = {
  listen_fd : Unix.file_descr;
  ctx : Session.context;
  on_shutdown : unit -> unit;
  mutable conns : conn list;
  mutable conn_count : int;  (* = List.length conns, kept for O(1) cap checks *)
  mutable next_id : int;
  mutable listening : bool;
  mutable is_stopped : bool;
  mutable last_sync_at : float;  (* group-commit pacing *)
  mutable last_tick_at : float;  (* stall watchdog *)
  mutable last_scrape_at : float;  (* self-scrape pacing *)
  mutable upstream : upstream option;
  read_chunk : Bytes.t;
}

let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let create ?config ?metrics ?now ?(on_shutdown = fun () -> ()) ~db ~listen () =
  Lazy.force ignore_sigpipe;
  let listen_fd =
    match listen with
    | `Fd fd -> fd
    | `Port port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
         Unix.listen fd 64
       with e ->
         Unix.close fd;
         raise e);
      fd
  in
  Unix.set_nonblock listen_fd;
  {
    listen_fd;
    ctx = Session.make_context ?config ?metrics ?now db;
    on_shutdown;
    conns = [];
    conn_count = 0;
    next_id = 0;
    listening = true;
    is_stopped = false;
    last_sync_at = neg_infinity;
    last_tick_at = neg_infinity;
    last_scrape_at = neg_infinity;
    upstream = None;
    read_chunk = Bytes.create 8192;
  }

let port t =
  match Unix.getsockname t.listen_fd with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> 0

let metrics t = Session.context_metrics t.ctx
let context t = t.ctx
let live_sessions t = t.conn_count
let stopped t = t.is_stopped

let close_conn t conn =
  if not (Session.closed conn.session) then begin
    Session.close conn.session;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Obs.Registry.incr (metrics t) "connections.closed";
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    t.conn_count <- t.conn_count - 1;
    Obs.Registry.set_gauge (metrics t) "connections.open"
      (float_of_int t.conn_count)
  end

(* ------------------------------------------------------------------ *)
(* Replica mode: the upstream connection                               *)
(* ------------------------------------------------------------------ *)

let detach_upstream t =
  match t.upstream with
  | None -> ()
  | Some up ->
    t.upstream <- None;
    (try Unix.close up.ufd with Unix.Unix_error _ -> ())

(* Connect to the primary, subscribe, and enter replica mode: the
   database refuses writes (naming the primary), and the loop folds
   the upstream socket into its select rounds, applying each shipped
   entry and acking it. Promotion (a [Promote] frame on any session)
   detaches the upstream and re-opens writes. *)
let attach_upstream t ~host ~port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (addr, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let subscribe = Protocol.encode_string Protocol.Repl_subscribe in
  (try ignore (Unix.write_substring fd subscribe 0 (String.length subscribe))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.set_nonblock fd;
  let uaddr = Printf.sprintf "%s:%d" host port in
  t.upstream <-
    Some
      {
        ufd = fd;
        uaddr;
        ubuf = Bytes.create 8192;
        ulen = 0;
        upending = "";
        upending_pos = 0;
      };
  Nfql.Physical.set_read_only (Session.context_db t.ctx) (Some uaddr);
  Session.set_on_promote t.ctx (fun () -> detach_upstream t)

let replica_of t = Option.map (fun up -> up.uaddr) t.upstream

(* [up] is still the attached upstream (a detach mid-drain must stop
   the drain loops). Compare the records physically — [t.upstream ==
   Some up] would compare a freshly allocated [Some] cell and never
   hold. *)
let upstream_is t up =
  match t.upstream with Some current -> current == up | None -> false

let stage_upstream_out up data =
  if up.upending_pos >= String.length up.upending then begin
    up.upending <- data;
    up.upending_pos <- 0
  end
  else up.upending <- up.upending ^ data

let handle_upstream t up message =
  let m = metrics t in
  match message with
  | Protocol.Repl_entry event -> (
    match Nfql.Physical.apply_repl_event (Session.context_db t.ctx) event with
    | () ->
      Obs.Registry.incr m "repl.entries_applied";
      (* Lag against the primary's emission clock (wall time on both
         ends — the stamp is Unix.gettimeofday there too). *)
      Obs.Registry.set_gauge m "replica.lag_seconds"
        (max 0. (Unix.gettimeofday () -. event.Nfql.Physical.r_time));
      stage_upstream_out up
        (Protocol.encode_string
           (Protocol.Repl_ack event.Nfql.Physical.r_seq))
    | exception (Storage.Failpoint.Crashed _ as crash) -> raise crash
    | exception _ ->
      (* The stream no longer matches our state — applying further
         entries would diverge silently. Detach; a resubscribe
         re-bootstraps from scratch. *)
      Obs.Registry.incr m "repl.apply_errors";
      detach_upstream t)
  | Protocol.Done _ -> ()  (* subscription ack *)
  | Protocol.Err (_, _) ->
    Obs.Registry.incr m "repl.upstream_errors";
    detach_upstream t
  | _ -> ()

let rec parse_upstream t up =
  if upstream_is t up && up.ulen > 0 then
    match
      Protocol.decode
        ~max_payload:(Session.context_config t.ctx).Session.max_payload up.ubuf
        ~pos:0 ~len:up.ulen
    with
    | Protocol.Need_more -> ()
    | Protocol.Oversized _ | Protocol.Malformed _ ->
      Obs.Registry.incr (metrics t) "repl.upstream_errors";
      detach_upstream t
    | Protocol.Msg (message, consumed) ->
      Bytes.blit up.ubuf consumed up.ubuf 0 (up.ulen - consumed);
      up.ulen <- up.ulen - consumed;
      handle_upstream t up message;
      parse_upstream t up

let read_upstream t up =
  let continue = ref true in
  while !continue && upstream_is t up do
    match Unix.read up.ufd t.read_chunk 0 (Bytes.length t.read_chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      continue := false
    | exception Unix.Unix_error (_, _, _) | 0 ->
      (* Primary gone. Stay up (and read-only): reads keep serving
         from the last applied state; a Promote detaches for good. *)
      Obs.Registry.incr (metrics t) "repl.upstream_lost";
      detach_upstream t;
      continue := false
    | n ->
      let needed = up.ulen + n in
      if needed > Bytes.length up.ubuf then begin
        let grown = Bytes.create (max needed (2 * Bytes.length up.ubuf)) in
        Bytes.blit up.ubuf 0 grown 0 up.ulen;
        up.ubuf <- grown
      end;
      Bytes.blit t.read_chunk 0 up.ubuf up.ulen n;
      up.ulen <- needed;
      parse_upstream t up
  done

let write_upstream t up =
  let continue = ref true in
  while !continue && upstream_is t up do
    let remaining = String.length up.upending - up.upending_pos in
    if remaining <= 0 then continue := false
    else
      match Unix.write_substring up.ufd up.upending up.upending_pos remaining with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        continue := false
      | exception Unix.Unix_error (_, _, _) ->
        Obs.Registry.incr (metrics t) "repl.upstream_lost";
        detach_upstream t;
        continue := false
      | n -> up.upending_pos <- up.upending_pos + n
  done

let stop_listening t =
  if t.listening then begin
    t.listening <- false;
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let begin_shutdown t =
  if not (Session.draining t.ctx) then begin
    Session.drain t.ctx;
    stop_listening t
  end

let finish_shutdown t =
  Storage.Failpoint.hit "server.shutdown.flush";
  detach_upstream t;
  t.on_shutdown ();
  Session.close_slow_log t.ctx;
  t.is_stopped <- true

let close t =
  stop_listening t;
  detach_upstream t;
  List.iter (fun conn -> close_conn t conn) t.conns;
  Session.close_slow_log t.ctx;
  t.is_stopped <- true

(* Best-effort single write used for the Overloaded rejection: the
   socket was just accepted, so its send buffer is empty and one frame
   fits; if even that fails the peer is gone anyway. *)
let write_once fd data =
  try ignore (Unix.write_substring fd data 0 (String.length data))
  with Unix.Unix_error _ -> ()

let accept_new t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | fd, _addr ->
      Unix.set_nonblock fd;
      let config = Session.context_config t.ctx in
      if t.conn_count >= config.Session.max_connections then begin
        Obs.Registry.incr (metrics t) "connections.rejected";
        Obs.Registry.incr (metrics t) "errors.overloaded";
        write_once fd
          (Protocol.encode_string
             (Protocol.Err
                ( Protocol.Overloaded,
                  Printf.sprintf "connection cap of %d reached"
                    config.Session.max_connections )));
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Obs.Registry.incr (metrics t) "connections.accepted";
        t.next_id <- t.next_id + 1;
        t.conns <-
          { fd; session = Session.create t.ctx ~id:t.next_id } :: t.conns;
        t.conn_count <- t.conn_count + 1;
        Obs.Registry.set_gauge (metrics t) "connections.open"
          (float_of_int t.conn_count)
      end
  done

let read_conn t conn =
  let continue = ref true in
  while !continue && not (Session.closing conn.session) do
    match Unix.read conn.fd t.read_chunk 0 (Bytes.length t.read_chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      continue := false
    | exception Unix.Unix_error (_, _, _) ->
      (* Peer died (ECONNRESET and friends): drop the session; the
         rest of the loop keeps serving. *)
      close_conn t conn;
      continue := false
    | 0 ->
      close_conn t conn;
      continue := false
    | n -> Session.feed conn.session t.read_chunk n
  done

let write_conn t conn =
  let continue = ref true in
  while !continue do
    match Session.next_output conn.session with
    | None ->
      if Session.closing conn.session then close_conn t conn;
      continue := false
    | Some (data, pos) -> (
      match Unix.write_substring conn.fd data pos (String.length data - pos) with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        continue := false
      | exception Unix.Unix_error (_, _, _) ->
        close_conn t conn;
        continue := false
      | n -> Session.advance_output conn.session n)
  done

(* Self-monitoring, once per tick: the stall watchdog (a tick that
   took more than twice the nominal interval means something blocked
   the single-threaded loop — a long statement, a slow fsync) and the
   paced self-scrape into the metrics history. Both run on the context
   clock, so a fake clock drives them deterministically in tests. *)
let observe_tick t ~now =
  let m = metrics t in
  let config = Session.context_config t.ctx in
  if t.last_tick_at > neg_infinity then begin
    let tick = now -. t.last_tick_at in
    Obs.Registry.observe m "loop.tick.seconds" tick;
    Obs.Registry.set_gauge m "loop.lag"
      (max 0. (tick -. config.Session.tick_interval));
    if tick > 2. *. config.Session.tick_interval then
      Obs.Registry.incr m "loop.stalls_total"
  end;
  t.last_tick_at <- now;
  if now -. t.last_scrape_at >= config.Session.scrape_interval then begin
    ignore (Session.scrape t.ctx ~now);
    t.last_scrape_at <- now
  end

let step t timeout =
  if t.is_stopped then false
  else begin
    observe_tick t ~now:(Session.context_now t.ctx);
    let draining = Session.draining t.ctx in
    if draining then begin
      (* Drop sessions with nothing left to flush. *)
      Storage.Failpoint.hit "server.shutdown.drain";
      List.iter
        (fun conn ->
          if not (Session.want_write conn.session) then close_conn t conn)
        t.conns;
      if t.conns = [] then finish_shutdown t
    end;
    if t.is_stopped then false
    else begin
      let read_fds =
        (if t.listening then [ t.listen_fd ] else [])
        @ (match t.upstream with Some up -> [ up.ufd ] | None -> [])
        @ List.filter_map
            (fun conn ->
              if Session.closing conn.session then None else Some conn.fd)
            t.conns
      in
      let write_fds =
        (match t.upstream with
        | Some up when up.upending_pos < String.length up.upending ->
          [ up.ufd ]
        | _ -> [])
        @ List.filter_map
            (fun conn ->
              if Session.want_write conn.session then Some conn.fd else None)
            t.conns
      in
      let readable, writable, _ =
        match Unix.select read_fds write_fds [] timeout with
        | result -> result
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      (* Index the ready sets so the per-connection checks below are
         O(1); List.mem made each tick O(connections^2). *)
      let ready_read : (Unix.file_descr, unit) Hashtbl.t =
        Hashtbl.create (List.length readable)
      in
      List.iter (fun fd -> Hashtbl.replace ready_read fd ()) readable;
      let ready_write : (Unix.file_descr, unit) Hashtbl.t =
        Hashtbl.create (List.length writable)
      in
      List.iter (fun fd -> Hashtbl.replace ready_write fd ()) writable;
      if t.listening && Hashtbl.mem ready_read t.listen_fd then accept_new t;
      (* Replica mode: apply whatever the primary shipped this round
         before serving reads, so clients see the freshest applied
         state this tick allows. *)
      (match t.upstream with
      | Some up when Hashtbl.mem ready_read up.ufd -> read_upstream t up
      | _ -> ());
      List.iter
        (fun conn ->
          if Hashtbl.mem ready_read conn.fd && not (Session.closed conn.session)
          then read_conn t conn)
        t.conns;
      (* Group commit: one fsync covers every statement handled this
         tick. It must run between the read phase (which stages and
         withholds acknowledgements) and the write phase (which pushes
         them), so an ack never reaches the wire before the WAL bytes
         behind it are durable. *)
      let config = Session.context_config t.ctx in
      let waiting =
        List.fold_left
          (fun acc conn ->
            if Session.awaiting_sync conn.session then acc + 1 else acc)
          0 t.conns
      in
      let now = Session.context_now t.ctx in
      if
        waiting >= config.Session.wal_sync_max_batch
        || now -. t.last_sync_at >= config.Session.wal_sync_interval
      then begin
        Session.group_sync t.ctx (List.map (fun conn -> conn.session) t.conns);
        t.last_sync_at <- now
      end;
      (* CDC fan-out rides the same tick, after the sync: every Delta
         frame staged here describes already-durable commits, and the
         FIFO drain gives all subscribers the same commit order. *)
      Session.dispatch_cdc t.ctx (List.map (fun conn -> conn.session) t.conns);
      (* WAL shipping rides the same post-sync slot: every Repl_entry
         staged here is covered by the table-WAL and manifest fsyncs
         above, so a replica never applies what the primary could
         still lose. *)
      Session.dispatch_repl t.ctx (List.map (fun conn -> conn.session) t.conns);
      (* Push the replica's pending acks to its primary. *)
      (match t.upstream with
      | Some up when up.upending_pos < String.length up.upending ->
        write_upstream t up
      | _ -> ());
      (* A frame handled this round may have staged replies; try to
         push them immediately rather than waiting a select cycle. *)
      List.iter
        (fun conn ->
          if
            (not (Session.closed conn.session))
            && (Hashtbl.mem ready_write conn.fd
               || Session.want_write conn.session)
          then write_conn t conn)
        t.conns;
      let now = Session.context_now t.ctx in
      List.iter
        (fun conn ->
          if not (Session.closed conn.session) then
            match Session.check_deadlines conn.session ~now with
            | `Keep -> ()
            | `Reap ->
              (* Flush the polite rejection, then drop. *)
              write_conn t conn;
              if not (Session.closed conn.session) then close_conn t conn)
        t.conns;
      if Session.shutdown_requested t.ctx then begin_shutdown t;
      not t.is_stopped
    end
  end

let run t =
  let tick = (Session.context_config t.ctx).Session.tick_interval in
  while step t tick do () done
