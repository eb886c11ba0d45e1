(* The four nf2bench workloads: seeded inputs, one statement stream per
   connection, and the model each stream keeps of the rows it owns.

   Every table is t(K, G, V) over ints with one row per key K and
   G = K mod groups. V is random per row, except on write-view, where
   it is a function of G: the rows of a group then differ only in K,
   so the canonical form (of the base and of NEST t BY G) holds one
   NFR tuple per group, and each write composes into or decomposes
   one of them (Theorem A-4). Connection p owns the keys and the groups of
   parity p (groups is even, so a row's G has its K's parity), reads
   only what it owns and writes only what it owns. Its model is
   therefore exact whatever order the server interleaves the two
   connections in, and every read result can be checked against it. *)

open Relational

type kind = Read_hot | Read_large | Write_view | Txn_multi

type workload = {
  kind : kind;
  name : string;
  rows : int;  (** initial rows per table *)
  groups : int;  (** distinct G values per table; even *)
  tables : string list;
  view : string option;  (** [CREATE VIEW v AS NEST t BY G] *)
}

let kinds = [ Read_hot; Read_large; Write_view; Txn_multi ]

let name_of = function
  | Read_hot -> "read-hot"
  | Read_large -> "read-large"
  | Write_view -> "write-view"
  | Txn_multi -> "txn-multi"

let kind_of_name name = List.find_opt (fun k -> name_of k = name) kinds

(* Smoke mode keeps every code path but shrinks every table to 2,000
   rows. read-hot has 50 rows per group, write-view 10, the others
   100. write-view's groups are small because loading a grouped table
   rewrites the group's heap record once per row: start-up grows with
   rows x group size, and three starts per run must stay short. *)
let workload ~smoke kind =
  let rows full = if smoke then 2_000 else full in
  let make ~rows ~per_group ~tables ~view =
    { kind; name = name_of kind; rows; groups = rows / per_group; tables; view }
  in
  match kind with
  | Read_hot -> make ~rows:2_000 ~per_group:50 ~tables:[ "t" ] ~view:None
  | Read_large ->
    make ~rows:(rows 100_000) ~per_group:100 ~tables:[ "t" ] ~view:None
  | Write_view ->
    make ~rows:(rows 100_000) ~per_group:10 ~tables:[ "t" ] ~view:(Some "v")
  | Txn_multi ->
    make ~rows:(rows 10_000) ~per_group:100 ~tables:[ "t"; "u" ] ~view:None

let value_bound = 1_000_000_000

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

type row = { k : int; g : int; v : int }

(* One independent stream per (seed, table), so adding a table never
   shifts another table's values. *)
let table_rng ~seed table =
  Workload.Prng.create ((seed * 7919) + Hashtbl.hash table)

let grouped w = w.kind = Write_view

(* V of every row of group [g] on a grouped workload. *)
let group_value ~seed g =
  Workload.Prng.int (Workload.Prng.create ((seed * 104729) + g)) value_bound

let initial_rows w ~seed table =
  let rng = table_rng ~seed table in
  List.init w.rows (fun k ->
      let g = k mod w.groups in
      let v = Workload.Prng.int rng value_bound in
      { k; g; v = (if grouped w then group_value ~seed g else v) })

let csv_header = "K:int,G:int,V:int"
let csv_line r = Printf.sprintf "%d,%d,%d" r.k r.g r.v

(* ------------------------------------------------------------------ *)
(* Model of one connection's partition of one table                    *)
(* ------------------------------------------------------------------ *)

type part = {
  mutable keys : int array;  (** live keys in [0, len), any order *)
  mutable len : int;
  slot : (int, int) Hashtbl.t;  (** key -> index in [keys] *)
  row : (int, int * int) Hashtbl.t;  (** key -> (g, v) *)
  group_size : (int, int) Hashtbl.t;
  mutable fresh : int;  (** next never-used key of this parity *)
}

let part_size p = p.len

let add_row p r =
  if p.len = Array.length p.keys then begin
    let grown = Array.make (max 16 (2 * p.len)) 0 in
    Array.blit p.keys 0 grown 0 p.len;
    p.keys <- grown
  end;
  p.keys.(p.len) <- r.k;
  Hashtbl.replace p.slot r.k p.len;
  p.len <- p.len + 1;
  Hashtbl.replace p.row r.k (r.g, r.v);
  let n = Option.value ~default:0 (Hashtbl.find_opt p.group_size r.g) in
  Hashtbl.replace p.group_size r.g (n + 1)

let remove_key p k =
  let i = Hashtbl.find p.slot k in
  let last = p.keys.(p.len - 1) in
  p.keys.(i) <- last;
  Hashtbl.replace p.slot last i;
  Hashtbl.remove p.slot k;
  p.len <- p.len - 1;
  let g, _ = Hashtbl.find p.row k in
  Hashtbl.remove p.row k;
  Hashtbl.replace p.group_size g (Hashtbl.find p.group_size g - 1)

let make_part w ~parity rows =
  let p =
    {
      keys = Array.make (w.rows / 2) 0;
      len = 0;
      slot = Hashtbl.create w.rows;
      row = Hashtbl.create w.rows;
      group_size = Hashtbl.create w.groups;
      fresh = w.rows + parity;
    }
  in
  List.iter (fun r -> if r.k mod 2 = parity then add_row p r) rows;
  p

let lookup p k =
  Option.map (fun (g, v) -> { k; g; v }) (Hashtbl.find_opt p.row k)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

type stmt =
  | Point of string * int  (** SELECT ... WHERE K = k *)
  | Probe of string * int  (** SELECT ... WHERE G = g *)
  | Groups of string * int * int  (** SELECT ... WHERE G >= lo AND G < hi *)
  | Insert of string * row
  | Delete of string * row
  | Update of string * row * int  (** the old row, its new V *)
  | Begin
  | Commit

(* What a unit's latency is filed under. A txn unit's statements are
   timed as one BEGIN-to-COMMIT-ack sample. *)
type cls = Read | Write | Txn

type unit_ = { cls : cls; stmts : stmt list }

let sql = function
  | Point (table, k) -> Printf.sprintf "select * from %s where K = %d" table k
  | Probe (table, g) -> Printf.sprintf "select * from %s where G = %d" table g
  | Groups (table, lo, hi) ->
    Printf.sprintf "select * from %s where G >= %d and G < %d" table lo hi
  | Insert (table, r) ->
    Printf.sprintf "insert into %s values (%d, %d, %d)" table r.k r.g r.v
  | Delete (table, r) ->
    Printf.sprintf "delete from %s values (%d, %d, %d)" table r.k r.g r.v
  | Update (table, r, v) ->
    Printf.sprintf "update %s set V = %d where K = %d" table v r.k
  | Begin -> "begin"
  | Commit -> "commit"

let is_write = function
  | Insert _ | Delete _ | Update _ -> true
  | Point _ | Probe _ | Groups _ | Begin | Commit -> false

(* ------------------------------------------------------------------ *)
(* Per-connection streams                                              *)
(* ------------------------------------------------------------------ *)

type stream = {
  w : workload;
  seed : int;
  parity : int;
  rng : Workload.Prng.t;
  parts : (string * part) list;
  hot : int array;  (** the partition's initial keys, Zipf rank order *)
  zipf : Workload.Zipf.t;
  mutable writes : int;  (** autocommit writes issued *)
  mutable txns : int;
}

let part s table = List.assoc table s.parts

let stream w ~seed ~parity =
  let parts =
    List.map
      (fun table -> (table, make_part w ~parity (initial_rows w ~seed table)))
      w.tables
  in
  let rng = Workload.Prng.create ((seed * 31) + parity + 1) in
  let hot = Array.init (w.rows / 2) (fun i -> (2 * i) + parity) in
  Workload.Prng.shuffle rng hot;
  {
    w;
    seed;
    parity;
    rng;
    parts;
    hot;
    zipf = Workload.Zipf.create ~n:(Array.length hot) ~s:1.1;
    writes = 0;
    txns = 0;
  }

let random_live s table =
  let p = part s table in
  p.keys.(Workload.Prng.int s.rng p.len)

let own_group s = (2 * Workload.Prng.int s.rng (s.w.groups / 2)) + s.parity

(* Each generator updates the model as it emits a write: every write
   of this stream succeeds and nothing else writes this partition, so
   the model is the server's state once the statement is acked. *)
let insert_fresh s table =
  let p = part s table in
  let k = p.fresh in
  p.fresh <- k + 2;
  let g = k mod s.w.groups in
  let v = Workload.Prng.int s.rng value_bound in
  let r = { k; g; v = (if grouped s.w then group_value ~seed:s.seed g else v) } in
  add_row p r;
  Insert (table, r)

let delete_live s table =
  let p = part s table in
  let k = random_live s table in
  let r = Option.get (lookup p k) in
  remove_key p k;
  Delete (table, r)

let update_live s table =
  let p = part s table in
  let r = Option.get (lookup p (random_live s table)) in
  let v = Workload.Prng.int s.rng value_bound in
  remove_key p r.k;
  add_row p { r with v };
  Update (table, r, v)

(* Autocommit writes alternate insert-fresh and delete-live, so each
   partition holds its initial size or one more. *)
let write s =
  let w = if s.writes mod 2 = 0 then insert_fresh s "t" else delete_live s "t" in
  s.writes <- s.writes + 1;
  { cls = Write; stmts = [ w ] }

(* BEGIN, three inserts and two deletes (or two and three, on every
   other transaction) alternating t and u, one UPDATE of u, COMMIT: 8
   frames. Alternating 3+2 with 2+3 keeps both tables' sizes steady. *)
let txn s =
  let inserts, deletes = if s.txns mod 2 = 0 then (3, 2) else (2, 3) in
  s.txns <- s.txns + 1;
  let table i = if i mod 2 = 0 then "t" else "u" in
  let ins = List.init inserts (fun i -> insert_fresh s (table i)) in
  let del = List.init deletes (fun i -> delete_live s (table (inserts + i))) in
  let upd = update_live s "u" in
  { cls = Txn; stmts = (Begin :: ins) @ del @ [ upd; Commit ] }

let point_hot s =
  Point ("t", s.hot.(Workload.Zipf.sample s.zipf s.rng))

let point_uniform s = Point ("t", s.hot.(Workload.Prng.int s.rng (Array.length s.hot)))
let probe s = Probe ("t", own_group s)
let read stmt = { cls = Read; stmts = [ stmt ] }

let next s =
  let r = Workload.Prng.float s.rng in
  match s.w.kind with
  | Read_hot ->
    if r < 0.90 then read (point_hot s)
    else if r < 0.98 then read (probe s)
    else write s
  | Read_large -> if r < 0.95 then read (point_uniform s) else read (probe s)
  | Write_view -> write s
  | Txn_multi -> txn s

(* ------------------------------------------------------------------ *)
(* Checking results                                                    *)
(* ------------------------------------------------------------------ *)

(* The flat rows of a result, whatever nesting the server returned. *)
let rows_of schema ntuples =
  let pos name = Schema.position schema (Attribute.make name) in
  let k = pos "K" and g = pos "G" and v = pos "V" in
  let int_at tuple i =
    match Value.to_int (Tuple.get tuple i) with
    | Some n -> n
    | None -> failwith "nf2bench: non-int column in result"
  in
  List.concat_map
    (fun nt ->
      List.map
        (fun tuple -> { k = int_at tuple k; g = int_at tuple g; v = int_at tuple v })
        (Nfr_core.Ntuple.expand nt))
    ntuples

(* Does a read of [table] (or of a view over it) return exactly what
   the owning partitions' models hold? Returned rows are a set, so
   "each row is in the model and the count matches" is equality. *)
let check_groups parts table ~lo ~hi rows =
  let expected = ref 0 in
  for g = lo to hi - 1 do
    let p = parts (g mod 2) table in
    expected := !expected + Option.value ~default:0 (Hashtbl.find_opt p.group_size g)
  done;
  List.length rows = !expected
  && List.for_all
       (fun r -> lo <= r.g && r.g < hi && lookup (parts (r.g mod 2) table) r.k = Some r)
       rows

let check_read parts stmt rows =
  match stmt with
  | Point (table, k) -> (
    match (lookup (parts (k mod 2) table) k, rows) with
    | None, [] -> true
    | Some r, [ got ] -> r = got
    | _ -> false)
  | Probe (table, g) -> check_groups parts table ~lo:g ~hi:(g + 1) rows
  | Groups (table, lo, hi) -> check_groups parts table ~lo ~hi rows
  | Insert _ | Delete _ | Update _ | Begin | Commit -> true
