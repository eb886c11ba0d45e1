(** The statement layer shared by both NFQL back ends.

    {!Eval} (the oracle: persistent canonical NFRs) and {!Physical}
    (the storage engine) differ only in how they store and scan base
    tables. Everything around that lives here, once: what a name
    denotes, every guard and its error text, the acknowledgement
    texts, literal and assignment typing, the TRACE and HISTORY
    statements, and DML over a persistent NFR — which is the whole of
    {!Eval}'s storage and {!Physical}'s transaction overlay. *)

open Relational
open Nfr_core

type result =
  | Done of string  (** DDL/DML acknowledgement *)
  | Rows of Nfr.t  (** SELECT/SHOW result *)

(** {2 Names} *)

(** A database's namespaces: its base tables, its view catalog and
    its system-table providers. *)
type names = {
  is_table : string -> bool;
  views : Views.Catalog.t;
  sys : Systab.registry;
}

type kind =
  | Table
  | View
  | System

val is_derived : names -> string -> bool
(** Is the name a view or a system table? *)

(** A view or system table read as a table: its current canonical NFR
    (a view's latest committed state, a provider's current contents)
    and nest order. *)
type materialized = {
  kind : kind;
  name : string;
  nfr : Nfr.t;
  order : Attribute.t list;
}

val derived : names -> string -> materialized option
(** [None] for base tables and unknown names. *)

val derived_source : names -> Ast.source -> materialized option
(** A lone view or system table in FROM. @raise Compile.Error when one
    appears in a JOIN. *)

(** {2 Guards} All raise {!Compile.Error}. *)

val require_writable : names -> string -> unit
(** DML must name a base table. *)

val check_new_name : names -> string -> unit
(** CREATE TABLE/VIEW: not reserved, not taken. *)

val check_drop_table : names -> string -> unit
val check_analyze : names -> string -> unit

val create_view :
  names -> view:string -> base:string -> by:string list -> (unit -> Nfr.t) -> unit
(** Check and define a view over [base], whose committed NFR the thunk
    returns. *)

val drop_view : names -> string -> unit

val check_txn : in_txn:bool -> Ast.statement -> unit
(** The transaction rules: no BEGIN inside a transaction, no
    COMMIT/ROLLBACK outside one, and no DDL or EXPLAIN ANALYZE inside
    one. *)

(** {2 Typing} *)

val schema_of_columns :
  (string * string) list -> string list option -> Schema.t * Attribute.t list
(** CREATE TABLE's column list and ORDER clause. *)

val tuple_of_row : Schema.t -> Ast.literal list -> Tuple.t

val assignments : Schema.t -> (string * Ast.literal) list -> (Attribute.t * Value.t) list
(** UPDATE's SET list, type-checked against the columns. *)

val image : Schema.t -> (Attribute.t * Value.t) list -> Tuple.t -> Tuple.t
(** A victim's UPDATE image. *)

val not_in : Tuple.t -> string -> 'a
(** The DELETE ... VALUES error for an absent tuple. *)

(** {2 Results} *)

val ack : ?count:int -> Ast.statement -> result
(** The acknowledgement of a DDL, DML or transaction statement;
    [count] is the rows it affected (inserted, for INSERT).
    @raise Invalid_argument for queries. *)

val count : Nfr.t -> result
(** SELECT COUNT's text for the filtered NFR. *)

(** {2 Persistent NFRs} *)

val filter : Nfr.t * Attribute.t list -> Ast.condition option -> Nfr.t
val select : Nfr.t * Attribute.t list -> Ast.select -> Nfr.t * Nfr.t
(** (shaped, filtered). *)

val resolve_source :
  names -> base:(string -> Nfr.t * Attribute.t list) -> Ast.source -> Nfr.t * Attribute.t list
(** A FROM clause as an NFR and its order, [base] supplying base
    tables; a join is computed on the NFRs and re-canonicalized. *)

(** A table being written: its NFR plus the flat writes applied so
    far, newest first. *)
type overlay = {
  schema : Schema.t;
  order : Attribute.t list;
  mutable nfr : Nfr.t;
  mutable ops : Views.Catalog.op list;
}

val overlay : order:Attribute.t list -> Nfr.t -> overlay

val exec_dml : overlay -> Ast.statement -> result
(** Run INSERT/DELETE/UPDATE against the overlay, keeping it canonical.
    A failing statement leaves it untouched. *)

(** {2 TRACE and HISTORY} *)

val trace : (unit -> unit) -> result
(** Run the thunk under a trace scope and return its spans as rows:
    (Span, Parent, Event, Label, Ms, Rows, Bytes), parents first. *)

val history : Systab.registry -> series:string -> last:int option -> result
