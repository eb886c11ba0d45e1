(** Expression-level helpers shared by the NFQL back ends.

    Both evaluators — {!Eval} (in-memory canonical NFRs) and
    {!Physical} (storage-engine tables) — resolve columns, convert
    literals, split WHERE clauses and shape SELECT results the same
    way; this module is that common ground. The statement level is
    {!Stmt}. *)

open Relational
open Nfr_core

exception Error of string
(** The user-facing evaluation error (re-exported by {!Eval} as
    [Eval_error]). *)

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error fmt ...] raises {!Error} with a formatted message. *)

val value_of_literal : Ast.literal -> Value.t

val attribute_of : Schema.t -> string -> Attribute.t
(** @raise Error when the column is unknown. *)

val predicate_of : Schema.t -> Ast.condition -> Predicate.t
(** Pure-comparison conditions only.
    @raise Error when a [CONTAINS] appears below OR/NOT. *)

val split_condition :
  Schema.t -> Ast.condition -> Predicate.t list * (Attribute.t * Value.t) list
(** Top-level conjuncts, split into expansion-level predicates and
    tuple-level CONTAINS constraints. @raise Error on misplaced
    [CONTAINS]. *)

val apply_where :
  Schema.t -> Attribute.t list -> Nfr.t -> Ast.condition option -> Nfr.t
(** Run both kinds of filter over an in-memory NFR (canonical for the
    given order). *)

val shape_select : Nfr.t -> order:Attribute.t list -> Ast.select -> Nfr.t
(** The post-WHERE pipeline: projection, then explicit NEST/UNNEST. *)
