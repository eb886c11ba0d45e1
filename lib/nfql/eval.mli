(** NFQL evaluation against an in-memory database of canonical NFRs:
    the differential oracle for {!Physical}, which the server and the
    CLI run.

    Each table carries a nest application order fixed at CREATE time
    (default: schema order); INSERT and DELETE maintain the canonical
    form through {!Nfr_core.Update}, so every statement leaves every
    table canonical — the paper's realization discipline.

    WHERE semantics: plain comparisons select over the {e expansion}
    ([R*]); [CONTAINS] selects whole NFR tuples by component
    membership. The two may be mixed as top-level conjuncts; a
    [CONTAINS] under OR/NOT is rejected (its tuple-level meaning does
    not distribute over expansion selection).

    Statement rules, guards and texts come from {!Stmt}, as they do
    for {!Physical}; this module only stores and scans the tables.
    Transactions: [BEGIN] snapshots the (persistent) tables map,
    [ROLLBACK] restores it, [COMMIT] forgets the save point. This back
    end is single-session, so there is nothing to conflict with — the
    snapshot-isolation story lives in {!Physical}. *)

open Relational
open Nfr_core

type db

exception Eval_error of string

type result = Stmt.result =
  | Done of string  (** DDL/DML acknowledgement *)
  | Rows of Nfr.t  (** SELECT/SHOW result *)

val create : unit -> db

val exec : db -> Ast.statement -> result
(** @raise Eval_error on unknown tables/columns, type mismatches,
    deleting absent tuples, or unsupported CONTAINS placement. *)

val exec_string : db -> string -> result list
(** Parse and run a whole script.
    @raise Eval_error, [Parser.Parse_error] or [Lexer.Lex_error]. *)

val table : db -> string -> Nfr.t option
(** Direct table access for tests. *)

val catalog : db -> Views.Catalog.t
(** The database's view catalog (incrementally maintained canonical
    NFRs). Views absorb committed DML only: autocommit writes
    immediately, in-transaction writes at COMMIT, never from the
    uncommitted overlay. *)

val table_order : db -> string -> Attribute.t list option

val register_system_table : db -> string -> Systab.provider -> unit
(** Install (or replace) a read-only system-table provider; see
    {!Systab}. @raise Invalid_argument unless the name starts with
    ['_']. *)

val pp_result : Format.formatter -> result -> unit
