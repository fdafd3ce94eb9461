(** Abstract syntax of CyLog programs.

    A program has a [schema] section (relation declarations), a [rules]
    section (facts and rules in priority order — the order in the source
    text is the evaluation priority), and a [games] section (game aspects:
    one Skolem function plus path and payoff rules per game). The paper's
    views section is presentation-only and not modelled.

    Statements, heads, literals and schema declarations each carry a
    source {!span} so analyses ({!module:Lint}) and error reports can point
    at the offending source range. Spans are metadata: use
    {!strip_program} before comparing programs structurally. *)

(** Half-open source range: [start_line]/[start_col] is the first character
    (both 1-based, matching {!Lexer.located}), and [end_line]/[end_col] is
    the position just past the last character. *)
type span = {
  start_line : int;
  start_col : int;
  end_line : int;
  end_col : int;
}

val no_span : span
(** The unknown span (all zeros) — used for synthesised nodes. *)

val span_is_known : span -> bool
(** True iff the span differs from {!no_span}. *)

type binop = Add | Sub | Mul | Div

type expr =
  | Const of Reldb.Value.t
  | Var of string
  | List of expr list
  | Binop of binop * expr * expr

type cmpop = Eq | Neq | Lt | Le | Gt | Ge

(** One attribute position of an atom. [Auto] is the bare-attribute form
    [Tweet(tw)]: the attribute is associated with a variable of the same
    name. [Bound e] is the explicit form [cname:loc] or [attr:"weather"]. *)
type arg = { attr : string; bind : bind }

and bind = Auto | Bound of expr

type atom = { pred : string; args : arg list }

(** A body element, evaluated left to right. *)
type lit =
  | Pos of atom  (** relation membership; branches over live tuples *)
  | Neg of atom  (** [not R(...)]: no live tuple matches *)
  | Cmp of expr * cmpop * expr
      (** comparison; [v = e] with [v] unbound binds [v] to [e] *)
  | Call of string * expr list  (** builtin such as [matches(cond, tw)] *)

(** A body literal together with its source range. *)
type literal = { lit : lit; lit_span : span }

(** Head annotations. [Open (Some e)] is [/open[e]]: the worker denoted by
    [e] is asked. [Update] merges the head's explicitly mentioned attributes
    into the live tuple with the same key (inserting when absent); [Delete]
    removes live tuples matching the head pattern. *)
type head_kind = Assert | Open of expr option | Update | Delete

type head_node =
  | Head_atom of { atom : atom; kind : head_kind }
  | Head_payoff of (string * expr) list
      (** [Payoff[p1 += e1, p2 += e2]]: accumulate payoff deltas per
          player variable — the paper's syntactic sugar *)

(** A head together with its source range. *)
type head = { head : head_node; head_span : span }

type statement = {
  label : string option;  (** [VE1:]-style label, for traces and analysis *)
  heads : head list;
      (** usually a single head; comma-separated heads (Figure 16's Turing
          machine rule) apply atomically under one valuation *)
  body : literal list;  (** empty body = fact *)
  stmt_span : span;  (** the full statement, label through terminator *)
}

(** Relation declaration: attribute name, key flag, auto-increment flag. *)
type schema_decl = {
  rel_name : string;
  rel_attrs : (string * bool * bool) list;
  decl_span : span;
}

type game_decl = {
  game_name : string;
  game_params : string list;  (** Skolem-function parameters *)
  path_rules : statement list;  (** heads target the [Path] table *)
  payoff_rules : statement list;  (** heads are payoff accumulations *)
}

(** A worker-facing task template from the views section: raw markup with
    [{{attr}}] placeholders, bound to the relation it presents. *)
type view = { view_name : string; template : string }

type program = {
  schemas : schema_decl list;
  statements : statement list;
  games : game_decl list;
  views : view list;
}

val empty_program : program
(** Program with no declarations, statements or games. *)

(** {2 Smart constructors}

    Convenience builders for synthesised AST nodes (desugaring, tests).
    The span defaults to {!no_span}. *)

val literal : ?span:span -> lit -> literal
val head_atom : ?span:span -> ?kind:head_kind -> atom -> head
val head_payoff : ?span:span -> (string * expr) list -> head
val statement : ?label:string -> ?span:span -> head list -> literal list -> statement

(** {2 Span erasure} *)

val strip_literal : literal -> literal
val strip_head : head -> head
val strip_statement : statement -> statement
val strip_program : program -> program
(** Copy with every span replaced by {!no_span}, for span-insensitive
    structural equality (e.g. pretty-print round-trip tests). *)

(** {2 Traversal helpers} *)

val expr_vars : expr -> string list
(** Variables occurring in an expression, without duplicates. *)

val literal_positive_preds : literal -> string list
(** Relation names a literal reads positively ([Pos] atoms only). *)

val body_preds : literal list -> string list
(** All relation names a body reads, positive and negated, without
    duplicates. *)

val head_pred : head -> string option
(** The relation a head writes, when it is an atom head. *)

val statement_preds : statement -> string list
(** Relations written by any of the statement's heads, without
    duplicates. *)

val statement_is_fact : statement -> bool
(** True iff the body is empty. *)

val statement_is_open : statement -> bool
(** True iff some head carries [/open]. *)

(** {2 Game-aspect desugaring} *)

val path_relation_name : string -> string
(** The relation behind a game's [Path] atoms: [Path@<game>]. *)

val rewrite_game_statement : game_decl -> statement -> statement
(** A game rule as evaluated: each [Path] atom reads the game's
    {!path_relation_name}, with the Skolem parameters prepended as bare
    arguments. *)

(** {2 Binding} *)

val body_bound : ?init:Set.Make(String).t -> literal list -> Set.Make(String).t
(** The variables a body binds, starting from [init] (default empty):
    a positive atom binds every attribute name (a testing argument
    re-exposes its attribute variable) and the variables of its bound
    expressions, and [v = e] either way round binds [v]
    once [e] is closed ([Eval.check_filter]). The least fixpoint, so
    literal order does not matter, as under planner reordering. *)
