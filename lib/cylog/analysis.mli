(** Static cost and cardinality analysis: budget certificates.

    An abstract interpretation over a parsed program that bounds, per
    relation, how many tuples evaluation can ever produce, and from those
    bounds derives a {b budget certificate}: for every [/open] statement
    an upper bound on the tasks it can issue and the answers it can
    collect under a given quorum policy. The survey's central trade-off
    (monetary cost vs. latency vs. quality) is enforced at runtime by the
    campaign monitor's budget watchdog — this module answers the static
    dual, "what is the most this program can ever ask?", before a single
    task is issued, so a campaign server can admission-check programs.

    The abstract domain is [{0, finite(n), bounded-by-input, unbounded}]:

    - base facts seed their relation with one tuple each (closed world);
    - a declared relation with no base facts is a host input point
      ({!Bounded_by_input}, recorded as an assumption);
    - a rule contributes the product of its positive body atoms'
      cardinalities (negation, comparisons and builtin calls only
      filter);
    - recursive strata — strongly connected components of the precedence
      graph restricted to positive reads ({!Precedence.sccs}) — are
      widened: a {e tame} stratum (no open heads, no value-building
      expressions, no auto-increment keys) stays within the Herbrand
      universe of the program's constants plus its external inputs, so
      each of its relations is bounded by [|V|^arity]; a {e wild} stratum
      is {!Unbounded} with a witness cycle, like
      {!Precedence.negation_violations}.

    Results are deterministic: analyzing the same program with the same
    policy renders byte-identical certificates. The analysis is total —
    it never raises, even on programs the other {!Lint} families reject —
    because {!Lint.check} runs it on every program. *)

type reason =
  | Standing
      (** the open head leaves its relation's auto-increment key unbound,
          so every answer mints a fresh tuple and the task never retires
          (the engine's {e repeatable} opens — how VRE collects
          unboundedly many extraction rules) *)
  | Open_cycle of string list
      (** recursion through an open relation: answers re-enable the very
          statement that asked for them; the witness lists the relations
          carrying the cycle *)
  | Value_cycle of string list
      (** recursion that builds fresh values (arithmetic, list
          construction or auto-increment keys in a recursive stratum), so
          the Herbrand widening does not apply *)

type card =
  | Zero  (** provably empty *)
  | Finite of int  (** at most [n] tuples (saturating arithmetic) *)
  | Bounded_by_input
      (** finite, but only as a function of host-supplied input whose
          size the program text does not determine *)
  | Unbounded of reason

val card_to_string : card -> string
(** ["0"], ["<= n"], ["bounded-by-input"] or ["unbounded (...)"] with the
    witness cycle rendered inline. *)

val finite : card -> int option
(** [Some n] for [Zero] (n = 0) and [Finite n]; [None] otherwise. *)

val card_add : card -> card -> card
(** Sum of two bounds: [Zero] is the unit, then [Unbounded] (keeping the
    first reason) absorbs, then [Bounded_by_input]; finite sums saturate
    at 10{^9} so repeated sums never overflow. *)

val card_json : card -> Json.t
(** [{"kind":"finite","max":n}] ([Zero] is [max] 0),
    [{"kind":"bounded-by-input"}] or
    [{"kind":"unbounded","reason":r,"cycle":[...]}] with [r] one of
    [standing], [open-cycle], [value-cycle]. *)

(** The redundant-assignment policy the certificate charges per task:
    [votes] answers for each undesignated, non-standing open tuple whose
    relation falls in [scope] ([None] = every relation) — mirroring the
    engine's quorum eligibility. [no_policy] is one answer per task. *)
type policy = { votes : int; scope : string list option }

val no_policy : policy

(** The task-emission bound of one [/open] head, in statement order. *)
type task_bound = {
  tb_label : string;  (** statement label, or ["#i"] by priority index *)
  tb_span : Ast.span;  (** the open head's source range *)
  tb_relation : string;
  tb_instances : card;  (** distinct open tuples (body valuations) *)
  tb_multiplier : card;  (** answers charged per instance under the policy *)
  tb_answers : card;  (** [instances * multiplier] *)
}

type certificate = {
  cert_relations : (string * card) list;
      (** every relation's cardinality bound, sorted by name *)
  cert_tasks : task_bound list;  (** one per open head, statement order *)
  cert_total_tasks : card;  (** sum of instance bounds *)
  cert_total_answers : card;  (** sum of answer bounds — the budget *)
  cert_policy : string;  (** the charged policy, rendered *)
  cert_assumptions : string list;  (** sorted; what the bounds rely on *)
}

val analyze :
  ?policy:policy -> ?live_counts:(string * int) list -> Ast.program -> certificate
(** Analyze a program (game aspects are desugared exactly as the engine
    does). [policy] defaults to {!no_policy}. [live_counts] joins each
    named relation's current live row count into its seed — the engine's
    runtime cross-check passes the live database sizes here so host
    insertions through the API are accounted for; certificates rendered
    for users should omit it to stay a function of the program text. *)

val certificate_to_string : certificate -> string
(** The certificate as a stable multi-line report: relation table, per
    open statement bounds, totals, policy and assumptions. *)

val certificate_json : certificate -> Json.t
(** The certificate as one deterministic JSON object with [policy],
    [relations], [tasks], [total_tasks], [total_answers] and
    [assumptions] fields; cards render as {!card_json}. *)
