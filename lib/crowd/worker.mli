(** Worker models.

    The paper's experiments ran five university students per variant; the
    analysis assumes rational workers. We replace them with parameterised
    profiles: how accurate a worker's extractions are, how they treat
    machine-extracted candidates, and how they decide between entering
    values (Action 1) and entering extraction rules (Action 2). *)

type rule_strategy =
  | No_rules  (** value-entry variants: never enters extraction rules *)
  | Haphazard of { spread : float; good_ratio : float }
      (** VRE without incentives: enter a personal mix of rules (good with
          probability [good_ratio]) at completion points drawn uniformly
          over [0, spread) — rule entry scattered across the whole run *)
  | Front_loaded of { count : int }
      (** VRE/I rational strategy: enter your [count] best rules
          immediately at the start (maximising payoff 2a and the later
          Action-1 harvest), then stop — Theorem 2's finite rule entry *)

type profile = {
  name : string;
  accuracy : float;  (** P(correct weather extraction) on clear tweets *)
  place_accuracy : float;  (** P(correct place extraction) when present *)
  diligence : float;  (** P(acting at all on a given turn) *)
  honest_selection : bool;
      (** answer candidate (existence) questions truthfully — i.e. accept a
          machine-extracted value iff it matches their own belief. Rational
          workers are honest here: truth is the focal equilibrium of the
          coordination game (Theorem 1) *)
  rule_strategy : rule_strategy;
}

val diligent : ?rule_strategy:rule_strategy -> string -> profile
(** The paper's observed population: reliable students (accuracy ≈ 0.84)
    working steadily. *)

val rational : ?rule_count:int -> string -> profile
(** A diligent worker playing the VRE/I-optimal strategy: front-loaded
    high-quality rule entry, honest selection. *)

val sloppy : string -> profile
(** Low-accuracy worker (accuracy ≈ 0.6) for robustness experiments. *)

val crowd : (string -> profile) -> int -> profile list
(** [crowd make n] builds [n] workers named [w1..wn]. *)

val noisy_label : Random.State.t -> accuracy:float -> Reldb.Value.t -> Reldb.Value.t
(** [noisy_label rng ~accuracy truth] is the synthetic crowd's answer to
    a label question: [truth] with probability [accuracy], else
    ["<truth>#1"] or ["<truth>#2"] ([truth] as {!Reldb.Value.to_display}
    renders it) — two item-specific wrong labels, so a sloppy crowd can
    still pile up on a wrong plurality now and then. One uniform draw,
    plus one more on a wrong answer. *)
