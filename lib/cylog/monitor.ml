(* The campaign monitor: task-lifecycle latency tracing, per-round
   cost/latency/quality time series, and budget/SLO watchdogs.

   Everything in here is a single fold over the engine's event log —
   [of_events config events] is the definition of the monitor's state,
   and the live monitor inside an engine merely applies the same
   [observe] step incrementally (the PR-3 derivability contract, extended
   from counters to series points and alert firings). The watchdogs
   themselves run only on the live path ([check], called by
   [Engine.monitor_sample]); their verdicts are journalled as
   [Alert_fired] effects carrying the full evidence, so the fold never
   re-decides an alert — it reads it back, exactly like
   [Adaptive_resolved]. *)

type config = {
  series_capacity : int;
  cost_per_answer : int;
  max_budget : int option;
  certified_bound : int option;
      (* the static budget certificate's total-answer bound in budget
         units; [Engine.set_monitor] fills it from [Analysis] when no
         explicit [max_budget] is given, and the budget watchdog falls
         back to it *)
  max_p99_latency : int option;
  min_agreement_pct : int option;
  max_dead_letter_pct : int option;
  stall_samples : int option;
}

let default_config =
  {
    series_capacity = 256;
    cost_per_answer = 1;
    max_budget = None;
    certified_bound = None;
    max_p99_latency = None;
    min_agreement_pct = None;
    max_dead_letter_pct = None;
    stall_samples = None;
  }

type point = {
  p_round : int;
  p_clock : int;
  p_spent : int;
  p_answers : int;
  p_pending : int;
  p_oldest_age : int;  (* 0 when nothing is pending *)
  p_e2e_p50 : float;
  p_e2e_p95 : float;
  p_e2e_p99 : float;
  p_agreement_pct : int;  (* -1: no agreement sample yet *)
  p_posterior_pct : int;  (* -1: no adaptive resolution yet *)
  p_dead_letter_pct : int;  (* of retired tasks; 0 when none retired *)
}

type firing = { at_round : int; at_clock : int; alert : Event.alert }

(* Per-pending-task lifecycle cell, carried from Open_created to the
   retiring event. *)
type cell = {
  created : int;
  mutable first_answer : int option;
  mutable votes : int;
}

(* Fixed-capacity ring over series points; the array is allocated on the
   first push so an installed-but-never-sampled monitor stays cheap. *)
type ring = {
  r_cap : int;
  mutable r_arr : point array option;
  mutable r_next : int;
  mutable r_len : int;
  mutable r_dropped : int;
}

type t = {
  config : config;
  hists : Telemetry.Metrics.t;  (* private registry: lifecycle histograms *)
  live : (Event.open_id, cell) Hashtbl.t;
  ballots : (Event.open_id, (string * Reldb.Value.t) list list) Hashtbl.t;
  mutable samples : int;
  mutable answers : int;
  mutable payoff_spent : int;  (* sum of positive awarded deltas *)
  mutable resolved : int;
  mutable dead : int;
  mutable votes_agree : int;
  mutable votes_total : int;
  mutable posterior_sum : int;
  mutable posterior_n : int;
  mutable last_progress : int;  (* answers+resolved+dead at last sample *)
  mutable idle_samples : int;
  series : ring;
  mutable firings : firing list;  (* newest first *)
  mutable latched : string list;  (* alert kinds already fired *)
}

let create config =
  {
    config;
    hists = Telemetry.Metrics.create ();
    live = Hashtbl.create 32;
    ballots = Hashtbl.create 16;
    samples = 0;
    answers = 0;
    payoff_spent = 0;
    resolved = 0;
    dead = 0;
    votes_agree = 0;
    votes_total = 0;
    posterior_sum = 0;
    posterior_n = 0;
    last_progress = 0;
    idle_samples = 0;
    series =
      { r_cap = max 1 config.series_capacity;
        r_arr = None;
        r_next = 0;
        r_len = 0;
        r_dropped = 0 };
    firings = [];
    latched = [];
  }

let config t = t.config

(* --- Derived readings -------------------------------------------------------- *)

let spent t = t.payoff_spent + (t.answers * t.config.cost_per_answer)
let answers t = t.answers
let pending t = Hashtbl.length t.live
let retired t = t.resolved + t.dead

let agreement_pct t =
  if t.votes_total = 0 then -1 else 100 * t.votes_agree / t.votes_total

let posterior_pct t = if t.posterior_n = 0 then -1 else t.posterior_sum / t.posterior_n

let dead_letter_pct t =
  let r = retired t in
  if r = 0 then 0 else 100 * t.dead / r

let oldest_age t ~clock =
  Hashtbl.fold (fun _ c acc -> max acc (clock - c.created)) t.live 0

let e2e_hist = "lifecycle.end_to_end"

let quantile t name q =
  match Telemetry.Metrics.histogram t.hists name with
  | Some h -> Telemetry.Metrics.quantile h q
  | None -> 0.0

let histograms t = Telemetry.Metrics.histograms t.hists

let points t =
  let r = t.series in
  match r.r_arr with
  | None -> []
  | Some arr ->
      let start = (r.r_next - r.r_len + r.r_cap) mod r.r_cap in
      List.init r.r_len (fun i -> arr.((start + i) mod r.r_cap))

let dropped_points t = t.series.r_dropped
let firings t = List.rev t.firings
let samples t = t.samples

(* --- The watchdogs (live path only) ------------------------------------------ *)

(* Each alert kind fires at most once per monitor lifetime: [check]
   consults the latch, and the latch is set when the journalled
   [Alert_fired] flows back through [observe] — so a recount latches in
   exactly the same place. *)
let check t =
  let out = ref [] in
  let fire key alert = if not (List.mem key t.latched) then out := alert :: !out in
  (* An explicit budget wins; without one, the statically certified bound
     is the spend ceiling — crossing it means either the analysis is
     unsound or the host is spending outside the program. *)
  let budget_limit =
    match t.config.max_budget with
    | Some _ as b -> b
    | None -> t.config.certified_bound
  in
  (match budget_limit with
  | Some budget when spent t > budget ->
      fire "budget" (Event.Budget_exceeded { spent = spent t; budget })
  | _ -> ());
  (match t.config.max_p99_latency with
  | Some limit -> (
      match Telemetry.Metrics.histogram t.hists e2e_hist with
      | Some h when h.count > 0 ->
          let p99 = Telemetry.Metrics.quantile h 0.99 in
          if p99 > float_of_int limit then
            fire "latency"
              (Event.Latency_breached
                 { p99 = int_of_float (Float.round p99); limit })
      | _ -> ())
  | None -> ());
  (match t.config.min_agreement_pct with
  | Some floor when t.votes_total > 0 && agreement_pct t < floor ->
      fire "agreement" (Event.Agreement_low { pct = agreement_pct t; floor })
  | _ -> ());
  (match t.config.max_dead_letter_pct with
  | Some ceiling when retired t > 0 && dead_letter_pct t > ceiling ->
      fire "dead_letter" (Event.Dead_letters_high { pct = dead_letter_pct t; ceiling })
  | _ -> ());
  (match t.config.stall_samples with
  | Some limit ->
      (* Prospective idle count: [check] runs before the sample event is
         observed, so mirror the update [observe] will apply. *)
      let progress = t.answers + t.resolved + t.dead in
      let idle =
        if progress = t.last_progress && pending t > 0 then t.idle_samples + 1 else 0
      in
      if idle >= limit then fire "stall" (Event.Stalled { samples = idle; limit })
  | None -> ());
  List.rev !out

(* --- The fold ---------------------------------------------------------------- *)

let retire t id ~clock ~resolved =
  match Hashtbl.find_opt t.live id with
  | None -> ()
  | Some c ->
      Hashtbl.remove t.live id;
      let m = t.hists in
      let e2e = clock - c.created in
      Telemetry.Metrics.observe m e2e_hist e2e;
      (if resolved then begin
         Telemetry.Metrics.observe m "lifecycle.resolve" e2e;
         (* A non-quorum answer both first-answers and retires the task in
            one event; count it as an (instant) first answer so
            time-to-first-answer stays meaningful without quorums. *)
         let first = match c.first_answer with Some f -> f | None -> clock in
         if c.first_answer = None then
           Telemetry.Metrics.observe m "lifecycle.first_answer" (clock - c.created);
         Telemetry.Metrics.observe m "lifecycle.decision" (clock - first)
       end
       else begin
         Telemetry.Metrics.observe m "lifecycle.dead_letter" e2e;
         match c.first_answer with
         | Some f -> Telemetry.Metrics.observe m "lifecycle.decision" (clock - f)
         | None -> ()
       end);
      if resolved then t.resolved <- t.resolved + 1 else t.dead <- t.dead + 1

let push_point t p =
  let r = t.series in
  let arr =
    match r.r_arr with
    | Some a -> a
    | None ->
        let a = Array.make r.r_cap p in
        r.r_arr <- Some a;
        a
  in
  arr.(r.r_next) <- p;
  r.r_next <- (r.r_next + 1) mod r.r_cap;
  if r.r_len < r.r_cap then r.r_len <- r.r_len + 1 else r.r_dropped <- r.r_dropped + 1

let sample_point t ~round ~clock =
  {
    p_round = round;
    p_clock = clock;
    p_spent = spent t;
    p_answers = t.answers;
    p_pending = pending t;
    p_oldest_age = oldest_age t ~clock;
    p_e2e_p50 = quantile t e2e_hist 0.50;
    p_e2e_p95 = quantile t e2e_hist 0.95;
    p_e2e_p99 = quantile t e2e_hist 0.99;
    p_agreement_pct = agreement_pct t;
    p_posterior_pct = posterior_pct t;
    p_dead_letter_pct = dead_letter_pct t;
  }

let observe t (ev : Event.event) =
  let clock = ev.clock in
  (match ev.by_human with Some _ -> t.answers <- t.answers + 1 | None -> ());
  (* Same vote-vs-resolution recognition as the engine's counting fold:
     a banked vote alone means the task stays pending; a [Vote_recorded]
     riding with any other effect is the quorum resolution event. *)
  let votes = ref 0 and others = ref 0 and voted_id = ref None in
  List.iter
    (fun (eff : Event.effect) ->
      match eff with
      | Open_created id ->
          incr others;
          Hashtbl.replace t.live id { created = clock; first_answer = None; votes = 0 }
      | Vote_recorded (id, n) ->
          incr votes;
          voted_id := Some id;
          (match Hashtbl.find_opt t.live id with
          | Some c ->
              if c.first_answer = None then begin
                c.first_answer <- Some clock;
                Telemetry.Metrics.observe t.hists "lifecycle.first_answer"
                  (clock - c.created)
              end;
              c.votes <- n
          | None -> ())
      | Dead_lettered (id, _) ->
          Hashtbl.remove t.ballots id;
          retire t id ~clock ~resolved:false
      | Resolved id ->
          incr others;
          retire t id ~clock ~resolved:true
      | Adaptive_resolved { posterior_pct; _ } ->
          t.posterior_sum <- t.posterior_sum + posterior_pct;
          t.posterior_n <- t.posterior_n + 1
      | Awarded deltas ->
          incr others;
          List.iter
            (fun (_, d) ->
              match d with
              | Reldb.Value.Int d when d > 0 -> t.payoff_spent <- t.payoff_spent + d
              | _ -> ())
            deltas
      | Sampled { round } ->
          let progress = t.answers + t.resolved + t.dead in
          if progress = t.last_progress && pending t > 0 then
            t.idle_samples <- t.idle_samples + 1
          else t.idle_samples <- 0;
          t.last_progress <- progress;
          t.samples <- t.samples + 1;
          push_point t (sample_point t ~round ~clock)
      | Alert_fired { round; alert } ->
          let key = Event.alert_key alert in
          if not (List.mem key t.latched) then t.latched <- t.latched @ [ key ];
          t.firings <- { at_round = round; at_clock = clock; alert } :: t.firings
      | Inserted _ | Updated _ | Deleted _ | No_effect -> incr others)
    ev.effects;
  match !voted_id with
  | Some id when !others = 0 ->
      if ev.valuation <> [] then
        Hashtbl.replace t.ballots id
          (ev.valuation :: Option.value (Hashtbl.find_opt t.ballots id) ~default:[])
  | Some id ->
      (* Quorum resolution: agreement of earlier ballots with the chosen
         tuple, then the task retires as resolved. *)
      (match (ev.valuation, Hashtbl.find_opt t.ballots id) with
      | (_ :: _ as chosen), Some ballots ->
          List.iter
            (fun ballot ->
              List.iter
                (fun (attr, v) ->
                  match List.assoc_opt attr ballot with
                  | Some b ->
                      t.votes_total <- t.votes_total + 1;
                      if Reldb.Value.equal b v then t.votes_agree <- t.votes_agree + 1
                  | None -> ())
                chosen)
            ballots
      | _ -> ());
      Hashtbl.remove t.ballots id;
      retire t id ~clock ~resolved:true
  | None -> ()

let of_events config events =
  let t = create config in
  List.iter (observe t) events;
  t

(* --- The comparable view ------------------------------------------------------ *)

type view = {
  v_samples : int;
  v_spent : int;
  v_answers : int;
  v_resolved : int;
  v_dead : int;
  v_pending : (Event.open_id * int) list;
  v_votes_agree : int;
  v_votes_total : int;
  v_posterior_sum : int;
  v_posterior_n : int;
  v_histograms : (string * Telemetry.Metrics.histogram) list;
  v_points : point list;
  v_dropped_points : int;
  v_firings : firing list;
  v_latched : string list;
}

let view t =
  {
    v_samples = t.samples;
    v_spent = spent t;
    v_answers = t.answers;
    v_resolved = t.resolved;
    v_dead = t.dead;
    v_pending =
      Hashtbl.fold (fun id c acc -> (id, c.created) :: acc) t.live []
      |> List.sort compare;
    v_votes_agree = t.votes_agree;
    v_votes_total = t.votes_total;
    v_posterior_sum = t.posterior_sum;
    v_posterior_n = t.posterior_n;
    v_histograms = histograms t;
    v_points = points t;
    v_dropped_points = dropped_points t;
    v_firings = firings t;
    v_latched = List.sort compare t.latched;
  }

(* --- Rendering ---------------------------------------------------------------- *)

let opt_int = function None -> Json.Null | Some v -> Json.Int v
let pct_json v = if v < 0 then Json.Null else Json.Int v

let config_json c =
  Json.Obj
    [ ("series_capacity", Json.Int c.series_capacity);
      ("cost_per_answer", Json.Int c.cost_per_answer); ("max_budget", opt_int c.max_budget);
      ("certified_bound", opt_int c.certified_bound);
      ("max_p99_latency", opt_int c.max_p99_latency);
      ("min_agreement_pct", opt_int c.min_agreement_pct);
      ("max_dead_letter_pct", opt_int c.max_dead_letter_pct);
      ("stall_samples", opt_int c.stall_samples) ]

let point_fields p =
  [ ("round", Json.Int p.p_round); ("clock", Json.Int p.p_clock);
    ("spent", Json.Int p.p_spent); ("answers", Json.Int p.p_answers);
    ("pending", Json.Int p.p_pending); ("oldest_age", Json.Int p.p_oldest_age);
    ("e2e_p50", Json.Float p.p_e2e_p50); ("e2e_p95", Json.Float p.p_e2e_p95);
    ("e2e_p99", Json.Float p.p_e2e_p99); ("agreement_pct", pct_json p.p_agreement_pct);
    ("posterior_pct", pct_json p.p_posterior_pct);
    ("dead_letter_pct", Json.Int p.p_dead_letter_pct) ]

let firing_fields f =
  let observed, limit = Event.alert_numbers f.alert in
  [ ("round", Json.Int f.at_round); ("clock", Json.Int f.at_clock);
    ("kind", Json.String (Event.alert_key f.alert)); ("observed", Json.Int observed);
    ("limit", Json.Int limit); ("message", Json.String (Event.alert_to_string f.alert)) ]

let point_json p = Json.Obj (point_fields p)

let hist_json h =
  let q x = Json.Float (Telemetry.Metrics.quantile h x) in
  Json.Obj
    [ ("count", Json.Int h.Telemetry.Metrics.count);
      ("sum", Json.Int h.Telemetry.Metrics.sum); ("p50", q 0.50); ("p95", q 0.95);
      ("p99", q 0.99) ]

let to_json t =
  Json.Obj
    [ ("config", config_json t.config);
      ( "totals",
        Json.Obj
          [ ("samples", Json.Int t.samples); ("spent", Json.Int (spent t));
            ("answers", Json.Int t.answers); ("resolved", Json.Int t.resolved);
            ("dead_lettered", Json.Int t.dead); ("pending", Json.Int (pending t));
            ("agreement_pct", pct_json (agreement_pct t));
            ("posterior_pct", pct_json (posterior_pct t));
            ("dead_letter_pct", Json.Int (dead_letter_pct t)) ] );
      ("lifecycle", Json.Obj (List.map (fun (k, h) -> (k, hist_json h)) (histograms t)));
      ("series", Json.List (List.map point_json (points t)));
      ("dropped_points", Json.Int (dropped_points t));
      ("alerts", Json.List (List.map (fun f -> Json.Obj (firing_fields f)) (firings t))) ]

(* One JSON object per line: every series point, then every alert, each
   tagged with a ["type"] discriminator — the streaming-friendly dump
   behind [--monitor-out file.jsonl]. *)
let to_jsonl t =
  let line tag fields =
    Json.to_string (Json.Obj (("type", Json.String tag) :: fields)) ^ "\n"
  in
  String.concat ""
    (List.map (fun p -> line "point" (point_fields p)) (points t)
    @ List.map (fun f -> line "alert" (firing_fields f)) (firings t))

let pp fmt t =
  let pct v = if v < 0 then "-" else string_of_int v ^ "%" in
  (match t.config.certified_bound with
  | Some b ->
      Format.fprintf fmt "monitor: %d samples, %d answers, spent %d / certified %d@."
        t.samples t.answers (spent t) b
  | None ->
      Format.fprintf fmt "monitor: %d samples, %d answers, spent %d@." t.samples
        t.answers (spent t));
  Format.fprintf fmt "  tasks: %d resolved, %d dead-lettered, %d pending@."
    t.resolved t.dead (pending t);
  Format.fprintf fmt "  quality: agreement %s, posterior %s, dead-letter %d%%@."
    (pct (agreement_pct t))
    (pct (posterior_pct t))
    (dead_letter_pct t);
  List.iter
    (fun (name, h) ->
      if h.Telemetry.Metrics.count > 0 then
        Format.fprintf fmt "  %-24s count=%d p50=%.1f p95=%.1f p99=%.1f@." name
          h.Telemetry.Metrics.count
          (Telemetry.Metrics.quantile h 0.50)
          (Telemetry.Metrics.quantile h 0.95)
          (Telemetry.Metrics.quantile h 0.99))
    (histograms t);
  let ps = points t in
  let n = List.length ps in
  let tail = if n > 5 then List.filteri (fun i _ -> i >= n - 5) ps else ps in
  if tail <> [] then begin
    Format.fprintf fmt "  series (last %d of %d):@." (List.length tail) n;
    List.iter
      (fun p ->
        Format.fprintf fmt
          "    round %-4d spent=%-5d answers=%-4d pending=%-3d p99=%.1f dead=%d%%@."
          p.p_round p.p_spent p.p_answers p.p_pending p.p_e2e_p99 p.p_dead_letter_pct)
      tail
  end;
  if t.firings = [] then Format.fprintf fmt "  alerts: none@."
  else
    List.iter
      (fun f ->
        Format.fprintf fmt "  ALERT [round %d] %s@." f.at_round
          (Event.alert_to_string f.alert))
      (firings t)
