(* The paper's TweetPecker VRE/I campaign (Section 8) on a bare engine:
   the five-worker crowd of [Tweetpecker.Runner.default_workers] acting
   through [Tweetpecker.Policies], driven by a loop that mirrors
   [Crowd.Simulator.run] (no lease, no quorum, no monitor — the Runner's
   defaults) so that each engine call can be timed. *)

open Cylog
module Ints = Trace.Ints
module P = Tweetpecker.Programs

let corpus_size = 463

(* corpora per run, each with its own seed, crowd state and reference *)
let corpora = 3
let max_rounds = 10_000

(* rounds between dashboard refreshes *)
let refresh_every = 4

(* set-up cycles (parse + load) per untraced repetition *)
let setup_cycles = 5

let sp_parse = Trace.intern "Parser.parse"
let sp_load = Trace.intern "Engine.load"
let sp_supply = Trace.intern "Engine.supply"
let sp_answer = Trace.intern "Engine.answer_existence"
let sp_run = Trace.intern "Engine.run"
let sp_pending = Trace.intern "Engine.pending"
let sp_policy = Trace.intern "worker_policy"
let sp_events = Trace.intern "Engine.events_since"
let sp_restore = Trace.intern "Engine.restore_string"
let sp_gen = Trace.intern "generator"

(* Inputs shared by every repetition of one run: the corpus, the crowd,
   the prepared policy state (kept marshalled, so that each repetition
   starts from a fresh copy instead of paying [Policies.prepare] again),
   and the agreed set of [Tweetpecker.Runner.run] on the same seed. *)
type inputs = {
  seed : int;
  corpus : Tweets.Generator.tweet list;
  workers : Crowd.Worker.profile list;
  source : string;
  prepared : string;
  expected : (int * string * string) list;
}

let prepare ~seed =
  let corpus = Tweets.Generator.generate ~seed corpus_size in
  let workers = Tweetpecker.Runner.default_workers P.VREI in
  let names = List.map (fun (w : Crowd.Worker.profile) -> w.name) workers in
  let shared = Tweetpecker.Policies.prepare ~seed ~corpus ~workers in
  let reference = Tweetpecker.Runner.run ~seed ~corpus ~workers P.VREI in
  {
    seed;
    corpus;
    workers;
    source = P.source P.VREI ~corpus ~workers:names;
    prepared = Marshal.to_string shared [];
    expected = List.sort compare reference.agreed;
  }

let agreed_count engine =
  match Reldb.Database.find (Engine.database engine) "Agreed" with
  | Some rel -> Reldb.Relation.cardinal rel
  | None -> 0

(* Simulator.run's loop. The bare engine has no lease call: a worker
   gets its task from its policy, which reads the tasks opened since its
   last turn ([Engine.pending_since]), drops stale ones and picks one, so
   the policy call is timed as the lease. Neither [Crowd.Simulator.run]
   nor the Runner polls a dashboard, so the poll is an added read-only
   probe: every [refresh_every] rounds it reads the event log since the
   last refresh and counts the open tasks. The probe's wall time and
   minor words are returned apart, so that the serving time and
   allocation cover Simulator.run's traffic only. Each round ends with
   [Harness.end_round], which samples the host's speed into [host]. *)
let serve ctx inp engine ~policies ~host =
  let rng = Random.State.make [| inp.seed |] in
  let target = 2 * List.length inp.corpus in
  let stop () = agreed_count engine >= target in
  let answers = ref 0 and capped = ref 0 and idle = ref 0 and rounds_done = ref 0 in
  let cursor = ref (Engine.event_count engine) in
  let probe_ns = ref 0 and probe_words = ref 0. in
  let probe f =
    let w0 = Gc.minor_words () in
    let t0 = Trace.now_ns () in
    let r = f () in
    probe_ns := !probe_ns + (Trace.now_ns () - t0);
    probe_words := !probe_words +. (Gc.minor_words () -. w0);
    r
  in
  let machine () =
    match Harness.call ctx sp_run (fun () -> Engine.run engine) with
    | _, `Capped -> incr capped
    | _, `Quiescent -> ()
  in
  (* an answer's latency runs to the end of the machine run it causes *)
  let answer acted span f =
    let t0 = Trace.now_ns () in
    match Harness.call ctx span f with
    | Ok _ ->
        incr answers;
        acted := true;
        machine ();
        Ints.add ctx.supply (Trace.now_ns () - t0)
    | Error r -> Harness.fail ctx ("rejected: " ^ Engine.reject_to_string r)
  in
  let turn n acted (worker, policy) =
    if not (stop ()) then begin
      Trace.next_request ();
      let g = Trace.enter sp_gen in
      (match
         Harness.call ctx ~lat:ctx.lease sp_policy (fun () ->
             policy engine ~worker ~rng ~round:n)
       with
      | Crowd.Simulator.Pass -> ()
      | Crowd.Simulator.Answer (id, values, _) ->
          answer acted sp_supply (fun () -> Engine.supply engine id ~worker values)
      | Crowd.Simulator.Answer_existence (id, yes) ->
          answer acted sp_answer (fun () -> Engine.answer_existence engine id ~worker yes));
      Trace.exit g
    end
  in
  let refresh () =
    Trace.next_request ();
    probe (fun () ->
        let t0 = Trace.now_ns () in
        let events =
          Harness.call ctx sp_events (fun () -> Engine.events_since engine ~after:!cursor)
        in
        cursor := !cursor + List.length events;
        ignore (Harness.call ctx sp_pending (fun () -> List.length (Engine.pending engine)));
        Ints.add ctx.poll (Trace.now_ns () - t0))
  in
  machine ();
  let rec rounds n =
    if n > max_rounds then `Max_rounds
    else if stop () then `Stopped
    else begin
      rounds_done := n;
      let acted = ref false in
      Trace.next_request ();
      let g = Trace.enter sp_gen in
      let order = Harness.shuffle rng policies in
      Trace.exit g;
      List.iter (turn n acted) order;
      if n mod refresh_every = 0 then refresh ();
      Harness.end_round ctx host;
      if stop () then `Stopped
      else begin
        if !acted then idle := 0 else incr idle;
        if !idle >= 5 then `Stalled else rounds (n + 1)
      end
    end
  in
  let stop_reason = rounds 1 in
  (stop_reason, !answers, !capped, !rounds_done, float_of_int !probe_ns /. 1e9, !probe_words)

let agreed engine =
  match Reldb.Database.find (Engine.database engine) "Agreed" with
  | None -> []
  | Some rel ->
      List.map
        (fun t ->
          let s a =
            match Reldb.Tuple.get_or_null t a with
            | Reldb.Value.String s -> s
            | v -> Reldb.Value.to_display v
          in
          let tw = match Reldb.Tuple.get_or_null t "tw" with Reldb.Value.Int i -> i | _ -> -1 in
          (tw, s "attr", s "value"))
        (Reldb.Relation.tuples rel)
      |> List.sort compare

let iteration inp ~traced =
  let ctx = Harness.ctx () in
  let span_lo = Trace.count () in
  (* the last set-up cycle loads the engine that serves; an untraced
     repetition reports the median of [setup_cycles]; the host's speed is
     sampled before and after each cycle *)
  let shost = Harness.Host.meter () in
  let setup () =
    Harness.Host.sample ~k:5 shost;
    let t0 = Trace.now_ns () in
    let program = Harness.call ctx sp_parse (fun () -> Label.parse inp.source) in
    let engine = Harness.call ctx sp_load (fun () -> Engine.load program) in
    (Harness.seconds_since t0, engine)
  in
  let before =
    if traced then [] else List.init (setup_cycles - 1) (fun _ -> fst (setup ()))
  in
  Trace.on := traced;
  let dt, engine = setup () in
  Trace.on := false;
  Harness.Host.sample ~k:5 shost;
  let setup = (Harness.median (dt :: before), Harness.Host.factor shost) in
  let shared : Tweetpecker.Policies.shared = Marshal.from_string inp.prepared 0 in
  let policies =
    List.map
      (fun (w : Crowd.Worker.profile) ->
        (Reldb.Value.String w.name, Tweetpecker.Policies.policy shared w))
      inp.workers
  in
  Trace.on := traced;
  let host = Harness.Host.meter () in
  let w0 = Harness.allocated_words () in
  let t0 = Trace.now_ns () in
  let stop_reason, answers, capped, rounds, probe_s, probe_words =
    serve ctx inp engine ~policies ~host
  in
  let serve_s = Harness.seconds_since t0 -. probe_s -. Harness.Host.seconds host in
  let alloc_words = Harness.allocated_words () -. w0 -. probe_words in
  Trace.on := false;
  let got = agreed engine in
  let target = 2 * List.length inp.corpus in
  Harness.check ctx "campaign did not stop on completion" (stop_reason = `Stopped);
  Harness.check ctx "machine run capped" (capped = 0);
  Harness.check ctx
    (Printf.sprintf "completion %d/%d" (List.length got) target)
    (List.length got = target);
  Harness.check ctx "agreed set differs from Tweetpecker.Runner.run" (got = inp.expected);
  let live_heap_mb = Harness.live_heap_mb () in
  let m = Engine.metrics engine in
  let counter name = float_of_int (Telemetry.Metrics.counter m name) in
  let layer =
    if not traced then []
    else
      [ ("rounds", float_of_int rounds);
        ("engine.events", counter "engine.events");
        ("eval.rows_scanned", counter "eval.rows_scanned");
        ("eval.fixpoint.steps", counter "eval.fixpoint.steps");
        ("planner.hits", counter "planner.delta_cache.hits" +. counter "planner.rescan_cache.hits");
        ( "planner.misses",
          counter "planner.delta_cache.misses" +. counter "planner.rescan_cache.misses" ) ]
  in
  (* Rebuild the engine from its checkpoint (program plus journal). *)
  let checkpoint = Engine.snapshot_string engine in
  let rhost = Harness.Host.meter () in
  Harness.Host.sample ~k:5 rhost;
  Trace.on := traced;
  let t0 = Trace.now_ns () in
  let restored = Harness.call ctx sp_restore (fun () -> Engine.restore_string checkpoint) in
  let recover_s = Harness.seconds_since t0 in
  Trace.on := false;
  Harness.Host.sample ~k:5 rhost;
  Harness.check ctx "restored journal differs"
    (String.equal (Engine.journal_dump engine) (Engine.journal_dump restored));
  Harness.finish ctx ~traced ~setup ~serve:(serve_s, Harness.Host.factor host) ~probe_s
    ~recover:(recover_s, Harness.Host.factor rhost) ~answers ~resolved:(List.length got)
    ~alloc_words ~live_heap_mb ~journal_bytes:(String.length checkpoint) ~rounds ~layer ~span_lo
