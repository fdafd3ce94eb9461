open Cylog

type slot = {
  campaign : string;
  mutable engine : Engine.t;
  journal_dir : string option;
  journal_config : Journal.config option;
  mutable storage : (module Storage.S) option;
  mutable crashed : bool;
}

type t = {
  sid : int;
  slots : (string, slot) Hashtbl.t;
  mutable order : string list;  (* campaign names, reverse opening order *)
  shard_metrics : Telemetry.Metrics.t;
  (* call service times in ns; growable, observability-only *)
  mutable lat : int array;
  mutable lat_n : int;
}

let create ~id =
  {
    sid = id;
    slots = Hashtbl.create 7;
    order = [];
    shard_metrics = Telemetry.Metrics.create ();
    lat = Array.make 64 0;
    lat_n = 0;
  }

let id t = t.sid
let metrics t = t.shard_metrics

let record_latency t ns =
  if t.lat_n = Array.length t.lat then begin
    let grown = Array.make (2 * t.lat_n) 0 in
    Array.blit t.lat 0 grown 0 t.lat_n;
    t.lat <- grown
  end;
  t.lat.(t.lat_n) <- ns;
  t.lat_n <- t.lat_n + 1

let latencies_ns t = Array.sub t.lat 0 t.lat_n

let open_slot t ~campaign ?journal_dir ?journal_config ?storage ?lease ?policy
    ?relations ?aggregate ?monitor program =
  if Hashtbl.mem t.slots campaign then
    failwith (Printf.sprintf "shard %d: campaign %S already open" t.sid campaign);
  let engine = Engine.load program in
  (match journal_dir with
  | Some dir -> Engine.journal_start ?config:journal_config ?storage engine dir
  | None -> ());
  Option.iter (fun cfg -> Engine.set_lease_config engine (Some cfg)) lease;
  Option.iter
    (fun p -> Engine.set_quorum_policy engine ?relations ?aggregate p)
    policy;
  Option.iter (fun cfg -> Engine.set_monitor engine (Some cfg)) monitor;
  ignore (Engine.run engine);
  Hashtbl.add t.slots campaign
    { campaign; engine; journal_dir; journal_config; storage; crashed = false };
  t.order <- campaign :: t.order;
  Telemetry.Metrics.incr t.shard_metrics "shard.campaigns_opened"

let campaigns t = List.rev t.order
let find t campaign = Hashtbl.find_opt t.slots campaign

let engine t ~campaign = Option.map (fun s -> s.engine) (find t campaign)

let slot_failed t ~campaign =
  match find t campaign with Some s -> s.crashed | None -> false

let failed t =
  Hashtbl.fold (fun _ s acc -> acc || s.crashed) t.slots false

type 'a call = ('a, [ `Crashed ]) result

let slot t campaign =
  match find t campaign with
  | Some s -> s
  | None ->
      invalid_arg (Printf.sprintf "shard %d: unknown campaign %S" t.sid campaign)

(* The one guard every verb runs through: count the call, find the slot,
   time the engine work into the latency samples, and contain a storage
   crash to this slot. *)
let guard t ~campaign f =
  Telemetry.Metrics.incr t.shard_metrics "shard.requests";
  let slot = slot t campaign in
  if slot.crashed then Error `Crashed
  else
    let t0 = Unix.gettimeofday () in
    match f slot.engine with
    | r ->
        record_latency t (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
        Ok r
    | exception (Storage.Crashed | Storage.No_space) ->
        slot.crashed <- true;
        Telemetry.Metrics.incr t.shard_metrics "shard.crashes";
        Error `Crashed

(* One pass over the worker's pending tasks in age order, stopping at the
   first grant: skip tasks they already voted on and, under the lease
   runtime, tasks the engine will not lease to them. *)
let lease t ~campaign ~worker ~now =
  guard t ~campaign (fun e ->
      let leases_on = Engine.lease_config e <> None in
      let grantable (ot : Engine.open_tuple) =
        (not (Engine.has_voted e ot.id ~worker))
        && ((not leases_on) || Result.is_ok (Engine.assign e ot.id ~worker ~now))
      in
      match List.find_opt grantable (Engine.pending_for e worker) with
      | Some ot ->
          Telemetry.Metrics.incr t.shard_metrics "shard.leases_granted";
          Some (ot, Engine.task_view e ot)
      | None ->
          Telemetry.Metrics.incr t.shard_metrics "shard.leases_refused";
          None)

let answered t e = function
  | Ok _ as r ->
      ignore (Engine.run e);
      Telemetry.Metrics.incr t.shard_metrics "shard.answers_accepted";
      r
  | Error _ as r ->
      Telemetry.Metrics.incr t.shard_metrics "shard.answers_rejected";
      r

let supply t ~campaign task ~worker values =
  guard t ~campaign (fun e -> answered t e (Engine.supply e task ~worker values))

let answer_existence t ~campaign task ~worker yes =
  guard t ~campaign (fun e ->
      answered t e (Engine.answer_existence e task ~worker yes))

let decline t ~campaign task =
  guard t ~campaign (fun e ->
      Engine.decline e task;
      ignore (Engine.run e))

let reclaim t ~campaign ~now =
  guard t ~campaign (fun e ->
      let expired = Engine.reclaim e ~now in
      ignore (Engine.run e);
      List.length expired)

let sample t ~campaign ~round =
  guard t ~campaign (fun e -> Engine.monitor_sample e ~round)

let pending_total t =
  Hashtbl.fold
    (fun _ s acc ->
      if s.crashed then acc else acc + List.length (Engine.pending s.engine))
    t.slots 0

let recover_slot t ~campaign ?builtins ?aggregate ?storage () =
  let slot = slot t campaign in
  match slot.journal_dir with
  | None ->
      failwith
        (Printf.sprintf "shard %d: campaign %S has no journal" t.sid campaign)
  | Some dir ->
      (match storage with Some _ -> slot.storage <- storage | None -> ());
      (* Keep the slot's journal config across reopen: recovery with a
         different fsync/rotation policy would silently change the
         durability contract of the resumed campaign. *)
      (* No catch-up [run] here: the journal replay already reproduced
         quiescence, and an extra run would journal a fresh entry —
         breaking byte-equality with the pre-crash trace. *)
      let engine, stats =
        Engine.recover ?builtins ?aggregate ?config:slot.journal_config
          ?storage:slot.storage dir
      in
      slot.engine <- engine;
      slot.crashed <- false;
      Telemetry.Metrics.incr t.shard_metrics "shard.recoveries";
      stats
