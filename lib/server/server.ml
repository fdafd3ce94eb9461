module Router = Router
module Shard = Shard
module Fleet = Fleet

open Cylog

type t = {
  pool : Shard.t array;
  journal_root : string option;
  journal_config : Journal.config option;
  storage_for : int -> (module Storage.S) option;
  server_metrics : Telemetry.Metrics.t;
  mutable open_names : string list;  (* reverse opening order *)
}

type task_ref = { shard : int; local : Engine.open_id }

let create ?journal_root ?journal_config ?storage ~shards () =
  let n = max 1 shards in
  {
    pool = Array.init n (fun id -> Shard.create ~id);
    journal_root;
    journal_config;
    storage_for =
      (match storage with
      | None -> fun _ -> None
      | Some f -> fun i -> Some (f i));
    server_metrics = Telemetry.Metrics.create ();
    open_names = [];
  }

let shards t = Array.length t.pool
let metrics t = t.server_metrics
let shard t i = t.pool.(i)
let campaigns t = List.rev t.open_names

let open_campaign t ~name ?(partition_by = []) ?lease ?policy ?relations
    ?aggregate ?monitor program =
  if List.mem name t.open_names then
    failwith (Printf.sprintf "campaign %S already open" name);
  Telemetry.Metrics.incr t.server_metrics "server.campaigns_opened";
  let n = shards t in
  let splits = Router.split_program ~shards:n partition_by program in
  Array.iteri
    (fun i sh ->
      let journal_dir =
        Option.map
          (fun root -> Filename.concat root (Printf.sprintf "shard-%02d/%s" i name))
          t.journal_root
      in
      Shard.open_slot sh ~campaign:name ?journal_dir
        ?journal_config:t.journal_config
        ?storage:(t.storage_for i) ?lease ?policy ?relations ?aggregate
        ?monitor splits.(i))
    t.pool;
  t.open_names <- name :: t.open_names

(* Every call into a shard counts once in [server.requests]. *)
let call t i =
  Telemetry.Metrics.incr t.server_metrics "server.requests";
  t.pool.(i)

let lease t ~campaign ~worker ~now =
  let n = shards t in
  let start = Router.shard_of_values ~shards:n [ worker ] in
  let rec probe i =
    if i >= n then None
    else begin
      let s = (start + i) mod n in
      Telemetry.Metrics.incr t.server_metrics "server.lease_probes";
      match Shard.lease (call t s) ~campaign ~worker ~now with
      | Ok (Some (ot, view)) -> Some ({ shard = s; local = ot.id }, ot, view)
      | Ok None | Error `Crashed -> probe (i + 1)
    end
  in
  probe 0

type answer_result =
  | Accepted of Engine.event
  | Rejected of Engine.reject
  | Shard_down of int

let answer_result s = function
  | Ok (Ok ev) -> Accepted ev
  | Ok (Error rej) -> Rejected rej
  | Error `Crashed -> Shard_down s

let supply t ~campaign (task : task_ref) ~worker values =
  answer_result task.shard
    (Shard.supply (call t task.shard) ~campaign task.local ~worker values)

let answer_existence t ~campaign (task : task_ref) ~worker yes =
  answer_result task.shard
    (Shard.answer_existence (call t task.shard) ~campaign task.local ~worker yes)

let decline t ~campaign (task : task_ref) =
  ignore (Shard.decline (call t task.shard) ~campaign task.local)

let reclaim t ~campaign ~now =
  let total = ref 0 in
  for i = 0 to shards t - 1 do
    match Shard.reclaim (call t i) ~campaign ~now with
    | Ok n -> total := !total + n
    | Error `Crashed -> ()
  done;
  !total

(* Shard ascending, each shard's firings in order. *)
let sample t ~campaign ~round =
  List.concat
    (List.init (shards t) (fun i ->
         match Shard.sample (call t i) ~campaign ~round with
         | Ok fs -> List.map (fun f -> (i, f)) fs
         | Error `Crashed -> []))

type cursor = { c_campaign : string; pos : int array }

let poll_cursor t ~campaign =
  if not (List.mem campaign t.open_names) then
    invalid_arg (Printf.sprintf "poll_cursor: unknown campaign %S" campaign);
  let pos sh =
    Option.fold ~none:0 ~some:Engine.event_count (Shard.engine sh ~campaign)
  in
  { c_campaign = campaign; pos = Array.map pos t.pool }

type resolution =
  | Task_resolved of { task : task_ref; quorum : bool }
  | Task_dead of { task : task_ref; reason : Lease.reason }

(* Resolution recognition, mirroring the monitor's lifecycle fold:
   [Resolved id] retires a non-quorum task; a [Vote_recorded] riding with
   any other effect is a quorum resolution (a lone vote just banks);
   [Dead_lettered] is the failure exit. *)
let resolutions_of_event s (ev : Engine.event) =
  let vote =
    List.find_map
      (function Engine.Vote_recorded (id, _) -> Some id | _ -> None)
      ev.effects
  in
  let rides =
    List.exists (function Engine.Vote_recorded _ -> false | _ -> true)
      ev.effects
  in
  let quorum_resolution =
    match vote with Some id when rides -> [ Task_resolved { task = { shard = s; local = id }; quorum = true } ] | _ -> []
  in
  let rest =
    List.filter_map
      (function
        | Engine.Resolved id ->
            Some (Task_resolved { task = { shard = s; local = id }; quorum = false })
        | Engine.Dead_lettered (id, reason) ->
            Some (Task_dead { task = { shard = s; local = id }; reason })
        | _ -> None)
      ev.effects
  in
  quorum_resolution @ rest

let resolve_poll t ~campaign cursor =
  if cursor.c_campaign <> campaign then
    invalid_arg "resolve_poll: cursor belongs to another campaign";
  (* newest first, reversed once at the end: shard ascending, log order *)
  let rev = ref [] in
  Array.iteri
    (fun i sh ->
      if not (Shard.slot_failed sh ~campaign) then
        match Shard.engine sh ~campaign with
        | None -> ()
        | Some e ->
            let events = Engine.events_since e ~after:cursor.pos.(i) in
            cursor.pos.(i) <- cursor.pos.(i) + List.length events;
            List.iter
              (fun ev -> rev := List.rev_append (resolutions_of_event i ev) !rev)
              events)
    t.pool;
  List.rev !rev

let pending_total t =
  Array.fold_left (fun acc sh -> acc + Shard.pending_total sh) 0 t.pool

let stats t =
  let inputs =
    Array.to_list t.pool
    |> List.filter_map (fun sh ->
           if Shard.failed sh then None
           else
             Some
               {
                 Fleet.s_id = Shard.id sh;
                 s_engines =
                   List.filter_map
                     (fun c -> Shard.engine sh ~campaign:c)
                     (Shard.campaigns sh);
                 s_metrics = Shard.metrics sh;
                 s_latencies_ns = Shard.latencies_ns sh;
               })
  in
  let view = Fleet.gather ~total_shards:(shards t) inputs in
  Telemetry.Metrics.merge ~into:view.Fleet.metrics t.server_metrics;
  view

let recover_shard t i ~campaign ?builtins ?aggregate ?storage () =
  Telemetry.Metrics.incr t.server_metrics "server.recoveries";
  Shard.recover_slot t.pool.(i) ~campaign ?builtins ?aggregate ?storage ()
