(* The labelling workloads: generated campaigns on a 4-shard [Server],
   driven through its task-queue API by a closed loop of simulated workers
   that mirrors [Crowd.Fleet_sim.run] call for call and RNG draw for RNG
   draw, so that every call can be timed from outside. *)

open Cylog
module F = Crowd.Fleet_sim
module Ints = Trace.Ints

type config = {
  shards : int;
  campaigns : int;
  items : int;  (* label tasks per campaign *)
  workers : int;
  refresh_every : int;  (* rounds between dashboard refreshes *)
  durable : bool;  (* journal every slot, recover it after serving *)
  max_rounds : int;
}

(* label-answers: the worker path (lease, supply, per-round reclaim) over
   a large live task pool (500 pending tasks per slot at the start); a
   refresh of every campaign each 2 rounds, i.e. one poll per 32
   answers (each 4 rounds, half the polls, left poll_p50_us spreading
   0.10 over ten seeds). *)
let answers_config =
  { shards = 4; campaigns = 2; items = 2000; workers = 32; refresh_every = 2;
    durable = false; max_rounds = 10_000 }

(* label-durable: Fleet_sim's cadence (a refresh of every campaign each
   round) with every slot journaled. In the untraced run the journal's
   device is the repository's in-memory [Storage.Sim]: fsync latency on a
   shared virtual disk swings by an order of magnitude from one minute to
   the next, which would drown the journal's own cost in the bounded
   figures. The traced run journals to POSIX files (see [server]), so the
   [Storage.*] layer timings are the device's. Eight shards: a
   poll journals one sample per shard, and each journal entry has a 1 in
   256 chance of carrying a compaction, so about 3% of polls pay for one,
   well clear of the 1% at which the p99 sits (with four shards it is
   1.6%, and the p99 flipped between runs). 250 tasks per slot. *)
let durable_config =
  { shards = 8; campaigns = 2; items = 2000; workers = 32; refresh_every = 1;
    durable = true; max_rounds = 10_000 }

(* Lease, quorum, monitor and accuracy are Fleet_sim's. *)
let fleet = F.default_config

(* The serve configuration of the repository's durability bench: fsync
   every 8 appends, compaction every 256 journal entries. *)
let journal_config =
  { Journal.default_config with fsync = Journal.Every_n 8; compact_every = Some 256 }

let sp_parse = Trace.intern "Parser.parse"
let sp_open = Trace.intern "Server.open_campaign"
let sp_lease = Trace.intern "Server.lease"
let sp_supply = Trace.intern "Server.supply"
let sp_answer = Trace.intern "Server.answer_existence"
let sp_reclaim = Trace.intern "Server.reclaim"
let sp_sample = Trace.intern "Server.sample"
let sp_poll = Trace.intern "Server.resolve_poll"
let sp_pending = Trace.intern "Server.pending_total"
let sp_recover = Trace.intern "Server.recover_shard"
let sp_restore = Trace.intern "Engine.restore_string"
let sp_gen = Trace.intern "generator"

(* The source [Crowd.Fleet_sim.campaign_program] parses, rebuilt here so
   that parsing is timed apart from generating; the fleet check below
   compares the two programs. *)
let campaign_source ~items ~offset =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "schema:\n  Item(id);\n  LabelOf(id, label);\nrules:\n";
  for i = 0 to items - 1 do
    Buffer.add_string buf (Printf.sprintf "  F%d: Item(id:%d);\n" i (offset + i))
  done;
  Buffer.add_string buf "  Q: LabelOf(id, label)/open <- Item(id);\n";
  Buffer.add_string buf
    "views:\n  view LabelOf {\n    <p>Label item {{id}}: <input \
     name=\"label\"/></p>\n  }\n";
  Buffer.contents buf

let parse src =
  match Parser.parse src with
  | Ok p -> p
  | Error e -> failwith (Format.asprintf "parse: %a" Parser.pp_error e)

(* Parse and open every campaign: the timed set-up. *)
let setup_once ctx cfg ~server =
  let sources =
    List.init cfg.campaigns (fun k -> campaign_source ~items:cfg.items ~offset:(k * 1000))
  in
  let t0 = Trace.now_ns () in
  let programs =
    List.map (fun src -> Harness.call ctx sp_parse (fun () -> parse src)) sources
  in
  List.iteri
    (fun k p ->
      Harness.call ctx sp_open (fun () ->
          Server.open_campaign server ~name:(F.campaign_name k)
            ~partition_by:F.placements ?lease:fleet.lease
            ?policy:
              (if fleet.quorum > 1 then Some (Engine.Fixed fleet.quorum) else None)
            ?monitor:fleet.monitor p))
    programs;
  Harness.seconds_since t0

(* Fleet_sim's answer model, draw for draw. *)
let item_id (ot : Engine.open_tuple) =
  match Reldb.Tuple.get ot.bound "id" with Some (Reldb.Value.Int i) -> i | _ -> 0

let answer_values rng (ot : Engine.open_tuple) =
  let truth = Printf.sprintf "label-%d" (item_id ot mod 5) in
  List.map
    (fun attr ->
      if Random.State.float rng 1.0 < fleet.accuracy then (attr, Reldb.Value.String truth)
      else
        ( attr,
          Reldb.Value.String (Printf.sprintf "%s#%d" truth (1 + Random.State.int rng 2)) ))
    ot.open_attrs

(* Drive the opened campaigns to completion. [sent] collects, per
   (campaign, item), the labels of the accepted answers, newest first.
   Each round ends with [Harness.end_round], which samples the host's
   speed into [host]. *)
let serve ctx cfg ~seed ~host server ~sent =
  let rng = Random.State.make [| seed |] in
  let workers =
    List.init cfg.workers (fun i -> Reldb.Value.String (Printf.sprintf "w%d" (i + 1)))
  in
  let names = Array.init cfg.campaigns F.campaign_name in
  let cursors =
    Array.map (fun c -> (c, Server.poll_cursor server ~campaign:c)) names
  in
  let leases = ref 0 and answers = ref 0 and rejections = ref 0 in
  let resolved = ref 0 and dead = ref 0 and idle = ref 0 and rounds_done = ref 0 in
  let pending () =
    Trace.next_request ();
    Harness.call ctx sp_pending (fun () -> Server.pending_total server)
  in
  let refresh n =
    Array.iter
      (fun (c, cursor) ->
        Trace.next_request ();
        let t0 = Trace.now_ns () in
        ignore (Harness.call ctx sp_sample (fun () -> Server.sample server ~campaign:c ~round:n));
        let rs =
          Harness.call ctx sp_poll (fun () -> Server.resolve_poll server ~campaign:c cursor)
        in
        Ints.add ctx.poll (Trace.now_ns () - t0);
        List.iter
          (function Server.Task_resolved _ -> incr resolved | Server.Task_dead _ -> incr dead)
          rs)
      cursors
  in
  let accepted k ot values = function
    | Server.Accepted _ ->
        incr answers;
        (match values with
        | [ (_, Reldb.Value.String label) ] ->
            let key = (k, item_id ot) in
            Hashtbl.replace sent key
              (label :: Option.value (Hashtbl.find_opt sent key) ~default:[])
        | _ -> ());
        true
    | Server.Rejected r ->
        incr rejections;
        Harness.fail ctx ("rejected: " ^ Engine.reject_to_string r);
        false
    | Server.Shard_down s ->
        incr rejections;
        Harness.fail ctx (Printf.sprintf "shard %d down" s);
        false
  in
  let turn n acted i worker =
    Trace.next_request ();
    let g = Trace.enter sp_gen in
    let k = (i + n) mod cfg.campaigns in
    let campaign = names.(k) in
    (match
       Harness.call ctx ~lat:ctx.lease sp_lease (fun () ->
           Server.lease server ~campaign ~worker ~now:n)
     with
    | None -> ()
    | Some (task, ot, _view) ->
        incr leases;
        if ot.existence then begin
          if
            accepted k ot []
              (Harness.call ctx ~lat:ctx.supply sp_answer (fun () ->
                   Server.answer_existence server ~campaign task ~worker true))
          then acted := true
        end
        else begin
          let values = answer_values rng ot in
          if
            accepted k ot values
              (Harness.call ctx ~lat:ctx.supply sp_supply (fun () ->
                   Server.supply server ~campaign task ~worker values))
          then acted := true
        end);
    Trace.exit g
  in
  let rec rounds n =
    if pending () = 0 then `Done
    else if n > cfg.max_rounds then `Max_rounds
    else begin
      rounds_done := n;
      if fleet.lease <> None then
        Array.iter
          (fun c ->
            Trace.next_request ();
            ignore (Harness.call ctx sp_reclaim (fun () -> Server.reclaim server ~campaign:c ~now:n)))
          names;
      let acted = ref false in
      Trace.next_request ();
      let g = Trace.enter sp_gen in
      let order = Harness.shuffle rng workers in
      Trace.exit g;
      List.iteri (turn n acted) order;
      if n mod cfg.refresh_every = 0 then refresh n;
      Harness.end_round ctx host;
      if !acted then idle := 0 else incr idle;
      if pending () = 0 then `Done
      else if !idle >= 5 then `Stalled
      else rounds (n + 1)
    end
  in
  let stop_reason = rounds 1 in
  (* a sparse dashboard catches up once the campaigns are done *)
  if !rounds_done mod cfg.refresh_every <> 0 then refresh !rounds_done;
  {
    F.rounds = !rounds_done;
    leases = !leases;
    answers = !answers;
    rejections = !rejections;
    resolved = !resolved;
    dead = !dead;
    stop_reason;
  }

let slots cfg server =
  List.concat_map
    (fun k ->
      let campaign = F.campaign_name k in
      List.init cfg.shards (fun i ->
          match Server.Shard.engine (Server.shard server i) ~campaign with
          | Some e -> (k, i, e)
          | None -> failwith (Printf.sprintf "no slot %s on shard %d" campaign i)))
    (List.init cfg.campaigns Fun.id)

(* Every task resolved once, with the plurality of the labels sent. *)
let check_labels ctx cfg server ~sent =
  List.iter
    (fun (k, _, e) ->
      match Reldb.Database.find (Engine.database e) "LabelOf" with
      | None -> ()
      | Some rel ->
          List.iter
            (fun t ->
              let id =
                match Reldb.Tuple.get t "id" with Some (Reldb.Value.Int i) -> i | _ -> -1
              in
              let label =
                match Reldb.Tuple.get t "label" with
                | Some (Reldb.Value.String s) -> Some s
                | _ -> None
              in
              let votes = List.rev (Option.value (Hashtbl.find_opt sent (k, id)) ~default:[]) in
              Harness.check ctx
                (Printf.sprintf "campaign %d item %d: label is not the plurality" k id)
                (List.length votes = fleet.quorum && label = Harness.plurality votes);
              Hashtbl.remove sent (k, id))
            (Reldb.Relation.tuples rel))
    (slots cfg server);
  Harness.check ctx
    (Printf.sprintf "%d answered tasks never resolved" (Hashtbl.length sent))
    (Hashtbl.length sent = 0)

(* Does the timed client reproduce Fleet_sim.run on a small config? Same
   outcome and byte-identical journals in every slot. *)
let fleet_check ~seed =
  let config = { fleet with F.seed } in
  let cfg =
    { shards = 4; campaigns = config.campaigns; items = config.items;
      workers = config.workers; refresh_every = 1; durable = false;
      max_rounds = config.max_rounds }
  in
  let reference = Server.create ~shards:cfg.shards () in
  F.open_campaigns reference config;
  let expected = F.run ~config reference in
  let ctx = Harness.ctx () in
  let server = Server.create ~shards:cfg.shards () in
  ignore (setup_once ctx cfg ~server);
  let got =
    serve ctx cfg ~seed ~host:(Harness.Host.meter ()) server ~sent:(Hashtbl.create 64)
  in
  let dumps s = List.map (fun (_, _, e) -> Engine.journal_dump e) (slots cfg s) in
  let same_programs =
    List.for_all
      (fun k ->
        parse (campaign_source ~items:cfg.items ~offset:(k * 1000))
        = F.campaign_program ~items:cfg.items ~offset:(k * 1000))
      (List.init cfg.campaigns Fun.id)
  in
  same_programs && got = expected && dumps server = dumps reference
  && expected.stop_reason = `Done

let counter m name = float_of_int (Telemetry.Metrics.counter m name)

(* Remove a POSIX journal tree, closing the descriptors the storage
   caches for its files. *)
let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Storage.Posix.delete path

(* A fresh server with its shards' storage wrapped in [stores]. Without a
   journal it is in memory. With one, the device is POSIX files under
   [journal_dir] when given, else one [Storage.Sim] per shard. Returns the
   server, the heap words its simulated disk holds, and a function that
   frees the disk. *)
let server cfg ~journal_dir ~stores =
  if not cfg.durable then (Server.create ~shards:cfg.shards (), (fun () -> 0), ignore)
  else
    let make ~journal_root device =
      Server.create ~journal_root ~journal_config
        ~storage:(fun i -> Timed_storage.make (device i) (List.nth stores i))
        ~shards:cfg.shards ()
    in
    match journal_dir with
    | Some dir ->
        remove_tree dir;
        ( make ~journal_root:dir (fun _ -> (module Storage.Posix)),
          (fun () -> 0),
          fun () -> remove_tree dir )
    | None ->
        let sims = Array.init cfg.shards (fun _ -> Storage.Sim.create ()) in
        ( make ~journal_root:"journal" (fun i -> Storage.Sim.storage sims.(i)),
          (fun () -> Obj.reachable_words (Obj.repr sims)),
          ignore )

(* Set-up cycles per untraced repetition: the first ones open the
   campaigns on throwaway servers, the last on the one that serves, and
   set-up time is their median. A traced repetition sets up once. The
   host's speed is sampled before and after each cycle. Returns the time
   and its [Host] factor. *)
let setup_cycles = 3

let setup ctx cfg ~traced ~journal_dir ~server:s =
  let host = Harness.Host.meter () in
  let throwaway () =
    let dir = Option.map (fun d -> d ^ "-setup") journal_dir in
    let stores = List.init cfg.shards (fun _ -> Timed_storage.create ()) in
    let s, _, release = server cfg ~journal_dir:dir ~stores in
    Harness.Host.sample ~k:5 host;
    let dt = setup_once (Harness.ctx ()) cfg ~server:s in
    release ();
    dt
  in
  let before = if traced then [] else List.init (setup_cycles - 1) (fun _ -> throwaway ()) in
  Harness.Host.sample ~k:5 host;
  Trace.on := traced;
  let dt = setup_once ctx cfg ~server:s in
  Trace.on := false;
  Harness.Host.sample ~k:5 host;
  Trace.on := traced;
  (Harness.median (dt :: before), Harness.Host.factor host)

(* One repetition: set up, serve to completion, check, rebuild every slot
   from its journal and compare. *)
let iteration cfg ~seed ~traced ~journal_dir =
  let ctx = Harness.ctx () in
  let span_lo = Trace.count () in
  let stores = List.init cfg.shards (fun _ -> Timed_storage.create ()) in
  let server, disk_words, release = server cfg ~journal_dir ~stores in
  let setup = setup ctx cfg ~traced ~journal_dir ~server in
  let sent = Hashtbl.create (cfg.campaigns * cfg.items) in
  let host = Harness.Host.meter () in
  let w0 = Harness.allocated_words () in
  let t0 = Trace.now_ns () in
  let o = serve ctx cfg ~seed ~host server ~sent in
  let serve_s = Harness.seconds_since t0 -. Harness.Host.seconds host in
  let alloc_words = Harness.allocated_words () -. w0 in
  Trace.on := false;
  let tasks = cfg.campaigns * cfg.items in
  Harness.check ctx "campaigns did not finish" (o.stop_reason = `Done);
  Harness.check ctx
    (Printf.sprintf "answers %d <> tasks x quorum %d" o.answers (tasks * fleet.quorum))
    (o.answers = tasks * fleet.quorum);
  Harness.check ctx
    (Printf.sprintf "resolved %d (dead %d) <> tasks %d" o.resolved o.dead tasks)
    (o.resolved = tasks && o.dead = 0);
  check_labels ctx cfg server ~sent;
  (* retained history only: the simulated disk's bytes are left out *)
  let live_heap_mb =
    Harness.live_heap_mb () -. (float_of_int (disk_words ()) *. Harness.word_bytes /. 1e6)
  in
  let stats = if traced then Some (Server.stats server).Server.Fleet.metrics else None in
  let written = (Timed_storage.sum stores).append.bytes in
  let live = slots cfg server in
  let live_dumps = List.map (fun (_, _, e) -> Engine.journal_dump e) live in
  (* Recovery: from the WAL through the server where there is one, else by
     replaying each engine's checkpoint (program plus journal). The host's
     speed is sampled between the slots' rebuilds. *)
  let rhost = Harness.Host.meter () in
  let recover_ns = ref 0 in
  let rebuild f =
    Harness.Host.sample ~k:3 rhost;
    Trace.on := traced;
    let t0 = Trace.now_ns () in
    let r = f () in
    recover_ns := !recover_ns + (Trace.now_ns () - t0);
    Trace.on := false;
    r
  in
  let rebuilt, journal_bytes =
    if cfg.durable then begin
      List.iter
        (fun (k, i, _) ->
          rebuild (fun () ->
              ignore
                (Harness.call ctx sp_recover (fun () ->
                     Server.recover_shard server i ~campaign:(F.campaign_name k) ()))))
        live;
      (List.map (fun (_, _, e) -> e) (slots cfg server), written)
    end
    else begin
      let checkpoints = List.map (fun (_, _, e) -> Engine.snapshot_string e) live in
      let engines =
        List.map
          (fun s ->
            rebuild (fun () -> Harness.call ctx sp_restore (fun () -> Engine.restore_string s)))
          checkpoints
      in
      (engines, List.fold_left (fun acc s -> acc + String.length s) 0 checkpoints)
    end
  in
  Harness.Host.sample ~k:3 rhost;
  let recover_s = float_of_int !recover_ns /. 1e9 in
  List.iter2
    (fun ((k, i, _), dump) e ->
      Harness.check ctx
        (Printf.sprintf "campaign %d shard %d: rebuilt journal differs" k i)
        (String.equal dump (Engine.journal_dump e)))
    (List.combine live live_dumps) rebuilt;
  release ();
  let st = Timed_storage.sum stores in
  let layer =
    match stats with
    | None -> []
    | Some m ->
        [ ("grants", float_of_int o.leases);
          ("rounds", float_of_int o.rounds);
          ("server.lease_probes", counter m "server.lease_probes");
          ("shard.requests", counter m "shard.requests");
          ("engine.events", counter m "engine.events");
          ("journal.appends", counter m "journal.appends");
          ("journal.fsyncs", counter m "journal.fsyncs");
          ("journal.compactions", counter m "journal.compactions");
          ("eval.rows_scanned", counter m "eval.rows_scanned");
          ("eval.fixpoint.steps", counter m "eval.fixpoint.steps");
          ( "planner.hits",
            counter m "planner.delta_cache.hits" +. counter m "planner.rescan_cache.hits" );
          ( "planner.misses",
            counter m "planner.delta_cache.misses" +. counter m "planner.rescan_cache.misses" );
          ("storage.append.ns", float_of_int st.append.ns);
          ("storage.fsync.ns", float_of_int st.fsync.ns);
          ("storage.fsync_dir.ns", float_of_int st.fsync_dir.ns);
          ("storage.wal_bytes", float_of_int st.wal_bytes);
          ("storage.rename.count", float_of_int st.rename.count);
          ("storage.snapshot_bytes", float_of_int st.snapshot_bytes);
          ("storage.read_bytes", float_of_int st.read_file.bytes) ]
  in
  Harness.finish ctx ~traced ~setup ~serve:(serve_s, Harness.Host.factor host) ~probe_s:0.
    ~recover:(recover_s, Harness.Host.factor rhost) ~answers:o.answers
    ~resolved:o.resolved ~alloc_words ~live_heap_mb ~journal_bytes ~rounds:o.rounds ~layer
    ~span_lo
