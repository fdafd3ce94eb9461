(** One engine shard: per-campaign engines behind typed verbs.

    A shard owns one {!Cylog.Engine} per open campaign, each with its own
    durable journal directory. The server calls the verbs below directly
    and synchronously: each runs its engine call against the addressed
    slot and, when the call mutated the engine, runs it to quiescence
    before returning. Calls on a shard execute in the order they are made
    — no threads, one total order per shard, byte-identical traces run to
    run.

    Every verb goes through one guard: it counts [shard.requests], looks
    up the slot, times the call into {!latencies_ns}, and turns a storage
    crash ({!Cylog.Storage.Crashed} / [No_space]) into [Error `Crashed],
    marking only that slot failed. A failed slot answers [Error `Crashed]
    without touching the engine until {!recover_slot} rebuilds it from
    its journal ({!Cylog.Engine.recover}) — restore work is O(live state)
    after compaction. A campaign that was never opened raises
    [Invalid_argument]. *)

open Cylog

type t

val create : id:int -> t
(** An empty shard with no campaigns. *)

val id : t -> int

val metrics : t -> Telemetry.Metrics.t
(** The shard's own registry ([shard.*] counters: requests, leases
    granted, answers accepted/rejected, crashes, recoveries) — engine
    metrics live in each slot's engine registry. *)

val open_slot :
  t ->
  campaign:string ->
  ?journal_dir:string ->
  ?journal_config:Journal.config ->
  ?storage:(module Storage.S) ->
  ?lease:Lease.config ->
  ?policy:Engine.quorum_policy ->
  ?relations:string list ->
  ?aggregate:Engine.aggregate ->
  ?monitor:Monitor.config ->
  Ast.program ->
  unit
(** Load this shard's split of a campaign program, attach its journal
    (when [journal_dir] is given), install lease/quorum/monitor config,
    and run to initial quiescence. @raise Failure on a duplicate
    campaign name. *)

val campaigns : t -> string list
(** Open campaign names, in opening order. *)

val engine : t -> campaign:string -> Engine.t option
(** The slot's live engine — the fleet layer's scatter source. [None]
    for unknown campaigns. *)

val slot_failed : t -> campaign:string -> bool
val failed : t -> bool
(** Some slot is crashed and waiting for recovery. *)

type 'a call = ('a, [ `Crashed ]) result
(** A verb's outcome: [Error `Crashed] when the slot is (or just became)
    failed. *)

val lease :
  t ->
  campaign:string ->
  worker:Reldb.Value.t ->
  now:int ->
  (Engine.open_tuple * string option) option call
(** The oldest pending task this worker may take, with its rendered view:
    tasks the worker already voted on are skipped and, under the lease
    runtime, so are tasks whose lease slots are all held. *)

val supply :
  t ->
  campaign:string ->
  Engine.open_id ->
  worker:Reldb.Value.t ->
  (string * Reldb.Value.t) list ->
  (Engine.event, Engine.reject) result call

val answer_existence :
  t ->
  campaign:string ->
  Engine.open_id ->
  worker:Reldb.Value.t ->
  bool ->
  (Engine.event, Engine.reject) result call

val decline : t -> campaign:string -> Engine.open_id -> unit call

val reclaim : t -> campaign:string -> now:int -> int call
(** Expire overdue leases; the number expired. *)

val sample : t -> campaign:string -> round:int -> Monitor.firing list call
(** Take a monitor sample. *)

val pending_total : t -> int
(** Pending open tuples summed over live slots. *)

val latencies_ns : t -> int array
(** Wall-clock service time of every completed call, nanoseconds, in
    execution order — raw samples for the fleet's exact percentiles.
    Observability only: no behaviour depends on these. *)

val recover_slot :
  t ->
  campaign:string ->
  ?builtins:Builtin.registry ->
  ?aggregate:Engine.aggregate ->
  ?storage:(module Storage.S) ->
  unit ->
  Engine.recovery_stats
(** Rebuild a crashed (or live) slot from its journal directory and swap
    the recovered engine in; lease/quorum/monitor config replays from the
    journal. [storage] replaces the slot's storage (e.g. the crash image
    from {!Cylog.Storage.Sim.after_crash}). @raise Failure on slots
    opened without a journal. *)
