(* What the workloads share: the per-repetition record, the timed-call
   helper, and the correctness bookkeeping. *)

(* The host's speed. On a few cores of a shared host, the speed of the
   same code can swing by 2x within seconds. So a fixed piece of work,
   independent of the program and allocation-free (no GC work of the
   program's heap lands in it), is timed between the timed calls: after
   every round of serving, and around each set-up cycle and each rebuild.
   A phase's [factor] scales its wall times to a host on which the kernel
   takes [reference_ns]: measured x factor. *)
module Host = struct
  let keys = Array.init 512 (fun i -> Printf.sprintf "calibration-key-%d" (i * 7919))

  let table =
    let h = Hashtbl.create 1024 in
    Array.iteri (fun i k -> Hashtbl.replace h k i) keys;
    h

  module M = Map.Make (Int)

  let map =
    Array.fold_left (fun m i -> M.add (i * 7919 mod 65_521) i m) M.empty (Array.init 4096 Fun.id)

  (* one cycle through 4096 slots (Sattolo's shuffle), for dependent loads *)
  let perm =
    let a = Array.init 4096 Fun.id in
    let rng = Random.State.make [| 1 |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng i in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a

  (* string hashing and comparison, tree descents, dependent loads; no
     closure and no allocation *)
  let work () =
    let acc = ref 0 in
    for i = 0 to Array.length keys - 1 do
      acc := !acc + Hashtbl.find table keys.(i)
    done;
    for i = 0 to 511 do
      acc := !acc + M.find (i * 8 * 7919 mod 65_521) map
    done;
    let j = ref 0 in
    for _ = 1 to 4096 do
      j := perm.(!j);
      acc := !acc lxor !j
    done;
    !acc

  (* the kernel's time on the reference host *)
  let reference_ns = 100_000.

  type meter = { mutable ns : int; mutable n : int; mutable last : int (* the latest time *) }

  let meter () = { ns = 0; n = 0; last = 0 }

  (* time the kernel [k] times into [m] *)
  let sample ?(k = 1) m =
    for _ = 1 to k do
      let t0 = Trace.now_ns () in
      ignore (Sys.opaque_identity (work ()));
      m.last <- Trace.now_ns () - t0;
      m.ns <- m.ns + m.last;
      m.n <- m.n + 1
    done

  let seconds m = float_of_int m.ns /. 1e9

  (* from the mean kernel time of the phase *)
  let factor m = if m.n = 0 then 1. else reference_ns *. float_of_int m.n /. float_of_int m.ns
end

(* One repetition of a workload: a fresh campaign set up, served to
   completion, checked and rebuilt from its journal. Times are wall
   times; the factors scale them to the reference host ([Host]). *)
type iteration = {
  traced : bool;
  setup_s : float;
  serve_s : float;  (* serving wall time, added probes and [Host] kernels excluded *)
  probe_s : float;  (* wall time of the added probe calls *)
  recover_s : float;
  setup_f : float;
  serve_f : float;
  recover_f : float;
  answers : int;  (* accepted answers *)
  resolved : int;
  alloc_words : float;  (* allocated during the serving phase *)
  live_heap_mb : float;
  journal_bytes : int;
  rounds : int;
  lease_ns : int array;  (* wall times *)
  supply_ns : int array;
  poll_ns : int array;
  lease_ref : int array;  (* the same at the reference host speed *)
  supply_ref : int array;
  poll_ref : int array;
  attempted : int;
  failures : string list;
  layer : (string * float) list;  (* counters read from the system *)
  span_lo : int;  (* this repetition's spans are [span_lo, span_hi) *)
  span_hi : int;
}

type ctx = {
  lease : Trace.Ints.t;
  supply : Trace.Ints.t;
  poll : Trace.Ints.t;
  lease_ref : Trace.Ints.t;
  supply_ref : Trace.Ints.t;
  poll_ref : Trace.Ints.t;
  mutable attempted : int;
  mutable failures : string list;
}

let ctx () =
  {
    lease = Trace.Ints.create ();
    supply = Trace.Ints.create ();
    poll = Trace.Ints.create ();
    lease_ref = Trace.Ints.create ();
    supply_ref = Trace.Ints.create ();
    poll_ref = Trace.Ints.create ();
    attempted = 0;
    failures = [];
  }

(* Scale the latency samples not yet scaled by [f]. *)
let scale_rest ctx f =
  List.iter
    (fun (raw, sc) ->
      for i = Trace.Ints.length sc to Trace.Ints.length raw - 1 do
        Trace.Ints.add sc (int_of_float (float_of_int (Trace.Ints.get raw i) *. f))
      done)
    [ (ctx.lease, ctx.lease_ref); (ctx.supply, ctx.supply_ref); (ctx.poll, ctx.poll_ref) ]

(* The end of a serving round: sample the host's speed into [m] and scale
   the round's latency samples by the speed around the round, from the
   mean of the kernel's times just before and just after it. *)
let end_round ctx (m : Host.meter) =
  let before = m.last in
  Host.sample m;
  let around = if before = 0 then m.last else (before + m.last) / 2 in
  scale_rest ctx (Host.reference_ns /. float_of_int around)

let fail ctx msg = ctx.failures <- msg :: ctx.failures

let check ctx msg ok = if not ok then fail ctx msg

(* One call into the system: counted as attempted, a span when tracing,
   and its client latency appended to [lat] when given. *)
let call ctx ?lat id f =
  ctx.attempted <- ctx.attempted + 1;
  let sp = Trace.enter id in
  let t0 = Trace.now_ns () in
  let r = f () in
  (match lat with Some l -> Trace.Ints.add l (Trace.now_ns () - t0) | None -> ());
  Trace.exit sp;
  r

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let seconds_since t0 = float_of_int (Trace.now_ns () - t0) /. 1e9
let word_bytes = float_of_int (Sys.word_size / 8)
let allocated_words () = Gc.allocated_bytes () /. word_bytes

let live_heap_mb () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words *. word_bytes /. 1e6

(* The worker order of Crowd.Fleet_sim.run and Crowd.Simulator.run, draw
   for draw (neither exports it). *)
let shuffle rng xs =
  let arr = Array.of_list xs in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

(* Plurality with the earliest vote winning ties — the engine's default
   quorum aggregate, recomputed from the answers the client sent. *)
let plurality votes =
  let counts = Hashtbl.create 4 in
  List.iter
    (fun v ->
      Hashtbl.replace counts v (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
    votes;
  List.fold_left
    (fun best v ->
      match best with
      | Some b when Hashtbl.find counts b >= Hashtbl.find counts v -> best
      | _ -> Some v)
    None votes

let finish ctx ~traced ~setup:(setup_s, setup_f) ~serve:(serve_s, serve_f) ~probe_s
    ~recover:(recover_s, recover_f) ~answers ~resolved ~alloc_words ~live_heap_mb
    ~journal_bytes ~rounds ~layer ~span_lo =
  (* samples taken after the last round's kernel *)
  scale_rest ctx serve_f;
  {
    traced;
    setup_s;
    serve_s;
    probe_s;
    recover_s;
    setup_f;
    serve_f;
    recover_f;
    answers;
    resolved;
    alloc_words;
    live_heap_mb;
    journal_bytes;
    rounds;
    lease_ns = Trace.Ints.to_array ctx.lease;
    supply_ns = Trace.Ints.to_array ctx.supply;
    poll_ns = Trace.Ints.to_array ctx.poll;
    lease_ref = Trace.Ints.to_array ctx.lease_ref;
    supply_ref = Trace.Ints.to_array ctx.supply_ref;
    poll_ref = Trace.Ints.to_array ctx.poll_ref;
    attempted = ctx.attempted;
    failures = List.rev ctx.failures;
    layer;
    span_lo;
    span_hi = Trace.count ();
  }
