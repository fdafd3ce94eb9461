(* The crowd-server benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1

   Repeats one workload (a fresh campaign set up, served to completion by
   a closed loop of simulated workers, checked and rebuilt from its
   journal) until S seconds have passed, then prints the end-to-end
   metrics (--trace 0) or the per-layer metrics of a traced run
   (--trace 1), and last a JSON line with the keys correct, attempted,
   failed and metrics. Exits 1 when any correctness check failed.

   A traced run alternates untraced and traced repetitions: the traced
   ones record a span around every call into a layer (written to
   .bench_out/trace-W.tsv), the untraced ones give the baseline for the
   tracing overhead. *)

module H = Harness

let workloads = [ "label-answers"; "label-durable"; "tweetpecker-vrei" ]
let out_dir = ".bench_out"

let usage () =
  prerr_endline
    ("usage: perfbench --workload " ^ String.concat "|" workloads
   ^ " --seed N --seconds S --trace 0|1");
  exit 2

let args () =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  (workload, int "seed", int "seconds", trace = 1)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let ratio a b = if b = 0. then 0. else a /. b
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let pct samples q = Server.Fleet.percentile samples q /. 1000.
let pooled f its = Array.concat (List.map f its)

(* Serving time and per-call latencies at the reference host speed
   ([Harness.Host]). *)
let serve_ref_s (i : H.iteration) = i.serve_s *. i.serve_f
let rate (i : H.iteration) = float_of_int i.answers /. serve_ref_s i
let answers_per_s its = H.median (List.map rate its)

(* Every time is scaled to the reference host speed, repetition by
   repetition and phase by phase. Rates, latency percentiles, and set-up
   and rebuild times are medians of the per-repetition values, so a burst
   of host contention that spans fewer than half of a run's repetitions
   does not move them. Returns (name, unit, value) triples. *)
let end_to_end (its : H.iteration list) =
  let answers = float_of_int (sumi (fun (i : H.iteration) -> i.answers) its) in
  let med f = H.median (List.map f its) in
  let p50 f = med (fun i -> pct (f i) 0.5) in
  let p99 f = med (fun i -> pct (f i) 0.99) in
  let lease (i : H.iteration) = i.lease_ref
  and supply (i : H.iteration) = i.supply_ref
  and poll (i : H.iteration) = i.poll_ref in
  let samples =
    Printf.sprintf "samples (%d repetitions, percentiles per repetition): %d supply, %d lease, %d poll"
      (List.length its)
      (Array.length (pooled supply its))
      (Array.length (pooled lease its))
      (Array.length (pooled poll its))
  in
  ( [ ("answers_per_s", "1/s", med rate);
      ("resolved_per_s", "1/s", med (fun i -> float_of_int i.resolved /. serve_ref_s i));
      ("supply_p50_us", "us", p50 supply);
      ("supply_p99_us", "us", p99 supply);
      ("lease_p50_us", "us", p50 lease);
      ("lease_p99_us", "us", p99 lease);
      ("poll_p50_us", "us", p50 poll);
      ("poll_p99_us", "us", p99 poll);
      ("setup_s", "s", med (fun i -> i.setup_s *. i.setup_f));
      ("recover_s", "s", med (fun i -> i.recover_s *. i.recover_f));
      ("words_per_answer", "words", ratio (sum (fun (i : H.iteration) -> i.alloc_words) its) answers);
      ("live_heap_mb", "MB", H.median (List.map (fun (i : H.iteration) -> i.live_heap_mb) its));
      ( "journal_bytes_per_answer",
        "B",
        ratio (float_of_int (sumi (fun (i : H.iteration) -> i.journal_bytes) its)) answers ) ],
    samples )

(* Reconciliation tolerance: the traced run's self times, generator
   included, must cover its timed phases to within this share. *)
let reconcile_tolerance = 0.05

let per_layer ~(traced : H.iteration list) ~(untraced : H.iteration list) =
  let n_its = float_of_int (List.length traced) in
  let answers = float_of_int (sumi (fun (i : H.iteration) -> i.answers) traced) in
  let totals = Hashtbl.create 32 in
  List.iter
    (fun (it : H.iteration) ->
      Hashtbl.iter
        (fun name (t : Trace.totals) ->
          match Hashtbl.find_opt totals name with
          | None -> Hashtbl.add totals name t
          | Some (a : Trace.totals) ->
              a.calls <- a.calls + t.calls;
              a.ns <- a.ns + t.ns;
              a.self_ns <- a.self_ns + t.self_ns;
              a.words <- a.words + t.words;
              a.self_words <- a.self_words + t.self_words)
        (Trace.totals ~lo:it.span_lo ~hi:it.span_hi))
    traced;
  let get name =
    match Hashtbl.find_opt totals name with
    | Some t -> t
    | None -> { Trace.calls = 0; ns = 0; self_ns = 0; words = 0; self_words = 0 }
  in
  let calls s = float_of_int (get s).calls in
  let self_us s = ratio (float_of_int (get s).self_ns /. 1000.) answers in
  let self_words s = ratio (float_of_int (get s).self_words) answers in
  let us_per_call s = ratio (float_of_int (get s).ns /. 1000.) (calls s) in
  let per_it_s s = ratio (float_of_int (get s).ns /. 1e9) n_its in
  let layer k = sum (fun (i : H.iteration) -> Option.value (List.assoc_opt k i.layer) ~default:0.) traced in
  let storage_us op = ratio (layer ("storage." ^ op ^ ".ns") /. 1000.) answers in
  (* mean duration of the last tenth of a repetition's calls over the
     first tenth's: cost that grows with campaign history *)
  let growth s =
    H.median
      (List.map
         (fun (it : H.iteration) ->
           let d = Trace.durations ~lo:it.span_lo ~hi:it.span_hi s in
           let n = Array.length d in
           if n < 10 then 0.
           else
             let k = n / 10 in
             let mean a = float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int k in
             ratio (mean (Array.sub d (n - k) k)) (mean (Array.sub d 0 k)))
         traced)
  in
  let self_total = float_of_int (Hashtbl.fold (fun _ (t : Trace.totals) acc -> acc + t.self_ns) totals 0) /. 1e9 in
  let timed =
    sum (fun (i : H.iteration) -> i.setup_s +. i.serve_s +. i.probe_s +. i.recover_s) traced
  in
  let reconcile = ratio self_total timed in
  let traced_rate = answers_per_s traced and untraced_rate = answers_per_s untraced in
  let metrics =
    [ ("Server.lease.self_us_per_answer", "us", self_us "Server.lease");
      ("Server.lease.grant_ratio", "ratio", ratio (layer "grants") (calls "Server.lease"));
      ("Server.lease.probes_per_grant", "count", ratio (layer "server.lease_probes") (layer "grants"));
      ("Server.requests_per_answer", "count", ratio (layer "shard.requests") answers);
      ("Server.supply.self_us_per_answer", "us", self_us "Server.supply");
      ("Server.supply.words_per_call", "words", ratio (float_of_int (get "Server.supply").words) (calls "Server.supply"));
      ("Server.reclaim.us_per_round", "us", ratio (float_of_int (get "Server.reclaim").ns /. 1000.) (layer "rounds"));
      ("Server.resolve_poll.us_per_call", "us", us_per_call "Server.resolve_poll");
      ("Server.sample.us_per_call", "us", us_per_call "Server.sample");
      ("Server.pending_total.us_per_call", "us", us_per_call "Server.pending_total");
      ("Server.supply.growth", "ratio", growth "Server.supply");
      ("Server.lease.growth", "ratio", growth "Server.lease");
      ("Server.resolve_poll.growth", "ratio", growth "Server.resolve_poll");
      ("Engine.events_per_answer", "count", ratio (layer "engine.events") answers);
      ("Storage.append.us_per_answer", "us", storage_us "append");
      ("Storage.fsync.us_per_answer", "us", storage_us "fsync");
      ("Storage.fsync_dir.us_per_answer", "us", storage_us "fsync_dir");
      ("Storage.wal_bytes_per_answer", "B", ratio (layer "storage.wal_bytes") answers);
      ("Storage.rename.count", "count", ratio (layer "storage.rename.count") n_its);
      ( "Storage.snapshot_bytes_per_compaction",
        "B",
        ratio (layer "storage.snapshot_bytes") (layer "storage.rename.count") );
      ("journal.appends_per_answer", "count", ratio (layer "journal.appends") answers);
      ("journal.fsyncs", "count", ratio (layer "journal.fsyncs") n_its);
      ("journal.compactions", "count", ratio (layer "journal.compactions") n_its);
      ("Server.recover_shard.s", "s", per_it_s "Server.recover_shard");
      ("Storage.read_bytes", "B", ratio (layer "storage.read_bytes") n_its);
      ("Engine.restore_string.s", "s", per_it_s "Engine.restore_string");
      ("Engine.run.self_us_per_answer", "us", self_us "Engine.run");
      ("Engine.supply.self_us_per_answer", "us", self_us "Engine.supply");
      ("Engine.answer_existence.self_us_per_answer", "us", self_us "Engine.answer_existence");
      ("Engine.pending.us_per_call", "us", us_per_call "Engine.pending");
      ("worker_policy.us_per_call", "us", us_per_call "worker_policy");
      ("Engine.events_since.us_per_call", "us", us_per_call "Engine.events_since");
      ("eval.rows_scanned_per_answer", "count", ratio (layer "eval.rows_scanned") answers);
      ("eval.fixpoint.steps_per_answer", "count", ratio (layer "eval.fixpoint.steps") answers);
      ( "planner.cache_hit_ratio",
        "ratio",
        ratio (layer "planner.hits") (layer "planner.hits" +. layer "planner.misses") );
      ("Engine.run.words_per_answer", "words", ratio (float_of_int (get "Engine.run").words) answers);
      ("Parser.parse.s", "s", per_it_s "Parser.parse");
      ("Server.open_campaign.s", "s", per_it_s "Server.open_campaign");
      ("Engine.load.s", "s", per_it_s "Engine.load");
      ("generator.us_per_answer", "us", self_us "generator") ]
    @ List.map
        (fun s -> (s ^ ".self_words_per_answer", "words", self_words s))
        [ "generator"; "Server.lease"; "Server.supply"; "Server.reclaim"; "Server.sample";
          "Server.resolve_poll"; "Server.pending_total"; "Engine.supply";
          "Engine.answer_existence"; "Engine.run"; "worker_policy" ]
    @ [ ("trace.reconcile_ratio", "ratio", reconcile);
        ("trace.spans", "count", float_of_int (Trace.count ()));
        ("trace.traced_answers_per_s", "1/s", traced_rate);
        ("trace.untraced_answers_per_s", "1/s", untraced_rate);
        ("trace.overhead_answers_per_s", "1/s", traced_rate -. untraced_rate) ]
  in
  (metrics, reconcile)

let () =
  let workload, seed, seconds, trace = args () in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let failures = ref [] in
  let repetition =
    match workload with
    | "tweetpecker-vrei" ->
        (* the repetitions serve [Vrei.corpora] seeded corpora in turn, so
           a run averages over as many corpora *)
        let inps = Array.init Vrei.corpora (fun c -> Vrei.prepare ~seed:((seed * Vrei.corpora) + c)) in
        fun ~traced k -> Vrei.iteration inps.(k mod Vrei.corpora) ~traced
    | _ ->
        let cfg = if workload = "label-durable" then Label.durable_config else Label.answers_config in
        if not (Label.fleet_check ~seed) then
          failures := "the timed client does not reproduce Fleet_sim.run" :: !failures;
        (* each repetition draws its answers from its own seed, so a run
           averages over as many answer streams as it has repetitions *)
        (* the traced run journals to POSIX files, the untraced one to
           the in-memory simulator *)
        let journal_dir = if trace then Some (out_dir ^ "/journal") else None in
        fun ~traced k -> Label.iteration cfg ~seed:((seed * 1000) + k) ~traced ~journal_dir
  in
  let run k ~traced =
    Gc.compact ();
    match repetition ~traced k with
    | it ->
        failures := List.rev_append it.H.failures !failures;
        Some it
    | exception e ->
        failures := ("exception: " ^ Printexc.to_string e) :: !failures;
        None
  in
  (* one unrecorded repetition first, so the heap has grown to its working
     size before anything is measured *)
  ignore (run 0 ~traced:false);
  let start = Trace.now_ns () in
  let min_reps = 3 in
  let rec loop k acc =
    let acc = match run k ~traced:(trace && k mod 2 = 0) with Some it -> it :: acc | None -> acc in
    if !failures <> [] then List.rev acc
    else if H.seconds_since start >= float_of_int seconds && k >= min_reps then List.rev acc
    else loop (k + 1) acc
  in
  let its = loop 1 [] in
  Trace.on := false;
  let failures = List.rev !failures in
  let attempted = max 1 (sumi (fun (i : H.iteration) -> i.attempted) its) in
  let traced, untraced = List.partition (fun (i : H.iteration) -> i.traced) its in
  let metrics, notes, reconciled =
    if trace then begin
      let m, reconcile = per_layer ~traced ~untraced in
      let path = Printf.sprintf "%s/trace-%s.tsv" out_dir workload in
      Trace.write path;
      ( m,
        [ Printf.sprintf
            "trace: self times cover %.2f%% of the timed phases (tolerance %.0f%%); spans in %s"
            (100. *. reconcile) (100. *. reconcile_tolerance) path ],
        Float.abs (reconcile -. 1.) <= reconcile_tolerance )
    end
    else
      let m, samples = end_to_end its in
      (m, [ samples ], true)
  in
  let failures =
    if reconciled then failures else failures @ [ "trace does not reconcile with wall time" ]
  in
  let failed = List.length failures in
  let correct = failed = 0 && its <> [] in
  Printf.printf "workload %s, seed %d, %d repetitions (%d traced)\n" workload seed
    (List.length its) (List.length traced);
  List.iteri
    (fun k (i : H.iteration) ->
      Printf.printf
        "  repetition %d%s: wall: set-up %.3f s, serving %.3f s (%d answers, %.1f/s, %d rounds), rebuild %.3f s; p99 us: supply %.1f, lease %.1f, poll %.1f (%d polls); host factors: set-up %.3f, serving %.3f, rebuild %.3f\n"
        k (if i.traced then " (traced)" else "") i.setup_s i.serve_s i.answers
        (float_of_int i.answers /. i.serve_s) i.rounds i.recover_s (pct i.supply_ns 0.99)
        (pct i.lease_ns 0.99) (pct i.poll_ns 0.99) (Array.length i.poll_ns) i.setup_f i.serve_f
        i.recover_f)
    its;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-44s %16.4f %s\n" name v unit) metrics;
  List.iter (Printf.printf "  %s\n") notes;
  Printf.printf "  failed_ratio %.6f (%d of %d operations)\n"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  List.iter (Printf.printf "  FAILED: %s\n") failures;
  let json_metrics =
    List.map
      (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " json_metrics);
  exit (if correct then 0 else 1)
