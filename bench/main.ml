(* Benchmark & reproduction harness.

   One entry per table/figure of the paper's evaluation: each prints the
   paper-reported values alongside the values this reproduction measures,
   and a Bechamel micro-benchmark times the core computation behind it.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe table1       # one experiment
     dune exec bench/main.exe bench        # only the Bechamel timings *)

module J = Cylog.Json

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Shared full-scale runs (463 tweets, 5 workers) — computed once.     *)
(* ------------------------------------------------------------------ *)

let corpus = lazy (Tweets.Generator.corpus ())

let outcome variant =
  lazy (Tweetpecker.Runner.run ~corpus:(Lazy.force corpus) variant)

let ve = outcome Tweetpecker.Programs.VE
let vei = outcome Tweetpecker.Programs.VEI
let vre = outcome Tweetpecker.Programs.VRE
let vrei = outcome Tweetpecker.Programs.VREI
let all_outcomes = [ ve; vei; vre; vrei ]

(* ------------------------------------------------------------------ *)
(* Table 1: quality of acquired data                                   *)
(* ------------------------------------------------------------------ *)

(* Paper values (Section 8, Table 1). The VRE/I column of row A is garbled
   in the source text; the paper's finding is that row A differences are
   not statistically significant. *)
let paper_table1_rowA = [ ("VE", (73.5, 6.7, 19.8)); ("VE/I", (72.2, 7.9, 19.9));
                          ("VRE", (71.2, 7.2, 21.6)) ]
let paper_row_b = [ ("VRE", 60.9); ("VRE/I", 77.0) ]
let paper_row_c = [ ("VRE", 2.71); ("VRE/I", 6.32) ]

let run_table1 () =
  section "Table 1: Quality of acquired data (paper -> measured)";
  let outcomes = List.map Lazy.force all_outcomes in
  Format.printf "%-30s" "Technique";
  List.iter
    (fun (o : Tweetpecker.Runner.outcome) ->
      Format.printf "%18s" (Tweetpecker.Programs.variant_name o.variant))
    outcomes;
  Format.printf "@.";
  let row label cell =
    Format.printf "%-30s" label;
    List.iter (fun o -> Format.printf "%18s" (cell o)) outcomes;
    Format.printf "@."
  in
  let paper_a pick (o : Tweetpecker.Runner.outcome) =
    match
      List.assoc_opt (Tweetpecker.Programs.variant_name o.variant) paper_table1_rowA
    with
    | Some t -> Printf.sprintf "%.1f" (pick t)
    | None -> "?"
  in
  let q (o : Tweetpecker.Runner.outcome) = Tweetpecker.Metrics.row_a o in
  row "A: Correct (%)" (fun o ->
      Printf.sprintf "%s -> %.1f" (paper_a (fun (a, _, _) -> a) o) (100.0 *. (q o).correct));
  row "   Incorrect (%)" (fun o ->
      Printf.sprintf "%s -> %.1f" (paper_a (fun (_, b, _) -> b) o) (100.0 *. (q o).incorrect));
  row "   Neither (%)" (fun o ->
      Printf.sprintf "%s -> %.1f" (paper_a (fun (_, _, c) -> c) o) (100.0 *. (q o).neither));
  let with_paper table (o : Tweetpecker.Runner.outcome) value =
    match (List.assoc_opt (Tweetpecker.Programs.variant_name o.variant) table, value) with
    | Some p, Some v -> Printf.sprintf "%.2f -> %.2f" p v
    | None, Some v -> Printf.sprintf "- -> %.2f" v
    | _, None -> "-"
  in
  row "B: Avg confidence of rules (%)" (fun o ->
      with_paper paper_row_b o
        (Option.map (fun x -> 100.0 *. x) (Tweetpecker.Metrics.row_b o)));
  row "C: Avg support of rules (%)" (fun o ->
      with_paper paper_row_c o
        (Option.map (fun x -> 100.0 *. x) (Tweetpecker.Metrics.row_c o)));
  Format.printf
    "@.shape check: row A comparable across variants; B and C clearly higher under VRE/I@.";
  let b v = Option.get (Tweetpecker.Metrics.row_b (Lazy.force v)) in
  let c v = Option.get (Tweetpecker.Metrics.row_c (Lazy.force v)) in
  Format.printf "  B: VRE/I / VRE = %.2fx (paper: %.2fx)@." (b vrei /. b vre) (77.0 /. 60.9);
  Format.printf "  C: VRE/I / VRE = %.2fx (paper: %.2fx)@." (c vrei /. c vre) (6.32 /. 2.71)

(* ------------------------------------------------------------------ *)
(* Figure 4: the VE/I coordination game                                *)
(* ------------------------------------------------------------------ *)

let run_figure4 () =
  section "Figure 4: payoff matrix and extensive form of the VE/I game";
  let game =
    Game.Matrix.coordination ~players:("A", "B") ~values:[ "fine"; "rainy" ] ~reward:1.0
  in
  Format.printf "%a@.@." Game.Matrix.pp_bimatrix game;
  let tree = Game.Extensive.of_matrix_sequential game in
  Format.printf "extensive form (B's information set hides A's move):@.%a@."
    Game.Extensive.pp tree;
  Format.printf "solutions (pure Nash equilibria — the bold paths of the figure):@.";
  List.iter
    (fun profile -> Format.printf "  %s@." (String.concat " / " profile))
    (Game.Matrix.pure_nash_named game);
  Format.printf "paper: the solution is the set of matching-term paths — %s@."
    (if
       List.for_all
         (fun p -> List.length (List.sort_uniq compare p) = 1)
         (Game.Matrix.pure_nash_named game)
     then "reproduced"
     else "NOT reproduced")

(* ------------------------------------------------------------------ *)
(* Figure 6: a path table                                              *)
(* ------------------------------------------------------------------ *)

let run_figure6 () =
  section "Figure 6: path table of one VEI game instance";
  let program =
    {|
    rules:
      Tweet(tw:"It rains in London");
      Worker(pid:"Kate"); Worker(pid:"Pam"); Worker(pid:"Ann");
      VE1: Input(tw, attr:"weather", value, p)/open[p] <- Tweet(tw), Worker(pid:p);
    games:
      game VEI(tw, attr) {
        path:
          VEI1: Path(player:p, action:["value", value]) <- Input(tw, attr, value, p);
        payoff:
          VEI2: Path(player:p1, action:["value", v]) {
            VEI2.1: Payoff[p1 += 1, p2 += 1] <- Path(player:p2, action:["value", v]), p1 != p2;
          }
      }
    |}
  in
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn program) in
  ignore (Cylog.Engine.run engine);
  (* Kate and Ann agree on "rainy"; Pam enters "wet" — the paper's example
     play with payoffs 1, 0, 1. *)
  List.iter
    (fun (o : Cylog.Engine.open_tuple) ->
      let w = Option.get o.asked in
      let value = if Reldb.Value.to_display w = "Pam" then "wet" else "rainy" in
      ignore
        (Cylog.Engine.supply engine o.id ~worker:w [ ("value", Reldb.Value.String value) ]))
    (Cylog.Engine.pending engine);
  ignore (Cylog.Engine.run engine);
  (match Cylog.Engine.game_instances engine "VEI" with
  | params :: _ ->
      Format.printf "Path(Order, Date, Player, Action):@.";
      List.iter
        (fun t ->
          Format.printf "  (%s, %s, %s, %s)@."
            (Reldb.Value.to_display (Reldb.Tuple.get_or_null t "order"))
            (Reldb.Value.to_display (Reldb.Tuple.get_or_null t "date"))
            (Reldb.Value.to_display (Reldb.Tuple.get_or_null t "player"))
            (Reldb.Value.to_display (Reldb.Tuple.get_or_null t "action")))
        (Cylog.Engine.path_table engine "VEI" ~params:(Reldb.Tuple.to_list params))
  | [] -> Format.printf "  (no play)@.");
  Format.printf "payoffs (paper: Kate 1, Pam 0, Ann 1):@.";
  List.iter
    (fun (p, s) ->
      Format.printf "  %s: %s@." (Reldb.Value.to_display p) (Reldb.Value.to_display s))
    (Cylog.Engine.payoffs engine)

(* ------------------------------------------------------------------ *)
(* Figure 10: VREI game tree with expected payoffs                     *)
(* ------------------------------------------------------------------ *)

let run_figure10 () =
  section "Figure 10: expected payoffs in the VREI game (worker accuracy 0.9)";
  Format.printf "%a@." Game.Extensive.pp (Tweetpecker.Analysis.figure10_tree ~accuracy:0.9);
  Format.printf "expected payoff per root action:@.";
  List.iter
    (fun (action, v) -> Format.printf "  %-22s %+.2f@." action v)
    (Tweetpecker.Analysis.figure10_expected ~accuracy:0.9);
  Format.printf
    "@.paper: correct rules/values dominate (Theorem 1 follows by inspection)@."

(* ------------------------------------------------------------------ *)
(* Figure 11: entered vs selected agreements over completion           *)
(* ------------------------------------------------------------------ *)

let run_figure11 () =
  section "Figure 11: breakdown of agreed values into entered and selected";
  let series name o =
    let b = Tweetpecker.Analysis.figure11 (Lazy.force o) in
    Format.printf "%-6s selected share per decile: " name;
    Array.iteri
      (fun d _ ->
        Format.printf "%3.0f%%" (100.0 *. Tweetpecker.Analysis.selected_share b d))
      b.per_decile;
    Format.printf "   (early: %.0f%%)@."
      (100.0 *. Tweetpecker.Analysis.early_selected_share b);
    b
  in
  let b_vre = series "VRE" vre in
  let b_vrei = series "VRE/I" vrei in
  let early = Tweetpecker.Analysis.early_selected_share in
  Format.printf
    "@.paper: the selected share is clearly higher in the early stages under VRE/I — %s@."
    (if early b_vrei > early b_vre then "reproduced" else "NOT reproduced")

(* ------------------------------------------------------------------ *)
(* Figure 12: when workers entered extraction rules                    *)
(* ------------------------------------------------------------------ *)

let run_figure12 () =
  section "Figure 12: rule-entry times (completion-rate deciles)";
  let series name o =
    let counts = Tweetpecker.Analysis.figure12 (Lazy.force o) in
    Format.printf "%-6s rule entries per decile:   " name;
    Array.iter (fun c -> Format.printf "%4d" c) counts;
    Format.printf "@.";
    counts
  in
  let vre_counts = series "VRE" vre in
  let vrei_counts = series "VRE/I" vrei in
  let early a = a.(0) + a.(1) and total a = Array.fold_left ( + ) 0 a in
  Format.printf
    "@.paper: VRE/I entries cluster at the beginning, VRE entries spread — %s@."
    (if early vrei_counts = total vrei_counts && early vre_counts < total vre_counts
     then "reproduced"
     else "NOT reproduced");
  match
    ( Tweetpecker.Analysis.median_rule_entry_progress (Lazy.force vrei),
      Tweetpecker.Analysis.median_rule_entry_progress (Lazy.force vre) )
  with
  | Some m1, Some m2 ->
      Format.printf "median entry completion: VRE/I %.2f vs VRE %.2f@." m1 m2
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Figure 13: evaluation order                                         *)
(* ------------------------------------------------------------------ *)

let figure13_src =
  {|
  rules:
    R(x:1);
    U(x:2);
    T(x) <- R(x), not U(x);
    S(x, y)/open <- R(x);
    R(x:2);
    T(x:1)/delete;
  |}

let run_figure13 () =
  section "Figure 13: possible evaluation order of a CyLog code";
  print_string
    "  1. R(x:1);\n\
    \  2. U(x:2);\n\
    \  3. T(x) <- R(x), not U(x);\n\
    \  4. S(x, y)/open <- R(x);\n\
    \  5. R(x:2);\n\
    \  6. T(x:1)/delete;\n";
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn figure13_src) in
  ignore (Cylog.Engine.run engine);
  let show (e : Cylog.Engine.event) =
    let valuation =
      match List.assoc_opt "x" e.valuation with
      | Some v -> Printf.sprintf " (x=%s)" (Reldb.Value.to_display v)
      | None -> ""
    in
    Printf.sprintf "%d%s%s" (e.statement + 1) valuation
      (if e.fired then "" else " [rejected by negation]")
  in
  Format.printf "@.paper order:    1, 2, 3 (x=1), 4 (x=1), 5, 3 (x=2), 4 (x=2), 6@.";
  Format.printf "measured order: %s@."
    (String.concat ", " (List.map show (Cylog.Engine.events engine)))

(* ------------------------------------------------------------------ *)
(* Figure 14: precedence graph                                         *)
(* ------------------------------------------------------------------ *)

let run_figure14 () =
  section "Figure 14: precedence graph of the Figure 13 rules";
  let program = Cylog.Parser.parse_exn figure13_src in
  let g = Cylog.Precedence.build program.Cylog.Ast.statements in
  Format.printf "%a@." Cylog.Pretty.pp_precedence g;
  Format.printf "@.data complete: rule 6 %b (paper: yes), rule 3 %b (paper: no)@."
    (Cylog.Precedence.data_complete g 5)
    (Cylog.Precedence.data_complete g 2);
  Format.printf "rules 3 and 4 parallelizable: %b (paper: yes)@."
    (Cylog.Precedence.parallelizable g 2 3)

(* ------------------------------------------------------------------ *)
(* Figure 16 / Theorems 3-4: Turing machines in CyLog                  *)
(* ------------------------------------------------------------------ *)

let run_figure16 () =
  section "Figure 16: CyLog rules implementing a Turing machine (Theorem 4)";
  List.iter
    (fun ((m : Turing.Machine.t), input) ->
      let direct =
        match Turing.Machine.run m ~input with
        | Ok (final, steps) ->
            Printf.sprintf "%s/%d steps" (Turing.Machine.tape_string final) steps
        | Error _ -> "timeout"
      in
      let cy = Turing.Cylog_tm.run m ~input in
      Format.printf
        "  %-18s input %-6s direct: %-14s CyLog: %s/%d engine steps — agree: %b@."
        m.name
        (String.concat "" input)
        direct
        (String.concat "" (List.map snd cy.tape))
        cy.engine_steps
        (Turing.Cylog_tm.agrees_with_direct m ~input))
    [ (Turing.Machine.successor, [ "1"; "1" ]);
      (Turing.Machine.binary_increment, [ "1"; "0"; "1"; "1" ]);
      (Turing.Machine.parity, [ "1"; "1"; "1" ]) ];
  Format.printf
    "@.interactive machine (class G_*, Theorem 3): dictating \"ab\" gives tape %S@."
    (Turing.Cylog_tm.Interactive.run ~answers:[ "a"; "b" ]);
  Format.printf "game classes: VE/I program %a, VRE/I program %a (paper: G_1 vs G_*)@."
    Game.Classes.pp
    (Game.Classes.classify
       (Tweetpecker.Programs.program Tweetpecker.Programs.VEI
          ~corpus:(Tweets.Generator.generate ~seed:1 2)
          ~workers:[ "w1" ]))
    Game.Classes.pp
    (Game.Classes.classify
       (Tweetpecker.Programs.program Tweetpecker.Programs.VREI
          ~corpus:(Tweets.Generator.generate ~seed:1 2)
          ~workers:[ "w1" ]))

(* ------------------------------------------------------------------ *)
(* Theorems 1 and 2                                                    *)
(* ------------------------------------------------------------------ *)

let run_theorems () =
  section "Theorems 1 (data quality) and 2 (termination) on the VRE/I run";
  let o = Lazy.force vrei in
  let t1 = Tweetpecker.Analysis.theorem1 o in
  Format.printf "Theorem 1: rational workers enter correct values and rules@.";
  Format.printf "  value entries matching ground truth: %.1f%%@."
    (100.0 *. t1.value_correct_rate);
  (match t1.rule_avg_confidence with
  | Some c -> Format.printf "  average rule confidence:             %.1f%%@." (100.0 *. c)
  | None -> ());
  let dominant = Tweetpecker.Analysis.figure10_expected ~accuracy:0.9 in
  Format.printf "  game-tree expectation: correct value %+.2f vs incorrect %+.2f;@."
    (List.assoc "enter correct value" dominant)
    (List.assoc "enter incorrect value" dominant);
  Format.printf "                         good rule %+.2f vs bad rule %+.2f@."
    (List.assoc "enter good rule" dominant)
    (List.assoc "enter bad rule" dominant);
  let t2 = Tweetpecker.Analysis.theorem2 o in
  Format.printf "@.Theorem 2: VRE/I terminates on a finite tweet set@.";
  Format.printf "  run terminated: %b@." t2.terminated;
  Format.printf "  extraction rules entered (finite): %d@." t2.rules_finite;
  match t2.last_rule_entry_progress with
  | Some p ->
      Format.printf "  last rule entered at completion %.2f (workers stop entering rules)@." p
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Ablations: design choices DESIGN.md calls out                       *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let run_ablations () =
  section "Ablation 1: seminaive delta evaluation vs naive rescan";
  let small = Tweets.Generator.generate ~seed:3 60 in
  let program =
    Tweetpecker.Programs.program Tweetpecker.Programs.VE ~corpus:small
      ~workers:[ "w1"; "w2"; "w3"; "w4"; "w5" ]
  in
  let drive engine =
    (* Machine-only driver: answer every pending open with a fixed value,
       which exercises the engine's join machinery deterministically. *)
    ignore (Cylog.Engine.run engine);
    let rec loop n =
      if n > 50_000 then ()
      else
        match Cylog.Engine.pending engine with
        | [] -> ()
        | o :: _ ->
            ignore
              (Cylog.Engine.supply engine o.id
                 ~worker:(Option.value o.asked ~default:(Reldb.Value.String "w"))
                 (List.map (fun a -> (a, Reldb.Value.String "v")) o.open_attrs));
            ignore (Cylog.Engine.run engine);
            loop (n + 1)
    in
    loop 0;
    Reldb.Database.total_tuples (Cylog.Engine.database engine)
  in
  let n1, t_delta = time (fun () -> drive (Cylog.Engine.load ~use_delta:true program)) in
  let n2, t_rescan = time (fun () -> drive (Cylog.Engine.load ~use_delta:false program)) in
  Format.printf "  delta:  %.2fs   rescan: %.2fs   speedup %.1fx   (same result: %b)@."
    t_delta t_rescan (t_rescan /. t_delta) (n1 = n2);

  section "Ablation 2: rational rule budget vs rule quality (VRE/I)";
  let corpus = Tweets.Generator.generate ~seed:11 150 in
  Format.printf "  %-8s %-14s %-12s %-10s@." "budget" "confidence(B)" "support(C)" "#rules";
  List.iter
    (fun budget ->
      let workers =
        Crowd.Worker.crowd (Crowd.Worker.rational ~rule_count:budget) 5
      in
      let o = Tweetpecker.Runner.run ~corpus ~workers Tweetpecker.Programs.VREI in
      Format.printf "  %-8d %-14s %-12s %-10d@." budget
        (match Tweetpecker.Metrics.row_b o with
        | Some b -> Printf.sprintf "%.1f%%" (100.0 *. b)
        | None -> "-")
        (match Tweetpecker.Metrics.row_c o with
        | Some c -> Printf.sprintf "%.2f%%" (100.0 *. c)
        | None -> "-")
        (List.length o.rules_entered))
    [ 1; 2; 4; 8 ];
  Format.printf
    "  (larger budgets force workers down the support-ordered rule list:@.";
  Format.printf
    "   support drops — the rational small-budget strategy is what drives row C)@.";

  section "Ablation 3: worker models (the paper's future-work axis)";
  Format.printf "  %-10s %-28s %-10s@." "workers" "row A (corr/incorr/neither)" "rounds";
  List.iter
    (fun (label, make) ->
      let workers = Crowd.Worker.crowd make 5 in
      let o = Tweetpecker.Runner.run ~corpus ~workers Tweetpecker.Programs.VEI in
      let q = Tweetpecker.Metrics.row_a o in
      Format.printf "  %-10s %5.1f / %4.1f / %4.1f %%        %-10d@." label
        (100.0 *. q.correct) (100.0 *. q.incorrect) (100.0 *. q.neither)
        o.sim.rounds)
    [ ("diligent", fun name -> Crowd.Worker.diligent name);
      ("sloppy", Crowd.Worker.sloppy) ];
  Format.printf
    "  (the incentive structure is fixed; data quality tracks worker accuracy,@.";
  Format.printf
    "   consistent with the paper's note that Theorem 1 does not bind lazy workers)@.";

  section "Ablation 4: agreement vs statistics-based aggregation";
  (* The paper: "CyLog can also be used to implement other techniques for
     improving the quality of task results, such as statistics-based
     ones." Same inputs, three aggregators, mixed-reliability crowd. *)
  let workers =
    Crowd.Worker.crowd Crowd.Worker.diligent 3
    @ [ Crowd.Worker.sloppy "s1"; Crowd.Worker.sloppy "s2" ]
  in
  let o = Tweetpecker.Runner.run ~corpus ~workers Tweetpecker.Programs.VEI in
  let cq = Tweetpecker.Aggregation.compare_methods o in
  Format.printf "  first-agreement (paper's mechanism): %.1f%%@."
    (100.0 *. cq.agreement_accuracy);
  Format.printf "  plurality voting:                    %.1f%%@."
    (100.0 *. cq.majority_accuracy);
  Format.printf "  Dawid-Skene EM (%2d iterations):      %.1f%%@." cq.em_iterations
    (100.0 *. cq.em_accuracy);
  Format.printf "  EM's reliability estimates: %s@."
    (String.concat ", "
       (List.map
          (fun (w, a) -> Printf.sprintf "%s %.2f" w a)
          cq.estimated_worker_accuracy))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure           *)
(* ------------------------------------------------------------------ *)

let bench_corpus = lazy (Tweets.Generator.generate ~seed:3 20)

let small_outcome =
  lazy (Tweetpecker.Runner.run ~corpus:(Lazy.force bench_corpus) Tweetpecker.Programs.VREI)

let micro_tests () =
  let open Bechamel in
  let corpus20 = Lazy.force bench_corpus in
  [ Test.make ~name:"table1/ve-20-tweets"
      (Staged.stage (fun () ->
           Tweetpecker.Runner.run ~corpus:corpus20 Tweetpecker.Programs.VE));
    Test.make ~name:"table1/vrei-20-tweets"
      (Staged.stage (fun () ->
           Tweetpecker.Runner.run ~corpus:corpus20 Tweetpecker.Programs.VREI));
    Test.make ~name:"figure4/pure-nash-5-terms"
      (Staged.stage (fun () ->
           Game.Matrix.pure_nash
             (Game.Matrix.coordination ~players:("A", "B")
                ~values:[ "a"; "b"; "c"; "d"; "e" ] ~reward:1.0)));
    Test.make ~name:"figure6/path-table"
      (Staged.stage (fun () ->
           let o = Lazy.force small_outcome in
           Cylog.Engine.game_instances o.engine "VREI"));
    Test.make ~name:"figure10/expected-payoffs"
      (Staged.stage (fun () -> Tweetpecker.Analysis.figure10_expected ~accuracy:0.9));
    Test.make ~name:"figure11/breakdown"
      (Staged.stage (fun () -> Tweetpecker.Analysis.figure11 (Lazy.force small_outcome)));
    Test.make ~name:"figure12/rule-entry-histogram"
      (Staged.stage (fun () -> Tweetpecker.Analysis.figure12 (Lazy.force small_outcome)));
    Test.make ~name:"figure13/engine-trace"
      (Staged.stage (fun () ->
           let engine = Cylog.Engine.load (Cylog.Parser.parse_exn figure13_src) in
           Cylog.Engine.run engine));
    Test.make ~name:"figure14/precedence-graph"
      (Staged.stage (fun () ->
           Cylog.Precedence.build (Cylog.Parser.parse_exn figure13_src).Cylog.Ast.statements));
    Test.make ~name:"figure16/turing-in-cylog"
      (Staged.stage (fun () -> Turing.Cylog_tm.run Turing.Machine.successor ~input:[ "1"; "1" ]));
    Test.make ~name:"theorems/game-classification"
      (Staged.stage (fun () ->
           Game.Classes.classify
             (Tweetpecker.Programs.program Tweetpecker.Programs.VREI
                ~corpus:(Tweets.Generator.generate ~seed:1 2)
                ~workers:[ "w1" ])));
    (* Substrate micro-benchmarks. *)
    Test.make ~name:"core/parse-ve-program"
      (Staged.stage
         (let src =
            Tweetpecker.Programs.source Tweetpecker.Programs.VE ~corpus:corpus20
              ~workers:[ "w1"; "w2" ]
          in
          fun () -> Cylog.Parser.parse_exn src));
    Test.make ~name:"core/regex-search"
      (Staged.stage
         (let re = Regex.Engine.compile_exn ~case_insensitive:true "rain|snow" in
          fun () -> Regex.Engine.search re "Morning in Sapporo: heavy snowfall. #tenki"));
    Test.make ~name:"core/natural-join-100x100"
      (Staged.stage
         (let mk n key =
            List.init n (fun i ->
                Reldb.Tuple.of_list
                  [ (key, Reldb.Value.Int (i mod 10)); ("v" ^ key, Reldb.Value.Int i) ])
          in
          let left = mk 100 "k" and right = mk 100 "k" in
          fun () -> Reldb.Ops.natural_join left right)) ]

let run_bench () =
  section "Bechamel micro-benchmarks (ns per run, OLS estimate)";
  (* Force shared fixtures outside the measured closures. *)
  ignore (Lazy.force bench_corpus);
  ignore (Lazy.force small_outcome);
  let open Bechamel in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"cylog" (micro_tests ()))
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      Format.printf "  %-40s %14.0f ns/run   (r2 %.3f)@." name estimate r2)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Shared: telemetry snapshot embedded in every BENCH_*.json           *)
(* ------------------------------------------------------------------ *)

(* Each BENCH record carries the telemetry counters behind its headline
   numbers — plan-cache traffic, journal appends/fsyncs, delta-evaluation
   rounds — so a regression in the measured seconds can be traced to the
   mechanism without re-running under a sink. *)
let telemetry_snapshot_prefixes = [ "planner."; "journal."; "eval." ]

let telemetry_snapshot m =
  let keep (k, _) =
    List.exists (fun prefix -> String.starts_with ~prefix k) telemetry_snapshot_prefixes
  in
  J.Obj
    (List.map (fun (k, v) -> (k, J.Int v))
       (List.filter keep (Cylog.Telemetry.Metrics.counters m)))

(* The run's static budget certificate rides next to the telemetry in the
   artifact: a bound regression (a relation going unbounded, a task bound
   jumping) shows up in the JSON diff like a counter regression does. *)
let certificate_snapshot engine =
  match Cylog.Engine.certificate engine with
  | Some c -> Cylog.Analysis.certificate_json c
  | None -> J.Null

(* Every BENCH_*.json is pretty-printed, so its diffs stay line-oriented. *)
let write_artifact file json =
  let out = open_out file in
  output_string out (J.to_string_pretty json);
  output_char out '\n';
  close_out out;
  Format.printf "  wrote %s@." file

(* ------------------------------------------------------------------ *)
(* Joins: cost-based planning + compound-key indexes, scaling study    *)
(* ------------------------------------------------------------------ *)

(* A chain join written in the worst order for left-to-right evaluation:
   the selective atom comes last. Production (delta evaluation with
   planned joins) pins each new row and lets the planner bind the rest
   through index probes; the reference evaluator ([~use_delta:false])
   rescans the whole body in its written order every step. Data at scale
   [s]: Edge1/Edge2 are chains of [40*s] rows joined on [y]; Target
   selects [2*s] of the [40*s] chain endpoints. Rows arrive one link per
   engine round — the incremental regime every crowd-driven program runs
   in — so the reference is quadratic in the chain length while
   production stays linear: its rows scanned per chain link are flat
   across scales. *)
let joins_src =
  {|schema:
  Edge1(x, y);
  Edge2(y, z);
  Target(z);
  Out(x, z);

rules:
  J: Out(x, z) <- Edge1(x, y), Edge2(y, z), Target(z);
|}

type joins_run = {
  j_seconds : float;
  j_rows_scanned : int;
  j_steps : int;
  j_cache_hits : int;
  j_cache_misses : int;
  j_telemetry : J.t;
  j_certificate : J.t;
  j_out : Reldb.Tuple.t list;
  j_trace : (int * string option * (string * Reldb.Value.t) list * bool) list;
}

let joins_links scale = 40 * scale

let joins_run ?(metrics = true) ~scale ~use_delta () =
  let n = joins_links scale and t = 2 * scale in
  let engine = Cylog.Engine.load ~use_delta (Cylog.Parser.parse_exn joins_src) in
  if not metrics then
    Cylog.Telemetry.Metrics.set_enabled (Cylog.Engine.metrics engine) false;
  let db = Cylog.Engine.database engine in
  let ins name fields =
    ignore
      (Reldb.Relation.insert
         (Reldb.Database.find_exn db name)
         (Reldb.Tuple.of_list (List.map (fun (a, v) -> (a, Reldb.Value.Int v)) fields)))
  in
  for i = 0 to t - 1 do
    ins "Target" [ ("z", (20 * i) + 3) ]
  done;
  Cylog.Eval.reset_rows_scanned ();
  let j_steps, j_seconds =
    time (fun () ->
        let steps = ref (fst (Cylog.Engine.run engine)) in
        for i = 0 to n - 1 do
          ins "Edge1" [ ("x", i); ("y", i) ];
          ins "Edge2" [ ("y", i); ("z", i) ];
          steps := !steps + fst (Cylog.Engine.run engine)
        done;
        !steps)
  in
  let j_rows_scanned = Cylog.Eval.rows_scanned () in
  let counter = Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) in
  let j_cache_hits = counter "planner.delta_cache.hits" in
  let j_cache_misses = counter "planner.delta_cache.misses" in
  let j_out =
    List.sort compare (Reldb.Relation.tuples (Reldb.Database.find_exn db "Out"))
  in
  let j_trace =
    List.map
      (fun (e : Cylog.Engine.event) -> (e.statement, e.label, e.valuation, e.fired))
      (Cylog.Engine.events engine)
  in
  let j_telemetry = telemetry_snapshot (Cylog.Engine.metrics engine) in
  let j_certificate = certificate_snapshot engine in
  { j_seconds; j_rows_scanned; j_steps; j_cache_hits; j_cache_misses; j_telemetry;
    j_certificate; j_out; j_trace }

type joins_row = { scale : int; reference : joins_run; production : joins_run }

let joins_row scale =
  { scale;
    reference = joins_run ~scale ~use_delta:false ();
    production = joins_run ~scale ~use_delta:true () }

let joins_identical r =
  r.reference.j_out = r.production.j_out && r.reference.j_trace = r.production.j_trace

let rows_per_link r =
  float_of_int r.production.j_rows_scanned /. float_of_int (joins_links r.scale)

let pp_joins_row r =
  let speedup = r.reference.j_seconds /. Float.max 1e-9 r.production.j_seconds in
  Format.printf
    "  %4dx  reference: %8.3fs %10d rows   production: %8.3fs %10d rows (%.1f/link)   \
     speedup %6.1fx  identical: %b@."
    r.scale r.reference.j_seconds r.reference.j_rows_scanned r.production.j_seconds
    r.production.j_rows_scanned (rows_per_link r) speedup (joins_identical r);
  Format.printf "         production plan cache: %d hits / %d misses@."
    r.production.j_cache_hits r.production.j_cache_misses

let joins_json rows =
  let run (m : joins_run) =
    J.Obj
      [ ("seconds", J.Float m.j_seconds); ("rows_scanned", J.Int m.j_rows_scanned);
        ("steps", J.Int m.j_steps); ("plan_cache_hits", J.Int m.j_cache_hits);
        ("plan_cache_misses", J.Int m.j_cache_misses); ("telemetry", m.j_telemetry);
        ("certificate", m.j_certificate) ]
  in
  let scale r =
    J.Obj
      [ ("scale", J.Int r.scale); ("edge_rows", J.Int (joins_links r.scale));
        ("target_rows", J.Int (2 * r.scale)); ("reference", run r.reference);
        ("production", run r.production);
        ("speedup_wall",
         J.Float (r.reference.j_seconds /. Float.max 1e-9 r.production.j_seconds));
        ("speedup_rows_scanned",
         J.Float
           (float_of_int r.reference.j_rows_scanned
           /. Float.max 1.0 (float_of_int r.production.j_rows_scanned)));
        ("identical_results", J.Bool (joins_identical r)) ]
  in
  J.Obj
    [ ("benchmark", J.String "joins");
      ("body", J.String "Out(x, z) <- Edge1(x, y), Edge2(y, z), Target(z)");
      ("scales", J.List (List.map scale rows)) ]

let run_joins () =
  section "Joins: production (delta, planned) vs reference (left-to-right rescan)";
  Format.printf "  body: Out(x, z) <- Edge1(x, y), Edge2(y, z), Target(z)@.";
  let rows = List.map joins_row [ 10; 100 ] in
  List.iter pp_joins_row rows;
  write_artifact "BENCH_joins.json" (joins_json rows)

(* Growth bound on production's rows scanned per chain link from 1x to
   10x. Planned delta evaluation is flat (the same figure at both
   scales); left-to-right order grows about tenfold, so a planner that
   stops reordering fails here even though it still matches the
   reference's results. *)
let joins_max_link_growth = 1.5

let run_joins_smoke () =
  (* Small-scale production regression gate, wired into [dune runtest]
     via the [bench-smoke] alias: at 1x and 10x, identical results and no
     more scanned rows than the reference evaluator, and flat per-link
     work across the two scales — all judged on the deterministic row
     counter rather than wall time. *)
  section "Joins smoke: production vs reference at 1x and 10x";
  let r1 = joins_row 1 and r10 = joins_row 10 in
  let rows = [ r1; r10 ] in
  List.iter pp_joins_row rows;
  let failures = ref 0 in
  let check ok msg =
    if not ok then begin
      incr failures;
      Format.printf "  FAIL: %s@." msg
    end
  in
  List.iter
    (fun r ->
      check (joins_identical r)
        (Printf.sprintf "%dx: production diverged from the reference order" r.scale);
      check
        (r.production.j_rows_scanned <= r.reference.j_rows_scanned)
        (Printf.sprintf "%dx: production scanned more rows than the reference" r.scale))
    rows;
  let growth = rows_per_link r10 /. rows_per_link r1 in
  check
    (growth <= joins_max_link_growth)
    (Printf.sprintf "production rows scanned per link grew %.2fx from 1x to 10x (bound %.1fx)"
       growth joins_max_link_growth);
  if !failures > 0 then exit 1;
  Format.printf
    "  ok: identical results, rows <= reference, per-link growth %.2fx <= %.1fx@."
    growth joins_max_link_growth

(* ------------------------------------------------------------------ *)
(* Incremental: per-supply latency under semi-naive vs naive           *)
(* ------------------------------------------------------------------ *)

(* The headline claim of differential evaluation: after preloading a
   large static relation, the cost of absorbing ONE new fact should
   depend on the fact's consequences, not on the database size. The
   campaign preloads [Log] with N rows, opens S labelling tasks, then
   supplies the answers one at a time, measuring each supply+fixpoint
   individually on the deterministic rows-scanned counter (and wall
   time, for the JSON record).

   Under semi-naive evaluation the new [Label] row is the pinned delta
   atom and the planner turns [Log] into an index probe: per-supply work
   is O(1) in N. The naive reference (rescan, left-to-right) re-reads
   [Log] end to end on every step: per-supply work is O(N), so doubling
   the preload doubles the latency. *)
let incremental_src =
  {|schema:
  Log(id, msg);
  Task(id);

rules:
  Q: Label(id, v)/open <- Task(id);
  J: Out(id, msg, v) <- Log(id, msg), Label(id, v);
|}

type inc_run = {
  i_preload : int;
  i_supplies : int;
  i_load_seconds : float;
  i_supply_seconds : float;  (** total across all supplies *)
  i_supply_rows : int;  (** total rows scanned across all supplies *)
  i_rows_first : int;
  i_rows_last : int;
  i_out : int;
  i_telemetry : J.t;
  i_certificate : J.t;
}

let incremental_run ~preload ~supplies ~semi () =
  let program = Cylog.Parser.parse_exn incremental_src in
  let engine = Cylog.Engine.load ~use_delta:semi program in
  let db = Cylog.Engine.database engine in
  let ins name fields =
    ignore
      (Reldb.Relation.insert
         (Reldb.Database.find_exn db name)
         (Reldb.Tuple.of_list (List.map (fun (a, v) -> (a, Reldb.Value.Int v)) fields)))
  in
  for i = 0 to preload - 1 do
    ins "Log" [ ("id", i); ("msg", i) ]
  done;
  for i = 0 to supplies - 1 do
    ins "Task" [ ("id", i) ]
  done;
  let _, i_load_seconds = time (fun () -> Cylog.Engine.run engine) in
  let pending = Cylog.Engine.pending engine in
  let total_rows = ref 0 and total_seconds = ref 0.0 in
  let rows_first = ref 0 and rows_last = ref 0 in
  List.iteri
    (fun i (o : Cylog.Engine.open_tuple) ->
      Cylog.Eval.reset_rows_scanned ();
      let _, seconds =
        time (fun () ->
            (match
               Cylog.Engine.supply engine o.id ~worker:(Reldb.Value.String "w")
                 [ ("v", Reldb.Value.Int i) ]
             with
            | Ok _ -> ()
            | Error e -> failwith (Cylog.Engine.reject_to_string e));
            Cylog.Engine.run engine)
      in
      let rows = Cylog.Eval.rows_scanned () in
      total_rows := !total_rows + rows;
      total_seconds := !total_seconds +. seconds;
      if i = 0 then rows_first := rows;
      rows_last := rows)
    pending;
  {
    i_preload = preload;
    i_supplies = List.length pending;
    i_load_seconds;
    i_supply_seconds = !total_seconds;
    i_supply_rows = !total_rows;
    i_rows_first = !rows_first;
    i_rows_last = !rows_last;
    i_out =
      (match Reldb.Database.find db "Out" with
      | Some rel -> Reldb.Relation.cardinal rel
      | None -> 0);
    i_telemetry = telemetry_snapshot (Cylog.Engine.metrics engine);
    i_certificate = certificate_snapshot engine;
  }

let inc_mean_rows r = float_of_int r.i_supply_rows /. float_of_int (max 1 r.i_supplies)
let inc_mean_seconds r = r.i_supply_seconds /. float_of_int (max 1 r.i_supplies)

type inc_row = { i_scale : int; i_semi : inc_run; i_naive : inc_run }

let inc_row ~supplies preload =
  { i_scale = preload;
    i_semi = incremental_run ~preload ~supplies ~semi:true ();
    i_naive = incremental_run ~preload ~supplies ~semi:false () }

let pp_inc_row r =
  Format.printf
    "  preload %7d   semi: %8.1f rows/supply (%.6fs)   naive: %10.1f rows/supply \
     (%.6fs)   advantage %8.1fx   same Out: %b@."
    r.i_scale (inc_mean_rows r.i_semi) (inc_mean_seconds r.i_semi)
    (inc_mean_rows r.i_naive) (inc_mean_seconds r.i_naive)
    (inc_mean_rows r.i_naive /. Float.max 1.0 (inc_mean_rows r.i_semi))
    (r.i_semi.i_out = r.i_naive.i_out)

(* Growth of mean per-supply rows as the preload scales from the first
   row to the last: the flat-latency verdict. *)
let inc_ratio pick rows =
  match (rows, List.rev rows) with
  | small :: _, big :: _ -> inc_mean_rows (pick big) /. Float.max 1.0 (inc_mean_rows (pick small))
  | _ -> nan

let incremental_json ~supplies rows =
  let run (m : inc_run) =
    J.Obj
      [ ("load_seconds", J.Float m.i_load_seconds);
        ("supply_seconds_total", J.Float m.i_supply_seconds);
        ("supply_rows_total", J.Int m.i_supply_rows);
        ("rows_per_supply_mean", J.Float (inc_mean_rows m));
        ("seconds_per_supply_mean", J.Float (inc_mean_seconds m));
        ("rows_first_supply", J.Int m.i_rows_first);
        ("rows_last_supply", J.Int m.i_rows_last);
        ("out_rows", J.Int m.i_out); ("telemetry", m.i_telemetry);
        ("certificate", m.i_certificate) ]
  in
  let preload r =
    J.Obj
      [ ("preload", J.Int r.i_scale); ("semi_naive", run r.i_semi);
        ("naive", run r.i_naive);
        ("naive_vs_semi_rows",
         J.Float (inc_mean_rows r.i_naive /. Float.max 1.0 (inc_mean_rows r.i_semi)));
        ("identical_results", J.Bool (r.i_semi.i_out = r.i_naive.i_out)) ]
  in
  J.Obj
    [ ("benchmark", J.String "incremental");
      ("body", J.String "Out(id, msg, v) <- Log(id, msg), Label(id, v)");
      ("supplies", J.Int supplies); ("preloads", J.List (List.map preload rows));
      ("semi_naive_growth_across_preloads", J.Float (inc_ratio (fun r -> r.i_semi) rows));
      ("naive_growth_across_preloads", J.Float (inc_ratio (fun r -> r.i_naive) rows));
      ("flat_gate",
       J.Obj
         [ ("semi_naive_max_growth", J.Float 1.5);
           ("passed", J.Bool (inc_ratio (fun r -> r.i_semi) rows <= 1.5)) ]) ]

let inc_check rows =
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  List.iter
    (fun r ->
      check
        (Printf.sprintf "results diverge at preload %d" r.i_scale)
        (r.i_semi.i_out = r.i_naive.i_out && r.i_semi.i_out > 0))
    rows;
  check "semi-naive per-supply work grew with the preload (not flat)"
    (inc_ratio (fun r -> r.i_semi) rows <= 1.5);
  check "naive per-supply work did not grow with the preload (no contrast)"
    (inc_ratio (fun r -> r.i_naive) rows >= 2.0);
  List.rev !failures

let run_incremental () =
  section "Incremental: per-supply cost after a bulk preload (semi-naive vs naive)";
  Format.printf "  body: Out(id, msg, v) <- Log(id, msg), Label(id, v)@.";
  let supplies = 1_000 in
  let rows = List.map (inc_row ~supplies) [ 10_000; 100_000 ] in
  List.iter pp_inc_row rows;
  Format.printf
    "  growth of rows/supply across preloads: semi-naive %.2fx, naive %.2fx@."
    (inc_ratio (fun r -> r.i_semi) rows)
    (inc_ratio (fun r -> r.i_naive) rows);
  write_artifact "BENCH_incremental.json" (incremental_json ~supplies rows);
  List.iter (fun what -> Format.printf "  NOTE: %s@." what) (inc_check rows)

let run_incremental_smoke () =
  (* Scaled-down flat-latency gate, wired into [dune runtest] via the
     [incremental-smoke] alias and judged on the deterministic row
     counter: per-supply work must stay flat (<= 1.5x) for semi-naive
     while the naive reference at least doubles across a 5x preload. *)
  section "Incremental smoke: flat per-supply latency at small scale";
  let rows = List.map (inc_row ~supplies:50) [ 1_000; 5_000 ] in
  List.iter pp_inc_row rows;
  match inc_check rows with
  | [] ->
      Format.printf
        "  ok: semi-naive flat (%.2fx growth), naive degrades (%.2fx growth)@."
        (inc_ratio (fun r -> r.i_semi) rows)
        (inc_ratio (fun r -> r.i_naive) rows)
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Quality: adaptive quorum vs fixed redundancy                        *)
(* ------------------------------------------------------------------ *)

(* A labelling campaign with planted ground truth and undesignated opens
   (so the quorum runtime applies): N items, each awaiting one label from
   a crowd of four diligent and one sloppy worker driven by the quality
   router. The same seeded campaign runs under Fixed k=2, Fixed k=3 and
   the Adaptive policy; the claim under test is that Adaptive matches or
   beats Fixed k=3 on accuracy while consuming fewer answers, because it
   stops early once the reliability-weighted posterior clears tau and
   only escalates on genuinely contested items. *)

let quality_labels = [| "cat"; "dog"; "bird" |]
let quality_truth_of id = quality_labels.(id mod Array.length quality_labels)

let quality_src n =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "rules:\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  Item(id:%d);\n" i)
  done;
  Buffer.add_string buf "  Q: LabelOf(id, label)/open <- Item(id);\n";
  Buffer.contents buf

type quality_run = {
  q_label : string;
  q_items : int;
  q_resolved : int;
  q_correct : int;
  q_answers : int;  (** accepted answers — the campaign's paid question count *)
  q_early_stopped : int;
  q_escalated : int;
  q_rounds : int;
  q_reliability : (string * float * int) list;
  q_telemetry : J.t;
  q_certificate : J.t;
}

let quality_campaign ~label ~seed ~items ?quorum ?policy () =
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn (quality_src items)) in
  let workers =
    Crowd.Worker.crowd Crowd.Worker.diligent 4 @ [ Crowd.Worker.sloppy "s1" ]
  in
  let sim_workers =
    List.map
      (fun (w : Crowd.Worker.profile) -> (Reldb.Value.String w.name, w))
      workers
  in
  let truth (o : Cylog.Engine.open_tuple) =
    let id =
      match Reldb.Tuple.get_or_null o.bound "id" with
      | Reldb.Value.Int i -> i
      | _ -> 0
    in
    [ ("label", Reldb.Value.String (quality_truth_of id)) ]
  in
  let outcome =
    Crowd.Simulator.run_routed ~seed ?quorum ?policy ~truth ~workers:sim_workers
      engine
  in
  let labelled =
    match Reldb.Database.find (Cylog.Engine.database engine) "LabelOf" with
    | None -> []
    | Some rel -> Reldb.Relation.tuples rel
  in
  let resolved, correct =
    List.fold_left
      (fun (r, c) t ->
        match
          (Reldb.Tuple.get_or_null t "id", Reldb.Tuple.get_or_null t "label")
        with
        | Reldb.Value.Int id, Reldb.Value.String l ->
            (r + 1, if String.equal l (quality_truth_of id) then c + 1 else c)
        | _ -> (r, c))
      (0, 0) labelled
  in
  let counter = Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) in
  {
    q_label = label;
    q_items = items;
    q_resolved = resolved;
    q_correct = correct;
    q_answers = counter "answers.accepted";
    q_early_stopped = counter "quorum.early_stopped";
    q_escalated = counter "quorum.escalated";
    q_rounds = outcome.rounds;
    q_reliability = Cylog.Engine.reliability_table engine;
    q_telemetry = telemetry_snapshot (Cylog.Engine.metrics engine);
    q_certificate = certificate_snapshot engine;
  }

let quality_policy =
  Cylog.Engine.Adaptive { tau = 0.9; min_votes = 2; max_votes = 5 }

let quality_runs ~seed ~items =
  [ quality_campaign ~label:"fixed-k2" ~seed ~items ~quorum:2 ();
    quality_campaign ~label:"fixed-k3" ~seed ~items ~quorum:3 ();
    quality_campaign ~label:"adaptive" ~seed ~items ~policy:quality_policy () ]

let quality_accuracy r =
  float_of_int r.q_correct /. float_of_int (max 1 r.q_items)

let pp_quality_run r =
  Format.printf
    "  %-10s resolved %d/%d   accuracy %5.1f%%   answers %4d   early-stop %d   \
     escalated %d   rounds %d@."
    r.q_label r.q_resolved r.q_items
    (100.0 *. quality_accuracy r)
    r.q_answers r.q_early_stopped r.q_escalated r.q_rounds

let quality_json ~seed runs =
  let run r =
    J.Obj
      [ ("policy", J.String r.q_label); ("items", J.Int r.q_items);
        ("resolved", J.Int r.q_resolved); ("correct", J.Int r.q_correct);
        ("accuracy", J.Float (quality_accuracy r)); ("answers", J.Int r.q_answers);
        ("early_stopped", J.Int r.q_early_stopped); ("escalated", J.Int r.q_escalated);
        ("rounds", J.Int r.q_rounds);
        ("reliability",
         J.Obj
           (List.map
              (fun (w, rel, n) ->
                (w, J.Obj [ ("mean", J.Float rel); ("observations", J.Int n) ]))
              r.q_reliability));
        ("telemetry", r.q_telemetry); ("certificate", r.q_certificate) ]
  in
  J.Obj
    [ ("benchmark", J.String "quality");
      ("crowd", J.String "4 diligent + 1 sloppy, router-driven assignment");
      ("seed", J.Int seed);
      ("adaptive",
       J.Obj [ ("tau", J.Float 0.9); ("min_votes", J.Int 2); ("max_votes", J.Int 5) ]);
      ("runs", J.List (List.map run runs)) ]

let quality_check runs =
  let find l = List.find (fun r -> r.q_label = l) runs in
  let fixed3 = find "fixed-k3" and adaptive = find "adaptive" in
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  check "adaptive left tasks unresolved" (adaptive.q_resolved = adaptive.q_items);
  check "adaptive accuracy below fixed k=3"
    (quality_accuracy adaptive >= quality_accuracy fixed3);
  check "adaptive consumed no fewer answers than fixed k=3"
    (adaptive.q_answers < fixed3.q_answers);
  check "adaptive never early-stopped" (adaptive.q_early_stopped > 0);
  List.rev !failures

let run_quality () =
  section "Quality: adaptive early stopping vs fixed redundancy";
  let seed = 7 and items = 60 in
  let runs = quality_runs ~seed ~items in
  List.iter pp_quality_run runs;
  write_artifact "BENCH_quality.json" (quality_json ~seed runs);
  List.iter (fun what -> Format.printf "  NOTE: %s@." what) (quality_check runs)

let run_quality_smoke () =
  (* The adaptive-beats-fixed gate, wired into [dune runtest] via the
     [quality-smoke] alias: the same seeded campaign as [run_quality],
     judged on deterministic counters. *)
  section "Quality smoke: adaptive vs fixed k=3 on the seeded campaign";
  let runs = quality_runs ~seed:7 ~items:60 in
  List.iter pp_quality_run runs;
  match quality_check runs with
  | [] -> Format.printf "  ok: all tasks resolved, accuracy >= fixed k=3, fewer answers@."
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Durability: WAL append throughput and O(live-state) recovery        *)
(* ------------------------------------------------------------------ *)

(* Two measurements back docs/DURABILITY.md's claims: (a) the price of
   the fsync policy — append throughput under Always / Every_n / Never,
   on real files so Always pays real fsyncs; (b) recovery cost against
   journal length with and without compaction — compaction folds the
   resolved state into a snapshot segment, so the records replayed at
   recovery (the deterministic proxy for restore cost) stay bounded by
   [compact_every] instead of growing with the campaign. *)

let dur_dir = "BENCH_journal.dir"

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter
      (fun f -> Cylog.Storage.Posix.delete (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let dur_policy_name = function
  | Cylog.Journal.Always -> "always"
  | Cylog.Journal.Every_n n -> Printf.sprintf "every-%d" n
  | Cylog.Journal.Never -> "never"

type dur_policy_run = {
  d_policy : string;
  d_appends : int;
  d_fsyncs : int;
  d_rotations : int;
  d_seconds : float;
}

let dur_throughput ?sim ~count fsync =
  let storage = Option.map Cylog.Storage.Sim.storage sim in
  if sim = None then rm_rf dur_dir;
  let config =
    { Cylog.Journal.default_config with fsync; segment_bytes = 1 lsl 16 }
  in
  let payload = String.make 128 'x' in
  let j = Cylog.Journal.create ~config ?storage ~genesis:"bench" dur_dir in
  let (), d_seconds =
    time (fun () ->
        for _ = 1 to count do
          Cylog.Journal.append j payload
        done;
        Cylog.Journal.close j)
  in
  let st = Cylog.Journal.stats j in
  if sim = None then rm_rf dur_dir;
  {
    d_policy = dur_policy_name fsync;
    d_appends = st.Cylog.Journal.appends;
    d_fsyncs = st.Cylog.Journal.fsyncs;
    d_rotations = st.Cylog.Journal.rotations;
    d_seconds;
  }

type dur_recovery_run = {
  r_tasks : int;
  r_compacted : bool;
  r_records_replayed : int;
  r_base_segment : int;
  r_segments_scanned : int;
  r_write_seconds : float;
  r_recover_seconds : float;
  r_identical : bool;
  r_telemetry : J.t;
  r_certificate : J.t;
}

(* A labelling campaign of [tasks] journaled supplies: bulk state goes in
   before the journal starts (the genesis snapshot carries it), then each
   answer is one durable WAL entry. Recovery is measured cold. *)
let dur_src = "schema:\n  Task(id);\nrules:\n  Q: LabelOf(id, v)/open <- Task(id);\n"

let dur_campaign ?sim ~tasks ~compact () =
  let storage = Option.map Cylog.Storage.Sim.storage sim in
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn dur_src) in
  let db = Cylog.Engine.database engine in
  for i = 0 to tasks - 1 do
    ignore
      (Reldb.Relation.insert
         (Reldb.Database.find_exn db "Task")
         (Reldb.Tuple.of_list [ ("id", Reldb.Value.Int i) ]))
  done;
  ignore (Cylog.Engine.run engine);
  let config =
    { Cylog.Journal.default_config with
      segment_bytes = 1 lsl 15;
      compact_every = (if compact then Some 64 else None) }
  in
  if sim = None then rm_rf dur_dir;
  Cylog.Engine.journal_start ~config ?storage engine dur_dir;
  let (), r_write_seconds =
    time (fun () ->
        List.iter
          (fun (o : Cylog.Engine.open_tuple) ->
            (match
               Cylog.Engine.supply engine o.id ~worker:(Reldb.Value.String "w")
                 [ ("v", Reldb.Value.Int (o.id mod 3)) ]
             with
            | Ok _ -> ()
            | Error e -> failwith (Cylog.Engine.reject_to_string e));
            ignore (Cylog.Engine.run engine))
          (Cylog.Engine.pending engine);
        Option.iter Cylog.Journal.close (Cylog.Engine.durable_journal engine))
  in
  let (recovered, stats), r_recover_seconds =
    time (fun () -> Cylog.Engine.recover ~config ?storage dur_dir)
  in
  let r_identical =
    Cylog.Engine.journal_dump recovered = Cylog.Engine.journal_dump engine
  in
  if sim = None then rm_rf dur_dir;
  {
    r_tasks = tasks;
    r_compacted = compact;
    r_records_replayed = stats.Cylog.Engine.records_replayed;
    r_base_segment = stats.Cylog.Engine.base_segment;
    r_segments_scanned = stats.Cylog.Engine.segments_scanned;
    r_write_seconds;
    r_recover_seconds;
    r_identical;
    r_telemetry = telemetry_snapshot (Cylog.Engine.metrics engine);
    r_certificate = certificate_snapshot engine;
  }

let pp_dur_policy_run r =
  Format.printf
    "  %-10s %6d appends in %8.4fs  (%10.0f appends/s)   %6d fsyncs   %d rotations@."
    r.d_policy r.d_appends r.d_seconds
    (float_of_int r.d_appends /. Float.max 1e-9 r.d_seconds)
    r.d_fsyncs r.d_rotations

let pp_dur_recovery_run r =
  Format.printf
    "  %5d tasks  %-14s  write %8.4fs   recover %8.4fs   %5d records replayed   \
     base seg %d / %d scanned   identical: %b@."
    r.r_tasks
    (if r.r_compacted then "compacted" else "no-compaction")
    r.r_write_seconds r.r_recover_seconds r.r_records_replayed r.r_base_segment
    r.r_segments_scanned r.r_identical

let durability_json policies recoveries =
  let policy r =
    J.Obj
      [ ("policy", J.String r.d_policy); ("appends", J.Int r.d_appends);
        ("fsyncs", J.Int r.d_fsyncs); ("rotations", J.Int r.d_rotations);
        ("seconds", J.Float r.d_seconds);
        ("appends_per_sec",
         J.Float (float_of_int r.d_appends /. Float.max 1e-9 r.d_seconds)) ]
  in
  let recovery r =
    J.Obj
      [ ("tasks", J.Int r.r_tasks); ("compacted", J.Bool r.r_compacted);
        ("records_replayed", J.Int r.r_records_replayed);
        ("base_segment", J.Int r.r_base_segment);
        ("segments_scanned", J.Int r.r_segments_scanned);
        ("write_seconds", J.Float r.r_write_seconds);
        ("recover_seconds", J.Float r.r_recover_seconds);
        ("identical_results", J.Bool r.r_identical); ("telemetry", r.r_telemetry);
        ("certificate", r.r_certificate) ]
  in
  J.Obj
    [ ("benchmark", J.String "durability"); ("payload_bytes", J.Int 128);
      ("fsync_policies", J.List (List.map policy policies));
      ("recovery", J.List (List.map recovery recoveries)) ]

(* The deterministic gates: fsync counts must order with the policies,
   recovery must be exact, and compaction must bound the replay length
   (the O(live-state) restore claim, judged on records replayed). *)
let dur_check policies recoveries =
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  let fsyncs name =
    (List.find (fun r -> r.d_policy = name) policies).d_fsyncs
  in
  check "fsync counts do not order always > every-8 > never"
    (fsyncs "always" > fsyncs "every-8" && fsyncs "every-8" > fsyncs "never");
  List.iter
    (fun r ->
      check
        (Printf.sprintf "recovery diverged (%d tasks, compacted %b)" r.r_tasks
           r.r_compacted)
        r.r_identical)
    recoveries;
  List.iter
    (fun r ->
      match
        List.find_opt
          (fun c -> c.r_compacted && c.r_tasks = r.r_tasks)
          recoveries
      with
      | Some c ->
          check
            (Printf.sprintf
               "compaction did not bound the replay at %d tasks (%d vs %d records)"
               r.r_tasks c.r_records_replayed r.r_records_replayed)
            (2 * c.r_records_replayed < r.r_records_replayed);
          check
            (Printf.sprintf "compaction never advanced the base at %d tasks" r.r_tasks)
            (c.r_base_segment > 0)
      | None -> ())
    (List.filter (fun r -> not r.r_compacted) recoveries);
  List.rev !failures

let run_durability () =
  section "Durability: WAL append throughput per fsync policy (POSIX files)";
  let policies =
    List.map
      (dur_throughput ~count:1500)
      [ Cylog.Journal.Always; Cylog.Journal.Every_n 8; Cylog.Journal.Never ]
  in
  List.iter pp_dur_policy_run policies;
  section "Durability: recovery cost vs journal length (compaction = O(live state))";
  let recoveries =
    List.concat_map
      (fun tasks ->
        [ dur_campaign ~tasks ~compact:false (); dur_campaign ~tasks ~compact:true () ])
      [ 300; 1200 ]
  in
  List.iter pp_dur_recovery_run recoveries;
  write_artifact "BENCH_durability.json" (durability_json policies recoveries);
  List.iter (fun what -> Format.printf "  NOTE: %s@." what) (dur_check policies recoveries)

let run_durability_smoke () =
  (* Scaled-down durability gate, wired into [dune runtest] via the
     [durability-smoke] alias. In-memory storage keeps it fast and
     deterministic: the gates judge fsync counters and records replayed,
     not wall time. *)
  section "Durability smoke: fsync policy counters and compacted recovery";
  let policies =
    List.map
      (fun p -> dur_throughput ~sim:(Cylog.Storage.Sim.create ()) ~count:300 p)
      [ Cylog.Journal.Always; Cylog.Journal.Every_n 8; Cylog.Journal.Never ]
  in
  List.iter pp_dur_policy_run policies;
  let recoveries =
    List.concat_map
      (fun compact ->
        [ dur_campaign ~sim:(Cylog.Storage.Sim.create ()) ~tasks:150 ~compact () ])
      [ false; true ]
  in
  List.iter pp_dur_recovery_run recoveries;
  match dur_check policies recoveries with
  | [] ->
      Format.printf
        "  ok: fsync counters order with the policies, recovery exact, compaction \
         bounds the replay@."
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Monitor: campaign observability — latencies, series, watchdogs      *)
(* ------------------------------------------------------------------ *)

(* A faulted adaptive labelling campaign under the campaign monitor:
   [items] undesignated tasks, five workers wrapped in the drop fault
   profile, lease runtime on, adaptive quorum, one monitor sample per
   round. The budget-capped variant arms [max_budget] and must stop via
   the journaled [Alert_fired] within one round of the crossing; the
   journaled variant (Sim storage) is recovered afterwards and the
   monitor recounted from the recovered event log. *)

let monitor_policy engine ~worker:_ ~rng ~round:_ =
  match Cylog.Engine.pending engine with
  | [] -> Crowd.Simulator.Pass
  | pending ->
      let o = List.nth pending (Random.State.int rng (List.length pending)) in
      let label = [| "cat"; "dog"; "bird" |].(Random.State.int rng 3) in
      Crowd.Simulator.Answer
        ( o.Cylog.Engine.id,
          [ ("label", Reldb.Value.String label) ],
          Crowd.Simulator.Enter_value )

let monitor_campaign ?budget ?store ?(monitored = true) ~seed ~items () =
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn (quality_src items)) in
  (match store with
  | Some s ->
      Cylog.Engine.journal_start
        ~storage:(Cylog.Storage.Sim.storage s)
        engine "journal"
  | None -> ());
  let config = { Cylog.Monitor.default_config with max_budget = budget } in
  let workers =
    List.map
      (fun w -> (Reldb.Value.String w, monitor_policy))
      [ "w1"; "w2"; "w3"; "w4"; "w5" ]
  in
  let workers =
    Crowd.Faults.inject ~seed (List.assoc "drop" Crowd.Faults.profiles) workers
  in
  let outcome =
    Crowd.Simulator.run ~seed ~max_rounds:400 ~lease:Cylog.Lease.default_config
      ~policy:quality_policy
      ?monitor:(if monitored then Some config else None)
      ~stop:(fun e ->
        Cylog.Engine.pending e = [] && Cylog.Engine.run e |> snd = `Quiescent)
      ~workers engine
  in
  (engine, config, outcome)

let stop_name = function
  | `Stopped -> "stopped"
  | `Stalled -> "stalled"
  | `Max_rounds -> "max-rounds"
  | `Alert _ -> "alert"

let monitor_e2e mon p =
  match List.assoc_opt "lifecycle.end_to_end" (Cylog.Monitor.histograms mon) with
  | Some h -> Cylog.Telemetry.Metrics.quantile h p
  | None -> 0.0

let budget_firings mon =
  List.filter
    (fun (f : Cylog.Monitor.firing) ->
      match f.alert with Cylog.Event.Budget_exceeded _ -> true | _ -> false)
    (Cylog.Monitor.firings mon)

(* First series round whose spent exceeds the budget — the watchdog must
   have fired on that very sample (it checks before the point is pushed),
   so the campaign stops within one round of the crossing. *)
let budget_crossing mon budget =
  List.find_map
    (fun (p : Cylog.Monitor.point) ->
      if p.p_spent > budget then Some p.p_round else None)
    (Cylog.Monitor.points mon)

type monitor_checks = {
  c_fired_once : bool;
  c_stopped_via_alert : bool;
  c_within_one_round : bool;
  c_recount : bool;
  c_recovered : bool;
}

let monitor_budget_run ~seed ~items ~budget =
  let store = Cylog.Storage.Sim.create () in
  let engine, config, outcome = monitor_campaign ~budget ~store ~seed ~items () in
  Option.iter Cylog.Journal.close (Cylog.Engine.durable_journal engine);
  let mon = Option.get (Cylog.Engine.monitor engine) in
  let live = Cylog.Monitor.view mon in
  let recount =
    Cylog.Monitor.view (Cylog.Monitor.of_events config (Cylog.Engine.events engine))
  in
  let recovered, _ =
    Cylog.Engine.recover ~storage:(Cylog.Storage.Sim.storage store) "journal"
  in
  let recovered_view =
    match Cylog.Engine.monitor recovered with
    | Some m -> Some (Cylog.Monitor.view m)
    | None -> None
  in
  let firings = budget_firings mon in
  let checks =
    {
      c_fired_once = List.length firings = 1;
      c_stopped_via_alert =
        (match outcome.stop_reason with `Alert _ -> true | _ -> false);
      c_within_one_round =
        (match (firings, budget_crossing mon budget) with
        | [ f ], Some crossing -> f.at_round <= crossing + 1
        | _ -> false);
      c_recount = recount = live;
      c_recovered = recovered_view = Some live;
    }
  in
  (engine, mon, outcome, checks)

let monitor_check_failures c =
  List.filter_map
    (fun (what, ok) -> if ok then None else Some what)
    [ ("budget alert did not fire exactly once", c.c_fired_once);
      ("campaign did not stop via the alert", c.c_stopped_via_alert);
      ("alert fired more than one round after the budget crossing",
       c.c_within_one_round);
      ("event-log recount disagrees with the live monitor", c.c_recount);
      ("recovered monitor disagrees with the live monitor", c.c_recovered) ]

let monitor_json_report ~seed ~items ~budget (engine, mon, outcome)
    (engine_b, mon_b, outcome_b, checks) =
  let stop (o : Crowd.Simulator.outcome) = J.String (stop_name o.stop_reason) in
  let observed engine mon =
    [ ("monitor", Cylog.Monitor.to_json mon);
      ("telemetry", telemetry_snapshot (Cylog.Engine.metrics engine));
      ("certificate", certificate_snapshot engine) ]
  in
  J.Obj
    [ ("benchmark", J.String "monitor"); ("seed", J.Int seed); ("items", J.Int items);
      ("campaign",
       J.Obj
         ([ ("rounds", J.Int outcome.Crowd.Simulator.rounds); ("stop", stop outcome);
            ("e2e_p50", J.Float (monitor_e2e mon 0.5));
            ("e2e_p95", J.Float (monitor_e2e mon 0.95));
            ("e2e_p99", J.Float (monitor_e2e mon 0.99)) ]
         @ observed engine mon));
      ("budget_capped",
       J.Obj
         ([ ("budget", J.Int budget); ("rounds", J.Int outcome_b.Crowd.Simulator.rounds);
            ("stop", stop outcome_b);
            ("crossing_round",
             J.Int (Option.value (budget_crossing mon_b budget) ~default:(-1)));
            ("alert_round",
             J.Int (match budget_firings mon_b with f :: _ -> f.at_round | [] -> -1));
            ("alert_fired_once", J.Bool checks.c_fired_once);
            ("stopped_via_alert", J.Bool checks.c_stopped_via_alert);
            ("stopped_within_one_round", J.Bool checks.c_within_one_round);
            ("recount_agrees", J.Bool checks.c_recount);
            ("recovered_agrees", J.Bool checks.c_recovered) ]
         @ observed engine_b mon_b)) ]

let pp_monitor_run label mon (outcome : Crowd.Simulator.outcome) =
  Format.printf
    "  %-14s %3d rounds (%s)   %3d samples   spent %4d   answers %4d   \
     e2e p50/p95/p99 %.1f/%.1f/%.1f   alerts %d@."
    label outcome.rounds (stop_name outcome.stop_reason)
    (Cylog.Monitor.samples mon) (Cylog.Monitor.spent mon)
    (Cylog.Monitor.answers mon) (monitor_e2e mon 0.5) (monitor_e2e mon 0.95)
    (monitor_e2e mon 0.99)
    (List.length (Cylog.Monitor.firings mon))

let run_monitor () =
  section "Monitor: faulted adaptive campaign — latencies, series, watchdogs";
  let seed = 7 and items = 40 in
  let budget = 60 in
  let engine, _, outcome = monitor_campaign ~seed ~items () in
  let mon = Option.get (Cylog.Engine.monitor engine) in
  pp_monitor_run "free-running" mon outcome;
  let ((_, mon_b, outcome_b, checks) as capped) =
    monitor_budget_run ~seed ~items ~budget
  in
  pp_monitor_run "budget-capped" mon_b outcome_b;
  (match budget_firings mon_b with
  | f :: _ ->
      Format.printf "  budget %d crossed at round %d, alert at round %d (%s)@."
        budget
        (Option.value (budget_crossing mon_b budget) ~default:(-1))
        f.at_round
        (Cylog.Event.alert_to_string f.alert)
  | [] -> Format.printf "  budget %d never crossed@." budget);
  write_artifact "BENCH_monitor.json"
    (monitor_json_report ~seed ~items ~budget (engine, mon, outcome) capped);
  List.iter
    (fun what -> Format.printf "  NOTE: %s@." what)
    (monitor_check_failures checks)

(* ------------------------------------------------------------------ *)
(* Telemetry: JSON-output smoke test and null-sink overhead gate       *)
(* ------------------------------------------------------------------ *)

(* The smoke gates read each JSON surface back through [Json.of_string]
   and compare content, so a printer that drops or garbles a member fails
   them, not only one that emits malformed text. *)
let read_back s = Result.to_option (J.of_string s)
let member k = function Some (J.Obj kv) -> List.assoc_opt k kv | _ -> None

(* The printed registry [v] carries exactly [m]'s counters and values. *)
let counters_read_back m v =
  let counters = Cylog.Telemetry.Metrics.counters m in
  member "counters" v = Some (J.Obj (List.map (fun (k, n) -> (k, J.Int n)) counters))

let span_read_back (s : Cylog.Telemetry.span) =
  let v = read_back (Cylog.Telemetry.span_to_json s) in
  let attrs = List.map (fun (k, x) -> (k, J.String x)) s.attrs in
  member "id" v = Some (J.Int s.id)
  && member "parent" v = Some (J.Int s.parent)
  && member "name" v = Some (J.String s.name)
  && member "started" v = Some (J.Int s.started)
  && member "ended" v = Some (J.Int s.ended)
  && member "attrs" v = (if attrs = [] then None else Some (J.Obj attrs))

(* The counters any campaign with tasks, leases and a quorum must have
   produced — the smoke contract for --metrics-out consumers. *)
let mandatory_metric_keys =
  [ "engine.events"; "engine.fired"; "open.created"; "answers.accepted";
    "lease.granted"; "quorum.votes"; "db.inserted" ]

let run_telemetry_smoke () =
  section "Telemetry smoke: faulted quorum campaign under the JSON sink";
  let src =
    {|rules:
  Item(id:1); Item(id:2); Item(id:3); Item(id:4);
  Q: LabelOf(id, label)/open <- Item(id);
|}
  in
  let engine = Cylog.Engine.load (Cylog.Parser.parse_exn src) in
  let spans = ref [] in
  Cylog.Engine.set_sink engine
    (Cylog.Telemetry.Sink.fn (fun s -> spans := s :: !spans));
  let policy engine ~worker:_ ~rng ~round:_ =
    match Cylog.Engine.pending engine with
    | [] -> Crowd.Simulator.Pass
    | pending ->
        let o = List.nth pending (Random.State.int rng (List.length pending)) in
        let label = [| "cat"; "dog" |].(Random.State.int rng 2) in
        Crowd.Simulator.Answer
          ( o.Cylog.Engine.id,
            [ ("label", Reldb.Value.String label) ],
            Crowd.Simulator.Enter_value )
  in
  let workers =
    List.map (fun w -> (Reldb.Value.String w, policy)) [ "w1"; "w2"; "w3"; "w4" ]
  in
  let workers = Crowd.Faults.inject ~seed:5 (List.assoc "drop" Crowd.Faults.profiles) workers in
  let outcome =
    Crowd.Simulator.run ~seed:5 ~max_rounds:200 ~lease:Cylog.Lease.default_config
      ~quorum:2
      ~stop:(fun e -> Cylog.Engine.pending e = [] && Cylog.Engine.run e |> snd = `Quiescent)
      ~workers engine
  in
  Format.printf "  campaign: %d rounds, %d events, %d spans@." outcome.rounds
    (List.length (Cylog.Engine.events engine))
    (List.length !spans);
  let failures = ref 0 in
  let check what ok =
    if not ok then begin
      incr failures;
      Format.printf "  FAIL: %s@." what
    end
  in
  let metrics = Cylog.Engine.metrics engine in
  check "a registry counter does not read back from the metrics JSON"
    (counters_read_back metrics
       (read_back (J.to_string (Cylog.Telemetry.Metrics.to_json metrics))));
  check "no spans were emitted" (!spans <> []);
  List.iter
    (fun (s : Cylog.Telemetry.span) ->
      check
        (Printf.sprintf "span %d does not read back from its JSON line" s.id)
        (span_read_back s))
    !spans;
  List.iter
    (fun key ->
      check
        (Printf.sprintf "mandatory metric %s missing" key)
        (Cylog.Telemetry.Metrics.counter (Cylog.Engine.metrics engine) key > 0))
    mandatory_metric_keys;
  (* The derivability invariant, end to end: recounting the journal must
     reproduce every journal-derived counter of the live registry. *)
  let recount = Cylog.Engine.metrics_of_events (Cylog.Engine.events engine) in
  let derived m =
    List.filter
      (fun (k, _) -> Cylog.Engine.journal_derived k)
      (Cylog.Telemetry.Metrics.counters m)
  in
  check "journal recount disagrees with live registry"
    (derived recount = derived (Cylog.Engine.metrics engine));
  if !failures > 0 then exit 1;
  Format.printf
    "  ok: counters and spans read back from JSON, %d mandatory keys present, journal \
     recount agrees@."
    (List.length mandatory_metric_keys)

(* Minor words a run allocates. The runs below are seeded and single-
   threaded, so the count repeats exactly and, unlike their 1–8 ms wall
   times, an on/off ratio of it can fail on a real regression. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* Allocation bounds of the telemetry-overhead gate, as on/off ratios of
   minor words. When they were set (at commit edaba29) the joins run at
   scale 10 allocated 435,666 words with metrics on vs 427,129 off
   (x1.0200), and the seed-7 monitor campaign 170,028 with the monitor on
   vs 160,881 off (x1.0569). *)
let metrics_alloc_bound = 1.03
let monitor_alloc_bound = 1.07

let alloc_gate what ~bound ~on ~off =
  let ratio = on /. Float.max 1.0 off in
  Format.printf "  %s minor words on: %.0f   off: %.0f   x%.4f@." what on off ratio;
  if ratio > bound then begin
    Format.printf "  FAIL: %s allocates more than x%.2f@." what bound;
    exit 1
  end;
  Format.printf "  ok: %s allocation within x%.2f@." what bound

let run_telemetry_overhead () =
  section "Telemetry overhead: joins with the metrics registry on vs off (null sink)";
  (* Wall-clock assertions flake; take best-of-3 and accept either the
     2%% relative bound or a small absolute floor at this tiny scale. *)
  let best f =
    List.fold_left
      (fun acc _ -> Float.min acc (f ()).j_seconds)
      Float.infinity [ (); (); () ]
  in
  ignore (joins_run ~scale:10 ~use_delta:true ()) (* warm-up *);
  let on = best (fun () -> joins_run ~scale:10 ~use_delta:true ()) in
  let off = best (fun () -> joins_run ~metrics:false ~scale:10 ~use_delta:true ()) in
  let delta = on -. off in
  let pct = 100.0 *. delta /. Float.max 1e-9 off in
  Format.printf "  metrics on: %.4fs   off: %.4fs   delta %+.4fs (%+.1f%%)@." on off
    delta pct;
  if delta > 0.05 && pct > 2.0 then begin
    Format.printf "  FAIL: instrumentation overhead above 2%% (and 0.05s)@.";
    exit 1
  end;
  Format.printf "  ok: overhead within tolerance (<=2%% or <=0.05s)@.";
  alloc_gate "metrics" ~bound:metrics_alloc_bound
    ~on:(minor_words (fun () -> joins_run ~scale:10 ~use_delta:true ()))
    ~off:(minor_words (fun () -> joins_run ~metrics:false ~scale:10 ~use_delta:true ()));
  (* Monitor sampling rides the same budget: the identical seeded faulted
     campaign with and without the monitor installed, null sink. *)
  let best_campaign monitored =
    List.fold_left
      (fun acc () ->
        let _, seconds =
          time (fun () -> monitor_campaign ~monitored ~seed:7 ~items:20 ())
        in
        Float.min acc seconds)
      Float.infinity [ (); (); () ]
  in
  ignore (monitor_campaign ~seed:7 ~items:20 ()) (* warm-up *);
  let m_on = best_campaign true in
  let m_off = best_campaign false in
  let m_delta = m_on -. m_off in
  let m_pct = 100.0 *. m_delta /. Float.max 1e-9 m_off in
  Format.printf "  monitor on: %.4fs   off: %.4fs   delta %+.4fs (%+.1f%%)@." m_on
    m_off m_delta m_pct;
  if m_delta > 0.05 && m_pct > 2.0 then begin
    Format.printf "  FAIL: monitor sampling overhead above 2%% (and 0.05s)@.";
    exit 1
  end;
  Format.printf "  ok: monitor sampling within tolerance (<=2%% or <=0.05s)@.";
  alloc_gate "monitor" ~bound:monitor_alloc_bound
    ~on:(minor_words (fun () -> monitor_campaign ~monitored:true ~seed:7 ~items:20 ()))
    ~off:(minor_words (fun () -> monitor_campaign ~monitored:false ~seed:7 ~items:20 ()))

(* The monitor regression gate, wired into [dune runtest] via the
   [monitor-smoke] alias: the budget-capped faulted campaign must fire
   the budget alert exactly once, stop via the journaled alert within
   one round of the crossing, produce parseable JSON, and recount
   byte-identically from the event log — live, and after journal
   recovery. *)
let run_monitor_smoke () =
  section "Monitor smoke: budget watchdog on the seeded faulted campaign";
  let (_, mon, outcome, checks) = monitor_budget_run ~seed:7 ~items:30 ~budget:30 in
  pp_monitor_run "budget-capped" mon outcome;
  let dashboard = Cylog.Monitor.to_json mon in
  (* JSONL: the dashboard's series then its alerts, one tagged object a
     line, carrying the rounds of the live points and firings *)
  let tagged tag = function
    | Some (J.List l) ->
        List.map (function J.Obj kv -> J.Obj (("type", J.String tag) :: kv) | v -> v) l
    | _ -> []
  in
  let lines =
    List.filter_map
      (fun l -> if l = "" then None else read_back l)
      (String.split_on_char '\n' (Cylog.Monitor.to_jsonl mon))
  in
  let rounds =
    List.map (fun (p : Cylog.Monitor.point) -> p.p_round) (Cylog.Monitor.points mon)
    @ List.map (fun (f : Cylog.Monitor.firing) -> f.at_round) (Cylog.Monitor.firings mon)
  in
  let jsonl_ok =
    lines
    = tagged "point" (member "series" (Some dashboard))
      @ tagged "alert" (member "alerts" (Some dashboard))
    && List.map (fun v -> member "round" (Some v)) lines
       = List.map (fun r -> Some (J.Int r)) rounds
  in
  let failures =
    monitor_check_failures checks
    @ List.filter_map
        (fun (what, ok) -> if ok then None else Some what)
        [ ("monitor JSON does not read back whole",
           read_back (J.to_string dashboard) = Some dashboard);
          ("monitor JSONL is not one line per series point and alert", jsonl_ok) ]
  in
  match failures with
  | [] ->
      Format.printf
        "  ok: alert fired once, campaign stopped on it, JSON and JSONL read \
         back, recount and recovery agree@."
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Serve: the sharded multi-campaign server                            *)
(* ------------------------------------------------------------------ *)

(* The serve regression gate, wired into [dune runtest] via the
   [serve-smoke] alias: a small fixed-seed fleet on in-memory storage
   must route every partitioned fact to its hash-owned shard, finish the
   campaigns with exact quorum arithmetic, merge a sane fleet monitor,
   and recover every shard's slot from its compacted journal to a
   byte-identical trace with O(live state) replay. *)
let run_serve_smoke () =
  section "Serve smoke: routing, merged monitor and recovery on a seeded fleet";
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := !failures @ [ s ]) fmt in
  let shards = 3 in
  let sims = Array.init shards (fun _ -> Cylog.Storage.Sim.create ()) in
  let server =
    Server.create ~journal_root:"serve-journal"
      ~journal_config:
        {
          Cylog.Journal.default_config with
          fsync = Cylog.Journal.Every_n 4;
          compact_every = Some 64;
        }
      ~storage:(fun i -> Cylog.Storage.Sim.storage sims.(i))
      ~shards ()
  in
  let config =
    { Crowd.Fleet_sim.default_config with campaigns = 2; items = 10; workers = 6 }
  in
  Crowd.Fleet_sim.open_campaigns server config;
  (* every Item fact must sit exactly on the shard its key hashes to *)
  let items_seen = ref 0 in
  for k = 0 to config.campaigns - 1 do
    let campaign = Crowd.Fleet_sim.campaign_name k in
    for s = 0 to shards - 1 do
      match Server.Shard.engine (Server.shard server s) ~campaign with
      | None -> fail "shard %d has no engine for %s" s campaign
      | Some e -> (
          match Reldb.Database.find (Cylog.Engine.database e) "Item" with
          | None -> ()
          | Some rel ->
              List.iter
                (fun tuple ->
                  match Reldb.Tuple.get tuple "id" with
                  | Some (Reldb.Value.Int _ as id) ->
                      incr items_seen;
                      let expect =
                        Server.Router.shard_of_values ~shards [ id ]
                      in
                      if expect <> s then
                        fail "item %s of %s landed on shard %d, hash owns %d"
                          (Reldb.Value.to_display id) campaign s expect
                  | _ -> ())
                (Reldb.Relation.tuples rel))
    done
  done;
  if !items_seen <> config.campaigns * config.items then
    fail "%d items across the fleet, expected %d (split lost or duplicated facts)"
      !items_seen
      (config.campaigns * config.items);
  let o = Crowd.Fleet_sim.run ~config server in
  let tasks = config.campaigns * config.items in
  if o.stop_reason <> `Done then fail "fleet run did not complete";
  if o.resolved <> tasks then fail "resolved %d tasks, expected %d" o.resolved tasks;
  if o.answers <> tasks * config.quorum then
    fail "accepted %d answers, expected %d" o.answers (tasks * config.quorum);
  let view = Server.stats server in
  if view.Server.Fleet.pending <> 0 then
    fail "%d tasks still pending after completion" view.Server.Fleet.pending;
  (match view.Server.Fleet.monitor with
  | None -> fail "no merged fleet monitor"
  | Some m ->
      if m.Server.Fleet.f_answers <> o.answers then
        fail "merged monitor counts %d answers, loop saw %d"
          m.Server.Fleet.f_answers o.answers;
      if m.Server.Fleet.f_retired <> tasks then
        fail "merged monitor retired %d tasks, expected %d"
          m.Server.Fleet.f_retired tasks;
      if m.Server.Fleet.f_pending <> 0 then
        fail "merged monitor reports %d pending" m.Server.Fleet.f_pending);
  (let fleet = read_back (J.to_string (Server.Fleet.to_json view)) in
   if member "requests" fleet <> Some (J.Int view.Server.Fleet.requests) then
     fail "fleet JSON requests do not read back as %d" view.Server.Fleet.requests;
   if member "live_shards" fleet <> Some (J.Int view.Server.Fleet.live_shards) then
     fail "fleet JSON live_shards do not read back as %d" view.Server.Fleet.live_shards;
   if not (counters_read_back view.Server.Fleet.metrics (member "metrics" fleet)) then
     fail "a fleet registry counter does not read back from the fleet JSON");
  (* recovery round-trip per shard: compact, recover, compare traces —
     the replay after the snapshot must be O(live state), i.e. ~nothing
     for a finished campaign *)
  let campaign = Crowd.Fleet_sim.campaign_name 0 in
  for s = 0 to shards - 1 do
    match Server.Shard.engine (Server.shard server s) ~campaign with
    | None -> fail "shard %d lost campaign %s" s campaign
    | Some e -> (
        let before = Cylog.Engine.journal_dump e in
        Cylog.Engine.compact_journal e;
        let stats = Server.recover_shard server s ~campaign () in
        match Server.Shard.engine (Server.shard server s) ~campaign with
        | None -> fail "shard %d lost campaign %s after recovery" s campaign
        | Some e' ->
            if Cylog.Engine.journal_dump e' <> before then
              fail "shard %d: recovered trace differs from the live one" s;
            if stats.Cylog.Engine.records_replayed > 2 then
              fail
                "shard %d: %d records replayed after compaction (live state \
                 only should remain)"
                s stats.Cylog.Engine.records_replayed)
  done;
  match !failures with
  | [] ->
      Format.printf
        "  ok: facts routed by hash, campaigns completed, fleet view merged, \
         every shard recovered byte-identically@."
  | failures ->
      List.iter (fun what -> Format.printf "  FAIL: %s@." what) failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", run_table1); ("figure4", run_figure4); ("figure6", run_figure6);
    ("figure10", run_figure10); ("figure11", run_figure11); ("figure12", run_figure12);
    ("figure13", run_figure13); ("figure14", run_figure14); ("figure16", run_figure16);
    ("theorems", run_theorems); ("ablations", run_ablations);
    ("joins", run_joins); ("joins-smoke", run_joins_smoke);
    ("incremental", run_incremental); ("incremental-smoke", run_incremental_smoke);
    ("quality", run_quality); ("quality-smoke", run_quality_smoke);
    ("telemetry-smoke", run_telemetry_smoke);
    ("telemetry-overhead", run_telemetry_overhead);
    ("durability", run_durability); ("durability-smoke", run_durability_smoke);
    ("monitor", run_monitor); ("monitor-smoke", run_monitor_smoke);
    ("serve-smoke", run_serve_smoke);
    ("bench", run_bench) ]

let () =
  let requested = List.tl (Array.to_list Sys.argv) in
  let to_run =
    match requested with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> Some (n, f)
            | None ->
                Format.printf "unknown experiment %S (available: %s)@." n
                  (String.concat ", " (List.map fst experiments));
                None)
          names
  in
  List.iter (fun (_, f) -> f ()) to_run
