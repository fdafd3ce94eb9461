type open_fact = {
  relation : string;
  bound : Reldb.Tuple.t;
  open_attrs : string list;
  asked : Reldb.Value.t option;
}

type state = {
  program : Ast.program;
  builtins : Builtin.registry;
  db : Reldb.Database.t;  (* K_sure *)
  opens : open_fact list;  (* K_open, first-derivation order *)
  resolved : open_fact list;
      (* open tuples already valuated by humans: a spent question is not
         re-asked when logic re-derives it (the engine's firing memo plays
         the same role operationally) *)
}

type strategies = state -> (open_fact * (string * Reldb.Value.t) list) list

let supported (p : Ast.program) =
  let statement_ok (s : Ast.statement) =
    List.for_all
      (fun (h : Ast.head) ->
        match h.Ast.head with
        | Ast.Head_atom { kind = Ast.Update | Ast.Delete; _ } -> false
        | Ast.Head_atom _ | Ast.Head_payoff _ -> true)
      s.heads
  in
  List.for_all statement_ok p.statements
  && List.for_all
       (fun (g : Ast.game_decl) ->
         List.for_all statement_ok g.path_rules
         && List.for_all statement_ok g.payoff_rules)
       p.games

(* The reference semantics evaluates whatever it is given — admission
   policy (lint) is the operational engine's concern, and the
   differential tests drive deliberately unbounded open programs. *)
let fresh_engine (p : Ast.program) = Engine.load ~lint:`Off p

let initial p =
  if not (supported p) then
    invalid_arg "Semantics: programs with /update or /delete need the operational Engine";
  let engine = fresh_engine p in
  { program = p; builtins = Engine.builtins engine; db = Engine.database engine;
    opens = []; resolved = [] }

let sure st = st.db
let open_tuples st = st.opens
let sure_count st = Reldb.Database.total_tuples st.db

let open_fact_equal a b =
  String.equal a.relation b.relation
  && Reldb.Tuple.equal a.bound b.bound
  && a.open_attrs = b.open_attrs
  && (match (a.asked, b.asked) with
     | None, None -> true
     | Some x, Some y -> Reldb.Value.equal x y
     | _ -> false)

(* One application of T_{P,S}. We replay the program's statements over a
   copy of K_sure: every instance whose body holds over the {e input}
   K_sure contributes its head. To get the simultaneous (not cascading)
   operator, enumeration runs against the input database while insertions
   go to the output copy. Every instance is visited in conflict-resolution
   (left-to-right lexicographic) order, so open tuples keep
   first-derivation order. *)
let apply st (strategies : strategies) =
  let input_db = st.db in
  let out_db = Reldb.Database.copy st.db in
  let engine = fresh_engine st.program in
  let builtins = st.builtins in
  let statements = Engine.statements engine in
  ignore engine;
  let new_opens = ref [] in
  let add_open o =
    let pending = st.resolved @ st.opens @ List.rev !new_opens in
    if not (List.exists (open_fact_equal o) pending) then new_opens := o :: !new_opens
  in
  let insert_sure pred bindings =
    match Reldb.Database.find out_db pred with
    | None -> ()
    | Some rel -> ignore (Reldb.Relation.insert rel (Reldb.Tuple.of_list bindings))
  in
  let award player delta =
    match Reldb.Database.find out_db "Payoff" with
    | None -> ()
    | Some rel ->
        let current =
          match
            Reldb.Relation.find_by_key rel (Reldb.Tuple.of_list [ ("player", player) ])
          with
          | Some (_, tuple) -> (
              match Reldb.Tuple.get_or_null tuple "score" with
              | Reldb.Value.Null -> Reldb.Value.Int 0
              | v -> v)
          | None -> Reldb.Value.Int 0
        in
        ignore
          (Reldb.Relation.update rel
             (Reldb.Tuple.of_list
                [ ("player", player); ("score", Reldb.Value.add current delta) ]))
  in
  let apply_head env (h : Ast.head) =
    match h.Ast.head with
    | Ast.Head_payoff updates ->
        List.iter
          (fun (player_var, delta_expr) ->
            match Binding.find env player_var with
            | Some player ->
                award player (Eval.eval_expr builtins env delta_expr)
            | None -> ())
          updates
    | Ast.Head_atom { atom; kind } -> (
        let bound, opens_attrs =
          List.fold_left
            (fun (bound, opens) (arg : Ast.arg) ->
              let expr =
                match arg.bind with Ast.Auto -> Ast.Var arg.attr | Ast.Bound e -> e
              in
              match Eval.try_eval_expr builtins env expr with
              | Some v -> ((arg.attr, v) :: bound, opens)
              | None -> (bound, arg.attr :: opens))
            ([], []) atom.args
        in
        let bound = List.rev bound and opens_attrs = List.rev opens_attrs in
        match kind with
        | Ast.Assert ->
            if opens_attrs = [] then insert_sure atom.pred bound
        | Ast.Open worker ->
            let asked =
              match worker with
              | Some e -> Eval.try_eval_expr builtins env e
              | None -> None
            in
            add_open
              {
                relation = atom.pred;
                bound = Reldb.Tuple.of_list bound;
                open_attrs = opens_attrs;
                asked;
              }
        | Ast.Update | Ast.Delete -> ())
  in
  (* Immediate logical consequences over the input K_sure. *)
  List.iter
    (fun ((s : Ast.statement), _) ->
      try
        Eval.enumerate builtins input_db s.body ~init:Binding.empty
          ~f:(fun (m : Eval.matched) ->
            List.iter (apply_head m.env) s.heads;
            `Continue)
      with Eval.Error _ -> ())
    statements;
  (* Immediate human consequences: strategies valuate pending open tuples. *)
  let choices = strategies st in
  let consumed = ref [] in
  List.iter
    (fun (o, values) ->
      if List.exists (open_fact_equal o) st.opens then begin
        let bindings = Reldb.Tuple.to_list o.bound @ values in
        insert_sure o.relation bindings;
        consumed := o :: !consumed
      end)
    choices;
  let still_open o = not (List.exists (open_fact_equal o) !consumed) in
  let opens' = List.filter still_open (st.opens @ List.rev !new_opens) in
  { st with db = out_db; opens = opens'; resolved = st.resolved @ !consumed }

let db_tuples db =
  List.concat_map
    (fun rel ->
      List.map (fun t -> (Reldb.Relation.name rel, t)) (Reldb.Relation.tuples rel))
    (Reldb.Database.relations db)

let equal a b =
  let ta = List.sort compare (db_tuples a.db) and tb = List.sort compare (db_tuples b.db) in
  List.length ta = List.length tb
  && List.for_all2
       (fun (ra, tua) (rb, tub) -> String.equal ra rb && Reldb.Tuple.equal tua tub)
       ta tb
  && List.length a.opens = List.length b.opens
  && List.for_all2 open_fact_equal a.opens b.opens

let behaviour ?(bound = 1000) p strategies =
  let rec loop k states n =
    if n >= bound then (List.rev states, `Bound_reached)
    else
      let k' = apply k strategies in
      if equal k k' then (List.rev (k' :: states), `Fixpoint)
      else loop k' (k' :: states) (n + 1)
  in
  let k0 = initial p in
  loop k0 [ k0 ] 0

let conclusion ?bound p strategies =
  match behaviour ?bound p strategies with
  | states, `Fixpoint -> Some (List.nth_opt states (List.length states - 1) |> Option.get)
  | _, `Bound_reached -> None
