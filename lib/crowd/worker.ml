type rule_strategy =
  | No_rules
  | Haphazard of { spread : float; good_ratio : float }
  | Front_loaded of { count : int }

type profile = {
  name : string;
  accuracy : float;
  place_accuracy : float;
  diligence : float;
  honest_selection : bool;
  rule_strategy : rule_strategy;
}

let diligent ?(rule_strategy = No_rules) name =
  {
    name;
    accuracy = 0.8;
    place_accuracy = 0.93;
    diligence = 0.95;
    honest_selection = true;
    rule_strategy;
  }

let rational ?(rule_count = 2) name =
  diligent ~rule_strategy:(Front_loaded { count = rule_count }) name

let sloppy name =
  {
    name;
    accuracy = 0.6;
    place_accuracy = 0.8;
    diligence = 0.7;
    honest_selection = false;
    rule_strategy = No_rules;
  }

let crowd make n = List.init n (fun i -> make (Printf.sprintf "w%d" (i + 1)))

let noisy_label rng ~accuracy truth =
  if Random.State.float rng 1.0 < accuracy then truth
  else
    Reldb.Value.String
      (Printf.sprintf "%s#%d" (Reldb.Value.to_display truth) (1 + Random.State.int rng 2))
