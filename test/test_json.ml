(* The JSON dialect (lib/cylog/json.ml): printer/parser round trips over
   awkward strings and floats, the parser's rejections with their byte
   offsets, the float rule, and the fleet view's use of the shared card
   and null encodings. *)

open Cylog

let json = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

(* --- Round trip ---------------------------------------------------------------- *)

let gen_string =
  let open QCheck.Gen in
  let piece =
    oneofl
      [ "\""; "\\"; "/"; "\n"; "\r"; "\t"; "\000"; "\b"; "\012"; "\031"; "\127"; "a"; "Z";
        " "; "é"; "中"; "😀"; "\\u0041"; "{"; "]"; ":"; "," ]
  in
  map (String.concat "") (list_size (int_bound 8) piece)

let gen_float =
  let open QCheck.Gen in
  oneof
    [
      oneofl
        [ 0.0; -0.0; 1.0; -1.0; 0.1; 100.0; 1e16; 1e17; 1e20; 1e-7; 5e-324;
          Float.min_float; Float.max_float; -.Float.max_float; 2.5; 1.0 /. 3.0 ];
      map float_of_int int;
      map2 (fun m e -> Float.ldexp m e) (float_range (-1.0) 1.0) (int_range (-1074) 1023);
    ]

let gen_value =
  let open QCheck.Gen in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun n -> Json.Int n) (oneof [ int; oneofl [ 0; max_int; min_int ] ]);
               map (fun f -> Json.Float f) gen_float;
               map (fun s -> Json.String s) gen_string;
               return (Json.List []);
               return (Json.Obj []);
             ]
         in
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
               ( 1,
                 map
                   (fun kv -> Json.Obj kv)
                   (list_size (int_bound 4) (pair gen_string (self (depth - 1)))) );
             ])

let arb_value = QCheck.make ~print:Json.to_string gen_value

let round_trip name print =
  QCheck.Test.make ~count:500 ~name arb_value (fun v -> Json.of_string (print v) = Ok v)

(* --- Parser rejections --------------------------------------------------------- *)

let test_rejects () =
  List.iter
    (fun (what, input, offset) ->
      Alcotest.(check (result json int)) what (Error offset) (Json.of_string input))
    [
      ("trailing garbage", "{} x", 3);
      ("two values", "1 2", 2);
      ("leading zero", "01", 1);
      ("negative leading zero", "-012", 2);
      ("bad escape", {|"a\x"|}, 3);
      ("short unicode escape", {|"\u12g4"|}, 5);
      ("lone high surrogate", {|"\ud800"|}, 1);
      ("high surrogate, no low", {|"\ud800A"|}, 1);
      ("lone low surrogate", {|"\udc00"|}, 1);
      ("unterminated string", {|"abc|}, 4);
      ("unterminated escape", {|"abc\|}, 5);
      ("raw control byte", "\"a\nb\"", 2);
      ("trailing comma", "[1,]", 3);
      ("missing colon", {|{"a" 1}|}, 5);
      ("bare fraction", "1.", 2);
      ("empty input", "", 0);
    ]

let test_accepts () =
  List.iter
    (fun (input, v) -> Alcotest.(check (result json int)) input (Ok v) (Json.of_string input))
    [
      (" [ ] ", Json.List []);
      ({|{"a":-0,"b":1e3,"c":2.5E-1}|},
       Json.Obj [ ("a", Json.Int 0); ("b", Json.Float 1000.0); ("c", Json.Float 0.25) ]);
      ({|"😀é\/"|}, Json.String "😀é/");
      ("4611686018427387904", Json.Float 4611686018427387904.0);
    ]

(* --- Float rule ------------------------------------------------------------------ *)

let test_floats () =
  List.iter
    (fun (f, text) -> Alcotest.(check string) text text (Json.to_string (Json.Float f)))
    [
      (1.0, "1.0"); (100.0, "100.0"); (-0.0, "-0.0"); (0.1, "0.1"); (2.5, "2.5");
      (1.0 /. 3.0, "0.3333333333333333"); (1e20, "1e+20"); (5e-324, "5e-324");
      (Float.nan, "null"); (Float.infinity, "null"); (Float.neg_infinity, "null");
    ];
  Alcotest.(check string) "non-finite inside containers" {|{"a":[null,null]}|}
    (Json.to_string (Json.Obj [ ("a", Json.List [ Json.Float Float.nan; Json.Float Float.infinity ]) ]))

let test_pretty () =
  Alcotest.(check string) "two-space indent, empty containers inline"
    "{\n  \"a\": [\n    1,\n    {}\n  ],\n  \"b\": []\n}"
    (Json.to_string_pretty
       (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Obj [] ]); ("b", Json.List []) ]))

(* --- Fleet encodings --------------------------------------------------------- *)

let member k = function Json.Obj kv -> List.assoc_opt k kv | _ -> None

(* A 1-shard fleet with no quorum policy: nobody votes, so the fleet's
   agreement is absent (null), and its summed certificate is the one
   shard's, encoded by the same [Analysis.card_json]. *)
let test_fleet_encodings () =
  let server = Server.create ~shards:1 () in
  let config = { Crowd.Fleet_sim.default_config with campaigns = 1; items = 6; quorum = 1 } in
  Crowd.Fleet_sim.open_campaigns server config;
  ignore (Crowd.Fleet_sim.run ~config server);
  let fleet =
    match Json.of_string (Json.to_string (Server.Fleet.to_json (Server.stats server))) with
    | Ok v -> v
    | Error at -> Alcotest.failf "fleet JSON does not parse at byte %d" at
  in
  let engine =
    Option.get
      (Server.Shard.engine (Server.shard server 0)
         ~campaign:(Crowd.Fleet_sim.campaign_name 0))
  in
  let cert = Option.get (Engine.certificate engine) in
  Alcotest.(check (option json)) "certificate total_answers"
    (member "total_answers" (Analysis.certificate_json cert))
    (Option.bind (member "certificate" fleet) (member "total_answers"));
  Alcotest.(check (option json)) "agreement without votes" (Some Json.Null)
    (Option.bind (member "monitor" fleet) (member "agreement_pct"))

let suite =
  [
    ( "json",
      [
        QCheck_alcotest.to_alcotest (round_trip "compact round trip" Json.to_string);
        QCheck_alcotest.to_alcotest (round_trip "pretty round trip" Json.to_string_pretty);
        Alcotest.test_case "parser rejections and offsets" `Quick test_rejects;
        Alcotest.test_case "parser acceptances" `Quick test_accepts;
        Alcotest.test_case "float rule; NaN and infinity print as null" `Quick test_floats;
        Alcotest.test_case "pretty layout" `Quick test_pretty;
        Alcotest.test_case "1-shard fleet: certificate and null agreement" `Quick
          test_fleet_encodings;
      ] );
  ]
