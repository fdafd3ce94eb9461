(* Aggregates all suites; each test_<module>.ml contributes a [suite]. *)
let () =
  Alcotest.run "cylog"
    (Test_reldb.suite @ Test_regex.suite @ Test_cylog.suite @ Test_lint.suite
   @ Test_game.suite @ Test_tweets.suite @ Test_crowd.suite
   @ Test_tweetpecker.suite @ Test_turing.suite @ Test_quality.suite
   @ Test_differential.suite @ Test_robustness.suite @ Test_telemetry.suite
   @ Test_durability.suite @ Test_monitor.suite @ Test_analysis.suite
   @ Test_server.suite @ Test_json.suite)
