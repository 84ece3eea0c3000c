(* Sweep config parsing/validation and grid expansion.

   The determinism contract (serial == --domains 4 == crash/resumed, byte
   for byte) is covered by the golden rules in test/dune and the fault
   harness; here we pin down the planner itself: which configs are
   accepted, which are refused with a diagnostic, and the expansion
   order that doubles as the journal's work-unit numbering. *)

module Sweep = Churnet_experiments.Sweep
module Models = Churnet_core.Models
module Scale = Churnet_experiments.Scale
module Json = Churnet_util.Json

let parse text = Sweep.config_of_json (Json.of_string_exn text)

let ok text =
  match parse text with
  | Ok cfg -> cfg
  | Error e -> Alcotest.failf "expected config to parse, got: %s" e

let rejected ~needle text =
  match parse text with
  | Ok _ -> Alcotest.failf "config unexpectedly accepted (wanted error about %S)" needle
  | Error e ->
      let lower = String.lowercase_ascii e in
      let needle_l = String.lowercase_ascii needle in
      let contains hay sub =
        let nh = String.length hay and ns = String.length sub in
        let rec go i = i + ns <= nh && (String.sub hay i ns = sub || go (i + 1)) in
        go 0
      in
      if not (contains lower needle_l) then
        Alcotest.failf "error %S does not mention %S" e needle

let smoke_grid =
  {|{"schema": "churnet-sweep-config/1", "name": "t",
     "grid": {"models": ["SDGR"], "n": [120, 240], "d": [3],
              "lambda": [1.0], "seeds": [7, 8]}}|}

let test_parse_and_expand () =
  let cfg = ok smoke_grid in
  let cells = Sweep.cells cfg in
  Alcotest.(check int) "4 cells" 4 (List.length cells);
  (* Expansion order is models -> n -> d -> lambda -> seeds: it numbers
     the journal's work units, so it is part of the on-disk format. *)
  let expect =
    [ (120, 7); (120, 8); (240, 7); (240, 8) ]
  in
  List.iter2
    (fun (n, seed) (c : Sweep.cell) ->
      Alcotest.(check int) "cell n" n c.Sweep.n;
      Alcotest.(check int) "cell seed" seed c.Sweep.cell_seed;
      Alcotest.(check int) "cell d" 3 c.Sweep.d)
    expect cells

let test_defaults () =
  let cfg =
    ok
      {|{"schema": "churnet-sweep-config/1", "name": "t",
         "grid": {"models": ["PDG"], "n": [100], "d": [2], "seeds": [1]},
         "experiments": {"ids": ["E1"]}}|}
  in
  (match cfg.Sweep.grid with
  | Some g -> Alcotest.(check (list (float 0.))) "lambda defaults to [1]" [ 1.0 ] g.Sweep.lambdas
  | None -> Alcotest.fail "grid missing");
  match cfg.Sweep.experiments with
  | Some e ->
      Alcotest.(check (list int)) "seeds default to [42]" [ 42 ] e.Sweep.exp_seeds;
      Alcotest.(check bool) "scale defaults to smoke" true (e.Sweep.exp_scale = Scale.Smoke)
  | None -> Alcotest.fail "experiments missing"

let test_config_roundtrip () =
  (* The canonical form re-parses to the same plan: what the journal
     identity digests is a fixed point of the parser. *)
  let cfg = ok smoke_grid in
  let cfg' =
    match Sweep.config_of_json (Sweep.config_to_json cfg) with
    | Ok c -> c
    | Error e -> Alcotest.failf "canonical form failed to re-parse: %s" e
  in
  Alcotest.(check bool) "same expansion" true (Sweep.cells cfg = Sweep.cells cfg')

let test_rejects_unknown_model () =
  rejected ~needle:"unknown model"
    {|{"schema": "churnet-sweep-config/1", "name": "t",
       "grid": {"models": ["QDG"], "n": [100], "d": [2], "seeds": [1]}}|}

let test_rejects_empty_axis () =
  rejected ~needle:"empty"
    {|{"schema": "churnet-sweep-config/1", "name": "t",
       "grid": {"models": ["SDG"], "n": [], "d": [2], "seeds": [1]}}|}

let test_rejects_duplicate_axis_value () =
  rejected ~needle:"repeats"
    {|{"schema": "churnet-sweep-config/1", "name": "t",
       "grid": {"models": ["SDG"], "n": [100], "d": [2], "seeds": [5, 5]}}|}

let test_rejects_unknown_experiment () =
  rejected ~needle:"unknown experiment"
    {|{"schema": "churnet-sweep-config/1", "name": "t",
       "experiments": {"ids": ["E999"]}}|}

let test_rejects_streaming_lambda () =
  rejected ~needle:"streaming"
    {|{"schema": "churnet-sweep-config/1", "name": "t",
       "grid": {"models": ["SDGR"], "n": [100], "d": [2],
                "lambda": [0.5], "seeds": [1]}}|}

let test_rejects_bad_schema () =
  rejected ~needle:"schema"
    {|{"schema": "churnet-sweep-config/2", "name": "t",
       "grid": {"models": ["SDG"], "n": [100], "d": [2], "seeds": [1]}}|};
  rejected ~needle:"schema" {|{"name": "t", "grid": {}}|}

let test_rejects_empty_config () =
  rejected ~needle:"neither"
    {|{"schema": "churnet-sweep-config/1", "name": "t"}|}

let test_rejects_bad_scale () =
  rejected ~needle:"unknown scale"
    {|{"schema": "churnet-sweep-config/1", "name": "t",
       "experiments": {"ids": ["E1"], "scale": "galactic"}}|}

let test_rejects_nonpositive () =
  rejected ~needle:"n"
    {|{"schema": "churnet-sweep-config/1", "name": "t",
       "grid": {"models": ["SDG"], "n": [1], "d": [2], "seeds": [1]}}|};
  rejected ~needle:"degree"
    {|{"schema": "churnet-sweep-config/1", "name": "t",
       "grid": {"models": ["SDG"], "n": [100], "d": [0], "seeds": [1]}}|};
  rejected ~needle:"lambda"
    {|{"schema": "churnet-sweep-config/1", "name": "t",
       "grid": {"models": ["PDG"], "n": [100], "d": [2],
                "lambda": [-1.0], "seeds": [1]}}|}

let test_config_of_file_missing () =
  match Sweep.config_of_file "no-such-sweep-config.json" with
  | Ok _ -> Alcotest.fail "missing file unexpectedly parsed"
  | Error e ->
      Alcotest.(check bool) "mentions the problem" true
        (String.length e > 0 && String.sub e 0 12 = "sweep config")

let test_grid_run_deterministic () =
  (* Two in-process runs of a tiny grid agree exactly — the cheap
     in-harness face of the golden determinism contract. *)
  let cfg =
    ok
      {|{"schema": "churnet-sweep-config/1", "name": "t",
         "grid": {"models": ["SDG", "PDGR"], "n": [80], "d": [2, 4],
                  "seeds": [3]}}|}
  in
  let o1 = Sweep.run cfg and o2 = Sweep.run cfg in
  Alcotest.(check int) "4 cells" 4 (Array.length o1.Sweep.cell_results);
  Alcotest.(check bool) "metrics identical" true
    (Json.to_string (Sweep.to_json o1) = Json.to_string (Sweep.to_json o2));
  Alcotest.(check bool) "render identical" true (Sweep.render o1 = Sweep.render o2)

(* The grid floods on one Flood.scratch per worker, so which cells share
   a scratch depends on the domain count.  The document must not: it is
   byte-identical at 1, 2 and 3 domains, over all four models.  The
   count comes from CHURNET_DOMAINS, restored afterwards ("" reads as
   unset). *)
let test_grid_json_same_at_any_domains () =
  let cfg =
    ok
      {|{"schema": "churnet-sweep-config/1", "name": "t",
         "grid": {"models": ["SDG", "SDGR", "PDG", "PDGR"], "n": [60, 400],
                  "d": [1, 4], "seeds": [5]}}|}
  in
  let saved = Option.value ~default:"" (Sys.getenv_opt "CHURNET_DOMAINS") in
  let json_at domains =
    Unix.putenv "CHURNET_DOMAINS" (string_of_int domains);
    Json.to_string (Sweep.to_json (Sweep.run cfg))
  in
  let docs =
    Fun.protect ~finally:(fun () -> Unix.putenv "CHURNET_DOMAINS" saved) (fun () ->
        List.map json_at [ 1; 2; 3 ])
  in
  List.iteri
    (fun i doc ->
      Alcotest.(check bool)
        (Printf.sprintf "%d domains = 1 domain" (i + 1))
        true
        (String.equal doc (List.hd docs)))
    docs

let suite =
  [
    ("parse and expand", `Quick, test_parse_and_expand);
    ("defaults", `Quick, test_defaults);
    ("canonical form round-trips", `Quick, test_config_roundtrip);
    ("rejects unknown model", `Quick, test_rejects_unknown_model);
    ("rejects empty axis", `Quick, test_rejects_empty_axis);
    ("rejects duplicate axis value", `Quick, test_rejects_duplicate_axis_value);
    ("rejects unknown experiment id", `Quick, test_rejects_unknown_experiment);
    ("rejects lambda on streaming model", `Quick, test_rejects_streaming_lambda);
    ("rejects bad schema", `Quick, test_rejects_bad_schema);
    ("rejects empty config", `Quick, test_rejects_empty_config);
    ("rejects bad scale", `Quick, test_rejects_bad_scale);
    ("rejects non-positive axes", `Quick, test_rejects_nonpositive);
    ("config_of_file missing file", `Quick, test_config_of_file_missing);
    ("grid run deterministic", `Quick, test_grid_run_deterministic);
    ("grid json same at any domains", `Quick, test_grid_json_same_at_any_domains);
  ]
