(* Integration tests: the whole experiment registry at smoke scale, the
   report rendering machinery, the JSON observability layer, and the
   Scale helpers. *)
module Registry = Churnet_experiments.Registry
module Report = Churnet_experiments.Report
module Scale = Churnet_experiments.Scale
module Telemetry = Churnet_experiments.Telemetry
module Json = Churnet_util.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_scale_roundtrip () =
  (* Exhaustive over [Scale.all] so a new tier cannot dodge the test. *)
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        "roundtrip"
        (Some (Scale.to_string s))
        (Option.map Scale.to_string (Scale.of_string (Scale.to_string s))))
    Scale.all;
  check_int "all tiers present" 4 (List.length Scale.all);
  Alcotest.(check (list string))
    "names in all order" [ "smoke"; "standard"; "full"; "xl" ] Scale.names;
  check_bool "case insensitive" true (Scale.of_string "XL" = Some Scale.XL);
  check_bool "unknown" true (Scale.of_string "banana" = None)

let test_scale_pick () =
  check_int "picks smoke" 1 (Scale.pick Scale.Smoke ~smoke:1 ~standard:2 ~full:3);
  check_int "picks standard" 2 (Scale.pick Scale.Standard ~smoke:1 ~standard:2 ~full:3);
  check_int "picks full" 3 (Scale.pick Scale.Full ~smoke:1 ~standard:2 ~full:3);
  check_int "picks xl" 4 (Scale.pick ~xl:4 Scale.XL ~smoke:1 ~standard:2 ~full:3);
  check_int "xl defaults to full" 3 (Scale.pick Scale.XL ~smoke:1 ~standard:2 ~full:3)

let test_registry_lookup () =
  check_bool "finds E1" true (Registry.find "E1" <> None);
  check_bool "case insensitive" true (Registry.find "e10" <> None);
  check_bool "unknown" true (Registry.find "Z9" = None);
  check_int "twelve table1 cells" 12 (List.length Registry.table1);
  check_bool "figures present" true (List.length Registry.figures >= 11);
  check_bool "extensions present" true (List.length Registry.extensions >= 4);
  check_bool "theory present" true (List.length Registry.theory >= 1)

let test_registry_ids_unique () =
  let ids = List.map (fun (e : Registry.entry) -> e.id) Registry.all in
  check_int "no duplicate ids" (List.length ids) (List.length (List.sort_uniq String.compare ids))

let test_report_rendering () =
  let r =
    Report.make ~id:"Z0" ~title:"demo"
      [
        Report.check ~claim:"c" ~expected:"e" ~measured:"m" ~holds:true;
        Report.check ~claim:"c2" ~expected:"e2" ~measured:"m2" ~holds:false;
      ]
  in
  check_bool "not all hold" false (Report.all_hold r);
  let s = Report.render r in
  let contains needle hay =
    let found = ref false in
    for i = 0 to String.length hay - String.length needle do
      if String.sub hay i (String.length needle) = needle then found := true
    done;
    !found
  in
  check_bool "has PASS" true (contains "PASS" s);
  check_bool "has FAIL" true (contains "FAIL" s);
  Alcotest.(check (list string)) "summary row" [ "Z0"; "demo"; "1/2 checks hold" ]
    (Report.summary_row r)

(* The heavyweight one: every registered experiment must run at smoke
   scale and every paper-direction check must hold (fixed seed). *)
let test_every_experiment_smoke () =
  List.iter
    (fun (e : Registry.entry) ->
      let r = e.run ~seed:2024 ~scale:Scale.Smoke in
      check_bool (Printf.sprintf "%s id matches" e.id) true (r.Report.id = e.id);
      check_bool
        (Printf.sprintf "%s all checks hold at smoke scale" e.id)
        true (Report.all_hold r))
    Registry.all

let test_run_all_subset () =
  let reports = Registry.run_all ~ids:[ "E12"; "T1" ] ~seed:7 ~scale:Scale.Smoke () in
  check_int "two reports" 2 (List.length reports);
  let summary = Registry.summary reports in
  check_bool "summary renders" true (String.length (Churnet_util.Table.render summary) > 0)

let contains needle hay =
  let nl = String.length needle in
  let found = ref false in
  for i = 0 to String.length hay - nl do
    if String.sub hay i nl = needle then found := true
  done;
  !found

(* Regression: a misspelled id used to be dropped silently, so the caller
   simply got fewer reports.  Now every unknown id must be named. *)
let test_run_all_unknown_ids_raise () =
  let expect_invalid ids expected_fragments =
    match Registry.run_all ~ids ~seed:7 ~scale:Scale.Smoke () with
    | _ -> Alcotest.fail "unknown id accepted silently"
    | exception Invalid_argument msg ->
        List.iter
          (fun frag ->
            check_bool (Printf.sprintf "error mentions %s" frag) true (contains frag msg))
          expected_fragments
  in
  (* unknown alone, and mixed with perfectly valid ids *)
  expect_invalid [ "Z9" ] [ "Z9"; "E1" ];
  expect_invalid [ "E12"; "NOPE"; "T1"; "ALSO_BAD" ] [ "NOPE"; "ALSO_BAD" ];
  (* run_timed validates identically *)
  (match Registry.run_timed ~ids:[ "Z9" ] ~seed:7 ~scale:Scale.Smoke () with
  | _ -> Alcotest.fail "run_timed accepted unknown id"
  | exception Invalid_argument _ -> ());
  (* and valid ids still work, case-insensitively *)
  check_int "valid subset unaffected" 1
    (List.length (Registry.run_all ~ids:[ "t1" ] ~seed:7 ~scale:Scale.Smoke ()))

(* The --json schema: run one real experiment, serialize through the
   CLI's envelope, parse it back with our own parser, and verify every
   check carries holds plus the nullable typed payloads. *)
let test_json_schema_smoke () =
  let timed = Registry.run_timed ~ids:[ "E1" ] ~seed:2024 ~scale:Scale.Smoke () in
  let doc = Registry.reports_to_json ~seed:2024 ~scale:Scale.Smoke ~domains:1 timed in
  let parsed = Json.of_string_exn (Json.to_string ~pretty:true doc) in
  check_bool "schema tag" true
    (Option.bind (Json.member "schema" parsed) Json.as_string
    = Some "churnet-report/1");
  check_bool "seed" true (Option.bind (Json.member "seed" parsed) Json.as_int = Some 2024);
  let reports = Json.as_list (Option.get (Json.member "reports" parsed)) in
  check_int "one report" 1 (List.length reports);
  let report = List.hd reports in
  check_bool "id" true
    (Option.bind (Json.member "id" report) Json.as_string = Some "E1");
  check_bool "all_hold present" true
    (Option.bind (Json.member "all_hold" report) Json.as_bool <> None);
  let checks = Json.as_list (Option.get (Json.member "checks" report)) in
  let (r, _) = List.hd timed in
  check_int "every check serialized" (List.length r.Report.checks) (List.length checks);
  check_bool "checks nonempty" true (checks <> []);
  List.iter
    (fun c ->
      check_bool "check has holds" true
        (Option.bind (Json.member "holds" c) Json.as_bool <> None);
      check_bool "check has claim" true
        (Option.bind (Json.member "claim" c) Json.as_string <> None);
      (* typed payloads are present as keys (value may be null) *)
      check_bool "check has expected_value key" true (Json.member "expected_value" c <> None);
      check_bool "check has measured_value key" true (Json.member "measured_value" c <> None))
    checks;
  (* E1's first check carries the typed scalar pair *)
  let first = List.hd checks in
  check_bool "typed expected_value" true
    (Option.bind (Json.member "expected_value" first) Json.as_float <> None);
  check_bool "typed measured_value" true
    (Option.bind (Json.member "measured_value" first) Json.as_float <> None);
  (* telemetry rides along with sane fields *)
  let tele = Option.get (Json.member "telemetry" report) in
  check_bool "wall_seconds >= 0" true
    (match Option.bind (Json.member "wall_seconds" tele) Json.as_float with
    | Some w -> w >= 0.
    | None -> false);
  check_bool "minor_words present" true
    (Option.bind (Json.member "minor_words" tele) Json.as_float <> None);
  check_bool "scale string" true
    (Option.bind (Json.member "scale" tele) Json.as_string = Some "smoke");
  (* tables survive as headers + rows *)
  let tables = Json.as_list (Option.get (Json.member "tables" report)) in
  check_int "table count" (List.length r.Report.tables) (List.length tables)

(* Per-cell RSS attribution: VmHWM is process-wide and monotone, so in a
   multi-cell run every cell after the first inherits the maximum of its
   predecessors.  Two dummy cells of very different footprints: the big
   one must claim the watermark (cell_peak_rss_kb set), the tiny one
   that follows must inherit the absolute number but NOT claim it. *)
let test_cell_peak_rss_attribution () =
  match Telemetry.peak_rss_kb () with
  | None -> () (* no procfs: nothing to attribute *)
  | Some baseline_kb when baseline_kb > 2_000_000 ->
      (* pathological watermark (> 2 GB): pushing past it would OOM the
         test runner, and the attribution logic is watermark-relative
         anyway *)
      ()
  | Some baseline_kb ->
      let big_bytes = (baseline_kb * 1024) + (96 * 1024 * 1024) in
      let _, t1 =
        Telemetry.measure ~seed:0 ~scale:Scale.Smoke ~domains:1 (fun () ->
            (* Bytes.make touches every page, so RSS really reaches the
               target and the watermark must rise during this cell *)
            Sys.opaque_identity (Bytes.length (Bytes.make big_bytes 'x')))
      in
      let _, t2 =
        Telemetry.measure ~seed:0 ~scale:Scale.Smoke ~domains:1 (fun () ->
            Sys.opaque_identity (Array.length (Array.make 8 0)))
      in
      check_bool "big cell claims the watermark" true (t1.Telemetry.cell_peak_rss_kb <> None);
      check_bool "big cell per-cell equals absolute" true
        (t1.Telemetry.cell_peak_rss_kb = t1.Telemetry.peak_rss_kb);
      check_bool "tiny cell does not claim the inherited watermark" true
        (t2.Telemetry.cell_peak_rss_kb = None);
      check_bool "tiny cell still reports the absolute watermark" true
        (match (t1.Telemetry.peak_rss_kb, t2.Telemetry.peak_rss_kb) with
        | Some big, Some after -> after >= big
        | _ -> false)

(* The per-cell words must be current.  [Gc.quick_stat]'s word counts
   advance only when the GC runs, so through them a small allocation
   right after a minor collection reads as zero words.  A 1000-element
   list is 3000 minor words; a 10 000-element array goes straight to the
   major heap. *)
let test_measure_words_current () =
  Gc.minor ();
  let _, t =
    Telemetry.measure ~seed:0 ~scale:Scale.Smoke ~domains:1 (fun () ->
        Sys.opaque_identity (List.init 1000 Fun.id))
  in
  let minor = t.Telemetry.minor_words in
  if not (minor >= 3000. && minor <= 10_000.) then
    Alcotest.failf "list: %.0f minor words, expected 3000..10000" minor;
  let _, t =
    Telemetry.measure ~seed:0 ~scale:Scale.Smoke ~domains:1 (fun () ->
        Sys.opaque_identity (Array.make 10_000 0))
  in
  let major = t.Telemetry.major_words in
  if major < 10_000. then Alcotest.failf "array: %.0f major words, expected >= 10000" major

(* A domain's live counters see only that domain, so the words that
   [Parallel.map]'s workers allocate must reach the calling cell some
   other way: two workers each allocating a 3000-word list and a
   10 000-word array make at least 6000 minor and 20 000 major words. *)
let test_measure_words_parallel () =
  let _, t =
    Telemetry.measure ~seed:0 ~scale:Scale.Smoke ~domains:2 (fun () ->
        Churnet_util.Parallel.map ~domains:2
          (fun k ->
            ignore (Sys.opaque_identity (List.init 1000 Fun.id));
            Array.length (Sys.opaque_identity (Array.make 10_000 k)))
          [| 0; 1 |])
  in
  let minor = t.Telemetry.minor_words and major = t.Telemetry.major_words in
  if not (minor >= 6000. && minor <= 20_000.) then
    Alcotest.failf "workers: %.0f minor words, expected 6000..20000" minor;
  if major < 20_000. then
    Alcotest.failf "workers: %.0f major words, expected >= 20000" major

(* Text rendering must be byte-identical whether or not JSON is emitted:
   same seed, one run through run_all, one through run_timed (+ to_json),
   identical bytes. *)
let test_render_unchanged_by_json_emission () =
  let plain = Registry.run_all ~ids:[ "T1" ] ~seed:2024 ~scale:Scale.Smoke () in
  let timed = Registry.run_timed ~ids:[ "T1" ] ~seed:2024 ~scale:Scale.Smoke () in
  (* emit JSON from the timed run before rendering, to prove emission
     does not disturb the text *)
  let _json =
    Json.to_string (Registry.reports_to_json ~seed:2024 ~scale:Scale.Smoke ~domains:1 timed)
  in
  let render reports = String.concat "" (List.map Report.render reports) in
  Alcotest.(check string)
    "byte-identical rendering" (render plain)
    (render (List.map fst timed))

let suite =
  [
    ("scale roundtrip", `Quick, test_scale_roundtrip);
    ("scale pick", `Quick, test_scale_pick);
    ("registry lookup", `Quick, test_registry_lookup);
    ("registry ids unique", `Quick, test_registry_ids_unique);
    ("report rendering", `Quick, test_report_rendering);
    ("every experiment at smoke scale", `Slow, test_every_experiment_smoke);
    ("run_all subset", `Quick, test_run_all_subset);
    ("run_all unknown ids raise", `Quick, test_run_all_unknown_ids_raise);
    ("json schema smoke", `Quick, test_json_schema_smoke);
    ("cell peak rss attribution", `Quick, test_cell_peak_rss_attribution);
    ("measure words current", `Quick, test_measure_words_current);
    ("measure words parallel", `Quick, test_measure_words_parallel);
    ("render unchanged by json emission", `Quick, test_render_unchanged_by_json_emission);
  ]
