(* churnet command-line interface: list / run / all / demo. *)

open Cmdliner
module Registry = Churnet_experiments.Registry
module Report = Churnet_experiments.Report
module Scale = Churnet_experiments.Scale
module Telemetry = Churnet_experiments.Telemetry
module Checkpoint = Churnet_util.Checkpoint
module Codec = Churnet_util.Codec

let seed_arg =
  let doc = "PRNG seed (every run is deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let domains_arg =
  let doc =
    "Worker domains for the trial-parallel experiments (overrides \
     $(b,CHURNET_DOMAINS)).  Per-trial PRNGs are pre-split \
     deterministically, so results are bit-identical whatever the value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let apply_domains = function
  | None -> (
      (* Validate an inherited CHURNET_DOMAINS up front so a typo fails
         with a clean message, not mid-experiment — and with the same
         exit code (124) cmdliner uses for a malformed option, since a
         bad env var is the same class of usage error as a bad flag. *)
      try ignore (Churnet_util.Parallel.domains_from_env ())
      with Invalid_argument msg ->
        Printf.eprintf "churnet: %s\n" msg;
        exit 124)
  | Some d ->
      if d < 1 then begin
        Printf.eprintf "--domains must be a positive integer\n";
        exit 1
      end;
      Unix.putenv "CHURNET_DOMAINS" (string_of_int d)

let csv_arg =
  let doc = "Also write every table of the report(s) as CSV files into $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let json_arg =
  let doc =
    "Also write the structured report(s) — checks with typed \
     expected/measured values, tables, figures and per-experiment \
     telemetry (wall-clock, GC deltas) — as JSON to $(docv).  The text \
     rendering is unchanged."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let write_json path ~seed ~scale timed =
  let domains = Churnet_util.Parallel.domains_from_env () in
  let doc = Registry.reports_to_json ~seed ~scale ~domains timed in
  Churnet_util.Json.write_file ~pretty:true path doc;
  Printf.eprintf "wrote %s\n%!" path

let write_csvs dir (report : Report.t) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iteri
    (fun i table ->
      let path = Filename.concat dir (Printf.sprintf "%s_table%d.csv" report.id (i + 1)) in
      let oc = open_out path in
      output_string oc (Churnet_util.Table.to_csv table);
      close_out oc;
      Printf.eprintf "wrote %s\n%!" path)
    report.tables

(* --- checkpoint/resume ------------------------------------------------ *)

let ckpt_arg =
  let doc =
    "Journal completed work units to $(docv) so a killed run can be \
     resumed with $(b,--resume).  Starts a fresh journal, overwriting \
     any existing file."
  in
  Arg.(value & opt (some string) None & info [ "ckpt" ] ~docv:"FILE" ~doc)

let every_arg =
  let doc = "Persist the checkpoint journal after every $(docv) completed work units." in
  Arg.(value & opt int 1 & info [ "checkpoint-every" ] ~docv:"K" ~doc)

let resume_arg =
  let doc =
    "Resume from the checkpoint journal at $(docv): cached work units \
     are restored, the rest recomputed, and the output is byte-identical \
     to an uninterrupted run.  The journal must come from the same \
     binary, command, seed and scale.  Continues journaling to the same \
     file unless $(b,--ckpt) overrides the path."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let crash_at_arg =
  let doc =
    "Fault injection: SIGKILL this process as the $(docv)-th freshly \
     computed work unit completes.  Exercises the crash/resume \
     guarantee; used by the fault harness."
  in
  Arg.(value & opt (some int) None & info [ "crash-at" ] ~docv:"K" ~doc)

let exe_digest () = Digest.to_hex (Digest.file Sys.executable_name)

let arm_crash = function
  | None -> ()
  | Some k ->
      if k < 1 then begin
        Printf.eprintf "--crash-at must be >= 1\n";
        exit 1
      end;
      Checkpoint.crash_after k (fun () -> Unix.kill (Unix.getpid ()) Sys.sigkill)

(* The meta line ties a journal to (binary, command, seed, scale): its
   payloads are Marshal data, only safe to decode in the exact context
   that wrote them.  Crash flags are deliberately excluded — a resumed
   run drops them. *)
let journal_meta ~cmd ~seed ~scale =
  Printf.sprintf "churnet exe=%s cmd=%s seed=%d scale=%s" (exe_digest ()) cmd seed
    (Scale.to_string scale)

let setup_journal ~ckpt ~resume ~every ~meta =
  if every < 1 then begin
    Printf.eprintf "--checkpoint-every must be >= 1\n";
    exit 1
  end;
  Checkpoint.set_clock Telemetry.now;
  match
    match (resume, ckpt) with
    | Some path, _ -> Some (Checkpoint.load ~path ~every ~meta)
    | None, Some path -> Some (Checkpoint.create ~path ~every ~meta)
    | None, None -> None
  with
  | None -> None
  | Some j ->
      Checkpoint.install j;
      Some j
  | exception Checkpoint.Mismatch msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  | exception Codec.Error msg ->
      Printf.eprintf "corrupt checkpoint: %s\n" msg;
      exit 1
  | exception Sys_error msg ->
      Printf.eprintf "checkpoint error: %s\n" msg;
      exit 1

(* Checkpoint chatter goes to stderr: stdout must stay byte-identical to
   an uncheckpointed run (that is the whole guarantee). *)
let finish_journal = function
  | None -> ()
  | Some j ->
      Checkpoint.finalize j;
      let s = Checkpoint.stats j in
      Printf.eprintf "checkpoint: %d units stored, %d restored, %d writes (%.3fs)\n%!"
        s.Checkpoint.units_stored s.Checkpoint.units_restored s.Checkpoint.writes
        s.Checkpoint.write_seconds

let scale_arg =
  let doc = "Effort level: smoke, standard, full or xl." in
  let parse s =
    match Scale.of_string s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown scale %S (valid: %s)" s
               (String.concat ", " Scale.names)))
  in
  let print fmt v = Format.pp_print_string fmt (Scale.to_string v) in
  Arg.(
    value
    & opt (conv (parse, print)) Scale.Standard
    & info [ "scale" ] ~docv:"SCALE" ~doc)

let list_cmd =
  let run () =
    let table = Churnet_util.Table.create [ "id"; "group"; "title" ] in
    List.iter
      (fun (e : Registry.entry) ->
        Churnet_util.Table.add_row table [ e.id; e.group; e.title ])
      Registry.all;
    Churnet_util.Table.print table
  in
  Cmd.v (Cmd.info "list" ~doc:"List all experiments (Table 1 cells and figures).")
    Term.(const run $ const ())

let run_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id (e.g. E1, F3).")
  in
  let run id seed scale csv json domains ckpt resume every crash_at =
    apply_domains domains;
    match Registry.find id with
    | None ->
        Printf.eprintf "unknown experiment %S; try `churnet list`\n" id;
        exit 1
    | Some e ->
        arm_crash crash_at;
        let meta = journal_meta ~cmd:("run:" ^ e.id) ~seed ~scale in
        let journal = setup_journal ~ckpt ~resume ~every ~meta in
        let report, telemetry =
          Telemetry.measure ~seed ~scale (fun () -> e.run ~seed ~scale)
        in
        finish_journal journal;
        print_string (Report.render report);
        (match csv with Some dir -> write_csvs dir report | None -> ());
        (match json with
        | Some path -> write_json path ~seed ~scale [ (report, telemetry) ]
        | None -> ());
        if not (Report.all_hold report) then exit 2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment and print its paper-vs-measured report.")
    Term.(
      const run $ id_arg $ seed_arg $ scale_arg $ csv_arg $ json_arg $ domains_arg
      $ ckpt_arg $ resume_arg $ every_arg $ crash_at_arg)

let all_cmd =
  let group_arg =
    let doc = "Restrict to a group: table1, figures, extensions or theory." in
    Arg.(value & opt (some string) None & info [ "group" ] ~docv:"GROUP" ~doc)
  in
  let run group seed scale csv json domains ckpt resume every crash_at =
    apply_domains domains;
    let entries =
      match group with
      | Some "table1" -> Registry.table1
      | Some "figures" -> Registry.figures
      | Some "extensions" -> Registry.extensions
      | Some "theory" -> Registry.theory
      | Some other ->
          Printf.eprintf "unknown group %S (use table1, figures, extensions or theory)\n" other;
          exit 1
      | None -> Registry.all
    in
    arm_crash crash_at;
    let meta =
      journal_meta ~cmd:("all:" ^ Option.value ~default:"all" group) ~seed ~scale
    in
    let journal = setup_journal ~ckpt ~resume ~every ~meta in
    let timed =
      List.map
        (fun (e : Registry.entry) ->
          Printf.printf "... running %s (%s)\n%!" e.id e.title;
          Telemetry.measure ~seed ~scale (fun () -> e.run ~seed ~scale))
        entries
    in
    finish_journal journal;
    let reports = List.map fst timed in
    List.iter (fun r -> print_string (Report.render r)) reports;
    (match csv with
    | Some dir -> List.iter (write_csvs dir) reports
    | None -> ());
    (match json with
    | Some path -> write_json path ~seed ~scale timed
    | None -> ());
    print_newline ();
    Churnet_util.Table.print (Registry.summary reports);
    if not (List.for_all Report.all_hold reports) then exit 2
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment and print a roll-up summary.")
    Term.(
      const run $ group_arg $ seed_arg $ scale_arg $ csv_arg $ json_arg $ domains_arg
      $ ckpt_arg $ resume_arg $ every_arg $ crash_at_arg)

let demo_cmd =
  let run seed =
    let rng = Churnet_util.Prng.create seed in
    Printf.printf "Building a PDGR network (n = 1000, d = 8) and flooding it...\n%!";
    let m =
      Churnet_core.Poisson_model.create ~rng ~n:1000 ~d:8 ~regenerate:true ()
    in
    Churnet_core.Poisson_model.warm_up m;
    let tr = Churnet_core.Flood.run_poisson_discretized m in
    Printf.printf "population %d, informed %d, completed %b in %s rounds\n"
      tr.final_population tr.final_informed tr.completed
      (match tr.completion_round with Some r -> string_of_int r | None -> "-");
    Array.iteri
      (fun i inf -> Printf.printf "  round %2d: %4d informed / %4d alive\n" i inf
          tr.population_per_round.(i))
      tr.informed_per_round
  in
  Cmd.v (Cmd.info "demo" ~doc:"Tiny end-to-end demo: flood a PDGR network.")
    Term.(const run $ seed_arg)

let fingerprint_cmd =
  let kind_arg =
    let doc = "Model kind: SDG, SDGR, PDG or PDGR." in
    Arg.(value & opt string "PDGR" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_arg = Arg.(value & opt int 2000 & info [ "n"; "size" ] ~docv:"N" ~doc:"Stationary population.") in
  let d_arg = Arg.(value & opt int 8 & info [ "d"; "degree" ] ~docv:"D" ~doc:"Out-degree.") in
  let dot_arg =
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Also write a Graphviz DOT rendering of the snapshot.")
  in
  let run kind n d seed dot =
    match Churnet_core.Models.kind_of_string kind with
    | None ->
        Printf.eprintf "unknown model kind %S (use SDG/SDGR/PDG/PDGR)\n" kind;
        exit 1
    | Some k ->
        let rng = Churnet_util.Prng.create seed in
        let m = Churnet_core.Models.create ~rng k ~n ~d in
        Churnet_core.Models.warm_up_batch m;
        let snap = Churnet_core.Models.snapshot m in
        let fp = Churnet_graph.Metrics.fingerprint ~rng snap in
        let table = Churnet_util.Table.create [ "metric"; "value" ] in
        let add l v = Churnet_util.Table.add_row table [ l; v ] in
        add "model" (Churnet_core.Models.kind_name k);
        add "nodes" (string_of_int fp.nodes);
        add "edges" (string_of_int fp.edges);
        add "mean degree" (Churnet_util.Table.fmt_float ~digits:2 fp.mean_degree);
        add "max degree" (string_of_int fp.max_degree);
        add "degree gini" (Churnet_util.Table.fmt_float ~digits:3 fp.degree_gini);
        add "global clustering" (Churnet_util.Table.fmt_float ~digits:4 fp.global_clustering);
        add "assortativity" (Churnet_util.Table.fmt_float ~digits:3 fp.assortativity);
        add "mean distance" (Churnet_util.Table.fmt_float ~digits:2 fp.mean_distance);
        add "diameter >=" (string_of_int fp.diameter_lb);
        add "giant component" (Churnet_util.Table.fmt_pct fp.giant_fraction);
        Churnet_util.Table.print table;
        match dot with
        | None -> ()
        | Some path ->
            let oc = open_out path in
            output_string oc (Churnet_graph.Snapshot.to_dot snap);
            close_out oc;
            Printf.eprintf "wrote %s\n%!" path
  in
  Cmd.v
    (Cmd.info "fingerprint" ~doc:"Print the topology fingerprint of a warmed-up model snapshot.")
    Term.(const run $ kind_arg $ n_arg $ d_arg $ seed_arg $ dot_arg)

let flood_cmd =
  let kind_arg =
    let doc = "Model kind: SDG, SDGR, PDG or PDGR." in
    Arg.(value & opt string "SDGR" & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let n_arg = Arg.(value & opt int 1000 & info [ "n"; "size" ] ~docv:"N" ~doc:"Stationary population.") in
  let d_arg = Arg.(value & opt int 8 & info [ "d"; "degree" ] ~docv:"D" ~doc:"Out-degree.") in
  let run kind n d seed =
    match Churnet_core.Models.kind_of_string kind with
    | None ->
        Printf.eprintf "unknown model kind %S (use SDG/SDGR/PDG/PDGR)\n" kind;
        exit 1
    | Some k ->
        let rng = Churnet_util.Prng.create seed in
        let m = Churnet_core.Models.create ~rng k ~n ~d in
        Churnet_core.Models.warm_up_batch m;
        let tr = Churnet_core.Models.flood m in
        Printf.printf "flooding a %s network (n = %d, d = %d, seed %d)\n\n"
          (Churnet_core.Models.kind_name k) n d seed;
        Array.iteri
          (fun i inf ->
            let pop = tr.Churnet_core.Flood.population_per_round.(i) in
            Printf.printf "  round %3d: %6d / %6d informed (%.1f%%)\n" i inf pop
              (100. *. float_of_int inf /. float_of_int pop))
          tr.Churnet_core.Flood.informed_per_round;
        (match tr.Churnet_core.Flood.completion_round with
        | Some r -> Printf.printf "\ncompleted in %d rounds\n" r
        | None when tr.Churnet_core.Flood.extinct ->
            Printf.printf "\nrumor went extinct at round %s (peak coverage %.1f%%)\n"
              (match tr.Churnet_core.Flood.extinction_round with
              | Some r -> string_of_int r
              | None -> "?")
              (100. *. tr.Churnet_core.Flood.peak_coverage)
        | None ->
            Printf.printf "\ndid not complete (peak coverage %.1f%%)\n"
              (100. *. tr.Churnet_core.Flood.peak_coverage))
  in
  Cmd.v
    (Cmd.info "flood" ~doc:"Run one flooding experiment and print the round-by-round trace.")
    Term.(const run $ kind_arg $ n_arg $ d_arg $ seed_arg)

(* Declarative grid sweeps.  stdout (the rendered sweep) and the --json
   trajectory file are pure functions of the config: telemetry, progress
   and checkpoint chatter all go to stderr, so a serial, a --domains 4
   and a crash/resumed run of the same config are byte-comparable. *)
let sweep_cmd =
  let module Sweep = Churnet_experiments.Sweep in
  let config_arg =
    let doc =
      "Sweep grid config (JSON, schema churnet-sweep-config/1): a \
       \"grid\" of model/n/d/lambda/seeds axes and/or an \"experiments\" \
       list of registry ids with seeds and a scale."
    in
    Arg.(required & opt (some string) None & info [ "config" ] ~docv:"FILE" ~doc)
  in
  let sweep_json_arg =
    let doc =
      "Write the aggregated churnet-sweep/1 trajectory document (config \
       echo, per-experiment reports, per-cell metrics, figures) to \
       $(docv).  Byte-identical for a given config whatever the domain \
       count or crash/resume history."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run config json domains ckpt resume every crash_at =
    apply_domains domains;
    match Sweep.config_of_file config with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok cfg ->
        arm_crash crash_at;
        (* The journal identity is the canonical config digest: resuming
           under an edited grid must be refused (cell index = work-unit
           index), while an irrelevant CLI detail like the config's path
           must not invalidate the journal. *)
        let meta =
          Printf.sprintf "churnet exe=%s cmd=sweep:%s" (exe_digest ())
            (Digest.to_hex
               (Digest.string (Churnet_util.Json.to_string (Sweep.config_to_json cfg))))
        in
        let journal = setup_journal ~ckpt ~resume ~every ~meta in
        let progress line = Printf.eprintf "... %s\n%!" line in
        let outcome = Sweep.run ~progress cfg in
        finish_journal journal;
        print_string (Sweep.render outcome);
        List.iter
          (fun (e : Sweep.exp_result) ->
            Printf.eprintf "telemetry %s seed %d: %.3fs%s\n%!" e.exp_id e.exp_seed
              e.telemetry.Telemetry.wall_seconds
              (match e.telemetry.Telemetry.cell_peak_rss_kb with
              | Some kb -> Printf.sprintf ", cell peak rss %d kB" kb
              | None -> ""))
          outcome.Sweep.exp_results;
        (match json with
        | Some path ->
            Churnet_util.Json.write_file ~pretty:true path (Sweep.to_json outcome);
            Printf.eprintf "wrote %s\n%!" path
        | None -> ());
        if not (Sweep.all_hold outcome) then exit 2
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a declarative parameter sweep from a grid config and \
          aggregate one churnet-sweep/1 trajectory document (resumable \
          with --ckpt/--resume).")
    Term.(
      const run $ config_arg $ sweep_json_arg $ domains_arg $ ckpt_arg $ resume_arg
      $ every_arg $ crash_at_arg)

(* State-level checkpointing demo: the scripted record/replay run of the
   byte-equality suite (graph seed 4242, script seed 999, d = 3, 150
   steps), checkpointed as a full state snapshot — step counter, script
   PRNG, graph arena, event log — rather than a work-unit journal.  It
   runs the [Prng] and [Dyngraph] state codecs end-to-end (the event log
   travels in its own text format): a run killed at any step and resumed
   must print the identical event stream and replay DOT. *)
let record_replay_cmd =
  let module Dyngraph = Churnet_graph.Dyngraph in
  let module Event_log = Churnet_graph.Event_log in
  let module Snapshot = Churnet_graph.Snapshot in
  let module Prng = Churnet_util.Prng in
  let steps = 150 in
  (* State codecs are binary-portable (no Marshal), so unlike the
     work-unit journal this meta carries no executable digest. *)
  let meta = "churnet-record-replay graph-seed=4242 script-seed=999 d=3 steps=150" in
  let save path ~step ~script g log =
    Codec.write_file ~schema:Codec.schema path (fun w ->
        Codec.string w meta;
        Codec.varint w step;
        Prng.encode w script;
        Dyngraph.encode w g;
        Codec.string w (Event_log.to_string log))
  in
  let load path =
    let r = Codec.read_file ~schema:Codec.schema path in
    let stored = Codec.read_string r in
    if stored <> meta then begin
      Printf.eprintf
        "checkpoint %s is not a record-replay state\n  stored:  %s\n  current: %s\n"
        path stored meta;
      exit 1
    end;
    let step = Codec.read_varint r in
    let script = Prng.decode r in
    let g = Dyngraph.decode r in
    let log_text = Codec.read_string r in
    Codec.expect_end r;
    match Event_log.of_string log_text with
    | Ok log -> (step, script, g, log)
    | Error e ->
        Printf.eprintf "corrupt event log in checkpoint %s: %s\n" path e;
        exit 1
  in
  let crash_at_step_arg =
    let doc = "Fault injection: SIGKILL after completing (and checkpointing) step $(docv)." in
    Arg.(value & opt (some int) None & info [ "crash-at-step" ] ~docv:"K" ~doc)
  in
  let run ckpt resume every crash_at_step =
    if every < 1 then begin
      Printf.eprintf "--checkpoint-every must be >= 1\n";
      exit 1
    end;
    let ckpt = match ckpt with Some _ -> ckpt | None -> resume in
    let step0, script, g, log =
      match resume with
      | Some path -> (
          try load path with
          | Codec.Error msg ->
              Printf.eprintf "corrupt checkpoint %s: %s\n" path msg;
              exit 1
          | Sys_error msg ->
              Printf.eprintf "checkpoint error: %s\n" msg;
              exit 1)
      | None ->
          ( 0,
            Prng.create 999,
            Dyngraph.create ~rng:(Prng.create 4242) ~d:3 ~regenerate:true (),
            Event_log.create () )
    in
    Event_log.attach log g;
    for i = step0 + 1 to steps do
      if Dyngraph.alive_count g > 3 && Prng.bernoulli script 0.4 then
        Dyngraph.kill g (Dyngraph.random_alive g)
      else ignore (Dyngraph.add_node g ~birth:i);
      (match ckpt with
      | Some path when i mod every = 0 || i = steps -> save path ~step:i ~script g log
      | _ -> ());
      match crash_at_step with
      | Some k when i = k -> Unix.kill (Unix.getpid ()) Sys.sigkill
      | _ -> ()
    done;
    Event_log.detach log g;
    let replayed = Event_log.replay log in
    print_string (Event_log.to_string log);
    print_string "-- replay --\n";
    print_string (Snapshot.to_dot ~name:"replay" replayed)
  in
  Cmd.v
    (Cmd.info "record-replay"
       ~doc:
         "Run the scripted record/replay churn sequence with full-state \
          checkpointing (exercises the state codecs; output matches the \
          byte-equality golden).")
    Term.(const run $ ckpt_arg $ resume_arg $ every_arg $ crash_at_step_arg)

let () =
  let doc =
    "Reproduction of `Expansion and Flooding in Dynamic Random Networks with Node \
     Churn' (Becchetti et al., ICDCS 2021)."
  in
  let info = Cmd.info "churnet" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            run_cmd;
            all_cmd;
            demo_cmd;
            sweep_cmd;
            fingerprint_cmd;
            flood_cmd;
            record_replay_cmd;
          ]))
