(* E7 (Theorem 3.7), E8 (Theorem 3.8), E9 (Theorems 4.12/4.13),
   E10 (Theorem 3.16), E11 (Theorem 4.20), F1 (flooding time vs n),
   F2 (coverage vs d). *)

open Churnet_core
module Prng = Churnet_util.Prng
module Parallel = Churnet_util.Parallel
module Table = Churnet_util.Table
module Stats = Churnet_util.Stats

(* One warmed model of [kind] flooded once; the trials of a
   [Parallel.replicate_with ~init:Models.scratch] call build their
   models on their worker's arena and flood on its flood scratch. *)
let flood_once (scratch : Models.scratch) kind ~rng ~n ~d ~max_rounds =
  let m = Models.create ~arena:scratch.arena ~rng kind ~n ~d in
  Models.warm_up_batch m;
  Models.flood ~scratch:scratch.flood ~max_rounds m

(* --- E7: flooding in SDG can stall, and completion needs Omega_d(n). --- *)

let e7 ~seed ~scale =
  let n = Scale.pick scale ~smoke:300 ~standard:1500 ~full:6000 in
  let trials = Scale.pick scale ~smoke:20 ~standard:120 ~full:600 in
  let rng = Prng.create seed in
  let table =
    Table.create
      [ "d"; "trials"; "stall frac"; "extinct frac"; "95% CI"; "mean peak coverage" ]
  in
  let stall_fracs = ref [] in
  List.iter
    (fun d ->
      let traces =
        Parallel.replicate_with ~init:Models.scratch ~rng ~trials (fun scratch rng ->
            flood_once scratch Models.SDG ~rng ~n ~d ~max_rounds:40)
      in
      let stalls = ref 0 in
      let extinctions = ref 0 in
      let cov = Stats.Acc.create () in
      Array.iter
        (fun tr ->
          if tr.Flood.peak_informed <= d + 1 then incr stalls;
          if tr.Flood.extinct then incr extinctions;
          Stats.Acc.add cov tr.Flood.peak_coverage)
        traces;
      let frac = float_of_int !stalls /. float_of_int trials in
      Table.add_row table
        [
          string_of_int d;
          string_of_int trials;
          Table.fmt_pct frac;
          Table.fmt_pct (float_of_int !extinctions /. float_of_int trials);
          Table.fmt_ci (Stats.binomial_ci95 ~successes:!stalls ~trials);
          Table.fmt_pct (Stats.Acc.mean cov);
        ];
      stall_fracs := (d, frac) :: !stall_fracs)
    [ 1; 2; 3 ];
  (* Completion lower bound: residual lifetime of forever-isolated nodes. *)
  let m = Streaming_model.create ~rng:(Prng.split rng) ~n ~d:2 ~regenerate:false () in
  Streaming_model.warm_up m;
  let c = Isolated.census_streaming ~max_track:400 m in
  let d1_stall = List.assoc 1 !stall_fracs in
  let d3_stall = List.assoc 3 !stall_fracs in
  Report.make ~id:"E7" ~title:"Flooding in SDG fails with constant probability (Theorem 3.7)"
    ~tables:[ table ]
    [
      Report.check_values
        ~claim:"flooding stalls at <= d+1 informed nodes with probability Omega_d(1)"
        ~expected:"a clearly positive stall fraction at small d"
        ~measured:(Printf.sprintf "d=1: %.1f%%, d=3: %.1f%%" (100. *. d1_stall) (100. *. d3_stall))
        ~expected_value:0.02 ~measured_value:d1_stall
        ~holds:(d1_stall > 0.02);
      Report.check ~claim:"stall probability decreases with d (the Omega(e^{-d^2}) shape)"
        ~expected:"stall fraction at d=3 below d=1"
        ~measured:(Printf.sprintf "%.1f%% -> %.1f%%" (100. *. d1_stall) (100. *. d3_stall))
        ~holds:(d3_stall <= d1_stall);
      Report.check ~claim:"completion takes Omega_d(n) rounds (isolated nodes must die first)"
        ~expected:"forever-isolated nodes exist at time t0 (their residual life is up to n rounds)"
        ~measured:
          (Printf.sprintf "%d isolated nodes at t0, %d of %d tracked stayed isolated until death"
             c.isolated_now c.isolated_forever c.tracked)
        ~holds:(c.isolated_forever > 0);
    ]

(* --- E8: flooding covers a 1 - e^{-Omega(d)} fraction in O(log n). --- *)

let coverage_experiment ~id ~title kind ~exponent_divisor ~seed ~scale =
  let n = Scale.pick scale ~smoke:500 ~standard:3000 ~full:10000 in
  let trials = Scale.pick scale ~smoke:3 ~standard:10 ~full:30 in
  let rng = Prng.create seed in
  let budget = int_of_float (6. *. log (float_of_int n)) + 20 in
  let table =
    Table.create
      [ "d"; "target frac"; "success frac"; "mean rounds to target"; "mean peak cov" ]
  in
  let checks = ref [] in
  List.iter
    (fun d ->
      let target = 1. -. exp (-.(float_of_int d /. exponent_divisor)) in
      let successes = ref 0 in
      let rounds_acc = Stats.Acc.create () in
      let cov_acc = Stats.Acc.create () in
      let traces =
        Parallel.replicate_with ~init:Models.scratch ~rng ~trials (fun scratch rng ->
            flood_once scratch kind ~rng ~n ~d ~max_rounds:budget)
      in
      Array.iter
        (fun tr ->
          Stats.Acc.add cov_acc tr.Flood.peak_coverage;
          (* first round reaching target coverage *)
          let hit = ref None in
          Array.iteri
            (fun i inf ->
              let pop = tr.Flood.population_per_round.(i) in
              if
                !hit = None && pop > 0
                && float_of_int inf /. float_of_int pop >= target
              then hit := Some i)
            tr.Flood.informed_per_round;
          match !hit with
          | Some r ->
              incr successes;
              Stats.Acc.add_int rounds_acc r
          | None -> ())
        traces;
      let frac = float_of_int !successes /. float_of_int trials in
      Table.add_row table
        [
          string_of_int d;
          Table.fmt_pct target;
          Table.fmt_pct frac;
          Table.fmt_float ~digits:1 (Stats.Acc.mean rounds_acc);
          Table.fmt_pct (Stats.Acc.mean cov_acc);
        ];
      if d = 16 then
        checks :=
          Report.check_values
            ~claim:
              (Printf.sprintf
                 "%s flooding informs a (1 - e^{-d/%g}) fraction within O(log n) rounds"
                 (Models.kind_name kind) exponent_divisor)
            ~expected:
              (Printf.sprintf "most trials reach %.0f%% coverage within %d rounds"
                 (100. *. target) budget)
            ~measured:
              (Printf.sprintf "%.0f%% of trials, mean %.1f rounds" (100. *. frac)
                 (Stats.Acc.mean rounds_acc))
            ~expected_value:0.7 ~measured_value:frac
            ~holds:(frac >= 0.7)
          :: !checks)
    [ 8; 16; 24 ];
  Report.make ~id ~title ~tables:[ table ] (List.rev !checks)

let e8 ~seed ~scale =
  coverage_experiment ~id:"E8"
    ~title:"SDG flooding reaches a 1 - e^{-Omega(d)} fraction fast (Theorem 3.8)"
    Models.SDG ~exponent_divisor:10. ~seed ~scale

let e9 ~seed ~scale =
  let base =
    coverage_experiment ~id:"E9"
      ~title:"PDG flooding reaches a 1 - e^{-Omega(d)} fraction fast (Theorems 4.12/4.13)"
      Models.PDG ~exponent_divisor:20. ~seed ~scale
  in
  (* Theorem 4.12 (negative, asynchronous flooding of Def 4.2): with small
     d the rumor dies out with constant probability. *)
  let n = Scale.pick scale ~smoke:200 ~standard:800 ~full:2500 in
  let trials = Scale.pick scale ~smoke:15 ~standard:60 ~full:200 in
  let rng = Prng.create (seed + 17) in
  let stall_table =
    Table.create [ "d"; "trials"; "async stall frac"; "extinct frac"; "95% CI" ]
  in
  let fracs = ref [] in
  List.iter
    (fun d ->
      let results =
        Parallel.replicate_with ~init:Churnet_graph.Dyngraph.arena ~rng ~trials (fun arena rng ->
            let m = Poisson_model.create ~arena ~rng ~n ~d ~regenerate:false () in
            Poisson_model.warm_up m;
            Flood.Async.run ~max_time:40. m)
      in
      let stalls = ref 0 in
      let extinctions = ref 0 in
      Array.iter
        (fun (r : Flood.Async.result) ->
          if (not r.completed) && r.informed_total <= d + 1 then incr stalls;
          if r.extinct then incr extinctions)
        results;
      let frac = float_of_int !stalls /. float_of_int trials in
      fracs := (d, frac) :: !fracs;
      Table.add_row stall_table
        [
          string_of_int d;
          string_of_int trials;
          Table.fmt_pct frac;
          Table.fmt_pct (float_of_int !extinctions /. float_of_int trials);
          Table.fmt_ci (Stats.binomial_ci95 ~successes:!stalls ~trials);
        ])
    [ 1; 2 ];
  let d1 = List.assoc 1 !fracs and d2 = List.assoc 2 !fracs in
  let stall_check =
    Report.check
      ~claim:"asynchronous flooding (Def 4.2) dies at <= d+1 nodes with probability Omega_d(1) (Thm 4.12)"
      ~expected:"clearly positive extinction fraction at d = 1, decreasing in d"
      ~measured:(Printf.sprintf "d=1: %.1f%%, d=2: %.1f%%" (100. *. d1) (100. *. d2))
      ~holds:(d1 > 0.02 && d2 <= d1)
  in
  Report.make ~id:base.Report.id ~title:base.Report.title
    ~tables:(base.Report.tables @ [ stall_table ])
    (base.Report.checks @ [ stall_check ])

(* --- E10 / E11: flooding completes in O(log n) with regeneration. --- *)

let completion_experiment ~id ~title kind ~d ~seed ~scale =
  let ns =
    Scale.pick scale ~smoke:[ 200; 400 ] ~standard:[ 500; 1000; 2000; 4000 ]
      ~full:[ 1000; 2000; 4000; 8000; 16000 ]
  in
  let trials = Scale.pick scale ~smoke:2 ~standard:5 ~full:15 in
  let rng = Prng.create seed in
  (* Two degree regimes: the theorem's d (where diameters are tiny and the
     growth is hard to resolve) and a diagnostic small degree where the
     log n growth is plainly visible. *)
  let d_small = 4 in
  let table =
    Table.create
      [ "n"; "trials";
        Printf.sprintf "completed (d=%d)" d;
        Printf.sprintf "mean rounds (d=%d)" d;
        Printf.sprintf "completed (d=%d)" d_small;
        Printf.sprintf "mean rounds (d=%d)" d_small;
        Printf.sprintf "rounds/ln n (d=%d)" d_small ]
  in
  let points = ref [] and points_small = ref [] in
  let all_completed = ref true in
  List.iter
    (fun n ->
      let measure dd =
        let acc = Stats.Acc.create () in
        let completed = ref 0 in
        let traces =
          Parallel.replicate_with ~init:Models.scratch ~rng ~trials (fun scratch rng ->
              flood_once scratch kind ~rng ~n ~d:dd
                ~max_rounds:(int_of_float (20. *. log (float_of_int n)) + 40))
        in
        Array.iter
          (fun tr ->
            if tr.Flood.completed then begin
              incr completed;
              match tr.Flood.completion_round with
              | Some r -> Stats.Acc.add_int acc r
              | None -> ()
            end)
          traces;
        (!completed, Stats.Acc.mean acc)
      in
      let completed, mean_rounds = measure d in
      let completed_small, mean_small = measure d_small in
      if completed < trials then all_completed := false;
      Table.add_row table
        [
          string_of_int n;
          string_of_int trials;
          Printf.sprintf "%d/%d" completed trials;
          Table.fmt_float ~digits:1 mean_rounds;
          Printf.sprintf "%d/%d" completed_small trials;
          Table.fmt_float ~digits:1 mean_small;
          Table.fmt_float ~digits:2 (mean_small /. log (float_of_int n));
        ];
      points := (float_of_int n, mean_rounds) :: !points;
      points_small := (float_of_int n, mean_small) :: !points_small)
    ns;
  let fit = Stats.log_fit (Array.of_list (List.rev !points_small)) in
  let figure =
    Churnet_util.Asciiplot.plot ~logx:true
      ~title:(Printf.sprintf "%s: completion rounds vs n" id)
      ~xlabel:"n" ~ylabel:"rounds"
      [
        { label = Printf.sprintf "%s d=%d (theorem)" (Models.kind_name kind) d;
          points = Array.of_list (List.rev !points) };
        { label = Printf.sprintf "%s d=%d (diagnostic)" (Models.kind_name kind) d_small;
          points = Array.of_list (List.rev !points_small) };
      ]
  in
  Report.make ~id ~title ~tables:[ table ] ~figures:[ figure ]
    [
      Report.check
        ~claim:(Printf.sprintf "%s flooding completes w.h.p." (Models.kind_name kind))
        ~expected:"every trial completes"
        ~measured:(if !all_completed then "all trials completed" else "some trials failed")
        ~holds:!all_completed;
      (let n_max = List.nth ns (List.length ns - 1) in
       let rounds_at_max =
         match List.rev !points_small with
         | [] -> nan
         | pts -> snd (List.nth pts (List.length pts - 1))
       in
       let budget = (4. *. log (float_of_int n_max)) +. 10. in
       Report.check ~claim:"completion time is O(log n) (diagnostic d = 4 series)"
         ~expected:
           (Printf.sprintf "rounds at n = %d at most 4 ln n + 10 = %.1f" n_max budget)
         ~measured:
           (Printf.sprintf "%.1f rounds at n = %d; fit %.2f ln n + %.2f (R2 %.3f)"
              rounds_at_max n_max fit.slope fit.intercept fit.r2)
         ~holds:(rounds_at_max <= budget && fit.slope < 8.));
    ]

let e10 ~seed ~scale =
  completion_experiment ~id:"E10"
    ~title:"SDGR flooding completes in O(log n) (Theorem 3.16)" Models.SDGR ~d:21 ~seed
    ~scale

let e11 ~seed ~scale =
  completion_experiment ~id:"E11"
    ~title:"PDGR flooding completes in O(log n) (Theorem 4.20)" Models.PDGR ~d:35 ~seed
    ~scale

(* --- F1: flooding time vs n across all models + baseline. --- *)

let f1 ~seed ~scale =
  let ns =
    Scale.pick scale ~smoke:[ 200; 400 ] ~standard:[ 500; 1000; 2000; 4000 ]
      ~full:[ 1000; 2000; 4000; 8000; 16000 ]
  in
  let trials = Scale.pick scale ~smoke:2 ~standard:4 ~full:10 in
  let rng = Prng.create seed in
  (* SDG/PDG: rounds to 50% coverage; SDGR/PDGR: completion rounds;
     static: BFS eccentricity. *)
  let half_coverage_rounds kind ~n ~d =
    let acc = Stats.Acc.create () in
    let budget = int_of_float (6. *. log (float_of_int n)) + 20 in
    let traces =
      Parallel.replicate_with ~init:Models.scratch ~rng ~trials (fun scratch rng ->
          flood_once scratch kind ~rng ~n ~d ~max_rounds:budget)
    in
    Array.iter
      (fun tr ->
        let hit = ref None in
        Array.iteri
          (fun i inf ->
            let pop = tr.Flood.population_per_round.(i) in
            if !hit = None && pop > 0 && 2 * inf >= pop then hit := Some i)
          tr.Flood.informed_per_round;
        match !hit with Some r -> Stats.Acc.add_int acc r | None -> ())
      traces;
    Stats.Acc.mean acc
  in
  let completion_rounds kind ~n ~d =
    let acc = Stats.Acc.create () in
    let budget = int_of_float (20. *. log (float_of_int n)) + 40 in
    let traces =
      Parallel.replicate_with ~init:Models.scratch ~rng ~trials (fun scratch rng ->
          flood_once scratch kind ~rng ~n ~d ~max_rounds:budget)
    in
    Array.iter
      (fun tr ->
        match tr.Flood.completion_round with
        | Some r -> Stats.Acc.add_int acc r
        | None -> ())
      traces;
    Stats.Acc.mean acc
  in
  let static_rounds ~n ~d =
    let acc = Stats.Acc.create () in
    let results =
      Parallel.replicate ~rng ~trials (fun rng ->
          Static_dout.flooding_rounds ~rng ~n ~d ())
    in
    Array.iter
      (function Some r -> Stats.Acc.add_int acc r | None -> ())
      results;
    Stats.Acc.mean acc
  in
  let table =
    Table.create
      [ "n"; "SDG (50% cov)"; "PDG (50% cov)"; "SDGR (complete)"; "PDGR (complete)"; "static d-out (ecc)" ]
  in
  let series = Hashtbl.create 8 in
  let push key pt =
    Hashtbl.replace series key (pt :: Option.value ~default:[] (Hashtbl.find_opt series key))
  in
  List.iter
    (fun n ->
      let sdg = half_coverage_rounds Models.SDG ~n ~d:12 in
      let pdg = half_coverage_rounds Models.PDG ~n ~d:16 in
      let sdgr = completion_rounds Models.SDGR ~n ~d:21 in
      let pdgr = completion_rounds Models.PDGR ~n ~d:35 in
      let static = static_rounds ~n ~d:4 in
      Table.add_row table
        [
          string_of_int n;
          Table.fmt_float ~digits:1 sdg;
          Table.fmt_float ~digits:1 pdg;
          Table.fmt_float ~digits:1 sdgr;
          Table.fmt_float ~digits:1 pdgr;
          Table.fmt_float ~digits:1 static;
        ];
      let fn = float_of_int n in
      push "SDG" (fn, sdg);
      push "PDG" (fn, pdg);
      push "SDGR" (fn, sdgr);
      push "PDGR" (fn, pdgr);
      push "static" (fn, static))
    ns;
  let get key = Array.of_list (List.rev (Hashtbl.find series key)) in
  let fig =
    Churnet_util.Asciiplot.plot ~logx:true ~title:"F1: flooding rounds vs n"
      ~xlabel:"n" ~ylabel:"rounds"
      [
        { label = "SDG 50% coverage (d=12)"; points = get "SDG" };
        { label = "PDG 50% coverage (d=16)"; points = get "PDG" };
        { label = "SDGR completion (d=21)"; points = get "SDGR" };
        { label = "PDGR completion (d=35)"; points = get "PDGR" };
        { label = "static d-out eccentricity (d=4)"; points = get "static" };
      ]
  in
  let sdgr_fit = Stats.log_fit (get "SDGR") in
  let largest_n = float_of_int (List.nth ns (List.length ns - 1)) in
  let sdgr_points = get "SDGR" in
  let rounds_at_largest = snd sdgr_points.(Array.length sdgr_points - 1) in
  Report.make ~id:"F1" ~title:"Flooding time scales logarithmically in n" ~tables:[ table ]
    ~figures:[ fig ]
    [
      Report.check ~claim:"SDGR completion grows like log n, not n"
        ~expected:"rounds at largest n well below sqrt(n)"
        ~measured:
          (Printf.sprintf "%.1f rounds at n = %.0f (fit %.2f ln n + %.2f)"
             rounds_at_largest largest_n sdgr_fit.slope sdgr_fit.intercept)
        ~holds:(rounds_at_largest < sqrt largest_n);
    ]

(* --- F2: peak coverage vs d for the non-regenerating models. --- *)

let f2 ~seed ~scale =
  let n = Scale.pick scale ~smoke:400 ~standard:2500 ~full:8000 in
  let trials = Scale.pick scale ~smoke:2 ~standard:6 ~full:20 in
  let rng = Prng.create seed in
  let ds = [ 2; 4; 6; 8; 12; 16; 24 ] in
  let budget = int_of_float (6. *. log (float_of_int n)) + 20 in
  let table = Table.create [ "d"; "SDG mean peak cov"; "PDG mean peak cov"; "1 - e^{-d/10}" ] in
  let sdg_series = ref [] and pdg_series = ref [] and law = ref [] in
  List.iter
    (fun d ->
      let mean_cov kind =
        let acc = Stats.Acc.create () in
        let traces =
          Parallel.replicate_with ~init:Models.scratch ~rng ~trials (fun scratch rng ->
              flood_once scratch kind ~rng ~n ~d ~max_rounds:budget)
        in
        Array.iter (fun tr -> Stats.Acc.add acc tr.Flood.peak_coverage) traces;
        Stats.Acc.mean acc
      in
      let sdg = mean_cov Models.SDG and pdg = mean_cov Models.PDG in
      let theory = 1. -. exp (-.(float_of_int d /. 10.)) in
      Table.add_row table
        [
          string_of_int d;
          Table.fmt_pct sdg;
          Table.fmt_pct pdg;
          Table.fmt_pct theory;
        ];
      sdg_series := (float_of_int d, sdg) :: !sdg_series;
      pdg_series := (float_of_int d, pdg) :: !pdg_series;
      law := (float_of_int d, theory) :: !law)
    ds;
  let arr l = Array.of_list (List.rev l) in
  let fig =
    Churnet_util.Asciiplot.plot ~title:"F2: flooding coverage vs d" ~xlabel:"d"
      ~ylabel:"coverage"
      [
        { label = "SDG mean peak coverage"; points = arr !sdg_series };
        { label = "PDG mean peak coverage"; points = arr !pdg_series };
        { label = "1 - e^{-d/10} (paper's shape)"; points = arr !law };
      ]
  in
  let sdg_small = snd (List.nth (List.rev !sdg_series) 0) in
  let sdg_large = snd (List.hd !sdg_series) in
  Report.make ~id:"F2" ~title:"Coverage approaches 1 as 1 - e^{-Omega(d)}" ~tables:[ table ]
    ~figures:[ fig ]
    [
      Report.check ~claim:"coverage is increasing in d and approaches 1"
        ~expected:"coverage at d=24 close to 1 and not below d=2"
        ~measured:(Printf.sprintf "d=2: %.1f%%, d=24: %.1f%%" (100. *. sdg_small) (100. *. sdg_large))
        ~holds:(sdg_large > 0.95 && sdg_large >= sdg_small -. 0.01);
    ]

(* --- F11: asynchronous flooding (Definition 4.2) vs the discretized
   process (Definition 4.3). --- *)

let f11 ~seed ~scale =
  let ns = Scale.pick scale ~smoke:[ 200 ] ~standard:[ 400; 800; 1600 ] ~full:[ 500; 1000; 2000; 4000 ] in
  let trials = Scale.pick scale ~smoke:2 ~standard:4 ~full:10 in
  let d = 35 in
  let rng = Prng.create seed in
  let table =
    Table.create [ "n"; "async mean time"; "async completed"; "discretized mean rounds"; "discretized completed" ]
  in
  let async_pts = ref [] in
  let dominated = ref true in
  List.iter
    (fun n ->
      let async_acc = Stats.Acc.create () and disc_acc = Stats.Acc.create () in
      let async_done = ref 0 and disc_done = ref 0 in
      (* Each trial consumes two splits (async model, then discretized
         model), in the same order as the historical serial loop. *)
      let pairs =
        Array.init trials (fun _ ->
            let ra = Prng.split rng in
            let rd = Prng.split rng in
            (ra, rd))
      in
      let results =
        Parallel.map_with ~init:Models.scratch
          (fun (scratch : Models.scratch) (ra, rd) ->
            let m = Poisson_model.create ~arena:scratch.arena ~rng:ra ~n ~d ~regenerate:true () in
            Poisson_model.warm_up m;
            let r = Flood.Async.run m in
            (* [r] keeps nothing of [m], which [m2] retires. *)
            let m2 = Poisson_model.create ~arena:scratch.arena ~rng:rd ~n ~d ~regenerate:true () in
            Poisson_model.warm_up m2;
            let tr = Flood.run_poisson_discretized ~scratch:scratch.flood m2 in
            (r, tr))
          pairs
      in
      Array.iter
        (fun ((r : Flood.Async.result), tr) ->
          if r.completed then begin
            incr async_done;
            match r.completion_time with
            | Some t -> Stats.Acc.add async_acc t
            | None -> ()
          end;
          if tr.Flood.completed then begin
            incr disc_done;
            match tr.Flood.completion_round with
            | Some r -> Stats.Acc.add_int disc_acc r
            | None -> ()
          end)
        results;
      let am = Stats.Acc.mean async_acc and dm = Stats.Acc.mean disc_acc in
      if not (am <= dm +. 2.) then dominated := false;
      Table.add_row table
        [
          string_of_int n;
          Table.fmt_float ~digits:1 am;
          Printf.sprintf "%d/%d" !async_done trials;
          Table.fmt_float ~digits:1 dm;
          Printf.sprintf "%d/%d" !disc_done trials;
        ];
      async_pts := (float_of_int n, am) :: !async_pts)
    ns;
  let fit = Stats.log_fit (Array.of_list (List.rev !async_pts)) in
  Report.make ~id:"F11"
    ~title:"Asynchronous flooding dominates the discretized process (Defs 4.2 vs 4.3)"
    ~tables:[ table ]
    [
      Report.check
        ~claim:"the discretized process is a worst case: async completion is never slower"
        ~expected:"async mean completion time <= discretized mean rounds (+ slack)"
        ~measured:(if !dominated then "async <= discretized at every n" else "violated at some n")
        ~holds:!dominated;
      (let n_max = List.nth ns (List.length ns - 1) in
       let time_at_max =
         match List.rev !async_pts with [] -> nan | pts -> snd (List.nth pts (List.length pts - 1))
       in
       let budget = (4. *. log (float_of_int n_max)) +. 10. in
       Report.check ~claim:"async flooding time is O(log n)"
         ~expected:(Printf.sprintf "time at n = %d at most 4 ln n + 10 = %.1f" n_max budget)
         ~measured:
           (Printf.sprintf "%.1f at n = %d; fit %.2f ln n + %.2f" time_at_max n_max
              fit.slope fit.intercept)
         ~holds:(time_at_max <= budget));
    ]
