(* F13 — "the streaming model has some predictive power on the behavior of
   more realistic models" (Section 1.1): quantify the agreement between
   the streaming and Poisson variants on the paper's own observables.

   R1 — the theorems are w.h.p. statements; estimate the empirical
   "with high probability" by sweeping seeds on the two headline positive
   results (expansion of SDGR, completion of SDGR/PDGR flooding). *)

open Churnet_core
module Prng = Churnet_util.Prng
module Table = Churnet_util.Table
module Stats = Churnet_util.Stats
module Probe = Churnet_expansion.Probe

let f13 ~seed ~scale =
  let n = Scale.pick scale ~smoke:500 ~standard:2500 ~full:8000 in
  let trials = Scale.pick scale ~smoke:2 ~standard:4 ~full:10 in
  let rng = Prng.create seed in
  let rel_diff a b =
    if Float.is_nan a || Float.is_nan b then nan
    else if Float.max (Float.abs a) (Float.abs b) = 0. then 0.
    else Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)
  in
  (* Observable 1: isolated fraction without regeneration, per d. *)
  let iso kind d =
    let acc = Stats.Acc.create () in
    for _ = 1 to trials do
      let m = Models.create ~rng:(Prng.split rng) kind ~n ~d in
      Models.warm_up_batch m;
      let snap = Models.snapshot m in
      let isolated = List.length (Churnet_graph.Snapshot.isolated snap) in
      Stats.Acc.add acc
        (float_of_int isolated /. float_of_int (Churnet_graph.Snapshot.n snap))
    done;
    Stats.Acc.mean acc
  in
  (* Observable 2: flooding peak coverage without regeneration. *)
  let cov kind d =
    let acc = Stats.Acc.create () in
    for _ = 1 to trials do
      let m = Models.create ~rng:(Prng.split rng) kind ~n ~d in
      Models.warm_up_batch m;
      let tr =
        Models.flood ~max_rounds:(int_of_float (6. *. log (float_of_int n)) + 20) m
      in
      Stats.Acc.add acc tr.Flood.peak_coverage
    done;
    Stats.Acc.mean acc
  in
  (* Observable 3: completion rounds with regeneration. *)
  let rounds kind d =
    let acc = Stats.Acc.create () in
    for _ = 1 to trials do
      let m = Models.create ~rng:(Prng.split rng) kind ~n ~d in
      Models.warm_up_batch m;
      let tr =
        Models.flood ~max_rounds:(int_of_float (20. *. log (float_of_int n)) + 40) m
      in
      match tr.Flood.completion_round with
      | Some r -> Stats.Acc.add_int acc r
      | None -> ()
    done;
    Stats.Acc.mean acc
  in
  let table =
    Table.create [ "observable"; "streaming"; "Poisson"; "relative difference" ]
  in
  let diffs = ref [] in
  let row name a b =
    let d = rel_diff a b in
    diffs := (name, d) :: !diffs;
    Table.add_row table
      [ name; Table.fmt_float ~digits:4 a; Table.fmt_float ~digits:4 b; Table.fmt_pct d ]
  in
  row "isolated fraction, d=2" (iso Models.SDG 2) (iso Models.PDG 2);
  row "isolated fraction, d=3" (iso Models.SDG 3) (iso Models.PDG 3);
  row "flood peak coverage, d=4" (cov Models.SDG 4) (cov Models.PDG 4);
  row "flood peak coverage, d=8" (cov Models.SDG 8) (cov Models.PDG 8);
  row "completion rounds (regen), d=8" (rounds Models.SDGR 8) (rounds Models.PDGR 8);
  row "completion rounds (regen), d=4" (rounds Models.SDGR 4) (rounds Models.PDGR 4);
  let worst =
    List.fold_left
      (fun acc (_, d) -> if Float.is_nan d then acc else Float.max acc d)
      0. !diffs
  in
  Report.make ~id:"F13"
    ~title:"The streaming model predicts the Poisson model (Section 1.1's claim)"
    ~tables:[ table ]
    [
      Report.check
        ~claim:"streaming and Poisson variants agree on the paper's observables"
        ~expected:"every observable within ~35% relative difference"
        ~measured:(Printf.sprintf "worst relative difference %.1f%%" (100. *. worst))
        ~holds:(worst < 0.35);
    ]

let r1 ~seed ~scale =
  let n = Scale.pick scale ~smoke:300 ~standard:1200 ~full:4000 in
  let seeds = Scale.pick scale ~smoke:8 ~standard:25 ~full:80 in
  let rng = Prng.create seed in
  (* Headline positive claims, one cheap pass per seed.  Trials are
     independent (seeds pre-split deterministically), so run them across
     domains. *)
  let trial_rngs = Array.init seeds (fun _ -> Prng.split rng) in
  let outcomes =
    Churnet_util.Parallel.map_with ~init:Models.scratch
      (fun (scratch : Models.scratch) trial_rng ->
        (* The three models share the worker's arena, each retiring the
           one before once its snapshot or flood is taken. *)
        let arena = scratch.arena in
        let m = Models.create ~arena ~rng:(Prng.split trial_rng) Models.SDGR ~n ~d:14 in
        Models.warm_up_batch m;
        let probe =
          Probe.probe ~rng:(Prng.split trial_rng) ~samples_per_size:4
            (Models.snapshot m)
        in
        let exp_ok = probe.min_expansion >= 0.1 in
        let budget = int_of_float (10. *. log (float_of_int n)) + 30 in
        let m2 = Models.create ~arena ~rng:(Prng.split trial_rng) Models.SDGR ~n ~d:21 in
        Models.warm_up_batch m2;
        let sdgr_done =
          (Models.flood ~scratch:scratch.flood ~max_rounds:budget m2).Flood.completed
        in
        let m3 = Models.create ~arena ~rng:(Prng.split trial_rng) Models.PDGR ~n ~d:35 in
        Models.warm_up_batch m3;
        let pdgr_done =
          (Models.flood ~scratch:scratch.flood ~max_rounds:budget m3).Flood.completed
        in
        (exp_ok, sdgr_done, pdgr_done))
      trial_rngs
  in
  let expansion_ok = ref 0 and sdgr_ok = ref 0 and pdgr_ok = ref 0 in
  Array.iter
    (fun (e, s2, p) ->
      if e then incr expansion_ok;
      if s2 then incr sdgr_ok;
      if p then incr pdgr_ok)
    outcomes;
  let table = Table.create [ "claim"; "seeds passing"; "empirical probability" ] in
  let frac x = float_of_int x /. float_of_int seeds in
  Table.add_row table
    [ "SDGR snapshot is a 0.1-expander (Thm 3.15)";
      Printf.sprintf "%d/%d" !expansion_ok seeds; Table.fmt_pct (frac !expansion_ok) ];
  Table.add_row table
    [ "SDGR flooding completes in O(log n) (Thm 3.16)";
      Printf.sprintf "%d/%d" !sdgr_ok seeds; Table.fmt_pct (frac !sdgr_ok) ];
  Table.add_row table
    [ "PDGR flooding completes in O(log n) (Thm 4.20)";
      Printf.sprintf "%d/%d" !pdgr_ok seeds; Table.fmt_pct (frac !pdgr_ok) ];
  Report.make ~id:"R1" ~title:"Seed-sweep robustness: how high is `with high probability'?"
    ~tables:[ table ]
    [
      Report.check ~claim:"the positive w.h.p. results hold for every sampled seed"
        ~expected:"100% of seeds"
        ~measured:
          (Printf.sprintf "expansion %d/%d, SDGR %d/%d, PDGR %d/%d" !expansion_ok seeds
             !sdgr_ok seeds !pdgr_ok seeds)
        ~holds:(!expansion_ok = seeds && !sdgr_ok = seeds && !pdgr_ok = seeds);
    ]
