(* F5: the onion-skin process (Section 3.1.2, Claim 3.10, Lemma 3.9). *)

open Churnet_core
module Prng = Churnet_util.Prng
module Parallel = Churnet_util.Parallel
module Table = Churnet_util.Table
module Stats = Churnet_util.Stats

let f5 ~seed ~scale =
  let n = Scale.pick scale ~smoke:2000 ~standard:20000 ~full:100000 in
  let trials = Scale.pick scale ~smoke:5 ~standard:30 ~full:100 in
  let rng = Prng.create seed in
  let ds = [ 40; 60; 100; 200 ] in
  let table =
    Table.create
      [ "d"; "success frac"; "paper bound 1-4e^{-d/100}"; "mean phases"; "mean early growth"; "d/20" ]
  in
  let checks = ref [] in
  List.iter
    (fun d ->
      let successes = ref 0 in
      let phases_acc = Stats.Acc.create () in
      let growth_acc = Stats.Acc.create () in
      Array.iter
        (fun (r : Onion.result) ->
          if r.reached_target then incr successes;
          Stats.Acc.add_int phases_acc r.phases;
          (* Early growth factors, before saturation. *)
          Array.iteri
            (fun i g ->
              if i < 2 && not (Float.is_nan g) then Stats.Acc.add growth_acc g)
            r.growth_factors)
        (Parallel.replicate_with ~init:Onion.scratch ~rng ~trials (fun scratch rng ->
             Onion.run ~scratch ~rng ~n ~d ()));
      let frac = float_of_int !successes /. float_of_int trials in
      let bound = Float.max 0. (1. -. (4. *. exp (-.(float_of_int d /. 100.)))) in
      Table.add_row table
        [
          string_of_int d;
          Table.fmt_pct frac;
          Table.fmt_pct bound;
          Table.fmt_float ~digits:1 (Stats.Acc.mean phases_acc);
          Table.fmt_float ~digits:2 (Stats.Acc.mean growth_acc);
          Table.fmt_float ~digits:2 (float_of_int d /. 20.);
        ];
      if d = 200 then
        checks :=
          Report.check
            ~claim:"onion-skin succeeds with probability >= 1 - 4 e^{-d/100} (Lemma 3.9, d >= 200)"
            ~expected:(Printf.sprintf ">= %.1f%%" (100. *. bound))
            ~measured:(Printf.sprintf "%.1f%% over %d trials" (100. *. frac) trials)
            ~holds:(frac >= bound)
          :: !checks;
      if d = 100 then
        checks :=
          Report.check
            ~claim:"layers grow multiplicatively ~ d/20 per step while small (Claim 3.10)"
            ~expected:(Printf.sprintf "early growth factor >= 1 and of order d/20 = %.1f" (float_of_int d /. 20.))
            ~measured:(Printf.sprintf "mean early growth %.2f" (Stats.Acc.mean growth_acc))
            ~holds:(Stats.Acc.mean growth_acc > 1.5)
          :: !checks)
    ds;
  (* Extended (Poisson) onion-skin of Section 7.2.4, with death coins. *)
  let poisson_trials = max 5 (trials / 2) in
  let poisson_table =
    Table.create [ "d"; "success frac (Poisson)"; "Thm 4.13 bound 1-2e^{-d/576}" ]
  in
  List.iter
    (fun d ->
      let successes =
        Parallel.replicate_with ~init:Onion.scratch ~rng:(Prng.split rng)
          ~trials:poisson_trials (fun scratch rng ->
            (Onion.run_poisson ~scratch ~rng ~n ~d ()).reached_target)
      in
      let frac =
        float_of_int (Array.fold_left (fun k ok -> if ok then k + 1 else k) 0 successes)
        /. float_of_int poisson_trials
      in
      let bound = Float.max 0. (1. -. (2. *. exp (-.(float_of_int d /. 576.)))) in
      Table.add_row poisson_table
        [ string_of_int d; Table.fmt_pct frac; Table.fmt_pct bound ];
      if d = 100 then
        checks :=
          Report.check
            ~claim:"the extended onion-skin (Section 7.2.4, with death coins) also reaches m/20 nodes"
            ~expected:"high success probability (the Thm 4.13 bound is vacuous below d ~ 400)"
            ~measured:(Printf.sprintf "%.0f%% at d = %d" (100. *. frac) d)
            ~holds:(frac >= 0.8)
          :: !checks)
    [ 40; 100 ];
  (* One detailed realization: layer sizes per phase. *)
  let detail = Onion.run ~rng:(Prng.split rng) ~n ~d:100 () in
  let layer_table = Table.create [ "phase"; "|Y_k - Y_{k-1}|"; "|O_k - O_{k-1}|" ] in
  let phases = max (Array.length detail.y_layer_sizes) (Array.length detail.o_layer_sizes) in
  for k = 0 to phases - 1 do
    let y = if k < Array.length detail.y_layer_sizes then string_of_int detail.y_layer_sizes.(k) else "-" in
    let o = if k < Array.length detail.o_layer_sizes then string_of_int detail.o_layer_sizes.(k) else "-" in
    Table.add_row layer_table [ string_of_int k; y; o ]
  done;
  Report.make ~id:"F5" ~title:"Onion-skin layer growth (Sections 3.1.2 and 7.2.4)"
    ~tables:[ table; poisson_table; layer_table ]
    (List.rev !checks)
