(* E12: churn-process lemmas (4.4, 4.6-4.8) and F9 (age demographics /
   KL divergence, the Section 4.3.1 machinery). *)

open Churnet_core
module Prng = Churnet_util.Prng
module Table = Churnet_util.Table
module Population = Churnet_churn.Population
module Kl = Churnet_util.Kl

let e12 ~seed ~scale =
  let n = Scale.pick scale ~smoke:500 ~standard:4000 ~full:20000 in
  let rounds = Scale.pick scale ~smoke:(10 * 500) ~standard:(25 * 4000) ~full:(25 * 20000) in
  let stats = Population.simulate ~rng:(Prng.create seed) ~n ~rounds () in
  let table = Table.create [ "quantity"; "paper"; "measured" ] in
  let fn = float_of_int n in
  Table.add_row table
    [ "E[|N_t|]"; Printf.sprintf "n = %d" n; Table.fmt_float ~digits:1 stats.pop_mean ];
  Table.add_row table
    [
      "Pr(0.9n <= |N_t| <= 1.1n)";
      ">= 1 - 2 e^{-sqrt n} (Lemma 4.4)";
      Table.fmt_pct stats.frac_in_09_11;
    ];
  Table.add_row table
    [
      "death fraction of jumps";
      "in [0.47, 0.53] (Lemma 4.7)";
      Table.fmt_pct stats.death_frac;
    ];
  Table.add_row table
    [
      "max node age (jumps)";
      Printf.sprintf "<= 7 n ln n = %.0f (Lemma 4.8)" (7. *. fn *. log fn);
      string_of_int stats.max_age_rounds;
    ];
  Table.add_row table
    [
      "mean lifetime (continuous)";
      Printf.sprintf "1/mu = %d" n;
      Table.fmt_float ~digits:1 stats.lifetime_mean;
    ];
  Report.make ~id:"E12" ~title:"Poisson churn statistics (Lemmas 4.4, 4.6-4.8)"
    ~tables:[ table ]
    [
      Report.check ~claim:"|N_t| concentrates in [0.9 n, 1.1 n]"
        ~expected:"fraction of jumps in band close to 1"
        ~measured:(Table.fmt_pct stats.frac_in_09_11)
        ~holds:(stats.frac_in_09_11 > 0.9);
      Report.check ~claim:"next jump is a death with probability in [0.47, 0.53]"
        ~expected:"[0.47, 0.53]"
        ~measured:(Table.fmt_pct stats.death_frac)
        ~holds:(stats.death_frac > 0.45 && stats.death_frac < 0.55);
      Report.check ~claim:"no node survives 7 n ln n jumps"
        ~expected:(Printf.sprintf "max age < %.0f" (7. *. fn *. log fn))
        ~measured:(string_of_int stats.max_age_rounds)
        ~holds:(float_of_int stats.max_age_rounds < 7. *. fn *. log fn);
      Report.check ~claim:"mean lifetime is 1/mu = n time units"
        ~expected:(string_of_int n)
        ~measured:(Table.fmt_float ~digits:1 stats.lifetime_mean)
        ~holds:(Float.abs (stats.lifetime_mean -. fn) /. fn < 0.25);
    ]

(* F9: snapshot age demographics vs the model's prediction, via the KL
   divergence machinery of Section 4.3.1.

   Streaming: ages are exactly uniform on {0, ..., n-1}.
   Poisson: the age (in jumps) of an alive node is geometric-like with
   per-jump survival ~ (1 - 1/(2n)); bucketed into L slices of width n,
   slice m carries mass ~ e^{-m/2} (1 - e^{-1/2}) — the paper's
   K_1, ..., K_L profile. *)

let f9 ~seed ~scale =
  let n = Scale.pick scale ~smoke:500 ~standard:3000 ~full:10000 in
  let rng = Prng.create seed in
  let buckets = 10 in
  let slices = 8 in
  (* The streaming and Poisson halves are independent; pre-split their
     rngs in the historical order and run both in parallel. *)
  let stream_rng = Prng.split rng in
  let poisson_rng = Prng.split rng in
  let stream_job () =
    let sm = Streaming_model.create ~rng:stream_rng ~n ~d:4 ~regenerate:false () in
    Streaming_model.warm_up sm;
    let stream_counts = Array.make buckets 0 in
    Churnet_graph.Dyngraph.iter_alive (Streaming_model.graph sm) (fun id ->
        let age = Streaming_model.age_of sm id in
        let b = min (buckets - 1) (age * buckets / n) in
        stream_counts.(b) <- stream_counts.(b) + 1);
    stream_counts
  in
  let poisson_job () =
    (* Poisson demographics: slices of n jumps (the paper's K_m). *)
    let pm = Poisson_model.create ~rng:poisson_rng ~n ~d:4 ~regenerate:false () in
    Poisson_model.warm_up pm;
    (* extra mixing so the geometric tail is populated *)
    Poisson_model.run_rounds pm (6 * n);
    let poisson_counts = Array.make slices 0 in
    let now = Poisson_model.round pm in
    Churnet_graph.Dyngraph.iter_alive (Poisson_model.graph pm) (fun id ->
        let age = now - Churnet_graph.Dyngraph.birth_of (Poisson_model.graph pm) id in
        let b = min (slices - 1) (age / n) in
        poisson_counts.(b) <- poisson_counts.(b) + 1);
    poisson_counts
  in
  let counts = Churnet_util.Parallel.map (fun job -> job ()) [| stream_job; poisson_job |] in
  let stream_counts = counts.(0) and poisson_counts = counts.(1) in
  let stream_emp = Kl.of_counts stream_counts in
  let stream_model = Array.make buckets (1. /. float_of_int buckets) in
  let stream_kl = Kl.kl_divergence stream_emp stream_model in
  let poisson_emp = Kl.of_counts poisson_counts in
  (* Slice m (width n jumps) survives with probability ~ e^{-m/2}: the
     per-jump death hazard of a given node is ~ 1/(2n) (Lemma 4.7). *)
  let poisson_model_dist =
    Kl.normalize
      (Array.init slices (fun m -> exp (-.(float_of_int m /. 2.))))
  in
  let poisson_kl = Kl.kl_divergence poisson_emp poisson_model_dist in
  let table = Table.create [ "model"; "buckets"; "KL(empirical || predicted)"; "TV distance" ] in
  Table.add_row table
    [
      "streaming (uniform ages)";
      string_of_int buckets;
      Table.fmt_float stream_kl;
      Table.fmt_float (Kl.total_variation stream_emp stream_model);
    ];
  Table.add_row table
    [
      "Poisson (geometric slices)";
      string_of_int slices;
      Table.fmt_float poisson_kl;
      Table.fmt_float (Kl.total_variation poisson_emp poisson_model_dist);
    ];
  let demo_table = Table.create [ "slice"; "poisson empirical"; "poisson predicted" ] in
  Array.iteri
    (fun m p ->
      Table.add_row demo_table
        [
          Printf.sprintf "age in [%d n, %d n)" m (m + 1);
          Table.fmt_float p;
          Table.fmt_float poisson_model_dist.(m);
        ])
    poisson_emp;
  Report.make ~id:"F9"
    ~title:"Age demographics match the model (KL machinery of Section 4.3.1)"
    ~tables:[ table; demo_table ]
    [
      Report.check ~claim:"streaming ages are uniform"
        ~expected:"KL(empirical || uniform) ~ 0"
        ~measured:(Table.fmt_float stream_kl)
        ~holds:(stream_kl < 0.01);
      Report.check ~claim:"Poisson age slices decay like e^{-m/2} (the K_m profile)"
        ~expected:"KL(empirical || geometric slices) small"
        ~measured:(Table.fmt_float poisson_kl)
        ~holds:(poisson_kl < 0.1);
    ]
