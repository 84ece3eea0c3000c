(* E13: the XL tier — the PDG at populations approaching the paper's
   motivating systems (Section 1.1's Bitcoin unreachable-node network).
   One cell, three claims re-checked at n up to 10^6 under live churn:
   the stationary-population band of Lemma 4.4, the Omega(n e^{-2d})
   isolated nodes of Lemma 4.10, and the fast partial coverage of
   Theorems 4.12/4.13.  Runs the batched churn path end to end and reads
   every statistic through [Stream_stats], so the cell never materializes
   a CSR snapshot — the point of the tier is that peak memory stays at
   the arena itself. *)

open Churnet_core
module Prng = Churnet_util.Prng
module Table = Churnet_util.Table
module Stream_stats = Churnet_graph.Stream_stats

let e13 ~seed ~scale =
  let n =
    Scale.pick scale ~smoke:10_000 ~standard:100_000 ~full:300_000 ~xl:1_000_000
  in
  let d = 2 in
  let trials = 2 in
  let budget = int_of_float (6. *. log (float_of_int n)) + 20 in
  let rng = Prng.create seed in
  let results =
    Churnet_util.Parallel.replicate_with ~init:Flood.scratch ~rng ~trials (fun scratch rng ->
        let m = Poisson_model.create ~rng ~n ~d ~regenerate:false () in
        Poisson_model.warm_up m;
        let stats = Stream_stats.collect (Poisson_model.graph m) in
        let tr = Flood.run_poisson_discretized ~scratch ~max_rounds:budget m in
        ( stats.Stream_stats.population,
          stats.Stream_stats.isolated,
          stats.Stream_stats.max_degree,
          stats.Stream_stats.mean_degree,
          tr.Flood.peak_coverage,
          tr.Flood.rounds ))
  in
  let bound = Isolated.paper_bound_pdg ~n ~d in
  let table =
    Table.create
      [
        "trial";
        "population";
        "isolated";
        "paper bound";
        "max deg";
        "mean deg";
        "peak coverage";
        "rounds";
      ]
  in
  let pop_min = ref max_int and pop_max = ref 0 in
  let isolated_total = ref 0 in
  let cov_total = ref 0. in
  Array.iteri
    (fun i (pop, isolated, max_deg, mean_deg, coverage, rounds) ->
      pop_min := min !pop_min pop;
      pop_max := max !pop_max pop;
      isolated_total := !isolated_total + isolated;
      cov_total := !cov_total +. coverage;
      Table.add_row table
        [
          string_of_int (i + 1);
          string_of_int pop;
          string_of_int isolated;
          Table.fmt_float ~digits:1 bound;
          string_of_int max_deg;
          Table.fmt_float ~digits:2 mean_deg;
          Table.fmt_pct coverage;
          string_of_int rounds;
        ])
    results;
  let mean_isolated = float_of_int !isolated_total /. float_of_int trials in
  let mean_coverage = !cov_total /. float_of_int trials in
  Report.make ~id:"E13"
    ~title:(Printf.sprintf "XL tier: PDG at n = %d under live churn" n)
    ~tables:[ table ]
    [
      Report.check_values
        ~claim:"population stays in the Lemma 4.4 stationary band at XL scale"
        ~expected:(Printf.sprintf "every trial within [%d, %d]" (n / 2) (3 * n / 2))
        ~measured:(Printf.sprintf "populations in [%d, %d]" !pop_min !pop_max)
        ~expected_value:(float_of_int n)
        ~measured_value:(float_of_int !pop_max)
        ~holds:(!pop_min >= n / 2 && !pop_max <= 3 * n / 2);
      Report.check_values
        ~claim:
          (Printf.sprintf
             "snapshots contain Omega(n e^{-2d}) isolated nodes (Lemma 4.10, d = %d)" d)
        ~expected:(Printf.sprintf ">= %.1f isolated nodes" bound)
        ~measured:(Printf.sprintf "%.1f isolated nodes on average" mean_isolated)
        ~expected_value:bound ~measured_value:mean_isolated
        ~holds:(mean_isolated >= bound);
      Report.check_values
        ~claim:"flooding still reaches a constant fraction in O(log n) rounds"
        ~expected:
          (Printf.sprintf ">= 50%% mean peak coverage within %d rounds" budget)
        ~measured:(Printf.sprintf "%.0f%% mean peak coverage" (100. *. mean_coverage))
        ~expected_value:0.5 ~measured_value:mean_coverage
        ~holds:(mean_coverage >= 0.5);
    ]
