(* F10: the PDGR model vs protocol-driven P2P baselines (Bitcoin-like
   addr-gossip, random-walk tokens, centralized cache). *)

open Churnet_core
module Prng = Churnet_util.Prng
module Table = Churnet_util.Table
module Stats = Churnet_util.Stats
module Snapshot = Churnet_graph.Snapshot

type row = {
  name : string;
  flood_rounds : float;
  coverage : float;
  max_degree : int;
  mean_degree : float;
  giant_frac : float;
}

let f10 ~seed ~scale =
  let n = Scale.pick scale ~smoke:300 ~standard:1500 ~full:6000 in
  let trials = Scale.pick scale ~smoke:2 ~standard:4 ~full:10 in
  let d = 8 in
  let rng = Prng.create seed in
  (* The cell floods one network at a time, so every flood stages its
     rounds in one scratch. *)
  let scratch = Flood.scratch () in
  let summarize name mk_flood mk_snapshot =
    let rounds_acc = Stats.Acc.create () and cov_acc = Stats.Acc.create () in
    for _ = 1 to trials do
      let tr : Flood.trace = mk_flood (Prng.split rng) in
      (match tr.completion_round with
      | Some r -> Stats.Acc.add_int rounds_acc r
      | None -> ());
      Stats.Acc.add cov_acc tr.peak_coverage
    done;
    let s : Snapshot.t = mk_snapshot (Prng.split rng) in
    {
      name;
      flood_rounds = Stats.Acc.mean rounds_acc;
      coverage = Stats.Acc.mean cov_acc;
      max_degree = Snapshot.max_degree s;
      mean_degree = Snapshot.mean_degree s;
      giant_frac =
        float_of_int (Snapshot.largest_component s) /. float_of_int (Snapshot.n s);
    }
  in
  let pdgr =
    summarize "PDGR (paper, d=8)"
      (fun rng ->
        let m = Poisson_model.create ~rng ~n ~d ~regenerate:true () in
        Poisson_model.warm_up m;
        Flood.run_poisson_discretized ~scratch m)
      (fun rng ->
        let m = Poisson_model.create ~rng ~n ~d ~regenerate:true () in
        Poisson_model.warm_up m;
        Poisson_model.snapshot m)
  in
  let bitcoin =
    summarize "Bitcoin-like (target 8, cap 125)"
      (fun rng ->
        let m = Churnet_p2p.Bitcoin_like.create ~rng ~n () in
        Churnet_p2p.Bitcoin_like.warm_up m;
        Churnet_p2p.Bitcoin_like.flood ~scratch m)
      (fun rng ->
        let m = Churnet_p2p.Bitcoin_like.create ~rng ~n () in
        Churnet_p2p.Bitcoin_like.warm_up m;
        Churnet_p2p.Bitcoin_like.snapshot m)
  in
  (* The streaming overlays: edge policies of the same Definition 3.2
     schedule, flooded with a common round budget. *)
  let overlay (name, create) =
    let warmed rng =
      let m : Streaming_model.t = create rng in
      Streaming_model.warm_up m;
      m
    in
    summarize name
      (fun rng ->
        Flood.run_streaming ~scratch
          ~max_rounds:(6 * int_of_float (log (float_of_int n)) + 40)
          (warmed rng))
      (fun rng -> Streaming_model.snapshot (warmed rng))
  in
  let overlays =
    List.map overlay
      [
        ("random-walk tokens (Cooper et al.)", fun rng -> Churnet_p2p.Rw_streaming.create ~rng ~n ~d ());
        ( "central cache (Pandurangan et al.)",
          fun rng -> Churnet_p2p.Cache_protocol.create ~rng ~n ~d () );
        ("local update (Duchon-Duvignau)", fun rng -> Churnet_p2p.Local_update.create ~rng ~n ~d ());
      ]
  in
  let rw = List.nth overlays 0 and cache = List.nth overlays 1 in
  let rows = pdgr :: bitcoin :: overlays in
  let table =
    Table.create
      [ "network"; "flood rounds"; "peak coverage"; "max deg"; "mean deg"; "giant comp" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.name;
          Table.fmt_float ~digits:1 r.flood_rounds;
          Table.fmt_pct r.coverage;
          string_of_int r.max_degree;
          Table.fmt_float ~digits:2 r.mean_degree;
          Table.fmt_pct r.giant_frac;
        ])
    rows;
  Report.make ~id:"F10" ~title:"PDGR vs protocol-driven P2P baselines" ~tables:[ table ]
    [
      Report.check
        ~claim:"the Bitcoin-like network behaves like PDGR (the paper's motivating analogy)"
        ~expected:"similar flooding rounds (within 3x) and near-total coverage for both"
        ~measured:
          (Printf.sprintf "PDGR %.1f rounds / %.0f%%; Bitcoin-like %.1f rounds / %.0f%%"
             pdgr.flood_rounds (100. *. pdgr.coverage) bitcoin.flood_rounds
             (100. *. bitcoin.coverage))
        ~holds:
          (pdgr.coverage > 0.95 && bitcoin.coverage > 0.95
          && bitcoin.flood_rounds < 3. *. pdgr.flood_rounds +. 5.);
      Report.check ~claim:"algorithm-free PDGR matches algorithmic maintenance on connectivity"
        ~expected:"giant component ~ 100% for PDGR and Bitcoin-like"
        ~measured:
          (Printf.sprintf "PDGR %.1f%%, Bitcoin %.1f%%, RW %.1f%%, cache %.1f%%"
             (100. *. pdgr.giant_frac) (100. *. bitcoin.giant_frac)
             (100. *. rw.giant_frac) (100. *. cache.giant_frac))
        ~holds:(pdgr.giant_frac > 0.99 && bitcoin.giant_frac > 0.95);
    ]
