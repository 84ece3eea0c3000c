(* F12: topology fingerprints — do the paper's algorithm-free random
   models actually look like protocol-built P2P topologies?  Clustering,
   assortativity, degree skew, distances: the quantities the paper's
   "bears a certain resemblance to Bitcoin" remark implicitly claims. *)

open Churnet_core
module Prng = Churnet_util.Prng
module Table = Churnet_util.Table
module Metrics = Churnet_graph.Metrics

let f12 ~seed ~scale =
  let n = Scale.pick scale ~smoke:400 ~standard:2000 ~full:6000 in
  let d = 8 in
  let rng = Prng.create seed in
  let snapshots =
    [
      ("SDG", lazy (let m = Models.create ~rng:(Prng.split rng) Models.SDG ~n ~d in
                    Models.warm_up_batch m; Models.snapshot m));
      ("SDGR", lazy (let m = Models.create ~rng:(Prng.split rng) Models.SDGR ~n ~d in
                     Models.warm_up_batch m; Models.snapshot m));
      ("PDG", lazy (let m = Models.create ~rng:(Prng.split rng) Models.PDG ~n ~d in
                    Models.warm_up_batch m; Models.snapshot m));
      ("PDGR", lazy (let m = Models.create ~rng:(Prng.split rng) Models.PDGR ~n ~d in
                     Models.warm_up_batch m; Models.snapshot m));
      ("static d-out", lazy (Static_dout.generate ~rng:(Prng.split rng) ~n ~d ()));
      ("Bitcoin-like", lazy (let m = Churnet_p2p.Bitcoin_like.create ~rng:(Prng.split rng) ~n () in
                             Churnet_p2p.Bitcoin_like.warm_up m;
                             Churnet_p2p.Bitcoin_like.snapshot m));
    ]
    @ List.map
        (fun (name, create) ->
          ( name,
            lazy
              (let m : Streaming_model.t = create (Prng.split rng) in
               Streaming_model.warm_up m;
               Streaming_model.snapshot m) ))
        [
          ("rw tokens", fun rng -> Churnet_p2p.Rw_streaming.create ~rng ~n ~d ());
          ("central cache", fun rng -> Churnet_p2p.Cache_protocol.create ~rng ~n ~d ());
          ("local update", fun rng -> Churnet_p2p.Local_update.create ~rng ~n ~d ());
        ]
  in
  let table =
    Table.create
      [ "network"; "mean deg"; "max deg"; "gini"; "clustering"; "assortativity";
        "mean dist"; "diam >="; "giant" ]
  in
  let prints = ref [] in
  List.iter
    (fun (name, snap) ->
      let fp = Metrics.fingerprint ~rng:(Prng.split rng) (Lazy.force snap) in
      prints := (name, fp) :: !prints;
      Table.add_row table
        [
          name;
          Table.fmt_float ~digits:2 fp.mean_degree;
          string_of_int fp.max_degree;
          Table.fmt_float ~digits:3 fp.degree_gini;
          Table.fmt_float ~digits:4 fp.global_clustering;
          Table.fmt_float ~digits:3 fp.assortativity;
          Table.fmt_float ~digits:2 fp.mean_distance;
          string_of_int fp.diameter_lb;
          Table.fmt_pct fp.giant_fraction;
        ])
    snapshots;
  let fp name = List.assoc name !prints in
  let pdgr = fp "PDGR" and btc = fp "Bitcoin-like" in
  Report.make ~id:"F12" ~title:"Topology fingerprints: random models vs P2P protocols"
    ~tables:[ table ]
    [
      Report.check
        ~claim:"all sparse models are locally tree-like (vanishing clustering, like real P2P overlays)"
        ~expected:"global clustering << 0.1 everywhere"
        ~measured:
          (String.concat ", "
             (List.rev_map
                (fun (name, f) ->
                  Printf.sprintf "%s %.4f" name f.Metrics.global_clustering)
                !prints))
        ~holds:
          (List.for_all
             (fun (_, f) ->
               Float.is_nan f.Metrics.global_clustering || f.Metrics.global_clustering < 0.1)
             !prints);
      Report.check
        ~claim:"PDGR and the Bitcoin-like overlay have close fingerprints (the paper's analogy)"
        ~expected:"mean distance within 1 hop; degree gini within 0.15"
        ~measured:
          (Printf.sprintf "dist %.2f vs %.2f; gini %.3f vs %.3f" pdgr.mean_distance
             btc.mean_distance pdgr.degree_gini btc.degree_gini)
        ~holds:
          (Float.abs (pdgr.mean_distance -. btc.mean_distance) < 1.
          && Float.abs (pdgr.degree_gini -. btc.degree_gini) < 0.15);
      Report.check ~claim:"small worlds: mean distance ~ log n / log d"
        ~expected:
          (Printf.sprintf "PDGR mean distance within [%.1f, %.1f]"
             (0.5 *. log (float_of_int n) /. log (float_of_int (2 * d)))
             ((2.5 *. log (float_of_int n) /. log (float_of_int d)) +. 1.))
        ~measured:(Printf.sprintf "%.2f" pdgr.mean_distance)
        ~holds:
          (pdgr.mean_distance
           > 0.5 *. log (float_of_int n) /. log (float_of_int (2 * d))
          && pdgr.mean_distance
             < (2.5 *. log (float_of_int n) /. log (float_of_int d)) +. 1.);
    ]
