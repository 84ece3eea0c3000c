(* Quickstart: build each of the paper's four dynamic-graph models, let it
   churn, and flood a message from a newborn node — once with a small
   degree (where the models without edge regeneration break down) and
   once with a comfortable degree.

     dune exec examples/quickstart.exe *)

open Churnet_core

let run_at ~d ~n ~seed =
  Printf.printf "--- d = %d ---\n" d;
  List.iter
    (fun kind ->
      let rng = Churnet_util.Prng.create seed in
      let model = Models.create ~rng kind ~n ~d in
      Models.warm_up_batch model;
      let snapshot = Models.snapshot model in
      let isolated = List.length (Churnet_graph.Snapshot.isolated snapshot) in
      let trace = Models.flood ~max_rounds:60 model in
      Printf.printf
        "%-5s population %4d | edges %5d | isolated %3d | peak coverage %5.1f%% | %s\n"
        (Models.kind_name kind)
        (Churnet_graph.Snapshot.n snapshot)
        (Churnet_graph.Snapshot.edge_count snapshot)
        isolated
        (100. *. trace.Flood.peak_coverage)
        (match trace.Flood.completion_round with
        | Some r -> Printf.sprintf "flood completed in %d rounds" r
        | None -> "flood did NOT complete"))
    Models.all_kinds;
  print_newline ()

let () =
  let n = 1000 in
  Printf.printf "churnet quickstart: n = %d\n\n" n;
  run_at ~d:2 ~n ~seed:7;
  run_at ~d:10 ~n ~seed:7;
  Printf.printf
    "At d = 2 the models without edge regeneration (SDG, PDG) carry isolated\n\
     nodes (Lemmas 3.5 / 4.10), so flooding cannot complete; the regenerating\n\
     models (SDGR, PDGR) stay expanders (Theorems 3.15 / 4.16) and complete\n\
     in O(log n) rounds (Theorems 3.16 / 4.20).  At d = 10 isolated nodes\n\
     all but vanish (their density is ~ e^{-2d}/6) and every model floods\n\
     quickly — exactly the Table 1 picture.\n"
