(* Probing the vertex expansion of live snapshots: the candidate-family
   search plus the spectral certificate, on SDGR vs SDG (Theorems 3.15 /
   Lemma 3.6).

     dune exec examples/expansion_probe.exe *)

open Churnet_core
module Probe = Churnet_expansion.Probe
module Spectral = Churnet_expansion.Spectral
module Table = Churnet_util.Table

let () =
  let n = 2000 in
  Printf.printf "Expansion of snapshots at n = %d.\n\n" n;
  let table =
    Table.create
      [ "model"; "d"; "min expansion (probe)"; "worst family"; "spectral gap"; "candidates" ]
  in
  List.iter
    (fun (kind, d) ->
      let m = Models.create ~rng:(Churnet_util.Prng.create 33) kind ~n ~d in
      Models.warm_up_batch m;
      let snap = Models.snapshot m in
      let probe = Probe.probe ~rng:(Churnet_util.Prng.create 34) snap in
      let spectral = Spectral.analyze snap in
      Table.add_row table
        [
          Models.kind_name kind;
          string_of_int d;
          Table.fmt_float ~digits:3 probe.min_expansion;
          Printf.sprintf "%s (size %d)" probe.witness.family probe.witness.size;
          Table.fmt_float ~digits:3 spectral.spectral_gap;
          string_of_int probe.candidates_tested;
        ])
    [ (Models.SDGR, 14); (Models.SDG, 14); (Models.SDG, 2); (Models.PDGR, 35) ];
  Table.print table;
  Printf.printf
    "\nSDGR and PDGR snapshots expand everywhere (Theorems 3.15 / 4.16).\n\
     SDG at the same d expands only because isolated nodes are rare at\n\
     d = 14; at d = 2 the probe finds zero-expansion sets immediately\n\
     (the isolated nodes of Lemma 3.5).\n"
