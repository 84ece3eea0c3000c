(* E3 (Lemma 3.6), E4 (Lemma 4.11), E5 (Theorem 3.15), E6 (Theorem 4.16),
   F6 (expansion vs set size), F7 (static baseline, Lemma B.1). *)

open Churnet_core
module Prng = Churnet_util.Prng
module Table = Churnet_util.Table
module Probe = Churnet_expansion.Probe
module Spectral = Churnet_expansion.Spectral
module Snapshot = Churnet_graph.Snapshot

let snapshot_of kind ~rng ~n ~d =
  let m = Models.create ~rng kind ~n ~d in
  Models.warm_up_batch m;
  Models.snapshot m

(* Shared engine: probe min expansion over [min_size, n/2] across several
   independent snapshots, report the worst observation. *)
let probe_snapshots kind ~rng ~n ~d ~min_size_of ~snapshots =
  let worst = ref infinity in
  let witness = ref None in
  let spectral_gaps = ref [] in
  (* Two splits per snapshot (model, then probe), in the historical serial
     order; the independent snapshots then run in parallel. *)
  let pairs =
    Array.init snapshots (fun _ ->
        let model_rng = Prng.split rng in
        let probe_rng = Prng.split rng in
        (model_rng, probe_rng))
  in
  let results =
    Churnet_util.Parallel.map
      (fun (model_rng, probe_rng) ->
        let snap = snapshot_of kind ~rng:model_rng ~n ~d in
        let min_size = min_size_of (Snapshot.n snap) in
        let sp, sweep_order = Spectral.analyze_with_sweep_order ~iters:120 snap in
        let r = Probe.probe ~rng:probe_rng ~min_size ~sweep_order snap in
        (r, sp))
      pairs
  in
  Array.iter
    (fun ((r : Probe.report), (sp : Spectral.report)) ->
      if r.min_expansion < !worst then begin
        worst := r.min_expansion;
        witness := Some r.witness
      end;
      spectral_gaps := sp.spectral_gap :: !spectral_gaps)
    results;
  let mean_gap =
    List.fold_left ( +. ) 0. !spectral_gaps /. float_of_int (List.length !spectral_gaps)
  in
  (!worst, !witness, mean_gap)

let expansion_experiment ~id ~title kind ~d ~threshold ~min_size_of ~size_label ~seed
    ~scale =
  let n = Scale.pick scale ~smoke:500 ~standard:2500 ~full:10000 in
  let snapshots = Scale.pick scale ~smoke:1 ~standard:3 ~full:8 in
  let rng = Prng.create seed in
  let worst, witness, mean_gap =
    probe_snapshots kind ~rng ~n ~d ~min_size_of ~snapshots
  in
  let witness_desc =
    match witness with
    | Some (w : Probe.witness) ->
        Printf.sprintf "worst candidate: %s set of size %d, expansion %.3f" w.family
          w.size w.expansion
    | None -> "no candidate in range"
  in
  let table = Table.create [ "quantity"; "value" ] in
  Table.add_row table [ "model"; Models.kind_name kind ];
  Table.add_row table [ "n"; string_of_int n ];
  Table.add_row table [ "d"; string_of_int d ];
  Table.add_row table [ "size range"; size_label n ];
  Table.add_row table [ "snapshots probed"; string_of_int snapshots ];
  Table.add_row table [ "min expansion found"; Table.fmt_float worst ];
  Table.add_row table [ "witness"; witness_desc ];
  Table.add_row table [ "mean spectral gap (largest comp)"; Table.fmt_float mean_gap ];
  Report.make ~id ~title ~tables:[ table ]
    [
      Report.check
        ~claim:(Printf.sprintf "%s: candidate sets in range expand by >= %.1f" (Models.kind_name kind) threshold)
        ~expected:(Printf.sprintf "min expansion >= %.1f w.h.p." threshold)
        ~measured:(Printf.sprintf "min over probe family = %.3f (%s)" worst witness_desc)
        ~holds:(worst >= threshold);
    ]

let e3 ~seed ~scale =
  expansion_experiment ~id:"E3" ~title:"Large-set expansion of SDG (Lemma 3.6)"
    Models.SDG ~d:20 ~threshold:0.1
    ~min_size_of:(fun n ->
      max 2 (int_of_float (float_of_int n *. exp (-.(20. /. 10.)))))
    ~size_label:(fun n ->
      Printf.sprintf "[n e^{-d/10}, n/2] = [%d, %d]"
        (int_of_float (float_of_int n *. exp (-2.)))
        (n / 2))
    ~seed ~scale

let e4 ~seed ~scale =
  expansion_experiment ~id:"E4" ~title:"Large-set expansion of PDG (Lemma 4.11)"
    Models.PDG ~d:20 ~threshold:0.1
    ~min_size_of:(fun n -> max 2 (int_of_float (float_of_int n *. exp (-1.))))
    ~size_label:(fun n ->
      Printf.sprintf "[n e^{-d/20}, n/2] = [%d, %d]"
        (int_of_float (float_of_int n *. exp (-1.)))
        (n / 2))
    ~seed ~scale

let e5 ~seed ~scale =
  expansion_experiment ~id:"E5"
    ~title:"Full vertex expansion of SDGR (Theorem 3.15)" Models.SDGR ~d:14
    ~threshold:0.1
    ~min_size_of:(fun _ -> 1)
    ~size_label:(fun n -> Printf.sprintf "[1, n/2] = [1, %d]" (n / 2))
    ~seed ~scale

let e6 ~seed ~scale =
  expansion_experiment ~id:"E6"
    ~title:"Full vertex expansion of PDGR (Theorem 4.16)" Models.PDGR ~d:35
    ~threshold:0.1
    ~min_size_of:(fun _ -> 1)
    ~size_label:(fun n -> Printf.sprintf "[1, n/2] = [1, %d]" (n / 2))
    ~seed ~scale

(* F6: expansion profile across set sizes for all four models. *)
let f6 ~seed ~scale =
  let n = Scale.pick scale ~smoke:400 ~standard:2000 ~full:6000 in
  let rng = Prng.create seed in
  let sizes =
    let acc = ref [] and s = ref 1 in
    while !s <= n / 2 do
      acc := !s :: !acc;
      s := max (!s + 1) (!s * 2)
    done;
    Array.of_list (List.rev !acc)
  in
  let table =
    Table.create
      ("size"
      :: List.map (fun k -> Models.kind_name k) Models.all_kinds)
  in
  let jobs = ref [] in
  List.iter
    (fun kind ->
      let model_rng = Prng.split rng in
      let profile_rng = Prng.split rng in
      jobs := (kind, model_rng, profile_rng) :: !jobs)
    Models.all_kinds;
  let profiles =
    Array.to_list
      (Churnet_util.Parallel.map
         (fun (kind, model_rng, profile_rng) ->
           let d = if Models.regenerates kind then 35 else 20 in
           let snap = snapshot_of kind ~rng:model_rng ~n ~d in
           (kind, Probe.expansion_profile ~rng:profile_rng snap ~sizes))
         (Array.of_list (List.rev !jobs)))
  in
  Array.iteri
    (fun i s ->
      Table.add_row table
        (string_of_int s
        :: List.map
             (fun (_, prof) ->
               let _, e = prof.(i) in
               Table.fmt_float ~digits:3 e)
             profiles))
    sizes;
  let series =
    List.map
      (fun (kind, prof) ->
        Churnet_util.Asciiplot.
          {
            label = Models.kind_name kind;
            points =
              Array.map (fun (s, e) -> (float_of_int s, Float.max e 1e-3)) prof;
          })
      profiles
  in
  let fig =
    Churnet_util.Asciiplot.plot ~logx:true
      ~title:"F6: min candidate expansion vs set size" ~xlabel:"|S|"
      ~ylabel:"|dS|/|S|" series
  in
  let regen_ok =
    List.for_all
      (fun (kind, prof) ->
        (not (Models.regenerates kind))
        || Array.for_all (fun (_, e) -> Float.is_nan e || e >= 0.1) prof)
      profiles
  in
  Report.make ~id:"F6" ~title:"Expansion profile across set sizes" ~tables:[ table ]
    ~figures:[ fig ]
    [
      Report.check
        ~claim:"regenerating models expand at every size; plain models only at large sizes"
        ~expected:"SDGR/PDGR >= 0.1 for all sizes"
        ~measured:(if regen_ok then "all sampled sizes >= 0.1" else "a size below 0.1 found")
        ~holds:regen_ok;
    ]

(* F7: the static d-out baseline (Lemma B.1): expander iff d >= 3. *)
let f7 ~seed ~scale =
  let n = Scale.pick scale ~smoke:500 ~standard:2000 ~full:8000 in
  let rng = Prng.create seed in
  let table =
    Table.create [ "d"; "min expansion (probe)"; "largest comp"; "flood rounds" ]
  in
  let results = ref [] in
  let ds = [ 1; 2; 3; 4; 6 ] in
  let jobs = ref [] in
  List.iter
    (fun d ->
      let gen_rng = Prng.split rng in
      let probe_rng = Prng.split rng in
      let flood_rng = Prng.split rng in
      jobs := (d, gen_rng, probe_rng, flood_rng) :: !jobs)
    ds;
  let rows =
    Churnet_util.Parallel.map
      (fun (d, gen_rng, probe_rng, flood_rng) ->
        let snap = Static_dout.generate ~rng:gen_rng ~n ~d () in
        let r = Probe.probe ~rng:probe_rng snap in
        let comp = Snapshot.largest_component snap in
        let flood =
          match Static_dout.flooding_rounds ~rng:flood_rng ~n ~d () with
          | Some rounds -> string_of_int rounds
          | None -> "incomplete"
        in
        (d, r.min_expansion, comp, flood))
      (Array.of_list (List.rev !jobs))
  in
  Array.iter
    (fun (d, min_expansion, comp, flood) ->
      Table.add_row table
        [
          string_of_int d;
          Table.fmt_float ~digits:3 min_expansion;
          Printf.sprintf "%d/%d" comp n;
          flood;
        ];
      results := (d, min_expansion) :: !results)
    rows;
  let get d = List.assoc d !results in
  Report.make ~id:"F7" ~title:"Static d-out random graph is an expander for d >= 3 (Lemma B.1)"
    ~tables:[ table ]
    [
      Report.check ~claim:"d >= 3 yields Theta(1) expansion"
        ~expected:"min expansion clearly positive at d = 3, 4, 6"
        ~measured:
          (Printf.sprintf "d=3: %.3f, d=4: %.3f, d=6: %.3f" (get 3) (get 4) (get 6))
        ~holds:(get 3 > 0.05 && get 4 > 0.1 && get 6 > 0.1);
      Report.check ~claim:"d = 1 is not an expander"
        ~expected:"min expansion ~ 0 (disconnected)"
        ~measured:(Printf.sprintf "d=1: %.3f" (get 1))
        ~holds:(get 1 < 0.05);
    ]
