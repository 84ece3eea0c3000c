open Churnet_expansion
module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let close ?(eps = 1e-9) msg a b = check_bool msg true (Float.abs (a -. b) < eps)

let clique n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Snapshot.of_edges ~n !edges

let cycle n = Snapshot.of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))
let star n = Snapshot.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))
let path n = Snapshot.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

(* --- Exact --- *)

let test_exact_clique () =
  (* K6: any S with |S| = 3 has boundary 3, ratio 1; smaller S even
     higher.  h_out = 1. *)
  close "clique h_out" 1.0 (Exact.h_out (clique 6))

let test_exact_cycle () =
  (* C8: worst set is a half-arc of 4 nodes: boundary 2, ratio 0.5. *)
  close "cycle h_out" 0.5 (Exact.h_out (cycle 8))

let test_exact_path () =
  (* P8: prefix of 4 has boundary 1 -> 0.25. *)
  close "path h_out" 0.25 (Exact.h_out (path 8))

let test_exact_star () =
  (* Star on 9: leaves-only sets of size 4 have boundary {center}: 0.25. *)
  close "star h_out" 0.25 (Exact.h_out (star 9))

let test_exact_disconnected () =
  let s = Snapshot.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  close "disconnected h_out = 0" 0. (Exact.h_out s)

let test_exact_isolated_vertex () =
  let s = Snapshot.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3) ] in
  close "isolated vertex gives 0" 0. (Exact.h_out s)

let test_exact_witness () =
  let s = Snapshot.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  let h, witness = Exact.h_out_with_witness s in
  close "witness ratio" h
    (let set = Snapshot.set_of_indices s (Array.of_list witness) in
     Snapshot.expansion s set);
  check_bool "witness size <= n/2" true (List.length witness <= 3)

let test_exact_too_large () =
  check_bool "raises" true
    (try
       ignore (Exact.h_out (cycle 30));
       false
     with Invalid_argument _ -> true)

let test_is_expander () =
  check_bool "clique is 0.9-expander" true (Exact.is_expander (clique 6) ~epsilon:0.9);
  check_bool "path is not 0.3-expander" false (Exact.is_expander (path 8) ~epsilon:0.3)

(* --- Probe --- *)

let test_probe_finds_isolated () =
  let s = Snapshot.of_edges ~n:10 [ (0, 1); (1, 2); (2, 3); (4, 5); (5, 6) ] in
  let r = Probe.probe ~rng:(Prng.create 1) s in
  close "finds a zero-expansion set" 0. r.min_expansion

let test_probe_on_clique () =
  let r = Probe.probe ~rng:(Prng.create 2) (clique 12) in
  close "clique min expansion is 1" 1.0 r.min_expansion

let test_probe_respects_size_range () =
  (* On a graph with one isolated vertex, restricting min_size above 1
     (and above the small component count) hides the zero. *)
  let edges = (10, 11) :: List.init 9 (fun i -> (i, i + 1)) in
  let s = Snapshot.of_edges ~n:12 edges in
  let r = Probe.probe ~rng:(Prng.create 3) ~min_size:5 s in
  check_bool "no zero found above min_size" true (r.min_expansion > 0.)

let test_probe_matches_exact_on_small_graphs () =
  (* The probe is an upper bound on h_out and on small structured graphs
     it should actually attain it. *)
  List.iter
    (fun snap ->
      let exact = Exact.h_out snap in
      let probed = (Probe.probe ~rng:(Prng.create 5) snap).min_expansion in
      check_bool "probe >= exact (upper bound)" true (probed >= exact -. 1e-9);
      check_bool "probe close to exact here" true (probed <= exact +. 0.51))
    [ cycle 12; path 12; star 13; clique 8 ]

let test_probe_reports_families () =
  let r = Probe.probe ~rng:(Prng.create 7) (cycle 20) in
  check_bool "tested candidates" true (r.candidates_tested > 10);
  check_bool "families recorded" true (List.length r.per_family >= 3);
  check_bool "witness has family name" true (String.length r.witness.family > 0)

let test_expansion_profile () =
  let profile = Probe.expansion_profile ~rng:(Prng.create 9) (cycle 40) ~sizes:[| 2; 5; 10 |] in
  check_int "3 sizes" 3 (Array.length profile);
  Array.iter
    (fun (s, e) ->
      check_bool "size echoed" true (s = 2 || s = 5 || s = 10);
      check_bool "expansion positive on cycle" true (e > 0.))
    profile

(* --- The incremental evaluator and the reference probe --- *)

(* A random graph on n vertices with about [m] edge draws: repeated pairs
   (multi-edges, which the snapshot merges), self-pairs (dropped) and
   vertices no draw touches (isolated). *)
let random_graph rng ~n ~m =
  let edges = List.init m (fun _ -> (Prng.int rng n, Prng.int rng n)) in
  let edges = edges @ List.filteri (fun i _ -> i mod 3 = 0) edges in
  Snapshot.of_edges ~n edges

(* Every prefix of a random order scores as [Snapshot.boundary_size]
   scores the same set built from scratch. *)
let test_evaluator_matches_boundary_size () =
  let rng = Prng.create 0x0931 in
  for case = 1 to 300 do
    let n = 1 + Prng.int rng 40 in
    let snap = random_graph rng ~n ~m:(Prng.int rng (3 * n)) in
    let order = Prng.sample_without_replacement rng (Prng.int rng (n + 1)) n in
    let got = Probe.prefix_boundaries snap order in
    Array.iteri
      (fun i b ->
        let set = Snapshot.set_of_indices snap (Array.sub order 0 (i + 1)) in
        let want = Snapshot.boundary_size snap set in
        if b <> want then
          Alcotest.failf "case %d n=%d prefix %d: evaluator %d, boundary_size %d" case n
            (i + 1) b want)
      got
  done

let bits = Int64.bits_of_float

let same_report (a : Probe.report) (b : Reference_probe.report) =
  Int64.equal (bits a.min_expansion) (bits b.min_expansion)
  && a.witness.family = b.witness.family
  && a.witness.size = b.witness.size
  && Int64.equal (bits a.witness.expansion) (bits b.witness.expansion)
  && List.map (fun (f, e) -> (f, bits e)) a.per_family
     = List.map (fun (f, e) -> (f, bits e)) b.per_family
  && a.candidates_tested = b.candidates_tested

(* The oldest 6 (a 6-cycle hanging from a clique by two edges) and the
   youngest 3 (a path hanging from it by its middle) both expand by
   exactly 1/3, the least of any candidate, and no BFS ball is either
   set.  Age prefixes alternate oldest and youngest per size, so the
   witness is the youngest 3, met first. *)
let age_tie () =
  let clique = List.concat (List.init 11 (fun i -> List.init i (fun j -> (6 + j, 6 + i)))) in
  let cycle6 = List.init 6 (fun i -> (i, (i + 1) mod 6)) in
  Snapshot.of_edges ~n:20 ([ (2, 6); (3, 7); (17, 18); (18, 19); (18, 16) ] @ cycle6 @ clique)

let test_probe_first_strict_minimum () =
  let r = Probe.probe ~rng:(Prng.create 3) ~min_size:3 (age_tie ()) in
  close "min is 1/3" (1. /. 3.) r.min_expansion;
  Alcotest.(check string) "witness family" "age-prefix" r.witness.family;
  check_int "witness is the youngest 3, not the oldest 6" 3 r.witness.size

(* Snapshots of the four paper models at small n (d = 1 and 2 leave
   isolated vertices and small components, so every family fires),
   random multigraphs, and the tie above. *)
let probe_snapshots () =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun (n, d) ->
          List.map
            (fun seed ->
              let m = Churnet_core.Models.create ~rng:(Prng.create seed) kind ~n ~d in
              Churnet_core.Models.warm_up_batch m;
              ( Printf.sprintf "%s n=%d d=%d seed=%d" (Churnet_core.Models.kind_name kind) n d seed,
                Churnet_core.Models.snapshot m ))
            [ 1; 2 ])
        [ (24, 1); (40, 2); (90, 3); (150, 6) ])
    Churnet_core.Models.all_kinds
  @ List.init 12 (fun i ->
        let rng = Prng.create (0x0932 + i) in
        let n = 1 + Prng.int rng 60 in
        (Printf.sprintf "random %d n=%d" i n, random_graph rng ~n ~m:(Prng.int rng (2 * n))))
  @ [ ("age tie", age_tie ()) ]

(* The probe gives the reference's report over a grid of size ranges and
   sweep orders, and leaves the caller's generator in the same state. *)
let test_probe_matches_reference () =
  List.iter
    (fun (name, snap) ->
      let n = Snapshot.n snap in
      let _, order = Spectral.analyze_with_sweep_order ~iters:120 snap in
      List.iter
        (fun (min_size, max_size) ->
          List.iter
            (fun (sweep, sweep_order) ->
              List.iter
                (fun samples_per_size ->
                  let rng = Prng.create (n + min_size) and ref_rng = Prng.create (n + min_size) in
                  let a =
                    Probe.probe ~rng ~min_size ?max_size ~samples_per_size ?sweep_order snap
                  in
                  let b =
                    Reference_probe.probe ~rng:ref_rng ~min_size ?max_size ~samples_per_size
                      ?sweep_sets:(Option.map Reference_probe.sweep_sets_of sweep_order)
                      snap
                  in
                  if not (same_report a b && Int64.equal (Prng.bits64 rng) (Prng.bits64 ref_rng))
                  then
                    Alcotest.failf "%s min_size=%d max_size=%s sweep=%s samples=%d differs" name
                      min_size
                      (match max_size with Some m -> string_of_int m | None -> "n/2")
                      sweep samples_per_size)
                [ 8; 1 ])
            [
              ("default", None);
              ("given", Some order);
              ("reversed", Some (Array.of_list (List.rev (Array.to_list order))));
              ("none", Some [||]);
            ])
        [ (1, None); (0, None); (2, None); (3, Some 7); (n / 10, Some (n / 3)); (1, Some n);
          (4, Some (n + 5)); (n / 2, Some 2) ])
    (probe_snapshots ())

let test_profile_matches_reference () =
  List.iter
    (fun (name, snap) ->
      let n = Snapshot.n snap in
      let sizes = [| n / 2; 1; 0; 2; n / 4; n / 2; n + 1; -3; n; 3 |] in
      let rng = Prng.create n and ref_rng = Prng.create n in
      let a = Probe.expansion_profile ~rng snap ~sizes in
      let b = Reference_probe.expansion_profile ~rng:ref_rng snap ~sizes in
      let pairs p = Array.map (fun (s, e) -> (s, bits e)) p in
      if not (pairs a = pairs b && Int64.equal (Prng.bits64 rng) (Prng.bits64 ref_rng)) then
        Alcotest.failf "%s: expansion profile differs from the reference" name)
    (probe_snapshots ())

(* --- Spectral --- *)

let test_spectral_clique_gap () =
  let r = Spectral.analyze (clique 20) in
  (* Lazy walk on K_n: lambda2 = 1/2 + (lambda2(walk))/2 where walk
     lambda2 = -1/(n-1); so close to 0.47.  Large gap regardless. *)
  check_bool "large gap" true (r.spectral_gap > 0.4);
  check_int "whole graph" 20 r.component_size

let test_spectral_path_small_gap () =
  let r = Spectral.analyze (path 60) in
  check_bool "tiny gap on a path" true (r.spectral_gap < 0.05);
  check_bool "sweep finds a bad cut" true (r.sweep_conductance < 0.1)

let test_spectral_sweep_on_dumbbell () =
  (* Two cliques joined by one edge: sweep must find conductance ~ 1/k². *)
  let k = 8 in
  let edges = ref [ (0, k) ] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      edges := (i, j) :: !edges;
      edges := (k + i, k + j) :: !edges
    done
  done;
  let s = Snapshot.of_edges ~n:(2 * k) !edges in
  let r = Spectral.analyze s in
  check_bool "dumbbell cut found" true (r.sweep_conductance < 0.08);
  check_bool "half split" true (abs (r.sweep_set_size - k) <= 1)

let test_spectral_sweep_sets_usable () =
  let order = Spectral.sweep_order (cycle 30) in
  check_int "the whole component" 30 (Array.length order);
  let seen = Array.make 30 false in
  Array.iter
    (fun v ->
      check_bool "valid index" true (v >= 0 && v < 30);
      check_bool "distinct" false seen.(v);
      seen.(v) <- true)
    order;
  check_int "too small to cut" 0 (Array.length (Spectral.sweep_order (path 3)))

let test_spectral_tiny_graph () =
  let r = Spectral.analyze (Snapshot.of_edges ~n:1 []) in
  check_int "degenerate" 1 r.component_size

(* --- Spectral runs pinned byte for byte --- *)

(* One line per [Spectral.analyze] call over snapshots of the four paper
   models plus a few hand-built graphs: every report float in hex, the
   sweep set size and the component size, and one line per snapshot with
   the MD5 of the sweep cuts (the prefixes of [Spectral.sweep_order] the
   probe scores, built by [Reference_probe.sweep_sets_of]).  The cell
   goldens print the gap to
   3-4 digits only, so a reordered float sum shows up here first.
   Regenerating (only after an intentional behavior change):
     CHURNET_GOLDEN_OUT=$PWD/test/golden dune exec test/test_main.exe -- \
       test expansion *)
let spectral_iters = [ 1; 120; 150; 300 ]

let sets_digest sets =
  let b = Buffer.create 256 in
  List.iter
    (fun set ->
      Array.iter (fun v -> Printf.bprintf b "%d," v) set;
      Buffer.add_char b ';')
    sets;
  Digest.to_hex (Digest.string (Buffer.contents b))

let spectral_lines b name snap =
  List.iter
    (fun iters ->
      let (r : Spectral.report) = Spectral.analyze ~iters snap in
      Printf.bprintf b
        "%s iters=%d lambda2=%h gap=%h cheeger=%h sweep=%h size=%d comp=%d\n" name iters
        r.lambda2 r.spectral_gap r.cheeger_lower r.sweep_conductance r.sweep_set_size
        r.component_size)
    spectral_iters;
  let sets = Reference_probe.sweep_sets_of (Spectral.sweep_order snap) in
  Printf.bprintf b "%s sweep_sets=%d md5=%s\n" name (List.length sets) (sets_digest sets)

(* Three components (a path, a chorded cycle, an edge) and isolated
   vertices; the largest component is not the one holding index 0. *)
let disconnected () =
  let ring = List.init 12 (fun i -> (5 + i, 5 + ((i + 1) mod 12))) in
  Snapshot.of_edges ~n:20 ([ (0, 1); (1, 2); (5, 10); (7, 14); (18, 19) ] @ ring)

let spectral_runs_text () =
  let b = Buffer.create 65536 in
  List.iter
    (fun kind ->
      List.iter
        (fun n ->
          List.iter
            (fun d ->
              for seed = 1 to 3 do
                let m =
                  Churnet_core.Models.create ~rng:(Prng.create seed) kind ~n ~d
                in
                Churnet_core.Models.warm_up_batch m;
                spectral_lines b
                  (Printf.sprintf "%s n=%d d=%d seed=%d"
                     (Churnet_core.Models.kind_name kind) n d seed)
                  (Churnet_core.Models.snapshot m)
              done)
            [ 2; 8 ])
        [ 60; 500 ])
    Churnet_core.Models.all_kinds;
  spectral_lines b "disconnected" (disconnected ());
  spectral_lines b "one-node" (Snapshot.of_edges ~n:1 []);
  spectral_lines b "three-node" (path 3);
  Buffer.contents b

(* The fused call is the two separate ones, bit for bit: below, at and
   above the 150 sweep steps, on components too small for a sweep or for
   any power step, and on graphs with isolated vertices. *)
let test_spectral_fused_matches_separate () =
  let bits msg a b = Alcotest.(check int64) msg (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let graphs =
    [
      ("empty", Snapshot.of_edges ~n:0 []);
      ("one-node", Snapshot.of_edges ~n:1 []);
      ("isolated only", Snapshot.of_edges ~n:4 []);
      ("one edge and isolated", Snapshot.of_edges ~n:5 [ (1, 3) ]);
      ("three-node", path 3);
      ("triangle and isolated", Snapshot.of_edges ~n:6 [ (2, 3); (3, 4); (2, 4) ]);
      ("disconnected", disconnected ());
      ("cycle", cycle 30);
    ]
    @ List.map
        (fun kind ->
          let m = Churnet_core.Models.create ~rng:(Prng.create 17) kind ~n:300 ~d:3 in
          Churnet_core.Models.warm_up_batch m;
          (Churnet_core.Models.kind_name kind, Churnet_core.Models.snapshot m))
        Churnet_core.Models.all_kinds
  in
  List.iter
    (fun (name, snap) ->
      let order = Spectral.sweep_order snap in
      List.iter
        (fun iters ->
          let msg field = Printf.sprintf "%s iters=%d %s" name iters field in
          let (a : Spectral.report) = Spectral.analyze ~iters snap in
          let (f : Spectral.report), forder = Spectral.analyze_with_sweep_order ~iters snap in
          bits (msg "lambda2") a.lambda2 f.lambda2;
          bits (msg "spectral_gap") a.spectral_gap f.spectral_gap;
          bits (msg "cheeger_lower") a.cheeger_lower f.cheeger_lower;
          bits (msg "sweep_conductance") a.sweep_conductance f.sweep_conductance;
          check_int (msg "sweep_set_size") a.sweep_set_size f.sweep_set_size;
          check_int (msg "component_size") a.component_size f.component_size;
          check_bool (msg "sweep order") true (order = forder))
        [ -1; 0; 1; 2; 120; 149; 150; 151; 300 ])
    graphs

(* --- Cross-validation: probe against exact on random graphs --- *)

let qcheck_props =
  [
    QCheck.Test.make ~name:"probe upper-bounds exact h_out" ~count:25
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Prng.create seed in
        let n = 8 + Prng.int rng 8 in
        (* random graph with ~2n edges *)
        let edges = ref [] in
        for _ = 1 to 2 * n do
          let u = Prng.int rng n and v = Prng.int rng n in
          if u <> v then edges := (u, v) :: !edges
        done;
        let snap = Snapshot.of_edges ~n !edges in
        let exact = Exact.h_out snap in
        let probed = (Probe.probe ~rng ~samples_per_size:12 snap).min_expansion in
        probed >= exact -. 1e-9);
  ]

let suite =
  [
    ("exact clique", `Quick, test_exact_clique);
    ("exact cycle", `Quick, test_exact_cycle);
    ("exact path", `Quick, test_exact_path);
    ("exact star", `Quick, test_exact_star);
    ("exact disconnected", `Quick, test_exact_disconnected);
    ("exact isolated vertex", `Quick, test_exact_isolated_vertex);
    ("exact witness", `Quick, test_exact_witness);
    ("exact too large", `Quick, test_exact_too_large);
    ("is_expander", `Quick, test_is_expander);
    ("probe finds isolated", `Quick, test_probe_finds_isolated);
    ("probe on clique", `Quick, test_probe_on_clique);
    ("probe size range", `Quick, test_probe_respects_size_range);
    ("probe vs exact", `Quick, test_probe_matches_exact_on_small_graphs);
    ("probe families", `Quick, test_probe_reports_families);
    ("expansion profile", `Quick, test_expansion_profile);
    ("evaluator = boundary_size", `Quick, test_evaluator_matches_boundary_size);
    ("probe first strict minimum", `Quick, test_probe_first_strict_minimum);
    ("probe matches reference", `Quick, test_probe_matches_reference);
    ("profile matches reference", `Quick, test_profile_matches_reference);
    ("spectral clique", `Quick, test_spectral_clique_gap);
    ("spectral path", `Quick, test_spectral_path_small_gap);
    ("spectral dumbbell", `Quick, test_spectral_sweep_on_dumbbell);
    ("spectral sweep sets", `Quick, test_spectral_sweep_sets_usable);
    ("spectral tiny", `Quick, test_spectral_tiny_graph);
    ("spectral fused = separate", `Quick, test_spectral_fused_matches_separate);
    ( "spectral runs golden",
      `Quick,
      Test_byte_equality.check_case ("spectral_runs", spectral_runs_text) );
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props

let test_probe_empty_range () =
  (* An empty size range yields no candidates: min_expansion is +inf. *)
  let r = Probe.probe ~rng:(Prng.create 91) ~min_size:100 ~max_size:5 (cycle 20) in
  check_bool "no candidates" true (r.candidates_tested = 0);
  check_bool "min is infinity" true (r.min_expansion = infinity)

let suite = suite @ [ ("probe empty range", `Quick, test_probe_empty_range) ]
