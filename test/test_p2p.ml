open Churnet_p2p
module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng
module Streaming_model = Churnet_core.Streaming_model
module Flood = Churnet_core.Flood

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Bitcoin-like --- *)

let test_bitcoin_reaches_target_degree () =
  let m = Bitcoin_like.create ~rng:(Prng.create 1) ~n:300 () in
  Bitcoin_like.warm_up m;
  (* Mean out-degree should approach the target 8. *)
  check_bool "mean out-degree near target" true (Bitcoin_like.mean_out_degree m > 6.5)

let test_bitcoin_respects_in_degree_cap () =
  let m = Bitcoin_like.create ~rng:(Prng.create 2) ~max_in:5 ~n:200 () in
  Bitcoin_like.warm_up m;
  let g = Bitcoin_like.graph m in
  let worst = ref 0 in
  Dyngraph.iter_alive g (fun id ->
      let indeg = Dyngraph.in_degree g id in
      if indeg > !worst then worst := indeg);
  (* Cap can be transiently exceeded only by at most the newborn's seeds;
     enforce a small slack. *)
  check_bool "in-degree capped" true (!worst <= 6)

let test_bitcoin_population_band () =
  let m = Bitcoin_like.create ~rng:(Prng.create 3) ~n:300 () in
  Bitcoin_like.warm_up m;
  let pop = Dyngraph.alive_count (Bitcoin_like.graph m) in
  check_bool "population near n" true (pop > 200 && pop < 400)

let test_bitcoin_graph_invariants () =
  let m = Bitcoin_like.create ~rng:(Prng.create 4) ~n:200 () in
  Bitcoin_like.warm_up m;
  match Dyngraph.check_invariants (Bitcoin_like.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_bitcoin_mostly_connected () =
  let m = Bitcoin_like.create ~rng:(Prng.create 5) ~n:300 () in
  Bitcoin_like.warm_up m;
  let s = Bitcoin_like.snapshot m in
  let frac =
    float_of_int (Snapshot.largest_component s) /. float_of_int (Snapshot.n s)
  in
  check_bool "giant component" true (frac > 0.95)

let test_bitcoin_flood_completes () =
  let m = Bitcoin_like.create ~rng:(Prng.create 6) ~n:300 () in
  Bitcoin_like.warm_up m;
  let tr = Bitcoin_like.flood m in
  check_bool "high coverage" true (tr.Churnet_core.Flood.peak_coverage > 0.9)

let test_bitcoin_tables_fill () =
  let m = Bitcoin_like.create ~rng:(Prng.create 7) ~n:200 () in
  Bitcoin_like.warm_up m;
  check_bool "address tables populated" true (Bitcoin_like.mean_table_fill m > 8.)

let test_bitcoin_time_advances () =
  let m = Bitcoin_like.create ~rng:(Prng.create 8) ~n:100 () in
  Bitcoin_like.advance_time m 5.;
  check_bool "time >= 5" true (Bitcoin_like.time m >= 5.)

(* --- Random-walk streaming --- *)

let test_rw_population () =
  let m = Rw_streaming.create ~rng:(Prng.create 11) ~n:150 ~d:3 () in
  Streaming_model.warm_up m;
  check_int "population n" 150 (Dyngraph.alive_count (Streaming_model.graph m))

let test_rw_connected () =
  let m = Rw_streaming.create ~rng:(Prng.create 12) ~n:300 ~d:3 () in
  Streaming_model.warm_up m;
  let s = Streaming_model.snapshot m in
  let frac = float_of_int (Snapshot.largest_component s) /. float_of_int (Snapshot.n s) in
  (* The simplified token protocol (no constant recirculation) still loses
     a few old nodes; it must keep a giant component nonetheless. *)
  check_bool "giant component" true (frac > 0.8)

let test_rw_flood_completes () =
  let m = Rw_streaming.create ~rng:(Prng.create 13) ~n:250 ~d:4 () in
  Streaming_model.warm_up m;
  let tr = Flood.run_streaming ~max_rounds:120 m in
  check_bool "high coverage" true (tr.Churnet_core.Flood.peak_coverage > 0.85)

let test_rw_degree_bias () =
  (* Walk endpoints are degree-biased: the degree distribution should be
     more skewed than the uniform model's.  Smoke check: max degree is
     noticeably above d+average. *)
  let m = Rw_streaming.create ~rng:(Prng.create 14) ~n:400 ~d:3 () in
  Streaming_model.warm_up m;
  let s = Streaming_model.snapshot m in
  check_bool "skewed degrees" true (Snapshot.max_degree s >= 10)

let test_rw_invariants () =
  let m = Rw_streaming.create ~rng:(Prng.create 15) ~n:150 ~d:3 () in
  Streaming_model.warm_up m;
  match Dyngraph.check_invariants (Streaming_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* --- Cache protocol --- *)

let test_cache_population () =
  let m = Cache_protocol.create ~rng:(Prng.create 21) ~n:150 ~d:3 () in
  Streaming_model.warm_up m;
  check_int "population n" 150 (Dyngraph.alive_count (Streaming_model.graph m))

let test_cache_connected_core () =
  let m = Cache_protocol.create ~rng:(Prng.create 22) ~n:300 ~d:3 () in
  Streaming_model.warm_up m;
  let s = Streaming_model.snapshot m in
  let frac = float_of_int (Snapshot.largest_component s) /. float_of_int (Snapshot.n s) in
  check_bool "giant component" true (frac > 0.8)

let test_cache_flood_mostly_covers () =
  let m = Cache_protocol.create ~rng:(Prng.create 23) ~n:250 ~d:4 () in
  Streaming_model.warm_up m;
  let tr = Flood.run_streaming ~max_rounds:120 m in
  check_bool "high coverage" true (tr.Churnet_core.Flood.peak_coverage > 0.75)

let test_cache_invariants () =
  let m = Cache_protocol.create ~rng:(Prng.create 24) ~n:150 ~d:3 () in
  Streaming_model.warm_up m;
  match Dyngraph.check_invariants (Streaming_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_cache_newborn_targets_from_cache () =
  (* With cache_size 1 the newborn always connects to the cached node. *)
  let m = Cache_protocol.create ~rng:(Prng.create 25) ~cache_size:1 ~n:50 ~d:2 () in
  Streaming_model.run m 30;
  let g = Streaming_model.graph m in
  let newest = Streaming_model.newest m in
  let targets = Dyngraph.out_targets g newest in
  check_bool "targets identical" true
    (match targets with
    | [] -> false
    | t :: rest -> List.for_all (fun x -> x = t) rest)

let suite =
  [
    ("bitcoin target degree", `Quick, test_bitcoin_reaches_target_degree);
    ("bitcoin in-degree cap", `Quick, test_bitcoin_respects_in_degree_cap);
    ("bitcoin population", `Quick, test_bitcoin_population_band);
    ("bitcoin invariants", `Quick, test_bitcoin_graph_invariants);
    ("bitcoin giant component", `Quick, test_bitcoin_mostly_connected);
    ("bitcoin flood", `Quick, test_bitcoin_flood_completes);
    ("bitcoin address tables", `Quick, test_bitcoin_tables_fill);
    ("bitcoin time", `Quick, test_bitcoin_time_advances);
    ("rw population", `Quick, test_rw_population);
    ("rw connected", `Quick, test_rw_connected);
    ("rw flood", `Quick, test_rw_flood_completes);
    ("rw degree bias", `Quick, test_rw_degree_bias);
    ("rw invariants", `Quick, test_rw_invariants);
    ("cache population", `Quick, test_cache_population);
    ("cache connected", `Quick, test_cache_connected_core);
    ("cache flood", `Quick, test_cache_flood_mostly_covers);
    ("cache invariants", `Quick, test_cache_invariants);
    ("cache newborn targets", `Quick, test_cache_newborn_targets_from_cache);
  ]

(* --- Local update protocol (Duchon-Duvignau flavour) --- *)

let test_local_update_degree_conservation () =
  let m = Local_update.create ~rng:(Prng.create 41) ~n:300 ~d:4 () in
  Streaming_model.warm_up m;
  let g = Streaming_model.graph m in
  (* Takeover conserves out-degrees: everyone sits at exactly d, except
     possibly a couple of nodes hit by donor collisions. *)
  let below = ref 0 in
  Dyngraph.iter_alive g (fun id ->
      let od = Dyngraph.out_degree g id in
      check_bool "out-degree at most d" true (od <= 4);
      if od < 4 then incr below);
  check_bool "almost all at exactly d" true (!below <= 6)

let test_local_update_bounded_in_degree () =
  (* The takeover dynamics also keep in-degrees small (no Theta(log n)
     hubs) — the interesting contrast with SDGR. *)
  let m = Local_update.create ~rng:(Prng.create 42) ~n:400 ~d:4 () in
  Streaming_model.warm_up m;
  let s = Streaming_model.snapshot m in
  check_bool "max degree stays ~ 2d + slack" true (Snapshot.max_degree s <= 16)

let test_local_update_connected () =
  let m = Local_update.create ~rng:(Prng.create 43) ~n:400 ~d:4 () in
  Streaming_model.warm_up m;
  let s = Streaming_model.snapshot m in
  let frac = float_of_int (Snapshot.largest_component s) /. float_of_int (Snapshot.n s) in
  check_bool "giant component" true (frac > 0.95)

let test_local_update_flood () =
  let m = Local_update.create ~rng:(Prng.create 44) ~n:300 ~d:5 () in
  Streaming_model.warm_up m;
  let tr = Flood.run_streaming ~max_rounds:120 m in
  check_bool "high coverage" true (tr.Churnet_core.Flood.peak_coverage > 0.9)

let test_local_update_invariants () =
  let m = Local_update.create ~rng:(Prng.create 45) ~n:200 ~d:3 () in
  Streaming_model.warm_up m;
  match Dyngraph.check_invariants (Streaming_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_disconnect_primitive () =
  let g = Dyngraph.create ~rng:(Prng.create 46) ~d:2 ~regenerate:false () in
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  (* b points at a twice. *)
  check_bool "disconnect succeeds" true (Dyngraph.disconnect g ~src:b ~dst:a);
  Alcotest.(check int) "one slot cleared" 1 (Dyngraph.out_degree g b);
  check_bool "second disconnect" true (Dyngraph.disconnect g ~src:b ~dst:a);
  check_bool "third fails" false (Dyngraph.disconnect g ~src:b ~dst:a);
  Alcotest.(check int) "a isolated" 0 (Dyngraph.degree g a);
  match Dyngraph.check_invariants g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let suite =
  suite
  @ [
      ("local update degree conservation", `Quick, test_local_update_degree_conservation);
      ("local update bounded in-degree", `Quick, test_local_update_bounded_in_degree);
      ("local update connected", `Quick, test_local_update_connected);
      ("local update flood", `Quick, test_local_update_flood);
      ("local update invariants", `Quick, test_local_update_invariants);
      ("disconnect primitive", `Quick, test_disconnect_primitive);
    ]

(* --- Pinned runs --- *)

(* Every protocol-driven model, pinned run by run: the MD5 of the arena's
   checkpoint bytes after [warm_up], then the completion round and peak
   coverage of a flood from that state.  The F10/X1 goldens cover only a
   couple of trials at one n; this grid lets a refactor of the repair
   loops or neighbour picks show it kept every draw in place.
   Regenerating (only after an intentional behavior change):
     CHURNET_GOLDEN_OUT=$PWD/test/golden dune exec test/test_main.exe -- \
       test p2p *)
let p2p_runs_text () =
  let b = Buffer.create 8192 in
  let graph_md5 g =
    let w = Churnet_util.Codec.writer () in
    Dyngraph.encode w g;
    Digest.to_hex (Digest.string (Churnet_util.Codec.contents w))
  in
  let d = 4 in
  let runs =
    [
      ( "bitcoin",
        fun rng ~n ->
          let m = Bitcoin_like.create ~rng ~n () in
          Bitcoin_like.warm_up m;
          (Bitcoin_like.graph m, fun () -> Bitcoin_like.flood ~max_rounds:80 m) );
      ( "rw",
        fun rng ~n ->
          let m = Rw_streaming.create ~rng ~n ~d () in
          Streaming_model.warm_up m;
          (Streaming_model.graph m, fun () -> Flood.run_streaming ~max_rounds:80 m) );
      ( "cache",
        fun rng ~n ->
          let m = Cache_protocol.create ~rng ~n ~d () in
          Streaming_model.warm_up m;
          (Streaming_model.graph m, fun () -> Flood.run_streaming ~max_rounds:80 m) );
      ( "local",
        fun rng ~n ->
          let m = Local_update.create ~rng ~n ~d () in
          Streaming_model.warm_up m;
          (Streaming_model.graph m, fun () -> Flood.run_streaming ~max_rounds:80 m) );
      ( "capped-d+1",
        fun rng ~n ->
          let m = Churnet_core.Capped_model.create ~rng ~n ~d ~cap:(d + 1) () in
          Churnet_core.Capped_model.warm_up m;
          ( Churnet_core.Capped_model.graph m,
            fun () -> Churnet_core.Capped_model.flood ~max_rounds:80 m ) );
      ( "capped-inf",
        fun rng ~n ->
          let m = Churnet_core.Capped_model.create ~rng ~n ~d ~cap:max_int () in
          Churnet_core.Capped_model.warm_up m;
          ( Churnet_core.Capped_model.graph m,
            fun () -> Churnet_core.Capped_model.flood ~max_rounds:80 m ) );
      ( "lazy-regen",
        fun rng ~n ->
          let m = Churnet_core.Lazy_regen_model.create ~rng ~n ~d ~period:1.0 () in
          Churnet_core.Lazy_regen_model.warm_up m;
          ( Churnet_core.Lazy_regen_model.graph m,
            fun () -> Churnet_core.Lazy_regen_model.flood ~max_rounds:80 m ) );
      ( "lazy-regen-0.25",
        fun rng ~n ->
          let m = Churnet_core.Lazy_regen_model.create ~rng ~n ~d ~period:0.25 () in
          Churnet_core.Lazy_regen_model.warm_up m;
          ( Churnet_core.Lazy_regen_model.graph m,
            fun () -> Churnet_core.Lazy_regen_model.flood ~max_rounds:80 m ) );
      ( "lazy-regen-4",
        fun rng ~n ->
          let m = Churnet_core.Lazy_regen_model.create ~rng ~n ~d ~period:4.0 () in
          Churnet_core.Lazy_regen_model.warm_up m;
          ( Churnet_core.Lazy_regen_model.graph m,
            fun () -> Churnet_core.Lazy_regen_model.flood ~max_rounds:80 m ) );
      ( "capped-2d-retries4",
        fun rng ~n ->
          let m = Churnet_core.Capped_model.create ~rng ~retries:4 ~n ~d ~cap:(2 * d) () in
          Churnet_core.Capped_model.warm_up m;
          ( Churnet_core.Capped_model.graph m,
            fun () -> Churnet_core.Capped_model.flood ~max_rounds:80 m ) );
      ( "bitcoin-in5",
        fun rng ~n ->
          let m = Bitcoin_like.create ~rng ~max_in:5 ~n () in
          Bitcoin_like.warm_up m;
          (Bitcoin_like.graph m, fun () -> Bitcoin_like.flood ~max_rounds:80 m) );
    ]
    @ List.map
        (fun (name, size) ->
          ( name,
            fun rng ~n ->
              let m =
                Churnet_core.Burst_model.create ~rng ~n ~d ~burst_every:4
                  ~burst_size:(size n) ()
              in
              Streaming_model.warm_up m;
              ( Streaming_model.graph m,
                fun () -> Flood.run_streaming ~max_rounds:80 m ) ))
        [ ("burst-0", fun _ -> 0); ("burst-n/20", fun n -> n / 20); ("burst-n/5", fun n -> n / 5) ]
  in
  let pin name run ~n ~seeds =
    for seed = 1 to seeds do
      let g, flood = run (Prng.create seed) ~n in
      let md5 = graph_md5 g in
      let tr = flood () in
      Printf.bprintf b "%s n=%d seed=%d graph=%s completion=%s peak=%h\n" name n seed md5
        (match tr.Churnet_core.Flood.completion_round with
        | Some r -> string_of_int r
        | None -> "-")
        tr.Churnet_core.Flood.peak_coverage
    done
  in
  List.iter (fun (name, run) -> List.iter (fun n -> pin name run ~n ~seeds:5) [ 50; 300 ]) runs;
  (* F10's and X1's standard sizes: the Bitcoin-like tables and the
     capped repair loop at the scale the registry cells run them. *)
  pin "bitcoin" (List.assoc "bitcoin" runs) ~n:1500 ~seeds:3;
  pin "capped-d+1 d=8"
    (fun rng ~n ->
      let d = 8 in
      let m = Churnet_core.Capped_model.create ~rng ~n ~d ~cap:(d + 1) () in
      Churnet_core.Capped_model.warm_up m;
      (Churnet_core.Capped_model.graph m, fun () -> Churnet_core.Capped_model.flood ~max_rounds:80 m))
    ~n:2000 ~seeds:3;
  Buffer.contents b

let suite =
  suite @ [ ("p2p runs golden", `Quick, Test_byte_equality.check_case ("p2p_runs", p2p_runs_text)) ]

(* --- Repair runs past the smoke sizes --- *)

(* Arena digest before and after a flood, and the flood's trace, for
   runs whose repair sets outgrow what the p2p runs golden reaches:
   lazy regeneration at period 100, whose owing set passes 512 nodes
   (seeds 2 and 4; 489 and 496 for seeds 1 and 3) and so doubles its
   256 buckets between ticks and shrinks back at each tick, and the
   Bitcoin-like model at n = 1500, whose address-table rows span 1500+
   arena slots.  Captured from the model code as it stood when the owing
   set and the address tables lived in Stdlib hash tables. *)
let large_repair_lines () =
  let graph_md5 g =
    let w = Churnet_util.Codec.writer () in
    Dyngraph.encode w g;
    Digest.to_hex (Digest.string (Churnet_util.Codec.contents w))
  in
  let line name seed g flood =
    let before = graph_md5 g in
    let tr : Flood.trace = flood () in
    let b = Buffer.create 256 in
    Array.iter (Printf.bprintf b "%d,") tr.informed_per_round;
    Buffer.add_char b '/';
    Array.iter (Printf.bprintf b "%d,") tr.population_per_round;
    Printf.sprintf "%s seed=%d graph=%s rounds=%d completion=%s peak=%h trace=%s after=%s" name seed
      before tr.rounds
      (match tr.completion_round with Some r -> string_of_int r | None -> "-")
      tr.peak_coverage
      (Digest.to_hex (Digest.string (Buffer.contents b)))
      (graph_md5 g)
  in
  List.init 4 (fun i ->
      let seed = i + 1 in
      let m =
        Churnet_core.Lazy_regen_model.create ~rng:(Prng.create seed) ~n:6000 ~d:4 ~period:100. ()
      in
      Churnet_core.Lazy_regen_model.warm_up m;
      line "lazy-regen-100 n=6000" seed (Churnet_core.Lazy_regen_model.graph m) (fun () ->
          Churnet_core.Lazy_regen_model.flood ~max_rounds:80 m))
  @ List.init 2 (fun i ->
        let seed = i + 1 in
        let m = Bitcoin_like.create ~rng:(Prng.create seed) ~n:1500 () in
        Bitcoin_like.warm_up m;
        line "bitcoin n=1500" seed (Bitcoin_like.graph m) (fun () ->
            Bitcoin_like.flood ~max_rounds:80 m))

let test_large_repair_runs () =
  Alcotest.(check (list string))
    "digests and traces"
    [
      "lazy-regen-100 n=6000 seed=1 graph=7d81056f0b502284e9b7c788a1000b8b rounds=9 completion=9 \
       peak=0x1.ffea7fa9fea8p-1 trace=6383abee7550f5063e1c90e44d3b93de \
       after=b609310ae08cb0d539db52858b422d6a";
      "lazy-regen-100 n=6000 seed=2 graph=af4ea090e404fb32e474f8f53f93dcc1 rounds=6 completion=6 \
       peak=0x1.ffea786e56ca8p-1 trace=9d93f3de057e21735fe832028096b4ab \
       after=882b8949e34267a1092c96e59be58cf7";
      "lazy-regen-100 n=6000 seed=3 graph=ecfaaa280c4945cf17a4d8d331f5db47 rounds=6 completion=6 \
       peak=0x1.ffe9d925db65dp-1 trace=6ed1aea108d98fb78e1a3e1314be1168 \
       after=2b0a0425cd547a56903a7670fffe603b";
      "lazy-regen-100 n=6000 seed=4 graph=be760a9b2abde6e4d6c4fbc249bfac67 rounds=8 completion=8 \
       peak=0x1p+0 trace=8498109b02b0624d4eb3aa28c242a560 after=d19b652415b37f927f237a8ac88b5673";
      "bitcoin n=1500 seed=1 graph=543cb72387061a1628c921dc153e8314 rounds=4 completion=4 \
       peak=0x1.ffa9c4b73dfaap-1 trace=e57be9bb76030cb8ffb30bb9df767923 \
       after=f7a80de979e20b306df15209afe44265";
      "bitcoin n=1500 seed=2 graph=6d58dd7406b7a87c9ac4d08776a73db5 rounds=7 completion=7 \
       peak=0x1.ffaa8e2f6521bp-1 trace=b8210398cf52b8fe04f33103b7c477dc \
       after=9bbfd391ea5d9c8eb7464d4c5e96b71a";
    ]
    (large_repair_lines ())

let suite = suite @ [ ("large repair runs", `Quick, test_large_repair_runs) ]

(* --- Allocation on the protocol step --- *)

(* Steady-state minor words per [step] at n = 300, d = 8, after
   [warm_up] and a settling run that lets the scratch vectors, the owing
   set and the address-table rows reach their working size.  All three
   models then allocate well under a word per step (0.24, 0.34 and 0.01
   measured); what is left is in-edge spill growth.  Upper bounds, so a
   build with cross-module inlining (which only allocates less) passes
   too. *)
let steady_words_per_step ~warm_up ~step =
  warm_up ();
  for _ = 1 to 2000 do
    step ()
  done;
  let steps = 20_000 in
  let before = Gc.minor_words () in
  for _ = 1 to steps do
    step ()
  done;
  (Gc.minor_words () -. before) /. float_of_int steps

let test_step_allocation () =
  let n = 300 and d = 8 in
  let rw = Rw_streaming.create ~rng:(Prng.create 51) ~n ~d () in
  let btc = Bitcoin_like.create ~rng:(Prng.create 52) ~target_out:d ~n () in
  let capped = Churnet_core.Capped_model.create ~rng:(Prng.create 53) ~n ~d ~cap:(d + 1) () in
  List.iter
    (fun (name, bound, warm_up, step) ->
      let w = steady_words_per_step ~warm_up ~step in
      check_bool (Printf.sprintf "%s: %.2f words per step <= %g" name w bound) true (w <= bound))
    [
      ( "Rw_streaming",
        2.,
        (fun () -> Streaming_model.warm_up rw),
        fun () -> Streaming_model.step rw );
      ( "Bitcoin_like",
        2.,
        (fun () -> Bitcoin_like.warm_up btc),
        fun () -> Bitcoin_like.step btc );
      ( "Capped_model",
        2.,
        (fun () -> Churnet_core.Capped_model.warm_up capped),
        fun () -> Churnet_core.Capped_model.step capped );
    ]

let suite = suite @ [ ("steady-state step allocation", `Quick, test_step_allocation) ]

(* --- Repair_churn contract --- *)

module Repair_churn = Churnet_core.Repair_churn
module Intvec = Churnet_util.Intvec

(* The owing set in table order, copied out of the scratch queue. *)
let owing rc =
  let q = Repair_churn.queue rc in
  List.init (Intvec.length q) (Intvec.get q)

let test_repair_churn_death () =
  let rc = Repair_churn.create ~rng:(Prng.create 61) ~n:40 ~d:3 in
  let g = Repair_churn.graph rc in
  let deaths = ref 0 and orphaned = ref 0 in
  for k = 1 to 400 do
    let alive = ref [] in
    Dyngraph.iter_alive g (fun id -> alive := id :: !alive);
    let in_before = List.map (fun id -> (id, Dyngraph.in_neighbors g id)) !alive in
    (* Even jumps start with every alive node owing, so the victim's exit
       shows; odd ones start empty, so the queue is exactly the orphans. *)
    Repair_churn.forgive_all rc;
    if k mod 2 = 0 then List.iter (Repair_churn.owe rc) !alive;
    let victim = Repair_churn.jump rc in
    if victim < 0 then ignore (Dyngraph.add_node g ~birth:(Repair_churn.round rc))
    else begin
      incr deaths;
      let q = owing rc in
      let orphans = List.filter (Dyngraph.is_alive g) (List.assoc victim in_before) in
      orphaned := !orphaned + List.length orphans;
      check_bool "victim not queued" false (List.mem victim q);
      List.iter (fun u -> check_bool "alive in-neighbour queued" true (List.mem u q)) orphans;
      if k mod 2 = 1 then
        Alcotest.(check (list int)) "queue = alive in-neighbours" orphans (List.sort Int.compare q)
    end
  done;
  check_bool "deaths with orphans happened" true (!deaths > 50 && !orphaned > 50)

let test_repair_churn_forgive_all () =
  let rc = Repair_churn.create ~rng:(Prng.create 62) ~n:20 ~d:2 in
  let g = Repair_churn.graph rc in
  for i = 1 to 10 do
    Repair_churn.owe rc (Dyngraph.add_node_with_targets g ~birth:i ~targets:[||])
  done;
  check_int "ten owing" 10 (List.length (owing rc));
  check_int "two slots each" 20 (Repair_churn.missing_slots rc);
  Repair_churn.forgive_all rc;
  check_int "nothing owing" 0 (List.length (owing rc));
  check_int "nothing missing" 0 (Repair_churn.missing_slots rc)

let test_repair_churn_queue_pass () =
  let rc = Repair_churn.create ~rng:(Prng.create 63) ~n:20 ~d:2 in
  List.iter (Repair_churn.owe rc) [ 3; 1; 4; 15; 9; 2; 6 ];
  let before = owing rc in
  let q = Repair_churn.queue rc and served = ref [] in
  while Intvec.length q > 0 do
    let id = Intvec.pop q in
    served := id :: !served;
    Repair_churn.settle rc id;
    Repair_churn.owe rc (id + 100);
    if id = 4 then Repair_churn.settle rc 9
  done;
  Alcotest.(check (list int)) "the pass serves the set it started with, last-visited first" before
    !served;
  Alcotest.(check (list int)) "changes made during the pass show in the next one"
    (List.map (fun id -> id + 100) (List.sort Int.compare before))
    (List.sort Int.compare (owing rc))

let suite =
  suite
  @ [
      ("repair churn death", `Quick, test_repair_churn_death);
      ("repair churn forgive_all", `Quick, test_repair_churn_forgive_all);
      ("repair churn queue pass", `Quick, test_repair_churn_queue_pass);
    ]
