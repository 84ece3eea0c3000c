(* Tests for the extension modules: Gossip, Capped_model,
   Lazy_regen_model, Burst_model. *)
open Churnet_core
module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Gossip --- *)

let gossip_on kind ~strategy ~seed =
  let rng = Prng.create seed in
  let grng = Prng.split rng in
  let m = Models.create ~rng kind ~n:250 ~d:8 in
  Models.warm_up_batch m;
  Gossip.run ~rng:grng ~strategy m

let test_gossip_push_pull_completes_sdgr () =
  let tr = gossip_on Models.SDGR ~strategy:Gossip.Push_pull ~seed:1 in
  check_bool "completed" true tr.completed;
  check_bool "O(log n) rounds" true
    (match tr.completion_round with Some r -> r <= 40 | None -> false)

let test_gossip_push_pull_completes_pdgr () =
  let tr = gossip_on Models.PDGR ~strategy:Gossip.Push_pull ~seed:2 in
  check_bool "completed" true tr.completed

let test_gossip_slower_than_flooding () =
  (* Gossip contacts one neighbor per round, so it cannot beat flooding. *)
  let m1 = Models.create ~rng:(Prng.create 3) Models.SDGR ~n:250 ~d:8 in
  Models.warm_up_batch m1;
  let flood_tr = Models.flood m1 in
  let gossip_tr = gossip_on Models.SDGR ~strategy:Gossip.Push ~seed:3 in
  match (flood_tr.completion_round, gossip_tr.completion_round) with
  | Some f, Some g -> check_bool "gossip >= flooding rounds" true (g >= f)
  | _ -> Alcotest.fail "both should complete"

let test_gossip_trace_consistency () =
  let tr = gossip_on Models.SDGR ~strategy:Gossip.Pull ~seed:4 in
  check_int "log lengths" (Array.length tr.informed_per_round)
    (Array.length tr.population_per_round);
  check_int "starts at 1" 1 tr.informed_per_round.(0);
  check_bool "messages counted" true (tr.messages_sent > 0);
  check_bool "peak coverage sane" true (tr.peak_coverage > 0. && tr.peak_coverage <= 1.)

let test_gossip_message_budgets () =
  (* Push sends at most one message per informed node per round; pull at
     most one per uninformed node per round. *)
  let tr = gossip_on Models.SDGR ~strategy:Gossip.Push ~seed:5 in
  let bound =
    Array.fold_left ( + ) 0 tr.informed_per_round + Array.length tr.informed_per_round
  in
  check_bool "push message bound" true (tr.messages_sent <= bound)

let test_gossip_strategy_names () =
  Alcotest.(check string) "push" "push" (Gossip.strategy_name Gossip.Push);
  Alcotest.(check string) "pull" "pull" (Gossip.strategy_name Gossip.Pull);
  Alcotest.(check string) "push-pull" "push-pull" (Gossip.strategy_name Gossip.Push_pull)

(* Gossip determinism: the model and the protocol own separate PRNG
   streams, so the caller controls each independently. *)

let gossip_seeded kind ~strategy ~model_seed ~gossip_seed ~n ~d =
  let m = Models.create ~rng:(Prng.create model_seed) kind ~n ~d in
  Models.warm_up_batch m;
  Gossip.run ~rng:(Prng.create gossip_seed) ~strategy m

let test_gossip_deterministic () =
  let run () =
    gossip_seeded Models.SDGR ~strategy:Gossip.Push_pull ~model_seed:6 ~gossip_seed:60
      ~n:250 ~d:8
  in
  check_bool "same seeds give the identical trace" true (run () = run ())

let test_gossip_uses_caller_rng () =
  (* Regression: Gossip.run used to hard-code its own PRNG seed, so the
     caller's generator was ignored and every trial made the same random
     neighbor choices.  Same model, different gossip seeds must differ. *)
  let with_gossip_seed gossip_seed =
    gossip_seeded Models.SDGR ~strategy:Gossip.Push_pull ~model_seed:6 ~gossip_seed
      ~n:250 ~d:8
  in
  check_bool "different gossip seeds give different traces" true
    (with_gossip_seed 60 <> with_gossip_seed 61)

let test_gossip_trials_draw_distinct_randomness () =
  (* The replication idiom: a fixed model seed with per-trial split gossip
     generators.  Under the old hard-coded seed all eight trials were
     bit-identical; now they must actually sample the protocol's
     randomness. *)
  let rng = Prng.create 77 in
  let traces =
    Churnet_util.Parallel.replicate ~domains:2 ~rng ~trials:8 (fun grng ->
        let m = Models.create ~rng:(Prng.create 123) Models.SDGR ~n:200 ~d:6 in
        Models.warm_up_batch m;
        Gossip.run ~rng:grng ~strategy:Gossip.Push m)
  in
  let distinct =
    Array.fold_left
      (fun acc tr -> if List.exists (fun t -> t = tr) acc then acc else tr :: acc)
      [] traces
  in
  check_bool "trials draw distinct gossip randomness" true (List.length distinct >= 2)

let test_gossip_extinction_fields () =
  (* A tiny non-regenerating streaming model with d = 1 and push gossip:
     the rumor regularly strands on dead-end nodes and the informed set
     dies of old age.  Extinct traces must carry a consistent
     extinction_round instead of masquerading as a run that hit the
     round bound (the old [r := max_rounds] hack). *)
  let extinct_seen = ref 0 in
  for seed = 1 to 40 do
    let tr =
      gossip_seeded Models.SDG ~strategy:Gossip.Push ~model_seed:seed
        ~gossip_seed:(1000 + seed) ~n:40 ~d:1
    in
    if tr.extinct then begin
      incr extinct_seen;
      check_bool "extinct trace not completed" false tr.completed;
      check_bool "extinction round matches the trace length" true
        (match tr.extinction_round with Some r -> r = tr.rounds && r >= 1 | None -> false);
      check_int "informed set ends empty" 0
        tr.informed_per_round.(Array.length tr.informed_per_round - 1)
    end
    else
      check_bool "non-extinct trace has no extinction round" true
        (tr.extinction_round = None)
  done;
  check_bool "the seed sweep exhibits extinction" true (!extinct_seen > 0)

(* --- Capped model --- *)

let test_capped_respects_cap () =
  let cap = 10 in
  let m = Capped_model.create ~rng:(Prng.create 11) ~n:300 ~d:6 ~cap () in
  Capped_model.warm_up m;
  check_bool "max in-degree <= cap" true (Capped_model.max_in_degree m <= cap)

let test_capped_keeps_out_degree () =
  let m = Capped_model.create ~rng:(Prng.create 12) ~n:300 ~d:6 ~cap:24 () in
  Capped_model.warm_up m;
  check_bool "mean out-degree ~ d" true (Capped_model.mean_out_degree m > 5.5)

let test_capped_tight_cap_parks_requests () =
  (* cap = d exactly forces average in-degree = average out-degree = d,
     so some requests must wait. *)
  let m = Capped_model.create ~rng:(Prng.create 13) ~retries:4 ~n:300 ~d:6 ~cap:6 () in
  Capped_model.warm_up m;
  check_bool "in-degree still capped" true (Capped_model.max_in_degree m <= 6);
  check_bool "out-degree slightly below d or parked requests exist" true
    (Capped_model.mean_out_degree m <= 6.0)

let test_capped_flood_completes () =
  let m = Capped_model.create ~rng:(Prng.create 14) ~n:300 ~d:8 ~cap:16 () in
  Capped_model.warm_up m;
  let tr = Capped_model.flood m in
  check_bool "high coverage" true (tr.peak_coverage > 0.95)

let test_capped_invalid_cap () =
  Alcotest.check_raises "cap 0" (Invalid_argument "Capped_model.create: cap must be >= 1")
    (fun () -> ignore (Capped_model.create ~rng:(Prng.create 0xCA9) ~n:100 ~d:4 ~cap:0 ()))

let test_capped_invariants () =
  let m = Capped_model.create ~rng:(Prng.create 15) ~n:200 ~d:5 ~cap:10 () in
  Capped_model.warm_up m;
  match Dyngraph.check_invariants (Capped_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* --- Lazy regeneration --- *)

let test_lazy_regen_fast_period_like_pdgr () =
  let m = Lazy_regen_model.create ~rng:(Prng.create 21) ~n:300 ~d:5 ~period:0.2 () in
  Lazy_regen_model.warm_up m;
  (* With near-instant repair, almost no slot stays broken. *)
  check_bool "few broken slots" true (Lazy_regen_model.broken_slots m < 10)

let test_lazy_regen_slow_period_degrades () =
  let fast = Lazy_regen_model.create ~rng:(Prng.create 22) ~n:300 ~d:5 ~period:0.2 () in
  Lazy_regen_model.warm_up fast;
  let slow = Lazy_regen_model.create ~rng:(Prng.create 22) ~n:300 ~d:5 ~period:50. () in
  Lazy_regen_model.warm_up slow;
  (* Average over several instants to dodge repair-phase effects. *)
  let avg m =
    let acc = ref 0 in
    for _ = 1 to 6 do
      Lazy_regen_model.advance_time m 17.;
      acc := !acc + Lazy_regen_model.broken_slots m
    done;
    !acc
  in
  check_bool "slow repair has more broken slots" true (avg slow > avg fast)

let test_lazy_regen_flood () =
  let m = Lazy_regen_model.create ~rng:(Prng.create 23) ~n:300 ~d:8 ~period:2.0 () in
  Lazy_regen_model.warm_up m;
  let tr = Lazy_regen_model.flood m in
  check_bool "high coverage" true (tr.peak_coverage > 0.9)

let test_lazy_regen_invalid_period () =
  Alcotest.check_raises "period 0"
    (Invalid_argument "Lazy_regen_model.create: period must be positive") (fun () ->
      ignore (Lazy_regen_model.create ~rng:(Prng.create 0x1A2) ~n:100 ~d:4 ~period:0. ()))

let test_lazy_regen_invariants () =
  let m = Lazy_regen_model.create ~rng:(Prng.create 24) ~n:200 ~d:4 ~period:3. () in
  Lazy_regen_model.warm_up m;
  match Dyngraph.check_invariants (Lazy_regen_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* --- Burst model --- *)

let test_burst_population_stays_n () =
  let n = 200 in
  let m = Burst_model.create ~rng:(Prng.create 31) ~n ~d:6 ~burst_every:5 ~burst_size:20 () in
  Burst_model.warm_up m;
  check_int "population n" n (Dyngraph.alive_count (Burst_model.graph m))

let test_burst_fires () =
  let m = Burst_model.create ~rng:(Prng.create 32) ~n:100 ~d:4 ~burst_every:10 ~burst_size:5 () in
  Burst_model.run m 100;
  check_bool "bursts fired" true (Burst_model.bursts_fired m >= 9)

let test_burst_zero_size_is_plain_sdgr () =
  let m = Burst_model.create ~rng:(Prng.create 33) ~n:150 ~d:8 ~burst_every:3 ~burst_size:0 () in
  Burst_model.warm_up m;
  check_int "no bursts" 0 (Burst_model.bursts_fired m);
  let tr = Burst_model.flood m in
  check_bool "completes" true tr.completed

let test_burst_flood_survives_moderate_bursts () =
  let m = Burst_model.create ~rng:(Prng.create 34) ~n:300 ~d:10 ~burst_every:4 ~burst_size:15 () in
  Burst_model.warm_up m;
  let tr = Burst_model.flood ~max_rounds:120 m in
  check_bool "high coverage under bursts" true (tr.peak_coverage > 0.9)

let test_burst_invalid_args () =
  check_bool "burst_size >= n rejected" true
    (try
       ignore (Burst_model.create ~rng:(Prng.create 0xB0B) ~n:100 ~d:4 ~burst_every:5 ~burst_size:100 ());
       false
     with Invalid_argument _ -> true);
  check_bool "burst_every 0 rejected" true
    (try
       ignore (Burst_model.create ~rng:(Prng.create 0xB0B) ~n:100 ~d:4 ~burst_every:0 ~burst_size:5 ());
       false
     with Invalid_argument _ -> true)

let test_burst_invariants () =
  let m = Burst_model.create ~rng:(Prng.create 35) ~n:150 ~d:5 ~burst_every:4 ~burst_size:10 () in
  Burst_model.warm_up m;
  match Dyngraph.check_invariants (Burst_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let suite =
  [
    ("gossip push-pull SDGR", `Quick, test_gossip_push_pull_completes_sdgr);
    ("gossip push-pull PDGR", `Quick, test_gossip_push_pull_completes_pdgr);
    ("gossip slower than flooding", `Quick, test_gossip_slower_than_flooding);
    ("gossip trace consistency", `Quick, test_gossip_trace_consistency);
    ("gossip message budget", `Quick, test_gossip_message_budgets);
    ("gossip names", `Quick, test_gossip_strategy_names);
    ("gossip deterministic", `Quick, test_gossip_deterministic);
    ("gossip uses caller rng", `Quick, test_gossip_uses_caller_rng);
    ("gossip trials distinct", `Quick, test_gossip_trials_draw_distinct_randomness);
    ("gossip extinction fields", `Quick, test_gossip_extinction_fields);
    ("capped respects cap", `Quick, test_capped_respects_cap);
    ("capped keeps out-degree", `Quick, test_capped_keeps_out_degree);
    ("capped tight cap", `Quick, test_capped_tight_cap_parks_requests);
    ("capped flood", `Quick, test_capped_flood_completes);
    ("capped invalid", `Quick, test_capped_invalid_cap);
    ("capped invariants", `Quick, test_capped_invariants);
    ("lazy regen fast period", `Quick, test_lazy_regen_fast_period_like_pdgr);
    ("lazy regen slow degrades", `Quick, test_lazy_regen_slow_period_degrades);
    ("lazy regen flood", `Quick, test_lazy_regen_flood);
    ("lazy regen invalid", `Quick, test_lazy_regen_invalid_period);
    ("lazy regen invariants", `Quick, test_lazy_regen_invariants);
    ("burst population", `Quick, test_burst_population_stays_n);
    ("burst fires", `Quick, test_burst_fires);
    ("burst zero size", `Quick, test_burst_zero_size_is_plain_sdgr);
    ("burst flood", `Quick, test_burst_flood_survives_moderate_bursts);
    ("burst invalid", `Quick, test_burst_invalid_args);
    ("burst invariants", `Quick, test_burst_invariants);
  ]
