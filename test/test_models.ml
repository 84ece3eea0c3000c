open Churnet_core
module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Streaming model --- *)

let test_streaming_population_pins_at_n () =
  let m = Streaming_model.create ~rng:(Prng.create 1) ~n:50 ~d:3 ~regenerate:false () in
  Streaming_model.run m 49;
  check_int "before steady state" 49 (Dyngraph.alive_count (Streaming_model.graph m));
  Streaming_model.run m 1;
  check_int "at n" 50 (Dyngraph.alive_count (Streaming_model.graph m));
  Streaming_model.run m 100;
  check_int "still n" 50 (Dyngraph.alive_count (Streaming_model.graph m))

let test_streaming_oldest_dies () =
  let m = Streaming_model.create ~rng:(Prng.create 2) ~n:10 ~d:2 ~regenerate:false () in
  Streaming_model.run m 10;
  let oldest = Option.get (Dyngraph.oldest_alive (Streaming_model.graph m)) in
  Streaming_model.step m;
  check_bool "oldest gone" false (Dyngraph.is_alive (Streaming_model.graph m) oldest)

let test_streaming_lifetime_exactly_n () =
  let n = 12 in
  let m = Streaming_model.create ~rng:(Prng.create 3) ~n ~d:2 ~regenerate:false () in
  Streaming_model.run m 20;
  let id = Streaming_model.newest m in
  (* Born at round 20; must be alive through round 20 + n - 1 and dead at
     round 20 + n. *)
  Streaming_model.run m (n - 1);
  check_bool "alive at age n-1" true (Dyngraph.is_alive (Streaming_model.graph m) id);
  Streaming_model.step m;
  check_bool "dead at age n" false (Dyngraph.is_alive (Streaming_model.graph m) id)

let test_streaming_ages_range () =
  let n = 30 in
  let m = Streaming_model.create ~rng:(Prng.create 5) ~n ~d:2 ~regenerate:false () in
  Streaming_model.warm_up m;
  let g = Streaming_model.graph m in
  Dyngraph.iter_alive g (fun id ->
      let age = Streaming_model.age_of m id in
      check_bool "age in [0, n-1]" true (age >= 0 && age < n))

let test_streaming_newest_age_zero () =
  let m = Streaming_model.create ~rng:(Prng.create 7) ~n:20 ~d:2 ~regenerate:false () in
  Streaming_model.warm_up m;
  check_int "newest age" 0 (Streaming_model.age_of m (Streaming_model.newest m))

let test_sdgr_out_degree_always_d () =
  let d = 4 in
  let m = Streaming_model.create ~rng:(Prng.create 11) ~n:60 ~d ~regenerate:true () in
  Streaming_model.warm_up m;
  let g = Streaming_model.graph m in
  Dyngraph.iter_alive g (fun id -> check_int "out-degree d" d (Dyngraph.out_degree g id));
  (* Paper: SDGR has exactly d*n edges at all times. *)
  check_int "dn edges" (d * 60) (Dyngraph.edge_count g)

let test_sdg_out_degree_at_most_d () =
  let d = 4 in
  let m = Streaming_model.create ~rng:(Prng.create 13) ~n:60 ~d ~regenerate:false () in
  Streaming_model.warm_up m;
  let g = Streaming_model.graph m in
  let some_below = ref false in
  Dyngraph.iter_alive g (fun id ->
      let od = Dyngraph.out_degree g id in
      check_bool "at most d" true (od <= d);
      if od < d then some_below := true);
  check_bool "some node lost an edge" true !some_below

let test_sdg_mean_degree_near_d () =
  (* Lemma 6.1: expected degree of each node is d. *)
  let d = 5 and n = 2000 in
  let m = Streaming_model.create ~rng:(Prng.create 17) ~n ~d ~regenerate:false () in
  Streaming_model.warm_up m;
  let s = Streaming_model.snapshot m in
  (* mean_degree counts distinct neighbors so is slightly below d due to
     parallel requests; allow a small deficit. *)
  check_bool "mean degree near d" true
    (Snapshot.mean_degree s > float_of_int d *. 0.9
    && Snapshot.mean_degree s < float_of_int d *. 1.1)

let test_streaming_invariants_after_warmup () =
  let m = Streaming_model.create ~rng:(Prng.create 19) ~n:80 ~d:3 ~regenerate:true () in
  Streaming_model.warm_up m;
  match Dyngraph.check_invariants (Streaming_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_streaming_create_invalid () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Streaming_model.create: n must be >= 2") (fun () ->
      ignore (Streaming_model.create ~rng:(Prng.create 0x5eed) ~n:1 ~d:2 ~regenerate:false ()))

(* --- Poisson model --- *)

let test_poisson_population_band () =
  let n = 1000 in
  let m = Poisson_model.create ~rng:(Prng.create 23) ~n ~d:3 ~regenerate:false () in
  Poisson_model.warm_up m;
  let pop = Poisson_model.population m in
  check_bool "population in wide band" true
    (float_of_int pop > 0.8 *. float_of_int n && float_of_int pop < 1.2 *. float_of_int n)

let test_poisson_time_advances () =
  let m = Poisson_model.create ~rng:(Prng.create 29) ~n:100 ~d:3 ~regenerate:false () in
  Poisson_model.run_rounds m 500;
  check_bool "time positive" true (Poisson_model.time m > 0.);
  check_int "round counter" 500 (Poisson_model.round m)

let test_poisson_run_until_time () =
  let m = Poisson_model.create ~rng:(Prng.create 31) ~n:100 ~d:3 ~regenerate:false () in
  Poisson_model.run_rounds m 300;
  let t = Poisson_model.time m in
  Poisson_model.run_until_time m (t +. 10.);
  check_bool "does not overshoot" true (Poisson_model.time m <= t +. 10.);
  (* The next jump crosses the deadline. *)
  check_bool "close to deadline" true (Poisson_model.next_jump_time m > t +. 10.)

let test_poisson_next_jump_idempotent () =
  let m = Poisson_model.create ~rng:(Prng.create 37) ~n:100 ~d:3 ~regenerate:false () in
  Poisson_model.run_rounds m 10;
  let a = Poisson_model.next_jump_time m in
  let b = Poisson_model.next_jump_time m in
  Alcotest.(check (float 1e-12)) "idempotent" a b;
  Poisson_model.step m;
  Alcotest.(check (float 1e-9)) "step lands on it" a (Poisson_model.time m)

let test_pdgr_out_degree_after_warmup () =
  let d = 4 in
  let m = Poisson_model.create ~rng:(Prng.create 41) ~n:300 ~d ~regenerate:true () in
  Poisson_model.warm_up m;
  let g = Poisson_model.graph m in
  (* All but the very first few nodes (born into a tiny graph) keep
     out-degree d; after 12n jumps those founders are dead w.h.p. *)
  let bad = ref 0 in
  Dyngraph.iter_alive g (fun id -> if Dyngraph.out_degree g id <> d then incr bad);
  check_bool "almost all have out-degree d" true (!bad <= 2)

let test_poisson_newest () =
  let m = Poisson_model.create ~rng:(Prng.create 43) ~n:100 ~d:3 ~regenerate:false () in
  Poisson_model.run_rounds m 1000;
  match Poisson_model.newest m with
  | Some id -> check_bool "newest alive" true (Dyngraph.is_alive (Poisson_model.graph m) id)
  | None -> Alcotest.fail "no newest after 1000 rounds"

let test_poisson_invariants () =
  let m = Poisson_model.create ~rng:(Prng.create 47) ~n:200 ~d:3 ~regenerate:true () in
  Poisson_model.warm_up m;
  match Dyngraph.check_invariants (Poisson_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* --- Models wrapper --- *)

let test_kind_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "name roundtrip"
        (Some (Models.kind_name k))
        (Option.map Models.kind_name (Models.kind_of_string (Models.kind_name k))))
    Models.all_kinds;
  check_bool "unknown" true (Models.kind_of_string "FOO" = None)

let test_wrapper_dispatch () =
  List.iter
    (fun k ->
      let m = Models.create ~rng:(Prng.create 53) k ~n:60 ~d:3 in
      check_bool "kind preserved" true (Models.kind m = k);
      check_int "n" 60 (Models.n m);
      check_int "d" 3 (Models.d m);
      Models.warm_up_batch m;
      let pop = Dyngraph.alive_count (Models.graph m) in
      check_bool "population reasonable" true (pop > 30 && pop < 90);
      Models.advance_batch m 5;
      let s = Models.snapshot m in
      check_bool "snapshot non-empty" true (Snapshot.n s > 0))
    Models.all_kinds

let test_regeneration_flags () =
  check_bool "SDG" false (Models.regenerates Models.SDG);
  check_bool "SDGR" true (Models.regenerates Models.SDGR);
  check_bool "PDG" false (Models.regenerates Models.PDG);
  check_bool "PDGR" true (Models.regenerates Models.PDGR);
  check_bool "SDG streaming" true (Models.is_streaming Models.SDG);
  check_bool "PDGR not streaming" false (Models.is_streaming Models.PDGR)

(* --- Static baseline --- *)

let test_static_dout_shape () =
  let s = Static_dout.generate ~rng:(Prng.create 59) ~n:200 ~d:4 () in
  check_int "n nodes" 200 (Snapshot.n s);
  check_bool "about nd edges" true
    (Snapshot.edge_count s > 700 && Snapshot.edge_count s <= 800)

let test_static_dout_connected_for_d3 () =
  (* Lemma B.1: d >= 3 gives an expander, in particular connected, w.h.p. *)
  let s = Static_dout.generate ~rng:(Prng.create 61) ~n:500 ~d:3 () in
  check_int "single component" (Snapshot.n s) (Snapshot.largest_component s)

let test_static_dout_flooding_logarithmic () =
  match Static_dout.flooding_rounds ~rng:(Prng.create 67) ~n:2000 ~d:4 () with
  | Some rounds -> check_bool "O(log n) rounds" true (rounds <= 14)
  | None -> Alcotest.fail "static graph not connected"

let suite =
  [
    ("streaming population", `Quick, test_streaming_population_pins_at_n);
    ("streaming oldest dies", `Quick, test_streaming_oldest_dies);
    ("streaming lifetime exactly n", `Quick, test_streaming_lifetime_exactly_n);
    ("streaming ages range", `Quick, test_streaming_ages_range);
    ("streaming newest age", `Quick, test_streaming_newest_age_zero);
    ("SDGR out-degree = d", `Quick, test_sdgr_out_degree_always_d);
    ("SDG out-degree <= d", `Quick, test_sdg_out_degree_at_most_d);
    ("SDG mean degree (Lemma 6.1)", `Quick, test_sdg_mean_degree_near_d);
    ("streaming invariants", `Quick, test_streaming_invariants_after_warmup);
    ("streaming invalid create", `Quick, test_streaming_create_invalid);
    ("poisson population band", `Quick, test_poisson_population_band);
    ("poisson time advances", `Quick, test_poisson_time_advances);
    ("poisson run_until_time", `Quick, test_poisson_run_until_time);
    ("poisson next jump idempotent", `Quick, test_poisson_next_jump_idempotent);
    ("PDGR out-degree", `Quick, test_pdgr_out_degree_after_warmup);
    ("poisson newest", `Quick, test_poisson_newest);
    ("poisson invariants", `Quick, test_poisson_invariants);
    ("kind roundtrip", `Quick, test_kind_roundtrip);
    ("wrapper dispatch", `Quick, test_wrapper_dispatch);
    ("regeneration flags", `Quick, test_regeneration_flags);
    ("static d-out shape", `Quick, test_static_dout_shape);
    ("static d-out connected", `Quick, test_static_dout_connected_for_d3);
    ("static d-out flooding", `Quick, test_static_dout_flooding_logarithmic);
  ]

let test_advance_poisson_time_units () =
  let m = Models.create ~rng:(Prng.create 71) Models.PDGR ~n:200 ~d:4 in
  Models.warm_up_batch m;
  match m with
  | Models.Poisson pm ->
      let t0 = Poisson_model.time pm in
      Models.advance_batch m 7;
      check_bool "advanced ~7 time units" true
        (Poisson_model.time pm >= t0 +. 6.0 && Poisson_model.time pm <= t0 +. 7.0)
  | Models.Streaming _ -> Alcotest.fail "expected a Poisson model"

let test_advance_streaming_rounds () =
  let m = Models.create ~rng:(Prng.create 73) Models.SDGR ~n:100 ~d:3 in
  Models.warm_up_batch m;
  match m with
  | Models.Streaming sm ->
      let r0 = Streaming_model.round sm in
      Models.advance_batch m 5;
      check_int "advanced 5 rounds" (r0 + 5) (Streaming_model.round sm)
  | Models.Poisson _ -> Alcotest.fail "expected a streaming model"

let suite =
  suite
  @ [
      ("advance poisson time", `Quick, test_advance_poisson_time_units);
      ("advance streaming rounds", `Quick, test_advance_streaming_rounds);
    ]

(* --- Exact population laws of Poisson churn ---

   Poisson churn is an M/M/inf queue (arrival rate 1, per-node death
   rate 1/n) started empty, so two population laws are exact:
   - at a fixed time t the population is Poisson(n (1 - e^{-t/n}));
   - after a fixed number of jumps it follows the jump chain's law
     from state 0, computed here by forward iteration.  The chain moves
     by +-1, so after an even number of jumps the population is even;
     after the 12 n jumps of [warm_up] the law is within 1% total
     variation of the chain's stationary law, the size-biased
     Poisson(n)(k) (1 + k/n) folded onto the even states, whose mean is
     n + 1/2 — not Poisson(n).
   Each fixed-seed sample is checked against its exact pmf by a
   chi-square goodness-of-fit test and by its mean. *)

module Dist = Churnet_util.Dist

let population_sample ~seed ~reps ~n run =
  let master = Prng.create seed in
  Array.init reps (fun _ ->
      let m =
        Poisson_model.create ~rng:(Prng.split master) ~n ~d:1 ~regenerate:false ()
      in
      run m;
      Poisson_model.population m)

let pmf_mean pmf = Array.fold_left ( +. ) 0. (Array.mapi (fun k p -> float_of_int k *. p) pmf)

let pmf_variance pmf =
  let mu = pmf_mean pmf in
  Array.fold_left ( +. ) 0.
    (Array.mapi (fun k p -> p *. ((float_of_int k -. mu) ** 2.)) pmf)

(* Wilson-Hilferty z score of the chi-square statistic of [sample]
   against [pmf]: adjacent states are pooled until each bin expects at
   least 5 draws, and the mass beyond the array joins the last bin. *)
let chi_square_z pmf sample =
  let reps = float_of_int (Array.length sample) in
  let top = Array.length pmf - 1 in
  let counts = Array.make (top + 1) 0 in
  Array.iter (fun k -> counts.(min k top) <- counts.(min k top) + 1) sample;
  let bins = ref [] and e = ref 0. and o = ref 0 in
  for k = 0 to top do
    e := !e +. (reps *. pmf.(k));
    o := !o + counts.(k);
    if !e >= 5. then begin
      bins := (!e, !o) :: !bins;
      e := 0.;
      o := 0
    end
  done;
  let tail = !e +. (reps *. (1. -. Array.fold_left ( +. ) 0. pmf)) in
  let bins =
    match !bins with (e, o') :: rest -> (e +. tail, o' + !o) :: rest | [] -> []
  in
  let x2 =
    List.fold_left
      (fun acc (e, o) -> acc +. (((float_of_int o -. e) ** 2.) /. e))
      0. bins
  in
  let df = float_of_int (List.length bins - 1) in
  let h = 2. /. (9. *. df) in
  (((x2 /. df) ** (1. /. 3.)) -. (1. -. h)) /. sqrt h

let check_law name pmf sample =
  let z = chi_square_z pmf sample in
  check_bool (Printf.sprintf "%s: chi-square z = %.2f < 3.5" name z) true (z < 3.5);
  let reps = float_of_int (Array.length sample) in
  let mean = Array.fold_left (fun acc k -> acc +. float_of_int k) 0. sample /. reps in
  let se = sqrt (pmf_variance pmf /. reps) in
  check_bool
    (Printf.sprintf "%s: mean %.3f within 4 SE (%.3f) of %.3f" name mean se
       (pmf_mean pmf))
    true
    (Float.abs (mean -. pmf_mean pmf) < 4. *. se)

let test_poisson_population_law_at_fixed_time () =
  let n = 50 and t = 50. in
  let lambda = float_of_int n *. (1. -. exp (-.t /. float_of_int n)) in
  let pmf = Array.init (4 * n) (Dist.poisson_pmf lambda) in
  let sample =
    population_sample ~seed:0x3141 ~reps:40_000 ~n (fun m ->
        Poisson_model.run_until_time m t)
  in
  check_law "population at t = n" pmf sample

(* Law of the jump chain after [jumps] steps from the empty state. *)
let jump_chain_law ~n ~jumps =
  let top = 4 * n in
  let p = ref (Array.init (top + 1) (fun k -> if k = 0 then 1. else 0.)) in
  for _ = 1 to jumps do
    let q = Array.make (top + 1) 0. in
    Array.iteri
      (fun k v ->
        let birth = float_of_int n /. float_of_int (n + k) in
        if k < top then q.(k + 1) <- q.(k + 1) +. (v *. birth);
        if k > 0 then q.(k - 1) <- q.(k - 1) +. (v *. (1. -. birth)))
      !p;
    p := q
  done;
  !p

let test_poisson_population_law_after_warm_up () =
  let n = 50 in
  let pmf = jump_chain_law ~n ~jumps:(12 * n) in
  let folded =
    Array.mapi
      (fun k _ ->
        if k mod 2 = 0 then
          Dist.poisson_pmf (float_of_int n) k *. (1. +. (float_of_int k /. float_of_int n))
        else 0.)
      pmf
  in
  check_bool "stationary law has mean n + 1/2" true
    (Float.abs (pmf_mean folded -. (float_of_int n +. 0.5)) < 1e-9);
  let tv =
    0.5 *. Array.fold_left ( +. ) 0. (Array.mapi (fun k p -> Float.abs (p -. folded.(k))) pmf)
  in
  check_bool (Printf.sprintf "12n jumps are mixed (TV %.4f)" tv) true (tv < 0.01);
  let sample = population_sample ~seed:0x2718 ~reps:10_000 ~n Poisson_model.warm_up in
  check_bool "population is even after 12n jumps" true
    (Array.for_all (fun k -> k mod 2 = 0) sample);
  check_law "population after warm_up" pmf sample

let suite =
  suite
  @ [
      ("poisson population law at fixed time", `Quick, test_poisson_population_law_at_fixed_time);
      ("poisson population law after warm_up", `Quick, test_poisson_population_law_after_warm_up);
    ]

(* --- Exact SDGR slot destinations ---

   In [Streaming_model.step] the round's death — and with it every
   regeneration — happens before the round's birth.  At a fixed n, a
   slot of a node of age a therefore points at the node of age b with
   probability P.(a).(b):
   - a newborn samples the n - 1 older nodes: P.(0).(b) = 1/(n-1);
   - from age a to a + 1 every target ages by one, except the node of
     age n - 1, which dies; its slot regenerates uniformly over the
     n - 2 survivors other than the slot's owner (ages 1..n-1 minus
     a + 1; the round's newborn is not yet born):
       P.(a+1).(c) = P.(a).(c-1) + P.(a).(n-1)/(n-2)   (c <> a + 1).
   For older targets (b > a >= 1) this solves to
   (1/(n-2))(1+1/(n-2))^(a-1).  Lemma 3.14's (1/(n-1))(1+1/(n-1))^a
   would be exact only if the newborn were a regeneration candidate. *)

let sdgr_slot_law ~n =
  let p = Array.make_matrix n n 0. in
  for b = 1 to n - 1 do
    p.(0).(b) <- 1. /. float_of_int (n - 1)
  done;
  for a = 0 to n - 2 do
    let regen = p.(a).(n - 1) /. float_of_int (n - 2) in
    for c = 1 to n - 1 do
      if c <> a + 1 then p.(a + 1).(c) <- p.(a).(c - 1) +. regen
    done
  done;
  p

let test_sdgr_slot_destinations_exact () =
  let n = 8 and snapshots = 50_000 in
  let law = sdgr_slot_law ~n in
  let q = 1. /. float_of_int (n - 2) in
  Array.iteri
    (fun a row ->
      check_bool (Printf.sprintf "row %d sums to 1" a) true
        (Float.abs (Array.fold_left ( +. ) 0. row -. 1.) < 1e-12);
      for b = a + 1 to n - 1 do
        if a >= 1 then
          check_bool
            (Printf.sprintf "older target (%d, %d) has the closed form" a b)
            true
            (Float.abs (row.(b) -. (q *. ((1. +. q) ** float_of_int (a - 1)))) < 1e-12)
      done)
    law;
  (* Snapshots n rounds apart share no node; within one, each node's slot
     drew for itself over a deterministic age schedule, so the age rows
     are independent samples. *)
  let m = Streaming_model.create ~rng:(Prng.create 0x5d6) ~n ~d:1 ~regenerate:true () in
  Streaming_model.warm_up m;
  let g = Streaming_model.graph m in
  let samples = Array.make_matrix n snapshots 0 in
  for k = 0 to snapshots - 1 do
    Streaming_model.run m n;
    Dyngraph.iter_alive g (fun id ->
        samples.(Streaming_model.age_of m id).(k) <-
          Streaming_model.age_of m (Dyngraph.out_slot g id 0))
  done;
  Array.iteri
    (fun a row ->
      let z = chi_square_z law.(a) row in
      check_bool (Printf.sprintf "age %d row: chi-square z = %.2f < 3.5" a z) true (z < 3.5))
    samples;
  (* Lemma 3.14's closed form misses the oldest older target at a = n-2
     by far more than sampling error. *)
  let a = n - 2 and b = n - 1 in
  let hits = Array.fold_left (fun acc t -> if t = b then acc + 1 else acc) 0 samples.(a) in
  let freq = float_of_int hits /. float_of_int snapshots in
  let r = 1. /. float_of_int (n - 1) in
  let lemma = r *. ((1. +. r) ** float_of_int a) in
  let se = sqrt (law.(a).(b) *. (1. -. law.(a).(b)) /. float_of_int snapshots) in
  check_bool
    (Printf.sprintf "Lemma 3.14 (%.4f) is > 10 SE from the measured %.4f" lemma freq)
    true
    (Float.abs (freq -. lemma) > 10. *. se)

let suite =
  suite @ [ ("SDGR slot destinations exact", `Quick, test_sdgr_slot_destinations_exact) ]
