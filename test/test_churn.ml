open Churnet_churn
module Prng = Churnet_util.Prng
module Stats = Churnet_util.Stats

let check_bool = Alcotest.(check bool)

let test_create_invalid () =
  Alcotest.check_raises "n <= 0"
    (Invalid_argument "Poisson_churn.create: n must be positive") (fun () ->
      ignore (Poisson_churn.create ~rng:(Prng.create 0xCAFE) ~n:0 ()))

let test_rates () =
  let c = Poisson_churn.create ~rng:(Prng.create 0xCAFE) ~n:100 () in
  Alcotest.(check (float 1e-12)) "lambda" 1.0 (Poisson_churn.lambda c);
  Alcotest.(check (float 1e-12)) "mu" 0.01 (Poisson_churn.mu c)

let test_empty_population_always_birth () =
  let c = Poisson_churn.create ~rng:(Prng.create 1) ~n:50 () in
  for _ = 1 to 100 do
    match Poisson_churn.decide c ~alive:0 with
    | Poisson_churn.Birth, dt -> check_bool "positive dt" true (dt > 0.)
    | Poisson_churn.Death, _ -> Alcotest.fail "death with empty population"
  done

let test_counters () =
  let c = Poisson_churn.create ~rng:(Prng.create 2) ~n:50 () in
  for _ = 1 to 1000 do
    ignore (Poisson_churn.decide c ~alive:50)
  done;
  Alcotest.(check int) "round counter" 1000 (Poisson_churn.round c);
  Alcotest.(check int) "births+deaths" 1000 (Poisson_churn.births c + Poisson_churn.deaths c);
  check_bool "time advanced" true (Poisson_churn.time c > 0.)

let test_event_balance_at_stationarity () =
  (* Lemma 4.7: with |N| = n the next event is a death with probability in
     [0.47, 0.53] (it is exactly 1/2 at N = n). *)
  let c = Poisson_churn.create ~rng:(Prng.create 3) ~n:1000 () in
  let deaths = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    match Poisson_churn.decide c ~alive:1000 with
    | Poisson_churn.Death, _ -> incr deaths
    | Poisson_churn.Birth, _ -> ()
  done;
  let frac = float_of_int !deaths /. float_of_int trials in
  check_bool "death fraction in Lemma 4.7 band" true (frac > 0.47 && frac < 0.53)

let test_interevent_time_mean () =
  (* With N = n: total rate = n*mu + lambda = 2, so mean dt = 0.5. *)
  let c = Poisson_churn.create ~rng:(Prng.create 5) ~n:200 () in
  let acc = Stats.Acc.create () in
  for _ = 1 to 50_000 do
    let _, dt = Poisson_churn.decide c ~alive:200 in
    Stats.Acc.add acc dt
  done;
  check_bool "mean dt near 0.5" true (Float.abs (Stats.Acc.mean acc -. 0.5) < 0.01)

let test_birth_bias_when_small () =
  (* With N << n births dominate: p_birth = 1 / (N/n + 1). *)
  let c = Poisson_churn.create ~rng:(Prng.create 7) ~n:1000 () in
  let births = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    match Poisson_churn.decide c ~alive:100 with
    | Poisson_churn.Birth, _ -> incr births
    | Poisson_churn.Death, _ -> ()
  done;
  let frac = float_of_int !births /. float_of_int trials in
  (* expected 1/(0.1+1) = 0.909 *)
  check_bool "birth-dominant regime" true (Float.abs (frac -. 0.909) < 0.02)

(* --- Population simulation (E12 machinery) --- *)

let test_population_concentration () =
  let stats =
    Population.simulate ~rng:(Prng.create 11) ~n:2000 ~rounds:40_000 ()
  in
  (* Lemma 4.4: population concentrates in [0.9 n, 1.1 n]. *)
  check_bool "mean near n" true (Float.abs (stats.pop_mean -. 2000.) < 150.);
  check_bool "mostly in band" true (stats.frac_in_09_11 > 0.95)

let test_population_death_fraction () =
  let stats =
    Population.simulate ~rng:(Prng.create 13) ~n:2000 ~rounds:40_000 ()
  in
  (* Lemma 4.7: deaths make up 47-53% of jumps at stationarity. *)
  check_bool "death fraction band" true
    (stats.death_frac > 0.45 && stats.death_frac < 0.55)

let test_population_lifetime_mean () =
  let stats =
    Population.simulate ~rng:(Prng.create 17) ~n:1000 ~rounds:60_000 ()
  in
  (* Lifetimes are Exp(1/n): mean n in continuous time.  The sample is
     biased towards short lives early on, so allow slack. *)
  check_bool "lifetime mean near n" true
    (stats.lifetime_mean > 700. && stats.lifetime_mean < 1300.)

let test_population_max_age_bound () =
  let n = 1000 in
  let stats = Population.simulate ~rng:(Prng.create 19) ~n ~rounds:(20 * n) () in
  (* Lemma 4.8: no node is older than 7 n log n jumps, w.h.p. *)
  let bound = 7. *. float_of_int n *. log (float_of_int n) in
  check_bool "max age below 7 n log n" true (float_of_int stats.max_age_rounds < bound)

let test_population_invalid_args () =
  Alcotest.check_raises "bad args" (Invalid_argument "Population.simulate") (fun () ->
      ignore (Population.simulate ~rng:(Prng.create 0xBEEF) ~n:0 ~rounds:10 ()))

let suite =
  [
    ("create invalid", `Quick, test_create_invalid);
    ("rates", `Quick, test_rates);
    ("empty population births", `Quick, test_empty_population_always_birth);
    ("counters", `Quick, test_counters);
    ("event balance (Lemma 4.7)", `Quick, test_event_balance_at_stationarity);
    ("inter-event time", `Quick, test_interevent_time_mean);
    ("birth bias when small", `Quick, test_birth_bias_when_small);
    ("population concentration (Lemma 4.4)", `Slow, test_population_concentration);
    ("death fraction (Lemma 4.7)", `Slow, test_population_death_fraction);
    ("lifetime mean", `Slow, test_population_lifetime_mean);
    ("max age bound (Lemma 4.8)", `Slow, test_population_max_age_bound);
    ("invalid args", `Quick, test_population_invalid_args);
  ]

let test_lambda_parameter () =
  let c = Poisson_churn.create ~rng:(Prng.create 81) ~lambda:4.0 ~n:100 () in
  Alcotest.(check (float 1e-12)) "lambda" 4.0 (Poisson_churn.lambda c);
  Alcotest.(check (float 1e-12)) "mu scales" 0.04 (Poisson_churn.mu c);
  (* Event balance at stationarity is lambda-independent. *)
  let deaths = ref 0 in
  for _ = 1 to 20_000 do
    match Poisson_churn.decide c ~alive:100 with
    | Poisson_churn.Death, _ -> incr deaths
    | Poisson_churn.Birth, _ -> ()
  done;
  let frac = float_of_int !deaths /. 20_000. in
  check_bool "balance at lambda=4" true (frac > 0.45 && frac < 0.55);
  (* Time runs 4x faster: mean dt = 1/(2 lambda). *)
  check_bool "clock rescaled" true
    (Poisson_churn.time c > 0.
    && Float.abs ((Poisson_churn.time c /. 20_000.) -. 0.125) < 0.01)

let test_lambda_invalid () =
  Alcotest.check_raises "lambda 0"
    (Invalid_argument "Poisson_churn.create: lambda must be positive") (fun () ->
      ignore (Poisson_churn.create ~rng:(Prng.create 0xCAFE) ~lambda:0. ~n:10 ()))

let suite =
  suite
  @ [
      ("lambda parameter", `Quick, test_lambda_parameter);
      ("lambda invalid", `Quick, test_lambda_invalid);
    ]

(* --- decide_birth against the library draws it writes out --- *)

module Dist = Churnet_util.Dist

(* [decide_birth] draws its dt and its coin over a scratch cell instead
   of calling [Dist.exponential] and [Prng.bernoulli].  The reference
   makes those two calls on a copy of the generator; every decision, the
   bits of every dt and of the clock, and the next raw draw must agree.
   The population follows the decisions and drops back to 0 now and
   then, so the no-coin [alive = 0] branch is taken throughout. *)
let test_decide_birth_bit_identical () =
  List.iter
    (fun (seed, lambda, n) ->
      let rng = Prng.create seed in
      let reference = Prng.copy rng in
      let c = Poisson_churn.create ~rng ~lambda ~n () in
      let mu = Poisson_churn.mu c in
      let resets = Prng.create (seed + 1) in
      let clock = ref 0. and alive = ref 0 and empty = ref 0 in
      let first_mismatch = ref None in
      let mismatch jump what =
        if !first_mismatch = None then first_mismatch := Some (jump, what)
      in
      let jumps = 100_000 in
      for jump = 1 to jumps do
        if Prng.int resets 2000 = 0 then alive := 0;
        let a = !alive in
        if a = 0 then incr empty;
        let total_rate = (float_of_int a *. mu) +. lambda in
        let dt = Dist.exponential reference total_rate in
        let expected = a = 0 || Prng.bernoulli reference (lambda /. total_rate) in
        clock := !clock +. dt;
        (* [decide] is [decide_birth] plus its dt; alternate the two *)
        let birth =
          if jump land 1 = 0 then begin
            let decision, got_dt = Poisson_churn.decide c ~alive:a in
            if Int64.bits_of_float got_dt <> Int64.bits_of_float dt then mismatch jump "dt";
            decision = Poisson_churn.Birth
          end
          else Poisson_churn.decide_birth c ~alive:a
        in
        if birth <> expected then mismatch jump "decision";
        if Int64.bits_of_float (Poisson_churn.time c) <> Int64.bits_of_float !clock then
          mismatch jump "clock";
        alive := if birth then a + 1 else a - 1
      done;
      let label = Printf.sprintf "seed %d lambda %g" seed lambda in
      (match !first_mismatch with
      | None -> ()
      | Some (jump, what) -> Alcotest.failf "%s: %s differs at jump %d" label what jump);
      check_bool (label ^ ": alive = 0 visited") true (!empty > 10);
      Alcotest.(check int) (label ^ ": rounds") jumps (Poisson_churn.round c);
      Alcotest.(check int64)
        (label ^ ": next raw draw")
        (Prng.bits64 reference) (Prng.bits64 rng))
    [ (0xD1CE, 1., 300); (-17, 1.7, 1000) ]

let suite =
  suite @ [ ("decide_birth = Dist.exponential + bernoulli", `Quick, test_decide_birth_bit_identical) ]
