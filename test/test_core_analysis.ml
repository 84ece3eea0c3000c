(* Tests for Onion, Isolated, Edge_prob. *)
open Churnet_core
module Prng = Churnet_util.Prng
module Parallel = Churnet_util.Parallel

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Onion-skin process --- *)

(* Both processes on a fresh scratch, as plain function values. *)
let onion_run ~rng ~n ~d () = Onion.run ~rng ~n ~d ()
let onion_run_poisson ~rng ~n ~d () = Onion.run_poisson ~rng ~n ~d ()

(* Fraction of [trials] runs, each on its own split of [rng], that reach
   their target. *)
let success_rate run ~rng ~n ~d ~trials =
  let ok =
    Array.fold_left
      (fun k (r : Onion.result) -> if r.reached_target then k + 1 else k)
      0
      (Parallel.replicate ~rng ~trials (fun rng -> run ~rng ~n ~d ()))
  in
  float_of_int ok /. float_of_int trials

let test_onion_validates_args () =
  Alcotest.check_raises "odd d" (Invalid_argument "Onion.run: d must be even and >= 2")
    (fun () -> ignore (Onion.run ~rng:(Prng.create 0x0910) ~n:100 ~d:3 ()));
  Alcotest.check_raises "tiny n" (Invalid_argument "Onion.run: n too small") (fun () ->
      ignore (Onion.run ~rng:(Prng.create 0x0910) ~n:8 ~d:4 ()))

let test_onion_layers_consistent () =
  let r = Onion.run ~rng:(Prng.create 1) ~n:2000 ~d:40 () in
  check_int "young total = sum of layers" r.total_young
    (Array.fold_left ( + ) 0 r.y_layer_sizes);
  check_int "old total = sum of layers" r.total_old
    (Array.fold_left ( + ) 0 r.o_layer_sizes);
  check_bool "phases positive" true (r.phases >= 0)

let test_onion_members_within_classes () =
  (* Totals can never exceed the class sizes. *)
  let n = 1500 in
  let r = Onion.run ~rng:(Prng.create 2) ~n ~d:20 () in
  check_bool "young bounded" true (r.total_young <= n / 2);
  check_bool "old bounded" true (r.total_old <= n / 2)

let test_onion_succeeds_for_large_d () =
  (* Lemma 3.9: success probability >= 1 - 4 e^{-d/100}; for d = 64 the
     empirical rate should be high at moderate n. *)
  let p = success_rate onion_run ~rng:(Prng.create 3) ~n:4000 ~d:64 ~trials:20 in
  check_bool "mostly succeeds" true (p >= 0.8)

let test_onion_fails_more_for_small_d () =
  let p_small = success_rate onion_run ~rng:(Prng.create 4) ~n:2000 ~d:2 ~trials:30 in
  let p_large = success_rate onion_run ~rng:(Prng.create 5) ~n:2000 ~d:32 ~trials:30 in
  check_bool "monotone-ish in d" true (p_large >= p_small)

let test_onion_growth_factor_scales_with_d () =
  (* Claim 3.10: layers grow by ~ d/20 per step while small. *)
  let r = Onion.run ~rng:(Prng.create 6) ~n:20000 ~d:100 () in
  check_bool "reached target" true r.reached_target;
  (* The first growth steps should exceed 1 clearly. *)
  check_bool "early growth > 1.5" true
    (Array.length r.growth_factors = 0 || r.growth_factors.(0) > 1.5)

let test_onion_deterministic_with_seed () =
  let a = Onion.run ~rng:(Prng.create 7) ~n:1000 ~d:16 () in
  let b = Onion.run ~rng:(Prng.create 7) ~n:1000 ~d:16 () in
  check_int "same young" a.total_young b.total_young;
  check_int "same old" a.total_old b.total_old

(* --- Isolated nodes --- *)

let test_paper_bounds () =
  Alcotest.(check (float 1e-9))
    "sdg bound" (1000. *. exp (-4.) /. 6.)
    (Isolated.paper_bound_sdg ~n:1000 ~d:2);
  Alcotest.(check (float 1e-9))
    "pdg bound" (1000. *. exp (-4.) /. 18.)
    (Isolated.paper_bound_pdg ~n:1000 ~d:2)

let test_sdg_has_isolated_nodes () =
  (* Lemma 3.5 at d = 2: at least n e^{-4} / 6 ~ 0.3% isolated. *)
  let n = 3000 and d = 2 in
  let m = Streaming_model.create ~rng:(Prng.create 11) ~n ~d ~regenerate:false () in
  Streaming_model.warm_up m;
  let c = Isolated.census_streaming m in
  check_bool "isolated count >= paper bound" true
    (float_of_int c.isolated_now >= Isolated.paper_bound_sdg ~n ~d);
  check_bool "most tracked isolated stay so" true (c.forever_frac_of_tracked > 0.3)

let test_sdgr_has_no_isolated_nodes () =
  let m = Streaming_model.create ~rng:(Prng.create 13) ~n:500 ~d:3 ~regenerate:true () in
  Streaming_model.warm_up m;
  let g = Streaming_model.graph m in
  let isolated = ref 0 in
  Churnet_graph.Dyngraph.iter_alive g (fun id ->
      if Churnet_graph.Dyngraph.degree g id = 0 then incr isolated);
  check_int "no isolated nodes with regeneration" 0 !isolated

let test_pdg_has_isolated_nodes () =
  let n = 2000 and d = 2 in
  let m = Poisson_model.create ~rng:(Prng.create 17) ~n ~d ~regenerate:false () in
  Poisson_model.warm_up m;
  let c = Isolated.census_poisson ~max_track:300 m in
  check_bool "isolated count >= paper bound" true
    (float_of_int c.isolated_now >= Isolated.paper_bound_pdg ~n ~d)

let test_census_fields_consistent () =
  let m = Streaming_model.create ~rng:(Prng.create 19) ~n:800 ~d:2 ~regenerate:false () in
  Streaming_model.warm_up m;
  let c = Isolated.census_streaming ~max_track:50 m in
  check_bool "tracked bounded" true (c.tracked <= 50);
  check_bool "forever <= tracked" true (c.isolated_forever <= c.tracked);
  Alcotest.(check (float 1e-9))
    "frac consistent"
    (float_of_int c.isolated_now /. float_of_int c.population)
    c.isolated_frac

(* --- Edge probabilities --- *)

let test_edge_prob_streaming_uniform_for_sdg () =
  (* Without regeneration every request is uniform at birth: both p_older
     and p_younger stay near 1/(n-1). *)
  let n = 600 in
  let buckets =
    Edge_prob.measure_streaming ~rng:(Prng.create 23) ~n ~d:4 ~regenerate:false
      ~snapshots:20 ~buckets:4 ()
  in
  Array.iter
    (fun (b : Edge_prob.bucket) ->
      if b.samples > 200 && not (Float.is_nan b.p_older) then begin
        let ratio = b.p_older /. (1. /. float_of_int (n - 1)) in
        check_bool
          (Printf.sprintf "SDG p_older ratio sane (ages %d-%d): %f" b.age_lo b.age_hi
             ratio)
          true
          (ratio > 0.6 && ratio < 1.6)
      end)
    buckets

let test_edge_prob_sdgr_increases_with_age () =
  (* Lemma 3.14: p_older grows like (1+1/(n-1))^k — monotone in age. *)
  let n = 600 in
  let buckets =
    Edge_prob.measure_streaming ~rng:(Prng.create 29) ~n ~d:4 ~regenerate:true
      ~snapshots:30 ~buckets:3 ()
  in
  let valid = Array.to_list buckets |> List.filter (fun (b : Edge_prob.bucket) -> b.samples > 500) in
  (match valid with
  | first :: _ :: _ ->
      let last = List.nth valid (List.length valid - 1) in
      check_bool "p_older increases with age" true (last.p_older > first.p_older *. 1.05)
  | _ -> Alcotest.fail "not enough populated buckets");
  (* And matches the prediction within a factor. *)
  List.iter
    (fun (b : Edge_prob.bucket) ->
      let ratio = b.p_older /. b.predicted_older in
      check_bool "prediction within 40%" true (ratio > 0.6 && ratio < 1.4))
    valid

let test_edge_prob_younger_bounded () =
  let n = 600 in
  let buckets =
    Edge_prob.measure_streaming ~rng:(Prng.create 31) ~n ~d:4 ~regenerate:true
      ~snapshots:20 ~buckets:3 ()
  in
  Array.iter
    (fun (b : Edge_prob.bucket) ->
      if b.samples > 500 && not (Float.is_nan b.p_younger) then
        check_bool "p_younger <= bound * 1.25" true (b.p_younger <= b.bound_younger *. 1.25))
    buckets

let test_edge_prob_poisson_runs () =
  let buckets =
    Edge_prob.measure_poisson ~rng:(Prng.create 37) ~n:300 ~d:4 ~regenerate:true
      ~snapshots:5 ~buckets:4 ()
  in
  check_int "bucket count" 4 (Array.length buckets);
  let populated = Array.exists (fun (b : Edge_prob.bucket) -> b.samples > 0) buckets in
  check_bool "some buckets populated" true populated

let suite =
  [
    ("onion validates args", `Quick, test_onion_validates_args);
    ("onion layers consistent", `Quick, test_onion_layers_consistent);
    ("onion class bounds", `Quick, test_onion_members_within_classes);
    ("onion succeeds for large d", `Slow, test_onion_succeeds_for_large_d);
    ("onion monotone in d", `Slow, test_onion_fails_more_for_small_d);
    ("onion growth (Claim 3.10)", `Slow, test_onion_growth_factor_scales_with_d);
    ("onion deterministic", `Quick, test_onion_deterministic_with_seed);
    ("paper bounds", `Quick, test_paper_bounds);
    ("SDG isolated (Lemma 3.5)", `Slow, test_sdg_has_isolated_nodes);
    ("SDGR no isolated", `Quick, test_sdgr_has_no_isolated_nodes);
    ("PDG isolated (Lemma 4.10)", `Slow, test_pdg_has_isolated_nodes);
    ("census fields", `Quick, test_census_fields_consistent);
    ("edge prob SDG uniform", `Slow, test_edge_prob_streaming_uniform_for_sdg);
    ("edge prob SDGR age growth (Lemma 3.14)", `Slow, test_edge_prob_sdgr_increases_with_age);
    ("edge prob younger bounded", `Slow, test_edge_prob_younger_bounded);
    ("edge prob poisson runs", `Slow, test_edge_prob_poisson_runs);
  ]

(* --- Extended (Poisson) onion-skin, Section 7.2.4 --- *)

let test_onion_poisson_validates_args () =
  Alcotest.check_raises "odd d"
    (Invalid_argument "Onion.run_poisson: d must be even and >= 2") (fun () ->
      ignore (Onion.run_poisson ~rng:(Prng.create 0x0912) ~n:100 ~d:3 ()))

let test_onion_poisson_layers_consistent () =
  let r = Onion.run_poisson ~rng:(Prng.create 41) ~n:2000 ~d:40 () in
  check_int "young total" r.total_young (Array.fold_left ( + ) 0 r.y_layer_sizes);
  check_int "old total" r.total_old (Array.fold_left ( + ) 0 r.o_layer_sizes);
  check_bool "bounded by classes" true
    (r.total_young <= 1000 && r.total_old <= 1000)

let test_onion_poisson_succeeds () =
  let p = success_rate onion_run_poisson ~rng:(Prng.create 43) ~n:3000 ~d:64 ~trials:15 in
  check_bool "mostly succeeds" true (p >= 0.8)

let test_onion_poisson_deterministic () =
  let a = Onion.run_poisson ~rng:(Prng.create 47) ~n:1000 ~d:16 () in
  let b = Onion.run_poisson ~rng:(Prng.create 47) ~n:1000 ~d:16 () in
  check_int "same young" a.total_young b.total_young;
  check_int "same old" a.total_old b.total_old

(* --- Onion-skin runs pinned byte for byte --- *)

(* One line per run of both processes over a grid that includes
   multi-phase runs (the F5 smoke golden only reaches 1-phase ones):
   layer sizes, totals, the target flag and the growth factors in hex, so
   a refactor of the phase loop that moves any draw or any layer shows
   up here.  Regenerating (only after an intentional behavior change):
     CHURNET_GOLDEN_OUT=$PWD/test/golden dune exec test/test_main.exe -- \
       test core-analysis *)
let onion_runs_text () =
  let b = Buffer.create 65536 in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  List.iter
    (fun (name, run) ->
      List.iter
        (fun n ->
          List.iter
            (fun d ->
              for seed = 1 to 10 do
                let (r : Onion.result) = run ~rng:(Prng.create seed) ~n ~d () in
                Printf.bprintf b
                  "%s n=%d d=%d seed=%d phases=%d y=[%s] o=[%s] young=%d old=%d \
                   target=%b growth=[%s]\n"
                  name n d seed r.phases (ints r.y_layer_sizes) (ints r.o_layer_sizes)
                  r.total_young r.total_old r.reached_target (floats r.growth_factors)
              done)
            [ 2; 4; 6; 16 ])
        [ 16; 101; 400; 2000 ])
    [ ("run", onion_run); ("run_poisson", onion_run_poisson) ];
  Buffer.contents b

(* --- Exact law of the first old layer --- *)

(* |O_0| is the number of distinct old targets among the source's d
   uniform draws over u nodes, m of them old:
     P(K = k) = sum_j C(d,j) (m/u)^j (1-m/u)^(d-j) C(m,k) k! S(j,k) / m^j
   with S the Stirling numbers of the second kind (j draws land in the
   old class and cover exactly k of its m nodes).  Streaming draws ages
   1..n-1 with old ages n/2..n-ceil(ln n); Poisson draws ranks 1..n with
   old ranks n/2+1..n, and each distinct target then survives its death
   coin with probability 1 - ln n / n (Binomial thinning). *)
let first_old_layer_pmf ~d ~u ~m ~survive =
  let fact k = Array.fold_left ( *. ) 1. (Array.init k (fun i -> float_of_int (i + 1))) in
  let choose a b = fact a /. (fact b *. fact (a - b)) in
  let stirling = Array.make_matrix (d + 1) (d + 1) 0. in
  stirling.(0).(0) <- 1.;
  for j = 1 to d do
    for k = 1 to j do
      stirling.(j).(k) <- (float_of_int k *. stirling.(j - 1).(k)) +. stirling.(j - 1).(k - 1)
    done
  done;
  let p = float_of_int m /. float_of_int u and fm = float_of_int m in
  let covered =
    Array.init (d + 1) (fun k ->
        let falling = ref 1. in
        for i = 0 to k - 1 do
          falling := !falling *. (fm -. float_of_int i)
        done;
        let total = ref 0. in
        for j = k to d do
          total :=
            !total
            +. choose d j *. (p ** float_of_int j) *. ((1. -. p) ** float_of_int (d - j))
               *. !falling *. stirling.(j).(k) /. (fm ** float_of_int j)
        done;
        !total)
  in
  Array.init (d + 1) (fun k' ->
      let total = ref 0. in
      for k = k' to d do
        total :=
          !total
          +. covered.(k) *. choose k k' *. (survive ** float_of_int k')
             *. ((1. -. survive) ** float_of_int (k - k'))
      done;
      !total)

let test_onion_first_old_layer_exact () =
  let n = 32 and d = 6 and trials = 40_000 in
  let sample run seed =
    let rng = Prng.create seed in
    Array.init trials (fun _ -> (run ~rng:(Prng.split rng) ~n ~d () : Onion.result).o_layer_sizes.(0))
  in
  let logn = int_of_float (Float.ceil (log (float_of_int n))) in
  let check name pmf sample =
    let z = Test_models.chi_square_z pmf sample in
    check_bool (Printf.sprintf "%s |O_0|: chi-square z = %.2f < 3.5" name z) true (z < 3.5)
  in
  check "streaming"
    (first_old_layer_pmf ~d ~u:(n - 1) ~m:(n - logn - (n / 2) + 1) ~survive:1.)
    (sample onion_run 0x0f01);
  check "poisson"
    (first_old_layer_pmf ~d ~u:n ~m:(n / 2)
       ~survive:(1. -. (log (float_of_int n) /. float_of_int n)))
    (sample onion_run_poisson 0x0f02)

(* --- The engine against the reference engine --- *)

(* Every result field equal, growth factors bit for bit. *)
let same_onion (a : Onion.result) (b : Onion.result) =
  let bits g = Array.map Int64.bits_of_float g in
  a.phases = b.phases && a.y_layer_sizes = b.y_layer_sizes
  && a.o_layer_sizes = b.o_layer_sizes && a.total_young = b.total_young
  && a.total_old = b.total_old && a.reached_target = b.reached_target
  && bits a.growth_factors = bits b.growth_factors

(* test/reference_onion.ml stores every request and skips the non-old
   ones; the library keeps only the old-class targets.  Over random
   (n, d, seed), half of them with small d so that runs last several
   phases, both processes must give the same result, growth factors
   compared bit for bit, and leave the caller's generator in the same
   state. *)
let test_onion_matches_reference () =
  let pick = Prng.create 0x0926 in
  let multi_phase = ref 0 in
  for case = 1 to 400 do
    let n = 16 + Prng.int pick (if case mod 2 = 0 then 600 else 5000) in
    let d = 2 * (1 + Prng.int pick (if case mod 3 = 0 then 100 else 8)) in
    let seed = Prng.int pick 1_000_000 in
    List.iter
      (fun (name, run, reference) ->
        let rng = Prng.create seed and ref_rng = Prng.create seed in
        let (a : Onion.result) = run ~rng ~n ~d () in
        let (b : Onion.result) = reference ~rng:ref_rng ~n ~d () in
        if a.phases > 1 then incr multi_phase;
        let same = same_onion a b && Int64.equal (Prng.bits64 rng) (Prng.bits64 ref_rng) in
        if not same then Alcotest.failf "%s n=%d d=%d seed=%d differs from the reference" name n d seed)
      [
        ("run", onion_run, Reference_onion.run);
        ("run_poisson", onion_run_poisson, Reference_onion.run_poisson);
      ]
  done;
  check_bool (Printf.sprintf "%d multi-phase runs >= 200" !multi_phase) true (!multi_phase >= 200)

(* Both processes on a given scratch. *)
let onion_processes =
  [
    ("run", fun scratch ~rng ~n ~d -> Onion.run ~scratch ~rng ~n ~d ());
    ("run_poisson", fun scratch ~rng ~n ~d -> Onion.run_poisson ~scratch ~rng ~n ~d ());
  ]

(* A scratch shared by every run of both processes, over random
   (n, d, seed) visited by increasing n and then back down, so buffers
   grown for a large run serve smaller ones, gives each run the result
   a fresh scratch gives and leaves the caller's generator in the same
   state. *)
let test_onion_scratch_reuse () =
  let pick = Prng.create 0x0931 in
  let cases =
    Array.init 30 (fun i ->
        (16 + Prng.int pick 3000, 2 * (1 + Prng.int pick (if i mod 2 = 0 then 4 else 60)),
         Prng.int pick 1_000_000))
  in
  Array.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) cases;
  let shared = Onion.scratch () in
  Array.iter
    (fun (n, d, seed) ->
      List.iter
        (fun (name, run) ->
          let rng = Prng.create seed and fresh_rng = Prng.create seed in
          let a = run shared ~rng ~n ~d in
          let b = run (Onion.scratch ()) ~rng:fresh_rng ~n ~d in
          if not (same_onion a b && Int64.equal (Prng.bits64 rng) (Prng.bits64 fresh_rng)) then
            Alcotest.failf "%s n=%d d=%d seed=%d differs on a shared scratch" name n d seed)
        onion_processes)
    (Array.append cases (Array.of_list (List.rev (Array.to_list cases))))

(* A run stores its old-class targets, 32 bits each or about n d / 8
   words, and little else; storing every request took over n d / 2.  On
   a scratch that an earlier run has grown, a run allocates next to
   nothing: its layer-size lists and its result. *)
let test_onion_allocation () =
  let n = 4000 and d = 100 in
  let words_of f = fst (Test_flood.words_of f) in
  List.iter
    (fun (name, run) ->
      let fresh = words_of (fun () -> run (Onion.scratch ()) ~rng:(Prng.create 0x0927) ~n ~d) in
      check_bool
        (Printf.sprintf "%s allocates %.0f words <= 0.35 n d" name fresh)
        true
        (fresh <= 0.35 *. float_of_int (n * d));
      let scratch = Onion.scratch () in
      ignore (run scratch ~rng:(Prng.create 0x0928) ~n ~d);
      let warm = words_of (fun () -> run scratch ~rng:(Prng.create 0x0927) ~n ~d) in
      check_bool
        (Printf.sprintf "%s on a warm scratch allocates %.0f words <= 0.01 n d" name warm)
        true
        (warm <= 0.01 *. float_of_int (n * d)))
    onion_processes

let poisson_suite =
  [
    ("onion matches reference engine", `Quick, test_onion_matches_reference);
    ("onion allocation", `Quick, test_onion_allocation);
    ("onion scratch reuse", `Quick, test_onion_scratch_reuse);
    ("onion first old layer exact", `Quick, test_onion_first_old_layer_exact);
    ("onion runs golden", `Quick, Test_byte_equality.check_case ("onion_runs", onion_runs_text));
    ("onion poisson args", `Quick, test_onion_poisson_validates_args);
    ("onion poisson layers", `Quick, test_onion_poisson_layers_consistent);
    ("onion poisson succeeds", `Slow, test_onion_poisson_succeeds);
    ("onion poisson deterministic", `Quick, test_onion_poisson_deterministic);
  ]

let suite = suite @ poisson_suite
