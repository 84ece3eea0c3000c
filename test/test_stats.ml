open Churnet_util

let check_bool = Alcotest.(check bool)
let close ?(eps = 1e-9) msg a b = check_bool msg true (Float.abs (a -. b) < eps)

let test_acc_basic () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check int) "count" 5 (Stats.Acc.count acc);
  close "mean" 3.0 (Stats.Acc.mean acc);
  close "variance" 2.5 (Stats.Acc.variance acc);
  close "min" 1.0 (Stats.Acc.min acc);
  close "max" 5.0 (Stats.Acc.max acc)

let test_acc_empty () =
  let acc = Stats.Acc.create () in
  check_bool "empty mean is nan" true (Float.is_nan (Stats.Acc.mean acc));
  check_bool "empty variance is nan" true (Float.is_nan (Stats.Acc.variance acc))

let test_acc_single () =
  let acc = Stats.Acc.create () in
  Stats.Acc.add acc 7.;
  close "mean" 7. (Stats.Acc.mean acc);
  check_bool "variance nan with one point" true (Float.is_nan (Stats.Acc.variance acc))

let test_acc_merge_matches_batch () =
  let a = Stats.Acc.create () and b = Stats.Acc.create () and whole = Stats.Acc.create () in
  let xs = [ 1.; 5.; 2.; 8.; 3.; 9.; 4.; 0.5 ] in
  List.iteri
    (fun i x ->
      Stats.Acc.add whole x;
      if i < 4 then Stats.Acc.add a x else Stats.Acc.add b x)
    xs;
  let merged = Stats.Acc.merge a b in
  close ~eps:1e-12 "merged mean" (Stats.Acc.mean whole) (Stats.Acc.mean merged);
  close ~eps:1e-9 "merged variance" (Stats.Acc.variance whole) (Stats.Acc.variance merged);
  close "merged min" (Stats.Acc.min whole) (Stats.Acc.min merged);
  close "merged max" (Stats.Acc.max whole) (Stats.Acc.max merged)

let test_acc_merge_with_empty () =
  let a = Stats.Acc.create () and b = Stats.Acc.create () in
  Stats.Acc.add b 3.;
  Stats.Acc.add b 5.;
  let m1 = Stats.Acc.merge a b and m2 = Stats.Acc.merge b a in
  close "empty+b mean" 4. (Stats.Acc.mean m1);
  close "b+empty mean" 4. (Stats.Acc.mean m2)

let test_acc_merge_never_aliases () =
  (* Regression: merge used to return its first argument itself when the
     second was empty, so adding to the merge result mutated the input. *)
  let a = Stats.Acc.create () and empty = Stats.Acc.create () in
  Stats.Acc.add a 1.;
  Stats.Acc.add a 3.;
  let merged = Stats.Acc.merge a empty in
  Stats.Acc.add merged 100.;
  Alcotest.(check int) "a count untouched" 2 (Stats.Acc.count a);
  close "a mean untouched" 2. (Stats.Acc.mean a);
  close "a max untouched" 3. (Stats.Acc.max a);
  Alcotest.(check int) "merged took the add" 3 (Stats.Acc.count merged);
  (* and the symmetric branch *)
  let merged2 = Stats.Acc.merge empty a in
  Stats.Acc.add merged2 100.;
  Alcotest.(check int) "a count still untouched" 2 (Stats.Acc.count a)

let test_batch_mean_variance () =
  close "mean" 2. (Stats.mean [| 1.; 2.; 3. |]);
  close "variance" 1. (Stats.variance [| 1.; 2.; 3. |]);
  close "stddev" 1. (Stats.stddev [| 1.; 2.; 3. |]);
  check_bool "empty mean nan" true (Float.is_nan (Stats.mean [||]))

let test_median_quantiles () =
  close "odd median" 3. (Stats.median [| 5.; 1.; 3.; 2.; 4. |]);
  close "even median" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |]);
  close "q0" 1. (Stats.quantile [| 1.; 2.; 3.; 4. |] 0.);
  close "q1" 4. (Stats.quantile [| 1.; 2.; 3.; 4. |] 1.);
  close "q0.25 interp" 1.75 (Stats.quantile [| 1.; 2.; 3.; 4. |] 0.25)

let test_quantile_does_not_mutate () =
  let xs = [| 3.; 1.; 2. |] in
  ignore (Stats.median xs);
  Alcotest.(check (array (float 0.))) "unchanged" [| 3.; 1.; 2. |] xs

let test_fraction_where () =
  close "half" 0.5 (Stats.fraction_where (fun x -> x > 0) [| 1; -1; 2; -2 |]);
  check_bool "empty nan" true (Float.is_nan (Stats.fraction_where (fun _ -> true) [||]))

let test_linear_fit_exact () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (2.5 *. float_of_int i) +. 1.)) in
  let fit = Stats.linear_fit pts in
  close ~eps:1e-9 "slope" 2.5 fit.slope;
  close ~eps:1e-9 "intercept" 1.0 fit.intercept;
  close ~eps:1e-9 "r2" 1.0 fit.r2

let test_log_fit_exact () =
  (* y = 3 ln x + 2 *)
  let pts = Array.init 20 (fun i ->
      let x = float_of_int (i + 1) in
      (x, (3. *. log x) +. 2.))
  in
  let fit = Stats.log_fit pts in
  close ~eps:1e-9 "slope" 3.0 fit.slope;
  close ~eps:1e-9 "intercept" 2.0 fit.intercept

let test_fit_degenerate () =
  let fit = Stats.linear_fit [| (1., 1.) |] in
  check_bool "single point nan" true (Float.is_nan fit.slope);
  let fit2 = Stats.linear_fit [| (1., 1.); (1., 2.) |] in
  check_bool "vertical nan" true (Float.is_nan fit2.slope)

let test_pearson () =
  let pts = Array.init 50 (fun i -> (float_of_int i, float_of_int (2 * i))) in
  close ~eps:1e-9 "perfect correlation" 1.0 (Stats.pearson pts);
  let anti = Array.init 50 (fun i -> (float_of_int i, float_of_int (-i))) in
  close ~eps:1e-9 "perfect anticorrelation" (-1.0) (Stats.pearson anti)

let test_binomial_ci95 () =
  let lo, hi = Stats.binomial_ci95 ~successes:50 ~trials:100 in
  check_bool "contains p-hat" true (lo < 0.5 && hi > 0.5);
  check_bool "reasonable width" true (hi -. lo < 0.25);
  let lo0, hi0 = Stats.binomial_ci95 ~successes:0 ~trials:100 in
  check_bool "zero successes lo=0" true (lo0 >= 0. && lo0 < 1e-9);
  check_bool "zero successes hi small" true (hi0 < 0.08)

let test_chi_square_uniform () =
  close ~eps:1e-9 "exactly uniform" 0. (Stats.chi_square_uniform [| 10; 10; 10 |]);
  check_bool "skewed is large" true (Stats.chi_square_uniform [| 30; 0; 0 |] > 50.)

let qcheck_props =
  [
    QCheck.Test.make ~name:"acc mean within [min,max]" ~count:300
      QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.) 1000.))
      (fun xs ->
        let acc = Stats.Acc.create () in
        List.iter (Stats.Acc.add acc) xs;
        let m = Stats.Acc.mean acc in
        m >= Stats.Acc.min acc -. 1e-9 && m <= Stats.Acc.max acc +. 1e-9);
    QCheck.Test.make ~name:"variance non-negative" ~count:300
      QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-100.) 100.))
      (fun xs ->
        let acc = Stats.Acc.create () in
        List.iter (Stats.Acc.add acc) xs;
        Stats.Acc.variance acc >= -1e-9);
    QCheck.Test.make ~name:"quantile monotone in q" ~count:200
      QCheck.(list_of_size (Gen.int_range 2 30) (float_range (-100.) 100.))
      (fun xs ->
        let a = Array.of_list xs in
        Stats.quantile a 0.25 <= Stats.quantile a 0.75 +. 1e-9);
  ]

let suite =
  [
    ("acc basic", `Quick, test_acc_basic);
    ("acc empty", `Quick, test_acc_empty);
    ("acc single", `Quick, test_acc_single);
    ("acc merge", `Quick, test_acc_merge_matches_batch);
    ("acc merge empty", `Quick, test_acc_merge_with_empty);
    ("acc merge never aliases", `Quick, test_acc_merge_never_aliases);
    ("batch mean/variance", `Quick, test_batch_mean_variance);
    ("median/quantiles", `Quick, test_median_quantiles);
    ("quantile pure", `Quick, test_quantile_does_not_mutate);
    ("fraction where", `Quick, test_fraction_where);
    ("linear fit exact", `Quick, test_linear_fit_exact);
    ("log fit exact", `Quick, test_log_fit_exact);
    ("fit degenerate", `Quick, test_fit_degenerate);
    ("pearson", `Quick, test_pearson);
    ("binomial ci", `Quick, test_binomial_ci95);
    ("chi-square", `Quick, test_chi_square_uniform);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props

let test_ks_statistic () =
  (* Perfect uniform grid against the uniform CDF: tiny statistic. *)
  let n = 1000 in
  let xs = Array.init n (fun i -> (float_of_int i +. 0.5) /. float_of_int n) in
  let ks = Stats.ks_statistic xs (fun x -> Float.max 0. (Float.min 1. x)) in
  check_bool "grid vs uniform small" true (ks < 0.001);
  (* Exponential samples against the exponential CDF: below the 5% critical
     value 1.36/sqrt n. *)
  let rng = Churnet_util.Prng.create 77 in
  let lambda = 2.0 in
  let samples = Array.init 2000 (fun _ -> Churnet_util.Dist.exponential rng lambda) in
  let cdf x = 1. -. exp (-.lambda *. x) in
  let ks2 = Stats.ks_statistic samples cdf in
  check_bool "exponential sampler passes KS" true (ks2 < 1.36 /. sqrt 2000.);
  (* Wrong model is strongly rejected. *)
  let ks3 = Stats.ks_statistic samples (fun x -> Float.max 0. (Float.min 1. x)) in
  check_bool "wrong model rejected" true (ks3 > 0.1);
  check_bool "empty nan" true (Float.is_nan (Stats.ks_statistic [||] cdf))

let suite = suite @ [ ("KS statistic", `Quick, test_ks_statistic) ]
