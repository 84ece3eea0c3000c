module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable lo : float;
    mutable hi : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; lo = infinity; hi = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x

  let add_int t x = add t (float_of_int x)
  let count t = t.n
  let mean t = if t.n = 0 then nan else t.mean
  let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.lo
  let max t = t.hi

  let stderr_mean t =
    if t.n < 2 then nan else stddev t /. sqrt (float_of_int t.n)

  let ci95 t =
    let half = 1.96 *. stderr_mean t in
    (mean t -. half, mean t +. half)

  let copy t = { n = t.n; mean = t.mean; m2 = t.m2; lo = t.lo; hi = t.hi }

  (* Always a fresh record: returning [a] itself when [b] is empty would
     alias the mutable input, so a later [add] on the merge result would
     silently mutate [a]. *)
  let merge a b =
    if a.n = 0 then copy b
    else if b.n = 0 then copy a
    else begin
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.n /. float_of_int n) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.n *. float_of_int b.n /. float_of_int n)
      in
      { n; mean; m2; lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }
    end
end

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then nan
  else begin
    let m = mean xs in
    let s = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    s /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    if q <= 0. then sorted.(0)
    else if q >= 1. then sorted.(n - 1)
    else begin
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      let frac = pos -. float_of_int i in
      if i + 1 >= n then sorted.(n - 1)
      else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
    end
  end

let median xs = quantile xs 0.5

let fraction_where p xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let c = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 xs in
    float_of_int c /. float_of_int n
  end

type fit = { slope : float; intercept : float; r2 : float }

let linear_fit pts =
  let n = Array.length pts in
  if n < 2 then { slope = nan; intercept = nan; r2 = nan }
  else begin
    let fn = float_of_int n in
    let sx = ref 0. and sy = ref 0. and sxx = ref 0. and sxy = ref 0. in
    for i = 0 to n - 1 do
      let x, y = pts.(i) in
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      sxy := !sxy +. (x *. y)
    done;
    let denom = (fn *. !sxx) -. (!sx *. !sx) in
    if Float.abs denom < 1e-12 then { slope = nan; intercept = nan; r2 = nan }
    else begin
      let slope = ((fn *. !sxy) -. (!sx *. !sy)) /. denom in
      let intercept = (!sy -. (slope *. !sx)) /. fn in
      let ybar = !sy /. fn in
      let ss_tot = ref 0. and ss_res = ref 0. in
      for i = 0 to n - 1 do
        let x, y = pts.(i) in
        let pred = (slope *. x) +. intercept in
        ss_tot := !ss_tot +. ((y -. ybar) *. (y -. ybar));
        ss_res := !ss_res +. ((y -. pred) *. (y -. pred))
      done;
      let r2 = if !ss_tot <= 0. then 1. else 1. -. (!ss_res /. !ss_tot) in
      { slope; intercept; r2 }
    end
  end

let log_fit pts =
  let mapped = Array.map (fun (x, y) -> (log x, y)) pts in
  linear_fit mapped

let pearson pts =
  let n = Array.length pts in
  if n < 2 then nan
  else begin
    let xs = Array.map fst pts and ys = Array.map snd pts in
    let mx = mean xs and my = mean ys in
    let num = ref 0. and dx = ref 0. and dy = ref 0. in
    for i = 0 to n - 1 do
      let x, y = pts.(i) in
      num := !num +. ((x -. mx) *. (y -. my));
      dx := !dx +. ((x -. mx) *. (x -. mx));
      dy := !dy +. ((y -. my) *. (y -. my))
    done;
    if !dx <= 0. || !dy <= 0. then nan else !num /. sqrt (!dx *. !dy)
  end

let binomial_ci95 ~successes ~trials =
  if trials = 0 then (nan, nan)
  else begin
    let z = 1.96 in
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let center = (p +. (z2 /. (2. *. n))) /. denom in
    let half = z *. sqrt (((p *. (1. -. p)) +. (z2 /. (4. *. n))) /. n) /. denom in
    (Float.max 0. (center -. half), Float.min 1. (center +. half))
  end

let chi_square_uniform counts =
  let k = Array.length counts in
  let total = Array.fold_left ( + ) 0 counts in
  if k = 0 || total = 0 then nan
  else begin
    let expected = float_of_int total /. float_of_int k in
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. counts
  end

let ks_statistic xs cdf =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let fn = float_of_int n in
    let worst = ref 0. in
    for i = 0 to n - 1 do
      let f = cdf sorted.(i) in
      let lo = float_of_int i /. fn and hi = float_of_int (i + 1) /. fn in
      worst := Float.max !worst (Float.max (Float.abs (f -. lo)) (Float.abs (hi -. f)))
    done;
    !worst
  end
