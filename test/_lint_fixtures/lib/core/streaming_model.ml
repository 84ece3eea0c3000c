(* hot-path-alloc: a local function and a store that boxes a float, on
   a churn runner.  The all-float clock record, the int field and the
   top-level helper are the allowed forms and must not fire. *)
type clock = { mutable time : float }
type t = { mutable round : int; mutable weight : float; clock : clock }

let bump t = t.round <- t.round + 1

let step t =
  let rec spin k = if k > 0 then spin (k - 1) in
  spin t.round;
  bump t;
  t.clock.time <- t.clock.time +. 1.;
  t.weight <- t.weight +. 1.
