(* hot-path-alloc, one violation per pattern, on a churn runner: a local
   function, stores that box a float and an int64, a tuple, a list
   append, a closure per loop iteration and a partial application.  The
   all-float clock record, the int field, the top-level helper and the
   tuple pattern are the allowed forms and must not fire. *)
type clock = { mutable time : float }

type t = {
  mutable round : int;
  mutable weight : float;
  mutable seed : int64;
  slots : int array;
  clock : clock;
}

let bump t = t.round <- t.round + 1

let step t =
  let rec spin k = if k > 0 then spin (k - 1) in
  spin t.round;
  bump t;
  t.clock.time <- t.clock.time +. 1.;
  t.weight <- t.weight +. 1.;
  t.seed <- Int64.succ t.seed;
  let lo, hi = (t.round, t.round + 1) in
  ignore ([ lo ] @ [ hi ]);
  for i = 0 to lo do
    Array.iter (fun x -> t.round <- t.round + x + i) t.slots
  done;
  ignore (Weights.scale 2)
