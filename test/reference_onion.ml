(* The onion-skin engine as it stood before it kept only old-class
   targets: every request of the source and of each young node is stored
   in one flat (young_last+1)*d array, and the phase loop skips the
   non-old and dead (-1) entries.  Kept verbatim as the oracle for the
   differential test in test_core_analysis.ml, which requires the
   library engine to give the same result and to leave the caller's
   generator in the same state. *)

module Onion = Churnet_core.Onion
module Prng = Churnet_util.Prng
module Bitset = Churnet_util.Bitset

(* One engine runs both onion-skin processes.  They differ only in the
   class bounds, the success target, where requests land and whether a
   node reached for the first time flips a death coin:

                young      old               target  coin
     streaming  1..n/2-1   n/2..n-ceil(ln n)  n/d     none
     Poisson    1..n/2     n/2+1..n           n/20    ln n / n

   Streaming nodes are named by age at t0.  The node of age a (the
   source has age 0) drew each request uniformly over the n-1 nodes
   alive at its birth, now of ages a+1 .. a+n-1; a target of age >= n
   has died by t0 and is recorded as -1.  Poisson nodes are named by
   rank 1..n, youngest first, and each request is uniform over the other
   ranks.

   Every request is drawn up front (deferred decisions made concrete):
   the source's d, then each young node's d in ascending order.  The
   streaming phase loop is therefore deterministic; the Poisson loop
   also draws the death coins, in first-contact order.  [prev_set] is
   per-phase staging, cleared before use. *)
type state = {
  n : int;
  d : int;
  young_last : int;
  old_lo : int;
  old_hi : int;
  target : int;
  coin : (Prng.t * float) option; (* the death coin's rng and ln n / n *)
  requests : int array; (* row a at a*d: the source (a = 0), then young a *)
  cls : int array; (* 0 = untouched, -1 = died on contact, k > 0 = joined at phase k *)
  mutable y_layers : int list; (* head = latest phase *)
  mutable o_layers : int list;
  mutable prev_o_layer : int list;
  mutable total_y : int;
  mutable total_o : int;
  mutable phase : int;
  mutable running : bool;
  prev_set : Bitset.t;
}

let logn_of n = int_of_float (Float.ceil (log (float_of_int n)))

let make ~n ~d ~young_last ~old_lo ~old_hi ~target ~coin =
  { n; d; young_last; old_lo; old_hi; target; coin;
    requests = Array.make ((young_last + 1) * d) 0; cls = Array.make (n + 1) 0;
    y_layers = []; o_layers = []; prev_o_layer = []; total_y = 0; total_o = 0;
    phase = 0; running = true; prev_set = Bitset.create (n + 1) }

(* First contact with an untouched node: it joins at phase [k] unless
   the death coin kills it. *)
let reach st t k =
  match st.coin with
  | Some (rng, p_die) when Prng.bernoulli rng p_die ->
      st.cls.(t) <- -1;
      false
  | _ ->
      st.cls.(t) <- k;
      true

(* Old nodes first reached through requests [lo .. hi], prepended to
   [acc]. *)
let reach_old st k lo hi acc =
  let acc = ref acc in
  for i = lo to hi do
    let t = st.requests.(i) in
    if t >= st.old_lo && t <= st.old_hi && st.cls.(t) = 0 && reach st t k then acc := t :: !acc
  done;
  !acc

let add_old_layer st layer =
  let size = List.length layer in
  st.o_layers <- size :: st.o_layers;
  st.total_o <- st.total_o + size;
  st.prev_o_layer <- layer;
  size

(* Draw every request, then phase 0: the old nodes the source's d
   requests reach form O_0, marked as phase 1. *)
let begin_state st sample =
  for i = 0 to Array.length st.requests - 1 do
    st.requests.(i) <- sample (i / st.d)
  done;
  st.running <- add_old_layer st (reach_old st 1 0 (st.d - 1) []) > 0;
  st

let validate name ~n ~d =
  if d < 2 || d mod 2 <> 0 then invalid_arg (name ^ ": d must be even and >= 2");
  if n < 16 then invalid_arg (name ^ ": n too small")

let start_streaming ~rng ~n ~d =
  validate "Onion.run" ~n ~d;
  begin_state
    (make ~n ~d ~young_last:((n / 2) - 1) ~old_lo:(n / 2) ~old_hi:(n - logn_of n)
       ~target:(max 1 (n / d)) ~coin:None)
    (fun a ->
      let t = a + 1 + Prng.int rng (n - 1) in
      if t >= n then -1 else t)

let start_poisson ~rng ~n ~d =
  validate "Onion.run_poisson" ~n ~d;
  let fn = float_of_int n and half = n / 2 in
  let rec other a =
    let t = 1 + Prng.int rng n in
    if t = a then other a else t
  in
  begin_state
    (make ~n ~d ~young_last:half ~old_lo:(half + 1) ~old_hi:n ~target:(max 1 (n / 20))
       ~coin:(Some (rng, log fn /. fn)))
    other

(* Some request in [i .. last] lands in the previous old layer. *)
let rec hits st i last =
  i <= last
  && ((st.requests.(i) >= 0 && Bitset.mem st.prev_set st.requests.(i)) || hits st (i + 1) last)

let next_phase st =
  let d = st.d in
  st.phase <- st.phase + 1;
  let k = st.phase in
  (* Step 1: untouched young nodes whose type-B request (indices
     d/2 .. d-1) hits the previous old layer. *)
  Bitset.clear st.prev_set;
  List.iter (Bitset.add st.prev_set) st.prev_o_layer;
  let new_young = ref [] in
  for a = 1 to st.young_last do
    if st.cls.(a) = 0 && hits st ((a * d) + (d / 2)) ((a * d) + d - 1) && reach st a k then
      new_young := a :: !new_young
  done;
  let ny = List.length !new_young in
  st.y_layers <- ny :: st.y_layers;
  st.total_y <- st.total_y + ny;
  (* Step 2: old nodes hit by a type-A request (indices 0 .. d/2-1) of
     the newly informed young nodes. *)
  let no =
    add_old_layer st
      (List.fold_left
         (fun acc a -> reach_old st k (a * d) ((a * d) + (d / 2) - 1) acc)
         [] !new_young)
  in
  (* Stop when layers die out, the target is met, or we are clearly in
     the saturation regime. *)
  if
    ny = 0 || no = 0
    || (st.total_y >= st.target && st.total_o >= st.target)
    || st.phase > (4 * logn_of st.n) + 8
  then st.running <- false

let finish_state st =
  let o = Array.of_list (List.rev st.o_layers) in
  let y = Array.of_list (List.rev st.y_layers) in
  (* Layers in temporal order: O_0, Y_1, O_1, Y_2, ..., O_phase. *)
  let layer i = float_of_int (if i land 1 = 0 then o.(i / 2) else y.(i / 2)) in
  {
    Onion.phases = st.phase;
    y_layer_sizes = y;
    o_layer_sizes = o;
    total_young = st.total_y;
    total_old = st.total_o;
    reached_target = st.total_y >= st.target && st.total_o >= st.target;
    growth_factors =
      Array.init (2 * Array.length y) (fun i ->
          if layer i > 0. then layer (i + 1) /. layer i else nan);
  }

let run_state st =
  while st.running do
    next_phase st
  done;
  finish_state st

let run ~rng ~n ~d () = run_state (start_streaming ~rng ~n ~d)
let run_poisson ~rng ~n ~d () = run_state (start_poisson ~rng ~n ~d)
