module Prng = Churnet_util.Prng
module Bitset = Churnet_util.Bitset

type result = {
  phases : int;
  y_layer_sizes : int array;
  o_layer_sizes : int array;
  total_young : int;
  total_old : int;
  reached_target : bool;
  growth_factors : float array;
}

(* One engine runs both onion-skin processes.  They differ only in the
   class bounds, the success target, where requests land and whether a
   node reached for the first time flips a death coin:

                young      old               target  coin
     streaming  1..n/2-1   n/2..n-ceil(ln n)  n/d     none
     Poisson    1..n/2     n/2+1..n           n/20    ln n / n

   Streaming nodes are named by age at t0.  The node of age a (the
   source has age 0) drew each request uniformly over the n-1 nodes
   alive at its birth, now of ages a+1 .. a+n-1; a target of age >= n
   has died by t0 and is never old.  Poisson nodes are named by
   rank 1..n, youngest first, and each request is uniform over the other
   ranks.

   Every request is drawn up front (deferred decisions made concrete):
   the source's d, then each young node's d in ascending order.  Only a
   request that lands in the old class is ever read, so only those
   targets are kept: [targets] holds them row by row, row 0 the
   source's, 32 bits each.  The streaming phase loop is therefore
   deterministic; the Poisson loop also draws the death coins, in
   first-contact order.
   A phase's new young layer goes to [young] and the old layer it
   reaches to [old]; [prev_set] holds the previous old layer.

   A row's requests are drawn in one run ([Prng.fill_int]) into
   [draws], then filtered in draw order.

   Every buffer comes from a [scratch] that a caller may share between
   runs (Parallel.replicate_with gives one per worker), so a trial
   allocates only its layer-size lists and its result.  Each run sizes
   the buffers by need (none ever shrinks) and resets only what it
   reads: [off] is rewritten in full, [cls] is zeroed over its first
   n + 1 cells, [prev_set] is cleared every phase, and [targets],
   [draws], [young] and [old] are read only where this run wrote them.
   So a run on a used scratch reads exactly what a run on a fresh one
   does. *)
type scratch = {
  mutable targets : Bytes.t;
  mutable draws : int array;
  mutable off : int array;
  mutable cls : int array;
  mutable young : int array;
  mutable old : int array;
  prev_set : Bitset.t;
}

let scratch () =
  { targets = Bytes.empty; draws = [||]; off = [||]; cls = [||]; young = [||]; old = [||];
    prev_set = Bitset.create 0 }

type state = {
  n : int;
  young_last : int;
  target : int;
  coin : (Prng.t * float) option; (* the death coin's rng and ln n / n *)
  targets : Bytes.t; (* the old-class targets, in draw order, 32 bits each *)
  off : int array;
      (* row a's type-A targets at [off.(2a), off.(2a+1)), its type-B
         targets at [off.(2a+1), off.(2a+2)); the source's are all A *)
  cls : int array; (* 0 = untouched, -1 = died on contact, k > 0 = joined at phase k *)
  young : int array; (* the phase's new young layer, ascending *)
  old : int array; (* the latest old layer at [0, old_len) *)
  mutable old_len : int;
  mutable y_layers : int list; (* head = latest phase *)
  mutable o_layers : int list;
  mutable total_y : int;
  mutable total_o : int;
  mutable phase : int;
  mutable running : bool;
  prev_set : Bitset.t;
}

(* Targets are node names below n, so 32 bits hold them, and [targets],
   by far the largest buffer, takes half the words an int array would.
   The primitives read and write in native byte order, unboxed. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let target st i = Int32.to_int (get32 st.targets (4 * i))

let logn_of n = int_of_float (Float.ceil (log (float_of_int n)))

(* The [k] next requests of node [a], in draw order, into [sc.draws]:
   [k] successive [Prng.int] draws made in one [Prng.fill_int].
   Streaming: the draw [v] names the node of age [a + 1 + v].  Poisson:
   it names rank [1 + v], and a draw naming [a] itself is redrawn; the
   self-hits are dropped in order and only the requests still missing
   are drawn again, each of which takes at least one more draw, so the
   stream is the one-at-a-time one.  Nothing else draws from [rng]
   between them: the Poisson death coins come after every request. *)
let requests (sc : scratch) rng ~poisson ~n a k =
  let buf = sc.draws in
  if not poisson then begin
    Prng.fill_int rng (n - 1) buf 0 k;
    for i = 0 to k - 1 do
      buf.(i) <- a + 1 + buf.(i)
    done
  end
  else begin
    let got = ref 0 in
    while !got < k do
      Prng.fill_int rng n buf !got (k - !got);
      let w = ref !got in
      for i = !got to k - 1 do
        let t = 1 + buf.(i) in
        if t <> a then begin
          buf.(!w) <- t;
          incr w
        end
      done;
      got := !w
    done
  end

(* Draw the source's d requests, then each young node's d/2 type-A and
   d/2 type-B requests, rows ascending, keeping the targets in
   [old_lo .. old_hi].  Every request is uniform over n - 1 nodes, so
   [targets] holds at least the expected old count plus four standard
   deviations and doubles only on overflow. *)
let draw (sc : scratch) ~n ~d ~young_last ~old_lo ~old_hi ~rng ~poisson =
  let expected =
    float_of_int ((young_last + 1) * d * (old_hi - old_lo + 1)) /. float_of_int (n - 1)
  in
  let need = int_of_float (expected +. (4. *. sqrt expected)) + d in
  if Bytes.length sc.targets < 4 * need then sc.targets <- Bytes.create (4 * need);
  if Array.length sc.off < (2 * young_last) + 3 then sc.off <- Array.make ((2 * young_last) + 3) 0;
  if Array.length sc.draws < d then sc.draws <- Array.make d 0;
  let off = sc.off in
  let len = ref 0 in
  let keep a k =
    requests sc rng ~poisson ~n a k;
    for i = 0 to k - 1 do
      let t = sc.draws.(i) in
      if t >= old_lo && t <= old_hi then begin
        if 4 * !len = Bytes.length sc.targets then sc.targets <- Bytes.cat sc.targets sc.targets;
        set32 sc.targets (4 * !len) (Int32.of_int t);
        incr len
      end
    done
  in
  off.(0) <- 0;
  keep 0 d;
  off.(1) <- !len;
  off.(2) <- !len;
  for a = 1 to young_last do
    keep a (d / 2);
    off.((2 * a) + 1) <- !len;
    keep a (d / 2);
    off.((2 * a) + 2) <- !len
  done

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

(* Old nodes first reached through targets [lo, hi), appended to the
   old layer. *)
let reach_old st k lo hi =
  for i = lo to hi - 1 do
    let t = target st i in
    if st.cls.(t) = 0 && reach st t k then begin
      st.old.(st.old_len) <- t;
      st.old_len <- st.old_len + 1
    end
  done

let add_old_layer st =
  let size = st.old_len in
  st.o_layers <- size :: st.o_layers;
  st.total_o <- st.total_o + size;
  size

(* Draw every request, then phase 0: the old nodes the source's
   requests reach form O_0, marked as phase 1. *)
let start (sc : scratch) ~n ~d ~young_last ~old_lo ~old_hi ~target ~coin ~rng ~poisson =
  draw sc ~n ~d ~young_last ~old_lo ~old_hi ~rng ~poisson;
  if Array.length sc.cls < n + 1 then sc.cls <- Array.make (n + 1) 0
  else Array.fill sc.cls 0 (n + 1) 0;
  if Array.length sc.young < young_last + 1 then sc.young <- Array.make (young_last + 1) 0;
  if Array.length sc.old < n + 1 then sc.old <- Array.make (n + 1) 0;
  Bitset.ensure_capacity sc.prev_set (n + 1);
  let st =
    { n; young_last; target; coin; targets = sc.targets; off = sc.off; cls = sc.cls;
      young = sc.young; old = sc.old; old_len = 0; y_layers = []; o_layers = [];
      total_y = 0; total_o = 0; phase = 0; running = true; prev_set = sc.prev_set }
  in
  reach_old st 1 0 sc.off.(1);
  st.running <- add_old_layer st > 0;
  st

let validate name ~n ~d =
  if d < 2 || d mod 2 <> 0 then invalid_arg (name ^ ": d must be even and >= 2");
  if n < 16 then invalid_arg (name ^ ": n too small")

let start_streaming sc ~rng ~n ~d =
  validate "Onion.run" ~n ~d;
  start sc ~n ~d ~young_last:((n / 2) - 1) ~old_lo:(n / 2) ~old_hi:(n - logn_of n)
    ~target:(max 1 (n / d)) ~coin:None ~rng ~poisson:false

let start_poisson sc ~rng ~n ~d =
  validate "Onion.run_poisson" ~n ~d;
  let fn = float_of_int n and half = n / 2 in
  start sc ~n ~d ~young_last:half ~old_lo:(half + 1) ~old_hi:n ~target:(max 1 (n / 20))
    ~coin:(Some (rng, log fn /. fn)) ~rng ~poisson:true

(* Some target in [i, hi) is in the previous old layer. *)
let rec hits st i hi = i < hi && (Bitset.mem st.prev_set (target st i) || hits st (i + 1) hi)

let next_phase st =
  let off = st.off in
  st.phase <- st.phase + 1;
  let k = st.phase in
  (* Step 1: untouched young nodes, in ascending order, whose type-B
     request hits the previous old layer. *)
  Bitset.clear st.prev_set;
  for i = 0 to st.old_len - 1 do
    Bitset.add st.prev_set st.old.(i)
  done;
  let ny = ref 0 in
  for a = 1 to st.young_last do
    if st.cls.(a) = 0 && hits st off.((2 * a) + 1) off.((2 * a) + 2) && reach st a k then begin
      st.young.(!ny) <- a;
      incr ny
    end
  done;
  let ny = !ny in
  st.y_layers <- ny :: st.y_layers;
  st.total_y <- st.total_y + ny;
  (* Step 2: old nodes hit by a type-A request of the newly informed
     young nodes, taken in descending order. *)
  st.old_len <- 0;
  for j = ny - 1 downto 0 do
    let a = st.young.(j) in
    reach_old st k off.(2 * a) off.((2 * a) + 1)
  done;
  let no = add_old_layer st in
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
    phases = st.phase;
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

let run ?(scratch = scratch ()) ~rng ~n ~d () =
  run_state (start_streaming scratch ~rng ~n ~d)

let run_poisson ?(scratch = scratch ()) ~rng ~n ~d () =
  run_state (start_poisson scratch ~rng ~n ~d)
