module Prng = Churnet_util.Prng

(* The clock lives in its own all-float record, which OCaml stores flat:
   advancing it writes the float in place, where a [mutable float] field
   of [t] (a mixed record) would box a fresh float on every jump.
   [last_dt] is the latest jump's elapsed time, scratch rather than
   state: it lets [decide_birth] hand back a bool instead of a tuple. *)
type clock = { mutable time : float; mutable last_dt : float }

type t = {
  lambda : float;
  mu : float;
  rng : Prng.t;
  clock : clock;
  draw : float array; (* one-cell scratch for a jump's uniforms, see [decide_birth] *)
  mutable round : int;
  mutable births : int;
  mutable deaths : int;
}

type decision = Birth | Death

let create ~rng ?(lambda = 1.) ~n () =
  if n <= 0 then invalid_arg "Poisson_churn.create: n must be positive";
  if lambda <= 0. then invalid_arg "Poisson_churn.create: lambda must be positive";
  {
    lambda;
    mu = lambda /. float_of_int n;
    rng;
    clock = { time = 0.; last_dt = 0. };
    draw = [| 0. |];
    round = 0;
    births = 0;
    deaths = 0;
  }

let lambda t = t.lambda
let mu t = t.mu

(* The draws of [Dist.exponential t.rng total_rate] and
   [Prng.bernoulli t.rng (lambda /. total_rate)], written out over
   [t.draw] with the same operations in the same order, so every dt and
   every coin is bit-identical to theirs while no float crosses a module
   boundary boxed.  [total_rate] is positive because [lambda] is. *)
let decide_birth t ~alive =
  if alive < 0 then invalid_arg "Poisson_churn.decide: negative population";
  let total_rate = (float_of_int alive *. t.mu) +. t.lambda in
  Prng.unit_float_into t.rng t.draw 0;
  let dt = -.log (1. -. t.draw.(0)) /. total_rate in
  t.clock.time <- t.clock.time +. dt;
  t.clock.last_dt <- dt;
  t.round <- t.round + 1;
  (* At [alive = 0] the only event is a birth, and no coin is drawn. *)
  let birth =
    alive = 0
    || (Prng.unit_float_into t.rng t.draw 0;
        t.draw.(0) < t.lambda /. total_rate)
  in
  if birth then begin
    t.births <- t.births + 1;
    true
  end
  else begin
    t.deaths <- t.deaths + 1;
    false
  end

let decide t ~alive =
  let birth = decide_birth t ~alive in
  ((if birth then Birth else Death), t.clock.last_dt)

(* Bulk version of [decide].  The churn PRNG is independent of the graph
   PRNG (the model splits them at creation), so a whole run of jumps can
   be drawn here before any of them touches the graph: the draw sequence
   on [t.rng] is exactly the one the equivalent [decide] loop would
   produce, with the population tracked incrementally (+1 per birth, -1
   per death — a death is impossible at population 0 because the birth
   branch short-circuits without consuming a Bernoulli draw, just as in
   [decide]). *)
let decide_batch t ~alive ~deadline ~limit ~decisions ~dts =
  if alive < 0 then invalid_arg "Poisson_churn.decide_batch: negative population";
  let cap = min limit (min (Bytes.length decisions) (Array.length dts)) in
  let alive = ref alive in
  let count = ref 0 in
  let pending = ref None in
  let continue = ref (cap > 0) in
  while !continue do
    let birth = decide_birth t ~alive:!alive in
    let dt = t.clock.last_dt in
    (* [t.clock.time] here equals the caller's clock plus this jump's
       [dt] (both accumulate the same dts by the same additions in the
       same order), so this comparison is bitwise the one a
       [Poisson_model.step] loop makes against [next_jump_time]: a batch
       stops exactly where stepping one jump at a time would. *)
    if t.clock.time > deadline then begin
      (* lint: allow hot-path-alloc — the deadline-crossing jump, at most
         once per batch. *)
      pending := Some ((if birth then Birth else Death), dt);
      continue := false
    end
    else begin
      Bytes.set decisions !count (if birth then '\000' else '\001');
      dts.(!count) <- dt;
      alive := if birth then !alive + 1 else !alive - 1;
      incr count;
      if !count >= cap then continue := false
    end
  done;
  (* lint: allow hot-path-alloc — one result per batch, not per jump. *)
  (!count, !pending)

let time t = t.clock.time
let round t = t.round
let births t = t.births
let deaths t = t.deaths

module Codec = Churnet_util.Codec

let encode w t =
  Codec.f64 w t.lambda;
  Codec.f64 w t.mu;
  Prng.encode w t.rng;
  Codec.f64 w t.clock.time;
  Codec.varint w t.round;
  Codec.varint w t.births;
  Codec.varint w t.deaths

let decode r =
  let lambda = Codec.read_f64 r in
  let mu = Codec.read_f64 r in
  let rng = Prng.decode r in
  let time = Codec.read_f64 r in
  let round = Codec.read_varint r in
  let births = Codec.read_varint r in
  let deaths = Codec.read_varint r in
  if lambda <= 0. || mu <= 0. || round < 0 || births < 0 || deaths < 0 then
    raise (Codec.Error "Poisson_churn.decode: inconsistent fields");
  {
    lambda;
    mu;
    rng;
    clock = { time; last_dt = 0. };
    draw = [| 0. |];
    round;
    births;
    deaths;
  }
